"""Theory-layer tests: observables, compatibility, complementarity,
surjectivity and channel solving."""

from fractions import Fraction as F
import math
import random

import pytest

from helpers import random_fraction, random_polygon, random_theory
from reference_kernels import surjectivity_details as lp_surjectivity_details
from reference_kernels import per_column_affine_map, unconstrained_witness, vertex_image_channel
from wignerlab import catalog, cli, exact, programs, symmetry
from wignerlab._kernels import integer_rows
from wignerlab.errors import (
    ContainmentError, DomainError, PairError, PreconditionError, UnsupportedGeometryError,
)
from wignerlab.exact import Feasible, solve_affine, verify_certificate
from wignerlab.geometry import (
    AffineFunctional,
    AffineMap,
    Ball,
    Polytope,
    affine_basis,
    basis_interpolation,
    interpolant,
    map_into,
)
from wignerlab.theory import (
    Channel,
    ChannelInfeasible,
    Compatible,
    Incompatible,
    Observable,
    Theory,
    _fixed_map,
    are_compatible,
    are_complementary,
    find_channel,
    is_surjective,
    jointly_info_complete,
    measure,
    surjectivity_details,
    validate,
    validate_observable,
)

ONE2 = AffineFunctional.one(2)
SQUARE = Polytope([(0, 0), (0, 1), (1, 0), (1, 1)])
FX = AffineFunctional((1, 0), 0)
FY = AffineFunctional((0, 1), 0)
OBS_A = Observable("A", (0, 1), (FX, ONE2 - FX))
OBS_B = Observable("B", (0, 1), (FY, ONE2 - FY))
OBS_C = Observable("C", (0, 1), (FX.scale(F(1, 2)), ONE2 - FX.scale(F(1, 2))))
OBS_D = Observable("D", (0, 1), (FY.scale(F(1, 2)), ONE2 - FY.scale(F(1, 2))))


def _xz_pair():
    fz = AffineFunctional((0, F(1, 2)), F(1, 2))
    fx = AffineFunctional((F(1, 2), 0), F(1, 2))
    return (
        Observable("A", (0, 1), (fz, ONE2 - fz)),
        Observable("B", (0, 1), (fx, ONE2 - fx)),
    )


def test_validate_boxworld_ok():
    assert validate(Theory(SQUARE, (OBS_A, OBS_B, OBS_C, OBS_D))) == []


def test_a_theory_without_a_valid_pair_raises_a_pair_error():
    """One observable leaves the pair unset, which ``validate`` does not
    need; a pair must name two of the theory's observables."""
    single = Theory(SQUARE, (OBS_A,))
    assert single.pair is None and validate(single) == []
    for read in (lambda t: t.obs_a, lambda t: t.obs_b):
        with pytest.raises(PairError, match="pair needs two observables, the theory has 1"):
            read(single)
    for pair in (("A", "Z"), ("A",), ("A", "B", "C")):
        with pytest.raises(PairError, match=r"pair \[.*\] does not name two of the observables"):
            Theory(SQUARE, (OBS_A, OBS_B, OBS_C), pair=pair)
    assert Theory(SQUARE, (OBS_A, OBS_B, OBS_C), pair=("C", "A")).obs_a is OBS_C


def test_validate_range_violation_with_witness():
    bad = Observable("bad", (0, 1), (FX.scale(2), ONE2 - FX.scale(2)))
    violations = validate_observable(bad, SQUARE)
    kinds = {v.kind for v in violations}
    assert "range" in kinds
    top = next(v for v in violations if v.kind == "range" and v.value == 2)
    assert FX.scale(2)(top.witness) == 2
    # ties go to the first vertex; balls carry no vertex witness
    f = FX.scale(2).shift(F(-1, 2))
    tied = Observable("tied", (0, 1), (f, ONE2 - f))
    assert [(v.message, v.witness) for v in validate_observable(tied, SQUARE)] == [
        ("effect for outcome 0 goes below 0 (min -1/2)", (0, 0)),
        ("effect for outcome 0 goes above 1 (max 3/2)", (1, 0)),
        ("effect for outcome 1 goes below 0 (min -1/2)", (1, 0)),
        ("effect for outcome 1 goes above 1 (max 3/2)", (0, 0)),
    ]
    assert [v.witness for v in validate_observable(bad, Ball((0, 0), 1))] == [None] * 4


def test_validate_names_effects_of_the_wrong_dimension():
    """Effects on R^3 over the square (or the disk): one ``dimension``
    violation per effect, and no range check, although 2x leaves [0, 1];
    the effects still sum to the unit effect."""
    f = AffineFunctional((2, 0, 0), 0)
    wide = Observable("wide", (0, 1), (f, AffineFunctional.one(3) - f))
    for space in (SQUARE, Ball((0, 0), 1)):
        assert [(v.kind, v.message) for v in validate_observable(wide, space)] == [
            ("dimension", f"effect for outcome {k} has dimension 3, space has 2")
            for k in (0, 1)
        ]


def test_validate_normalization():
    # (f, 1 - f) always normalizes; breaking the second effect is caught
    broken = Observable("n", (0, 1), (FX, ONE2 - FX.scale(2)))
    kinds = {v.kind for v in validate_observable(broken, SQUARE)}
    assert "normalization" in kinds


def test_measure_values_and_domain():
    assert measure(OBS_A, (1, 0), SQUARE).values == (F(1), F(0))
    assert measure(OBS_A, (F(1, 2), F(1, 2)), SQUARE).values == (F(1, 2), F(1, 2))
    with pytest.raises(DomainError):
        measure(OBS_A, (2, 2), SQUARE)


def test_measure_is_affine_random():
    rng = random.Random(17)
    for _ in range(60):
        theory = random_theory(rng)
        obs = theory.obs_a
        verts = theory.state_space.vertices
        u = verts[rng.randrange(len(verts))]
        v = verts[rng.randrange(len(verts))]
        lam = F(rng.randint(0, 6), 6)
        mix = tuple(lam * a + (1 - lam) * b for a, b in zip(u, v))
        mixed = measure(obs, mix, theory.state_space).values
        combo = tuple(
            lam * a + (1 - lam) * b
            for a, b in zip(
                measure(obs, u, theory.state_space).values,
                measure(obs, v, theory.state_space).values,
            )
        )
        assert mixed == combo


def test_compatibility_boxworld():
    assert isinstance(are_compatible(OBS_A, OBS_B, SQUARE), Incompatible)
    result = are_compatible(OBS_C, OBS_D, SQUARE)
    assert isinstance(result, Compatible)
    # the joint grid reproduces both marginals at every vertex
    for v in SQUARE.vertices:
        row_sums = [sum(f(v) for f in row) for row in result.joint]
        col_sums = [
            sum(result.joint[a][b](v) for a in range(2)) for b in range(2)
        ]
        assert row_sums == list(measure(OBS_C, v, SQUARE).values)
        assert col_sums == list(measure(OBS_D, v, SQUARE).values)
        assert all(f(v) >= 0 for row in result.joint for f in row)


def test_self_compatibility():
    assert isinstance(are_compatible(OBS_A, OBS_A, SQUARE), Compatible)


def test_compatibility_rejects_ball():
    a, b = _xz_pair()
    with pytest.raises(UnsupportedGeometryError):
        are_compatible(a, b, Ball((0, 0), 1))


def test_info_completeness():
    assert jointly_info_complete(OBS_A, OBS_B, SQUARE)
    assert not jointly_info_complete(OBS_A, OBS_A, SQUARE)
    a, b = _xz_pair()
    assert jointly_info_complete(a, b, Ball((0, 0), 1))
    fz3 = AffineFunctional((0, 0, F(1, 2)), F(1, 2))
    fx3 = AffineFunctional((F(1, 2), 0, 0), F(1, 2))
    one3 = AffineFunctional.one(3)
    a3 = Observable("A", (0, 1), (fz3, one3 - fz3))
    b3 = Observable("B", (0, 1), (fx3, one3 - fx3))
    assert not jointly_info_complete(a3, b3, Ball((0, 0, 0), 1))


def test_info_complete_iff_statistics_injective_random():
    """Both directions: complete pairs never collide on sampled states,
    and incomplete pairs admit an explicitly constructed collision."""
    from wignerlab.exact import solve_affine, vec_sub
    from wignerlab.geometry import contains

    rng = random.Random(29)
    incomplete_seen = 0
    for case in range(60):
        theory = random_theory(rng, max_points=4)
        space = theory.state_space
        a, b = theory.obs_a, theory.obs_b
        if case % 3 == 0:
            # duplicated observable: the span cannot reach dim(K) + 1 on a
            # polygon, exercising the incomplete branch
            b = Observable("B", a.outcomes, a.effects)
        ic = jointly_info_complete(a, b, space)
        verts = space.vertices
        if ic:
            pts = list(verts)
            for _ in range(4):
                i, j = rng.randrange(len(verts)), rng.randrange(len(verts))
                lam = F(rng.randint(0, 4), 4)
                pts.append(
                    tuple(lam * x + (1 - lam) * y for x, y in zip(verts[i], verts[j]))
                )
            for i in range(len(pts)):
                for j in range(i + 1, len(pts)):
                    if pts[i] == pts[j]:
                        continue
                    assert not (
                        measure(a, pts[i], space).values
                        == measure(a, pts[j], space).values
                        and measure(b, pts[i], space).values
                        == measure(b, pts[j], space).values
                    )
            continue
        # incomplete: build a hull direction killed by every effect, then
        # split the centroid along it into two equal-statistics states
        if len(verts) < 2:
            continue
        incomplete_seen += 1
        dirs = [vec_sub(v, verts[0]) for v in verts[1:]]
        rows = [
            [sum(f.linear[k] * d[k] for k in range(2)) for d in dirs]
            for f in a.effects + b.effects
        ]
        sol = solve_affine(rows, [F(0)] * len(rows))
        witness_dir = next(
            (
                tuple(
                    sum(t * d[k] for t, d in zip(coeffs, dirs)) for k in range(2)
                )
                for coeffs in sol.nullspace
                if any(
                    sum(t * d[k] for t, d in zip(coeffs, dirs)) != 0
                    for k in range(2)
                )
            ),
            None,
        )
        assert witness_dir is not None
        centroid = tuple(
            sum(v[k] for v in verts) / len(verts) for k in range(2)
        )
        eps = F(1, 2)
        for _ in range(40):
            x = tuple(c + eps * d for c, d in zip(centroid, witness_dir))
            y = tuple(c - eps * d for c, d in zip(centroid, witness_dir))
            if contains(space, x) and contains(space, y):
                break
            eps /= 2
        else:
            raise AssertionError("could not fit the collision inside K")
        assert x != y
        assert measure(a, x, space).values == measure(a, y, space).values
        assert measure(b, x, space).values == measure(b, y, space).values
    assert incomplete_seen > 0


def test_complementarity():
    a, b = _xz_pair()
    assert are_complementary(a, b, Ball((0, 0), 1))
    assert not are_complementary(OBS_A, OBS_B, SQUARE)
    diamond = Polytope([(1, 0), (-1, 0), (0, 1), (0, -1)])
    assert are_complementary(a, b, diamond)


def test_complementarity_degenerate_ball_face_rejected():
    # a constant-one effect makes the whole ball the sharp set
    disk = Ball((0, 0), 1)
    unit = Observable("U", ("*",), (ONE2,))
    other, _ = _xz_pair()
    with pytest.raises(UnsupportedGeometryError, match="degenerate face"):
        are_complementary(unit, other, disk)
    # constant effects below one never reach a face and are fine
    half = AffineFunctional.const(2, F(1, 2))
    coin = Observable("coin", (0, 1), (half, ONE2 - half))
    assert are_complementary(coin, other, disk)


def test_complementarity_bloch3():
    fz3 = AffineFunctional((0, 0, F(1, 2)), F(1, 2))
    fx3 = AffineFunctional((F(1, 2), 0, 0), F(1, 2))
    one3 = AffineFunctional.one(3)
    a3 = Observable("A", (0, 1), (fz3, one3 - fz3))
    b3 = Observable("B", (0, 1), (fx3, one3 - fx3))
    assert are_complementary(a3, b3, Ball((0, 0, 0), 1))


def test_surjectivity():
    assert is_surjective(OBS_A, SQUARE)
    assert not is_surjective(OBS_C, SQUARE)
    single = Observable("S", ("*",), (ONE2,))
    assert is_surjective(single, SQUARE)
    a, b = _xz_pair()
    assert is_surjective(a, Ball((0, 0), 1))
    noisy = Observable(
        "N", (0, 1),
        (AffineFunctional((0, F(1, 4)), F(1, 2)),
         ONE2 - AffineFunctional((0, F(1, 4)), F(1, 2))),
    )
    assert not is_surjective(noisy, Ball((0, 0), 1))


def test_surjectivity_agrees_with_vertex_image_hull_random():
    rng = random.Random(31)
    for _ in range(60):
        theory = random_theory(rng, max_points=4, outcome_choices=(2, 3))
        space = theory.state_space
        obs = theory.obs_a
        got = is_surjective(obs, space)
        # brute force: delta_a lies in the hull of the vertex statistics
        from wignerlab.geometry import Polytope as P

        images = [tuple(measure(obs, v, space).values) for v in space.vertices]
        hull = P.hull_of(images)
        from wignerlab.geometry import contains as hull_contains

        brute = all(
            hull_contains(
                hull,
                tuple(F(1) if k == i else F(0) for k in range(obs.n_outcomes)),
            )
            for i in range(obs.n_outcomes)
        )
        assert got == brute


def _surjectivity_cases():
    """Seeded random polytopes in dimensions 1-3, each with one observable
    whose effects take vertex values in [0, 1] (max 1, max below 1, or
    constant) and one whose values are unconstrained."""
    rng = random.Random(47)
    cases = []
    for k in range(120):
        dim = (1, 2, 2, 3)[k % 4]
        points = [tuple(random_fraction(rng) for _ in range(dim))
                  for _ in range(rng.randint(1, 7))]
        space = Polytope.hull_of(points)
        inside, outside = [], []
        for _ in range(rng.randint(1, 3)):
            f = AffineFunctional(tuple(random_fraction(rng, -2, 2) for _ in range(dim)),
                                 random_fraction(rng))
            values = [f(v) for v in space.vertices]
            lo, hi = min(values), max(values)
            top = rng.choice([F(1), F(rng.randint(0, 7), 8)])
            bottom = rng.choice([F(0), top * F(rng.randint(0, 4), 4)])
            if lo == hi or rng.random() < 0.1:
                inside.append(AffineFunctional.const(dim, top))
            else:
                c = (top - bottom) / (hi - lo)
                inside.append(AffineFunctional(tuple(c * x for x in f.linear),
                                               c * (f.constant - lo) + bottom))
            shift = rng.choice([F(0), random_fraction(rng, -2, 2), F(1)])
            outside.append(AffineFunctional(f.linear, f.constant + shift))
        for name, effects in (("in", inside), ("out", outside)):
            obs = Observable(name, tuple(range(len(effects))), tuple(effects))
            cases.append((obs, space))
    return cases


def test_surjectivity_closed_forms_match_the_lp(monkeypatch):
    """Vertex values in [0, 1]: the same programs, witnesses and
    certificates as the simplex.  Outside: the same programs and verdicts,
    and answers that pass the guards.  Neither ``surjectivity_details``
    nor ``is_surjective`` reaches the simplex."""
    cases = [(obs, space, lp_surjectivity_details(obs, space))
             for obs, space in _surjectivity_cases()]
    monkeypatch.setattr(exact, "_phase_one", lambda lp: pytest.fail("LP solved"))
    kinds = set()
    for obs, space, expected in cases:
        got = surjectivity_details(obs, space)
        values = [f(v) for f in obs.effects for v in space.vertices]
        if all(0 <= x <= 1 for x in values):
            assert got == expected
        for (outcome, lp, result), (ref_outcome, ref_lp, ref_result) in zip(got, expected):
            assert (outcome, lp) == (ref_outcome, ref_lp)
            assert isinstance(result, Feasible) == isinstance(ref_result, Feasible)
            if isinstance(result, Feasible):
                assert lp.check(result.witness)
            else:
                assert verify_certificate(lp, result)
            kinds.add((obs.name, type(result).__name__, result == ref_result))
        assert len(got) == len(expected)
        assert is_surjective(obs, space) == all(isinstance(r, Feasible) for *_, r in expected)
    assert {("in", "Feasible", True), ("in", "Infeasible", True),
            ("out", "Feasible", False), ("out", "Infeasible", False)} <= kinds


def test_analyze_solves_only_the_compatibility_lp(monkeypatch, tmp_path, capsys):
    """``analyze`` on each catalog entry reaches the simplex once on a
    polytope (its compatibility LP) and never on a ball."""
    solve = exact._phase_one
    calls = []

    def counting(lp):
        calls.append(lp.n_vars)
        return solve(lp)

    monkeypatch.setattr(exact, "_phase_one", counting)
    for name in catalog.CATALOG_NAMES:
        path = str(tmp_path / f"{name}.json")
        cli.main(["example", name, "--out", path])
        calls.clear()
        assert cli.main(["analyze", path]) == 0
        polytope = isinstance(catalog.load(name).theory.state_space, Polytope)
        assert len(calls) == polytope
    capsys.readouterr()


def test_find_channel_flip_and_identity():
    chan = find_channel(SQUARE, SQUARE, [(FX, ONE2 - FX), (FY, FY)])
    assert isinstance(chan, Channel)
    assert chan((0, 0)) == (F(1), F(0))
    assert chan((1, 1)) == (F(0), F(1))
    ident = find_channel(SQUARE, SQUARE, [])
    assert isinstance(ident, Channel)


def test_find_channel_infeasible_certificate():
    # forcing f_x to exceed 1 on the image is impossible inside the square
    target = AffineFunctional((0, 0), 2)
    result = find_channel(SQUARE, SQUARE, [(FX, target)])
    assert isinstance(result, ChannelInfeasible)
    from wignerlab.exact import verify_certificate

    assert verify_certificate(result.program, result.certificate)


def test_find_channel_candidate_verification_on_ball():
    disk = Ball((0, 0), 1)
    a, _ = _xz_pair()
    flip = AffineMap.from_rows([[1, 0], [0, -1]], [0, 0])
    chan = find_channel(
        disk, disk, [(a.effects[0], a.effects[1])], candidate=flip
    )
    assert isinstance(chan, Channel)
    with pytest.raises(Exception):
        find_channel(disk, disk, [(a.effects[0], a.effects[0])], candidate=flip)
    with pytest.raises(UnsupportedGeometryError):
        find_channel(disk, disk, [])


def test_channel_rejects_the_map_that_leaves_the_disk_by_10_to_the_minus_14():
    """x -> x/2 + (1/2 + 10^-14, 0) sends (1, 0) outside the unit disk;
    map_into rejects it with that witness, and Channel with it."""
    disk = Ball((0, 0), 1)
    shift = F(1, 2) + F(1, 10 ** 14)
    m = AffineMap.from_rows([[F(1, 2), 0], [0, F(1, 2)]], [shift, 0])
    result = map_into(disk, m, disk)
    assert not result.ok
    assert result.witness_point == (1, 0)
    assert result.witness_image == (1 + F(1, 10 ** 14), 0)
    with pytest.raises(ContainmentError) as raised:
        Channel(m, disk, disk)
    assert raised.value.witness_point == (1, 0)
    # an off-center map inside the disk still passes
    Channel(AffineMap.from_rows([[F(1, 2), 0], [0, F(1, 2)]], [F(1, 4), 0]), disk, disk)


def test_channel_accepts_off_center_ball_maps_that_stay_inside():
    """x -> (3x/4, 5/8) reaches |.|^2 = 61/64 on the disk, and amplitude
    damping at gamma = 3/4, (x/2, y/2, z/4 + 3/4), is a qubit channel that
    touches the Bloch sphere at (0, 0, 1)."""
    disk, bloch = Ball((0, 0), 1), Ball((0, 0, 0), 1)
    Channel(AffineMap.from_rows([[F(3, 4), 0], [0, 0]], [0, F(5, 8)]), disk, disk)
    damping = AffineMap.from_rows(
        [[F(1, 2), 0, 0], [0, F(1, 2), 0], [0, 0, F(1, 4)]], [0, 0, F(3, 4)])
    assert damping((0, 0, 1)) == (0, 0, 1)
    Channel(damping, bloch, bloch)


def _system_kind(source, target, equations, hull=False) -> str:
    """Do the equations alone (with ``hull``, and the equalities of the
    target's affine hull) fix the images of an affine basis of the
    source, hence the map on its affine hull, contradict one another, or
    leave the map free?  That is, does their block system over all basis
    images have exactly one solution ("fixed"), none ("inconsistent") or
    more ("free")?"""
    basis = affine_basis(source)
    d2 = target.ambient_dim
    system = [(g.linear, [h(p) - g.constant for p in basis]) for g, h in equations]
    if hull:
        hrep = target._facets
        system += [(c, [F(e, hrep.scale)] * len(basis)) for c, e in hrep.equalities]
    rows, rhs = [], []
    for c, values in system:
        for i, value in enumerate(values):
            row = [F(0)] * (len(basis) * d2)
            row[i * d2:(i + 1) * d2] = c
            rows.append(row)
            rhs.append(value)
    if not rows:
        return "free"
    sol = solve_affine(rows, rhs)
    return "inconsistent" if sol is None else "free" if sol.nullspace else "fixed"


def _assert_matches_vertex_image_lp(source, target, equations) -> tuple[bool, bool]:
    """The facet-form channel against the former vertex-image LP: the same
    verdict, and the same map where the equations fix it on aff(source).
    Returns whether a channel exists and whether its map was compared."""
    result = find_channel(source, target, equations)
    _, ref, ref_map = vertex_image_channel(source, target, equations)
    assert isinstance(result, Channel) == isinstance(ref, Feasible)
    if isinstance(result, ChannelInfeasible):
        assert verify_certificate(result.program, result.certificate)
        return False, False
    for g, h in equations:
        assert all(g(result(v)) == h(v) for v in source.vertices)
    fixed = _system_kind(source, target, equations) == "fixed"
    if fixed:
        assert result.map == ref_map
    return True, fixed


def _random_channel_cases():
    """40 random polygon pairs with up to two equations; about a third
    ask for the coordinates of a map into the target."""
    rng = random.Random(61)
    cases = []
    for _ in range(40):
        source, target = random_polygon(rng, 6), random_polygon(rng, 6)
        equations = []
        if rng.random() < 0.3:
            # the coordinates of a map t that sends the source into the target
            t = AffineMap.from_rows(
                [[random_fraction(rng, -1, 1) for _ in range(2)] for _ in range(2)],
                [random_fraction(rng, -1, 1) for _ in range(2)],
            )
            target = Polytope.hull_of(
                [t(v) for v in source.vertices] + list(target.vertices)
            )
            equations = [
                (AffineFunctional.coordinate(2, k), AffineFunctional(t.matrix.row(k), t.offset[k]))
                for k in range(2)
            ]
        for _ in range(rng.randint(0, 2 - len(equations))):
            g = AffineFunctional(
                tuple(random_fraction(rng, -1, 1) for _ in range(2)), random_fraction(rng, -1, 1)
            )
            h = AffineFunctional(
                tuple(random_fraction(rng, -1, 1, 8) for _ in range(2)),
                random_fraction(rng, -1, 1),
            )
            equations.append((g, h))
        cases.append((source, target, equations))
    return cases


def test_find_channel_matches_the_vertex_image_lp_on_random_polygons():
    outcomes = [_assert_matches_vertex_image_lp(*case) for case in _random_channel_cases()]
    assert outcomes.count((False, False)) > 5 and outcomes.count((True, False)) > 5
    assert outcomes.count((True, True)) > 5


def test_find_channel_matches_the_vertex_image_lp_on_every_catalog_call(
    tmp_path, capsys, monkeypatch
):
    """Every channel system that the catalog's commands pose: the calls
    that reach ``find_channel``, and the transport system of every
    ``find_transported_channel`` call, which a permutation may answer by
    relabelling K's vertices without reaching it.  Each polytope system
    is solved by ``find_channel`` directly against the vertex-image LP."""
    calls = []
    solve, transport = symmetry.find_channel, symmetry.find_transported_channel
    transporting = False

    def recording(source, target, equations, candidate=None):
        if candidate is None and isinstance(source, Polytope) and not transporting:
            calls.append((source, target, list(equations)))
        return solve(source, target, equations, candidate)

    def recording_transport(rep, psi):
        nonlocal transporting
        space = rep.state_space
        if isinstance(space, Polytope):
            calls.append((space, space, programs.transport_equations(rep, psi.phase_map.table)))
        transporting = True
        try:
            return transport(rep, psi)
        finally:
            transporting = False

    monkeypatch.setattr(symmetry, "find_channel", recording)
    monkeypatch.setattr(symmetry, "find_transported_channel", recording_transport)
    for name in catalog.CATALOG_NAMES:
        entry = catalog.load(name)
        path = str(tmp_path / f"{name}.json")
        argv = ["example", name, "--out", path]
        covariant = ["covariant", path]
        if entry.channels:
            channels = str(tmp_path / f"{name}.channels.json")
            argv += ["--channels-out", channels]
            covariant += ["--channels", channels]
        cli.main(argv)
        cli.main(covariant)
        for rep in entry.representations:
            rep_path = str(tmp_path / f"{name}.{rep.replace('/', '_')}.json")
            cli.main(["example", name, "--rep", rep, "--out", rep_path])
            cli.main(["symmetries", rep_path])
    capsys.readouterr()
    assert len(calls) >= 25
    outcomes = {_assert_matches_vertex_image_lp(*call) for call in calls}
    assert {(True, True), (False, False)} <= outcomes


def test_find_channel_solves_fixed_maps_without_an_lp(monkeypatch, tmp_path, capsys):
    """Only a call whose equations leave the map free runs the simplex.
    Where the equations and the target hull fix a map, the map is the
    channel, or it leaves the target and the Farkas certificate comes
    from the violation; where they contradict one another, the
    certificate is the Fredholm row of one elimination; both with the
    witness of the equations alone.  More than five free maps find a
    channel.  The ``symmetries`` reports of the faithful boxworld and
    rebit_diamond representations, all transports, come out the same
    with no LP."""
    cases = []
    for source, target, equations in _random_channel_cases() + [
        case[:3] for case in _hand_infeasible_cases()
    ]:
        result = find_channel(source, target, equations)
        kind = _system_kind(source, target, equations, hull=True)
        cases.append((source, target, equations, result, kind))
    reports = {}
    for name in ("boxworld", "rebit_diamond"):
        for rep in catalog.load(name).representations:
            path = str(tmp_path / f"{name}.{rep.replace('/', '_')}.json")
            cli.main(["example", name, "--rep", rep, "--out", path])
            capsys.readouterr()
            cli.main(["symmetries", path])
            reports[path] = capsys.readouterr().out

    def forbidden(lp):
        raise AssertionError("LP solved")

    monkeypatch.setattr(exact, "_phase_one", forbidden)
    kinds = []
    for source, target, equations, result, kind in cases:
        kinds.append((kind, isinstance(result, Channel)))
        if kind == "free":
            with pytest.raises(AssertionError, match="LP solved"):
                find_channel(source, target, equations)
            continue
        assert find_channel(source, target, equations) == result
        if isinstance(result, ChannelInfeasible):
            assert verify_certificate(result.program, result.certificate)
            witness = (result.witness_point, result.witness_image)
            assert witness == unconstrained_witness(source, target, equations)
    assert kinds.count(("fixed", True)) > 5 and kinds.count(("fixed", False)) > 5
    assert kinds.count(("free", True)) > 5 and kinds.count(("inconsistent", False)) >= 5
    assert ("inconsistent", True) not in kinds
    for path, out in reports.items():
        assert cli.main(["symmetries", path]) == 0
        assert capsys.readouterr().out == out
    assert len(reports) == 4


def test_fixed_map_is_the_interpolation_of_its_basis_images():
    """``_fixed_map`` builds the ``interpolant`` of the basis images its
    rows fix, which is the map of one ``solve_affine`` per coordinate
    (``per_column_affine_map``, free unknowns 0), on random
    polygons (points and segments included) and on the same polygons at
    z = 0 in R^3, and gives ``None`` when the rows leave the images free."""
    rng = random.Random(163)
    fixed = 0
    for _ in range(120):
        source = random_polygon(rng)
        if rng.random() < 0.4:
            source = Polytope([v + (F(0),) for v in source.vertices])
        basis = affine_basis(source)
        d2 = rng.randint(1, 3)
        images = [tuple(random_fraction(rng) for _ in range(d2)) for _ in basis]
        coeffs = [[rng.randint(-2, 2) for _ in range(d2)] for _ in range(rng.randint(d2, d2 + 2))]
        ints = []
        for c in coeffs:
            rhs = [sum(a * y for a, y in zip(c, img)) for img in images]
            s = math.lcm(*(x.denominator for x in rhs))
            ints.append(([s * a for a in c] + [int(x * s) for x in rhs], s))
        got, column = _fixed_map(source, ints, d2)
        assert column is None
        if exact.rank(coeffs) < d2:
            assert got is None
            continue
        ys, den = integer_rows(images)
        assert got == interpolant(basis_interpolation(source), list(zip(*ys)), [den] * d2)
        assert got == per_column_affine_map(basis, images)
        fixed += 1
    assert fixed > 60


SEGMENT = Polytope([(0, 0), (1, 1)])  # its hull: x - y = 0


def _const(value):
    return AffineFunctional.const(2, value)


def _hand_infeasible_cases():
    """Infeasible calls by hand, with the witness of the equations alone."""
    hand = [
        # the equations fix x -> (2, 0), which is off the segment's hull
        (SQUARE, SEGMENT, [(FX, _const(2)), (FY, _const(0))], ((F(0), F(0)), (F(2), F(0)))),
        # only the hull equality fixes x -> (2, 2): no witness
        (SQUARE, SEGMENT, [(FX, _const(2))], (None, None)),
        # inconsistent equations: no map, no witness
        (SQUARE, SQUARE, [(FX, _const(F(1, 2))), (FY, _const(F(1, 2))), (FX, _const(F(1, 4)))],
         (None, None)),
        (SQUARE, SQUARE, [(FX, _const(2)), (FY, _const(0))], ((F(0), F(0)), (F(2), F(0)))),
    ]
    gon = catalog.load("deformed_12gon").theory
    obstruction = symmetry.find_permutation_channels(gon.obs_a, gon.obs_b, gon.state_space)
    assert obstruction.element.perm_a == (1, 0) and obstruction.element.perm_b == (0, 1)
    gon_equations = programs.permutation_equations(
        gon.obs_a, gon.obs_b, obstruction.element.perm_a, obstruction.element.perm_b)
    hand.append((gon.state_space, gon.state_space, gon_equations,
                 ((F(3, 5), F(-4, 5)), (F(3, 5), F(4, 5)))))
    return hand


def test_fixed_maps_that_leave_the_target_keep_certificate_and_witness(monkeypatch):
    """Every infeasible call, random or by hand, verifies its certificate
    and names the witness of the equations alone, not of the equations
    with the target's hull: the former block-system diagnosis."""
    hand = _hand_infeasible_cases()
    gon = catalog.load("deformed_12gon").theory
    obstruction = symmetry.find_permutation_channels(gon.obs_a, gon.obs_b, gon.state_space)
    witnessed = 0
    for source, target, equations, expected in hand:
        result = find_channel(source, target, equations)
        assert isinstance(result, ChannelInfeasible)
        assert verify_certificate(result.program, result.certificate)
        assert (result.witness_point, result.witness_image) == expected
        assert expected == unconstrained_witness(source, target, equations)
    assert obstruction.detail.witness_point == (F(3, 5), F(-4, 5))
    for source, target, equations in _random_channel_cases():
        result = find_channel(source, target, equations)
        if isinstance(result, Channel):
            continue
        assert verify_certificate(result.program, result.certificate)
        witness = (result.witness_point, result.witness_image)
        assert witness == unconstrained_witness(source, target, equations)
        witnessed += witness != (None, None)
    assert witnessed > 0
    # the hull equality alone fixes x -> (1/2, 1/2) on the segment: no LP
    monkeypatch.setattr(exact, "_phase_one", lambda lp: pytest.fail("LP solved"))
    chan = find_channel(SQUARE, SEGMENT, [(FX, _const(F(1, 2)))])
    assert {chan(v) for v in SQUARE.vertices} == {(F(1, 2), F(1, 2))}


UNIT_SEGMENT = Polytope([(0,), (1,)])
ONE1 = AffineFunctional.one(1)
X1 = AffineFunctional((1,), 0)


def _inconsistent_calls(group):
    """The ``find_channel`` calls of one source whose equations and target
    hull contradict one another (the block-system oracle of
    ``_system_kind``)."""
    if group == "random":
        calls = _random_channel_cases()
    elif group == "hand":
        calls = [case[:3] for case in _hand_infeasible_cases()]
    elif group == "parity set generators":
        from test_free_block import CASES
        calls = [(t.state_space, t.state_space,
                  programs.permutation_equations(t.obs_a, t.obs_b, perm_a, perm_b))
                 for _, t, _ in CASES if isinstance(t.state_space, Polytope)
                 for perm_a, perm_b in programs.generators(t.obs_a.n_outcomes, t.obs_b.n_outcomes)]
    elif group == "boxworld W_1/2 (0, 1, 3, 2)":
        rep = catalog.load("boxworld").representations["W_1/2"]
        space = rep.state_space
        calls = [(space, space, programs.transport_equations(rep, (0, 1, 3, 2)))]
    else:
        # A = B = (x, 1 - x): swapping A's outcomes asks x . F = 1 - x, and
        # fixing B's asks x . F = x
        obs = Observable("A", (0, 1), (X1, ONE1 - X1))
        calls = [(UNIT_SEGMENT, UNIT_SEGMENT,
                  programs.permutation_equations(obs, obs, (1, 0), (0, 1)))]
    return [call for call in calls if _system_kind(*call, hull=True) == "inconsistent"]


@pytest.mark.parametrize("group", ["random", "hand", "parity set generators",
                                   "boxworld W_1/2 (0, 1, 3, 2)", "segment"])
def test_inconsistent_equations_get_a_certificate_without_an_lp(group, monkeypatch):
    """With the simplex patched to raise, every call whose equations are
    inconsistent returns ``ChannelInfeasible`` with the Fredholm
    certificate of one elimination: multipliers on the equality rows of
    one basis point alone, none on a facet row, passing
    ``verify_certificate``.  On the segment it is (1, -1) with gap 1."""
    calls = _inconsistent_calls(group)
    assert calls

    def forbidden(lp):
        raise AssertionError("LP solved")

    monkeypatch.setattr(exact, "_phase_one", forbidden)
    for source, target, equations in calls:
        result = find_channel(source, target, equations)
        assert isinstance(result, ChannelInfeasible)
        cert = result.certificate
        assert verify_certificate(result.program, cert)
        assert not any(cert.ineq_multipliers)
        n = len(affine_basis(source))
        assert len({k % n for k, y in enumerate(cert.eq_multipliers) if y}) == 1
    if group == "segment":
        assert [y for y in cert.eq_multipliers if y] == [1, -1] and cert.gap == 1
