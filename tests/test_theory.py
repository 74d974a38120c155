"""Theory-layer tests: observables, compatibility, complementarity,
surjectivity and channel solving."""

from fractions import Fraction as F
import random

import pytest

from helpers import random_theory
from wignerlab.errors import DomainError, PreconditionError, UnsupportedGeometryError
from wignerlab.geometry import AffineFunctional, AffineMap, Ball, Polytope, map_into
from wignerlab.theory import (
    Channel,
    ChannelInfeasible,
    Compatible,
    Incompatible,
    Observable,
    Theory,
    are_compatible,
    are_complementary,
    find_channel,
    is_surjective,
    jointly_info_complete,
    measure,
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


def test_validate_range_violation_with_witness():
    bad = Observable("bad", (0, 1), (FX.scale(2), ONE2 - FX.scale(2)))
    violations = validate_observable(bad, SQUARE)
    kinds = {v.kind for v in violations}
    assert "range" in kinds
    top = next(v for v in violations if v.kind == "range" and v.value == 2)
    assert FX.scale(2)(top.witness) == 2


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


def test_channel_rejects_containment_decided_by_the_numeric_fallback():
    """x -> x/2 + (1/2 + 10^-14, 0) sends (1, 0) outside the unit disk, but
    the float fallback of the ball test accepts it; Channel must not."""
    disk = Ball((0, 0), 1)
    shift = F(1, 2) + F(1, 10 ** 14)
    m = AffineMap.from_rows([[F(1, 2), 0], [0, F(1, 2)]], [shift, 0])
    assert m((1, 0)) == (1 + F(1, 10 ** 14), F(0))
    result = map_into(disk, m, disk)
    assert result.ok and not result.exact
    with pytest.raises(PreconditionError, match="numeric fallback"):
        Channel(m, disk, disk)
    # an exactly certified off-center map still passes
    Channel(AffineMap.from_rows([[F(1, 2), 0], [0, F(1, 2)]], [F(1, 4), 0]), disk, disk)
