"""Symmetry-layer tests: lifts, symmetry detection, transport, induced
actions, permutation channels and the covariant solver."""

import ast
import collections
from fractions import Fraction as F
import inspect
import itertools
import json
import math
import pathlib
import random

import pytest

import reference_kernels as ref
from catalog_facts import FACTS, _replay_one
from helpers import (
    generalized_boxworld,
    qubit_ball_image,
    random_fraction,
    random_free_block,
    random_observable,
    random_polygon,
    random_rotation,
    random_theory,
)
from wignerlab import (
    _kernels, catalog, cli, exact, geometry, programs, symmetry, theory, theoryfile, wigner,
)
from wignerlab.errors import PreconditionError, SizeGuardError, UnsupportedGeometryError
from wignerlab.exact import verify_certificate
from wignerlab.geometry import AffineFunctional, AffineMap, Ball, Polytope, dimension
from wignerlab.symmetry import (
    LiftedMap,
    PermutationAction,
    PhasePointMap,
    ProductGroupElement,
    TransportObstruction,
    enumerate_lifted_symmetries,
    find_permutation_channels,
    find_symmetry_for_channel,
    find_transported_channel,
    induced_action,
    is_g_symmetric,
    is_symmetry,
    lift,
    solve_covariant,
)
from wignerlab.theory import Channel, Observable
from wignerlab.wigner import (
    SignedGrid,
    WignerRep,
    construct_family,
    degenerate_rep,
    evaluate,
    is_faithful,
)

ONE2 = AffineFunctional.one(2)
SQUARE = Polytope([(0, 0), (0, 1), (1, 0), (1, 1)])
FX = AffineFunctional((1, 0), 0)
FY = AffineFunctional((0, 1), 0)
OBS_A = Observable("A", (0, 1), (FX, ONE2 - FX))
OBS_B = Observable("B", (0, 1), (FY, ONE2 - FY))
W0 = construct_family(OBS_A, OBS_B, SQUARE, {})
WHALF = construct_family(OBS_A, OBS_B, SQUARE, {(0, 0): (FX + FY).scale(F(1, 2))})
SHAPE = (2, 2)
SWAP_0110 = PhasePointMap.transposition(SHAPE, (0, 1), (1, 0))
SWAP_0011 = PhasePointMap.transposition(SHAPE, (0, 0), (1, 1))
SWAP_0001 = PhasePointMap.transposition(SHAPE, (0, 0), (0, 1))


def grid(rows):
    return tuple(tuple(F(x) for x in row) for row in rows)


def test_lift_mass_preservation_and_order_random():
    rng = random.Random(47)
    n = 4
    for _ in range(200):
        perm1 = list(range(n))
        perm2 = list(range(n))
        rng.shuffle(perm1)
        rng.shuffle(perm2)
        phi = PhasePointMap(SHAPE, tuple(perm1))
        psi = PhasePointMap(SHAPE, tuple(perm2))
        entries = [F(rng.randint(-4, 4)) for _ in range(n - 1)]
        entries.append(1 - sum(entries))
        nu = SignedGrid.from_flat(entries, SHAPE)
        assert sum(lift(phi).apply(nu).flatten()) == 1
        # lift is a covariant functor: lift(phi . psi) applies psi first
        assert lift(phi.compose(psi)).apply(nu) == lift(phi).apply(lift(psi).apply(nu))
    # nonnegative grids stay nonnegative under any total map
    squash = PhasePointMap(SHAPE, (0, 0, 0, 3))
    prob = SignedGrid.from_flat([F(1, 4)] * 4, SHAPE)
    assert lift(squash).apply(prob).is_nonnegative()


def test_a_lift_is_its_phase_table():
    """A lifted map holds its phase table alone, and ``as_affine_map``
    builds the 0/1 transfer matrix that ``lift`` once stored, on every
    table of 2 x 2 and 2 x 3, permutations and non-injective maps."""
    assert list(LiftedMap.__annotations__) == ["phase_map"]  # the record's fields
    for shape in ((2, 2), (2, 3)):
        n = shape[0] * shape[1]
        for table in itertools.product(range(n), repeat=n):
            phi = PhasePointMap(shape, table)
            assert lift(phi) == LiftedMap(phi)
            assert lift(phi).as_affine_map() == AffineMap(ref.transfer_matrix(phi), exact.zeros(n))


def test_is_symmetry_examples():
    assert is_symmetry(W0, lift(PhasePointMap.identity(SHAPE))).ok
    assert is_symmetry(W0, lift(SWAP_0110)).ok
    check = is_symmetry(WHALF, lift(SWAP_0001))
    assert not check.ok
    assert check.counterexample == (F(0), F(1))
    assert check.image.entries == grid([["-1/2", "1/2"], ["1/2", "1/2"]])


def test_enumerate_lifted_symmetries_tables():
    assert set(enumerate_lifted_symmetries(W0)) == {
        PhasePointMap.identity(SHAPE), SWAP_0110,
    }
    found = set(enumerate_lifted_symmetries(WHALF))
    assert SWAP_0110 in found and SWAP_0011 in found
    assert SWAP_0001 not in found


def test_enumerated_symmetries_form_a_subgroup():
    found = set(enumerate_lifted_symmetries(WHALF))
    for a in found:
        assert a.inverse() in found
        for b in found:
            assert a.compose(b) in found


def test_enumeration_size_guard():
    tri = Polytope([(1, 0), (0, 1), (0, 0)])
    f = AffineFunctional((1, 0), 0)
    obs3 = Observable("A", (0, 1, 2), (f, ONE2 - f, AffineFunctional.zero(2)))
    obs3b = Observable("B", (0, 1, 2), (f, ONE2 - f, AffineFunctional.zero(2)))
    rep = construct_family(obs3, obs3b, tri, {})
    with pytest.raises(SizeGuardError):
        enumerate_lifted_symmetries(rep)


def test_transported_channels_for_faithful_symmetries():
    for phi in enumerate_lifted_symmetries(W0):
        assert isinstance(find_transported_channel(W0, lift(phi)), Channel)
    for phi in enumerate_lifted_symmetries(WHALF):
        assert isinstance(find_transported_channel(WHALF, lift(phi)), Channel)


def _trit():
    tri = Polytope([(1, 0), (0, 1), (0, 0)])
    f = AffineFunctional((1, 0), 0)
    obs_a = Observable("A", (0, 1), (f, ONE2 - f))
    obs_b = Observable("unit", ("*",), (ONE2,))
    rep = WignerRep(tri, obs_a, obs_b, ((f,), (ONE2 - f,)))
    rotation = Channel(AffineMap.from_rows([[-1, -1], [1, 0]], [1, 0]), tri, tri)
    return tri, rep, rotation


def test_trit_rotation_has_no_transported_symmetry():
    _, rep, rotation = _trit()
    result = find_symmetry_for_channel(rep, rotation)
    assert isinstance(result, TransportObstruction)
    assert set(result.pair) == {(F(0), F(1)), (F(0), F(0))}


def test_trit_identity_and_swap():
    tri, rep, _ = _trit()
    psi = find_symmetry_for_channel(rep, AffineMap.identity(2))
    assert isinstance(psi, AffineMap)
    for v in tri.vertices:
        assert psi(evaluate(rep, v).flatten()) == evaluate(rep, v).flatten()
    swap = PhasePointMap((2, 1), (1, 0))
    assert isinstance(find_transported_channel(rep, lift(swap)), Channel)


def _skew_triangle():
    """conv{(0,0), (1,0), (0,1)} with both observables' effects
    ((x+2y)/2, 1 - (x+2y)/2), its degenerate representation and the swap
    (x, y) -> (y, x).  W takes the values of t = (x+2y)/2, 0, 1/2 and 1
    at the vertices, so no two vertex images collide, and W . swap breaks
    their midpoint dependency."""
    tri = Polytope([(0, 0), (1, 0), (0, 1)])
    t = AffineFunctional((F(1, 2), 1), 0)
    obs_a, obs_b = Observable("A", (0, 1), (t, ONE2 - t)), Observable("B", (0, 1), (t, ONE2 - t))
    return tri, obs_a, obs_b, degenerate_rep(obs_a, obs_b, tri), AffineMap.from_rows(
        [[0, 1], [1, 0]], [0, 0])


def test_a_higher_order_dependency_obstructs_transport():
    """No vertex pair collides, so the obstruction is the dependency, named
    by the affine basis; the former interpolation over every vertex
    (``orthogonal_extension``) fails there too."""
    tri, _, _, rep, swap = _skew_triangle()
    images = [evaluate(rep, v).flatten() for v in tri.vertices]
    assert len(set(images)) == 3
    assert ref.orthogonal_extension(images, [evaluate(rep, swap(v)).flatten()
                                             for v in tri.vertices]) is None
    assert find_symmetry_for_channel(rep, Channel(swap, tri, tri)) == TransportObstruction(
        dependency=geometry.affine_basis(tri))


def test_symmetries_channel_matrix_reports_the_dependency(tmp_path, capsys):
    """Through the CLI: exit 1, the obstruction note, and the affine basis
    as the dependency, with no witness pair."""
    tri, obs_a, obs_b, rep, _ = _skew_triangle()
    path = tmp_path / "skew.json"
    path.write_text(json.dumps(theoryfile.theory_to_dict(
        theory.Theory(tri, (obs_a, obs_b)), ("W", rep))))
    code = cli.main(["symmetries", str(path), "--channel-matrix",
                     '{"matrix": [["0","1"],["1","0"]], "offset": ["0","0"]}'])
    report = json.loads(capsys.readouterr().out)
    assert code == 1 and report["obstruction"] == {
        "dependency": [["0", "0"], ["1", "0"], ["0", "1"]]}
    assert report["notes"] == ["no transported symmetry exists for the requested channel"]


def test_transported_symmetries_of_induced_actions_are_their_lifts():
    """Round trip on balls and polytopes: for every lifted symmetry phi of
    qubit_ball W, qubit_xz W, boxworld W_1/2 and rebit_diamond W, the grid
    map pushed forward from ``induced_action(rep, phi)`` is lift(phi) at
    W's basis images; on a polytope it is the map the former interpolation
    over every vertex gives (``orthogonal_extension``)."""
    orders = []
    for name, rep_name in (("qubit_ball", "W"), ("qubit_xz", "W"), ("boxworld", "W_1/2"),
                           ("rebit_diamond", "W")):
        rep = catalog.load(name).representations[rep_name]
        space = rep.state_space
        found = enumerate_lifted_symmetries(rep)
        for phi in found:
            chan = induced_action(rep, phi)
            psi = find_symmetry_for_channel(rep, chan)
            for p in geometry.affine_basis(space):
                at_p = evaluate(rep, p)
                assert psi(at_p.flatten()) == lift(phi).apply(at_p).flatten()
            if isinstance(space, Polytope):
                assert psi == ref.orthogonal_extension(
                    [evaluate(rep, v).flatten() for v in space.vertices],
                    [evaluate(rep, chan(v)).flatten() for v in space.vertices])
        orders.append(len(found))
    assert orders == [24, 8, 4, 8]


def test_faithful_channel_always_transports_back():
    # for faithful W, any channel pulls through: Psi = W . Phi . W^):-1 extended
    flip = Channel(AffineMap.from_rows([[-1, 0], [0, 1]], [1, 0]), SQUARE, SQUARE)
    psi = find_symmetry_for_channel(WHALF, flip)
    assert isinstance(psi, AffineMap)
    for v in SQUARE.vertices:
        assert psi(evaluate(WHALF, v).flatten()) == evaluate(WHALF, flip(v)).flatten()


def test_induced_action_examples():
    chan = induced_action(WHALF, SWAP_0011)
    images = {v: chan(v) for v in SQUARE.vertices}
    assert images[(F(0), F(0))] == (F(1), F(1))
    assert images[(F(1), F(1))] == (F(0), F(0))
    assert images[(F(0), F(1))] == (F(0), F(1))
    assert images[(F(1), F(0))] == (F(1), F(0))
    ident = induced_action(WHALF, PhasePointMap.identity(SHAPE))
    assert all(ident(v) == v for v in SQUARE.vertices)


def test_induced_action_preconditions():
    cube = Polytope([(i, j, k) for i in (0, 1) for j in (0, 1) for k in (0, 1)])
    fx3 = AffineFunctional((1, 0, 0), 0)
    fy3 = AffineFunctional((0, 1, 0), 0)
    one3 = AffineFunctional.one(3)
    a3 = Observable("A", (0, 1), (fx3, one3 - fx3))
    b3 = Observable("B", (0, 1), (fy3, one3 - fy3))
    lossy = construct_family(a3, b3, cube, {})
    with pytest.raises(PreconditionError):
        induced_action(lossy, SWAP_0110)
    with pytest.raises(PreconditionError):
        induced_action(WHALF, SWAP_0001)


def test_a_phase_point_map_reads_its_table():
    perm_a, perm_b = (1, 0), (2, 0, 1)
    phi = PhasePointMap.product((2, 3), perm_a, perm_b)
    assert [phi((a, b)) for a in range(2) for b in range(3)] == [
        (perm_a[a], perm_b[b]) for a in range(2) for b in range(3)]
    swap = PhasePointMap.transposition(SHAPE, (0, 0), (1, 1))
    assert [swap(p) for p in ((0, 0), (0, 1), (1, 0), (1, 1))] == [(1, 1), (0, 1), (1, 0), (0, 0)]


def test_induced_action_on_bloch_ball():
    bloch = Ball((0, 0, 0), 1)
    fz = AffineFunctional((0, 0, F(1, 2)), F(1, 2))
    fx = AffineFunctional((F(1, 2), 0, 0), F(1, 2))
    one3 = AffineFunctional.one(3)
    obs_a = Observable("A", (0, 1), (fz, one3 - fz))
    obs_b = Observable("B", (0, 1), (fx, one3 - fx))

    def q(sx, sy, sz):
        return AffineFunctional((F(sx, 4), F(sy, 4), F(sz, 4)), F(1, 4))

    rep = WignerRep(bloch, obs_a, obs_b,
                    ((q(1, 1, 1), q(-1, -1, 1)), (q(1, -1, -1), q(-1, 1, -1))))
    phi01 = PhasePointMap.transposition(SHAPE, (0, 0), (0, 1))
    chan = induced_action(rep, phi01)
    assert chan.map.matrix.entries == (
        (F(0), F(-1), F(0)), (F(-1), F(0), F(0)), (F(0), F(0), F(1))
    )
    assert chan.map.offset == (F(0), F(0), F(0))


def test_induced_action_precondition_needs_no_is_symmetry(monkeypatch):
    """The precondition is the permutation invariant, not ``is_symmetry``."""
    rng = random.Random(109)
    cases = []
    while len(cases) < 6:
        t = random_theory(rng, max_points=4, outcome_choices=(2,))
        rep = wigner.faithful_member(t.obs_a, t.obs_b, t.state_space)
        if rep is not None:
            cases.append(rep)
    entry = catalog.load("qubit_ball")
    cases.append(entry.representations["W"])
    perms = [PhasePointMap(SHAPE, p) for p in itertools.permutations(range(4))]
    verdicts = {(i, phi): is_symmetry(rep, lift(phi)).ok
                for i, rep in enumerate(cases) for phi in perms}

    def forbidden(*args):
        raise AssertionError("is_symmetry called")

    monkeypatch.setattr(symmetry, "is_symmetry", forbidden)
    for ex in FACTS["qubit_ball"]:
        if ex.kind == "induced_action":
            assert _replay_one(entry, ex)
    for (i, phi), ok in verdicts.items():
        rep = cases[i]
        if not ok:
            with pytest.raises(PreconditionError):
                induced_action(rep, phi)
            continue
        chan = induced_action(rep, phi)
        if isinstance(rep.state_space, Polytope):
            for v in rep.state_space.vertices:
                assert (lift(phi).as_affine_map()(evaluate(rep, v).flatten())
                        == evaluate(rep, chan(v)).flatten())
    assert sum(verdicts.values()) > len(cases)


def test_group_closure_and_g_symmetry():
    group = ref.close_group([SWAP_0110, SWAP_0011])
    assert len(group) == 4
    assert is_g_symmetric(WHALF, [SWAP_0110, SWAP_0011])
    assert not is_g_symmetric(WHALF, [SWAP_0001])
    assert not is_g_symmetric(W0, [SWAP_0110, SWAP_0011, SWAP_0001])
    assert is_g_symmetric(W0, [])


def test_find_permutation_channels_boxworld():
    """Only the two generators get channels; their composition is the
    channel of the both-swap, which no one solves."""
    result = find_permutation_channels(OBS_A, OBS_B, SQUARE)
    assert isinstance(result, PermutationAction)
    swap_a = ProductGroupElement((1, 0), (0, 1))
    swap_b = ProductGroupElement((0, 1), (1, 0))
    assert list(result.channels) == [swap_a, swap_b]
    chan = result.channels[swap_a]
    assert chan((0, 0)) == (F(1), F(0))
    both = result.channels[swap_a].map.compose(result.channels[swap_b].map)
    both_swap = swap_a.compose(swap_b)
    equations = programs.permutation_equations(OBS_A, OBS_B, both_swap.perm_a, both_swap.perm_b)
    assert theory._solves(equations, both, SQUARE)


@pytest.mark.parametrize("shape", [(2, 2), (2, 3), (3, 3)])
def test_composed_generator_channels_permute_every_group_element(shape):
    """Covariance by generators is sound: the product of generator
    channels along any word solves the permutation equations of the
    word's element, at the affine basis, and maps K into K."""
    t = generalized_boxworld(*shape)
    space = t.state_space
    channels = find_permutation_channels(t.obs_a, t.obs_b, space).channels
    assert list(channels) == symmetry.product_group_generators(*shape)
    maps = {ProductGroupElement.identity(*shape): AffineMap.identity(space.ambient_dim)}
    frontier = list(maps)
    while frontier:
        nxt = []
        for gen, chan in channels.items():
            for e in frontier:
                composed = gen.compose(e)
                if composed not in maps:
                    maps[composed] = chan.map.compose(maps[e])
                    nxt.append(composed)
        frontier = nxt
    assert len(maps) == math.factorial(shape[0]) * math.factorial(shape[1])
    for element, m in maps.items():
        equations = programs.permutation_equations(t.obs_a, t.obs_b, element.perm_a, element.perm_b)
        assert theory._solves(equations, m, space)
        Channel(m, space, space)


def test_generalized_boxworld_2x7_is_solved_by_its_generators():
    """S_2 x S_7 has 10,080 elements; the solver touches its 7 generators."""
    t = generalized_boxworld(2, 7)
    result = solve_covariant(t.obs_a, t.obs_b, t.state_space)
    assert result.kind == "unique"
    assert list(result.channels) == symmetry.product_group_generators(2, 7)
    assert is_g_symmetric(result.rep, [g.phase_point_map() for g in result.channels])


def test_find_permutation_channels_needs_info_completeness():
    with pytest.raises(PreconditionError):
        find_permutation_channels(OBS_A, OBS_A, SQUARE)


def test_covariant_boxworld_unique():
    result = solve_covariant(OBS_A, OBS_B, SQUARE)
    assert result.kind == "unique"
    assert result.rep.grid[0][0] == AffineFunctional((F(1, 2), F(1, 2)), F(-1, 4))
    assert is_g_symmetric(result.rep, [g.phase_point_map() for g in result.channels])
    assert result.hypotheses["jointly_info_complete"]
    assert not result.hypotheses["complementary"]


def test_covariant_deformed_none_with_certificate():
    gon = Polytope(
        [
            (0, 1), (0, -1), (1, 0), (-1, 0),
            (F(3, 5), F(-4, 5)), (F(-3, 5), F(-4, 5)),
            (F(4, 5), F(-3, 5)), (F(-4, 5), F(-3, 5)),
        ]
    )
    fz = AffineFunctional((0, F(1, 2)), F(1, 2))
    fx = AffineFunctional((F(1, 2), 0), F(1, 2))
    obs_a = Observable("A", (0, 1), (fz, ONE2 - fz))
    obs_b = Observable("B", (0, 1), (fx, ONE2 - fx))
    result = solve_covariant(obs_a, obs_b, gon)
    assert result.kind == "none"
    assert all(result.hypotheses.values())
    assert result.obstruction.element == ProductGroupElement((1, 0), (0, 1))
    assert verify_certificate(result.program, result.certificate)


def test_covariant_hypothesis_failure_short_circuit():
    result = solve_covariant(OBS_A, OBS_A, SQUARE)
    assert result.kind == "hypothesis_failure"
    assert not result.hypotheses["jointly_info_complete"]


def test_covariant_ball_requires_channels():
    disk = Ball((0, 0), 1)
    fz = AffineFunctional((0, F(1, 2)), F(1, 2))
    fx = AffineFunctional((F(1, 2), 0), F(1, 2))
    obs_a = Observable("A", (0, 1), (fz, ONE2 - fz))
    obs_b = Observable("B", (0, 1), (fx, ONE2 - fx))
    from wignerlab.errors import UnsupportedGeometryError

    with pytest.raises(UnsupportedGeometryError):
        solve_covariant(obs_a, obs_b, disk)


CUBE_SWAPS = {
    ProductGroupElement((1, 0), (0, 1)): AffineMap.from_rows(
        [[-1, 0, 0], [0, 1, 0], [0, 0, -1]], (1, 0, 1)),  # (1 - x, y, 1 - z)
    ProductGroupElement((0, 1), (1, 0)): AffineMap.from_rows(
        [[1, 0, 0], [0, -1, 0], [0, 0, -1]], (0, 1, 1)),  # (x, 1 - y, 1 - z)
}


def _unequal_sums():
    """K = conv{(1, 0), (1, 1)} with one-outcome observables whose effects,
    1 and x/2 + 1/2, agree on K but not coefficient-wise."""
    segment = Polytope([(1, 0), (1, 1)])
    obs_u = Observable("U", (0,), (ONE2,))
    obs_v = Observable("V", (0,), (AffineFunctional((F(1, 2), 0), F(1, 2)),))
    return obs_u, obs_v, segment


def test_covariant_family_when_symmetry_is_scarce():
    """On the cube, A = x and B = y do not see z, and the supplied swaps
    (1 - x, y, 1 - z) and (x, 1 - y, 1 - z) leave one direction of
    covariant representations: +-(1 - 2z) in a checkerboard."""
    entry = catalog.load("cube")
    t = entry.theory
    result = solve_covariant(t.obs_a, t.obs_b, t.state_space, channels=CUBE_SWAPS)
    assert result.kind == "family"
    assert is_g_symmetric(result.rep, [g.phase_point_map() for g in result.channels])
    assert not result.hypotheses["jointly_info_complete"]
    assert result.program is None and result.certificate is None
    (direction,) = result.family_directions
    z = AffineFunctional((0, 0, 2), -1)
    assert direction.grid == ((-z, z), (z, -z))


def test_covariant_none_when_the_effect_sums_differ():
    """Stage 2's "none" has a closed-form certificate: -1 on U's row
    marginal and +1 on V's column marginal at the first coordinate, where
    the sums 1 and x/2 + 1/2 differ by 1/2; 0 on every other row."""
    result = solve_covariant(*_unequal_sums(), channels={})
    assert result.kind == "none" and result.obstruction is None
    cert = result.certificate
    assert cert.eq_multipliers == (-1, 0, 0, 1, 0, 0)
    assert cert.ineq_multipliers == () and cert.gap == F(1, 2)
    assert verify_certificate(result.program, cert)


def test_covariant_solver_runs_no_simplex(monkeypatch):
    """With the simplex patched to raise, stage 2's "none", the cube's
    family, boxworld and rebit_diamond are solved, and their certificates
    replay."""
    def no_simplex(*args):
        raise AssertionError("the simplex ran")

    monkeypatch.setattr(exact, "_phase_one", no_simplex)
    cube = catalog.load("cube").theory
    cases = [(*_unequal_sums(), {}, "none"),
             (cube.obs_a, cube.obs_b, cube.state_space, CUBE_SWAPS, "family")]
    for name in ("boxworld", "rebit_diamond"):
        entry = catalog.load(name)
        t = entry.theory
        cases.append((t.obs_a, t.obs_b, t.state_space, entry.channels, "unique"))
    for obs_a, obs_b, space, channels, kind in cases:
        result = solve_covariant(obs_a, obs_b, space, channels)
        assert result.kind == kind
        if kind == "none":
            assert verify_certificate(result.program, result.certificate)


def _symmetries_by_is_symmetry(rep):
    """The permutations phi with is_symmetry(rep, lift(phi)).ok, in order."""
    n_a, n_b = rep.shape
    maps = (PhasePointMap(rep.shape, p) for p in itertools.permutations(range(n_a * n_b)))
    return tuple(phi for phi in maps if is_symmetry(rep, lift(phi)).ok)


def _polygon_reps():
    """2x2 polygon representations, some not faithful, and one 2x3 grid."""
    rng = random.Random(97)
    reps = [W0, WHALF]
    for k in range(12):
        th = random_theory(rng, max_points=3, outcome_choices=(2,))
        a, b, space = th.obs_a, th.obs_b, th.state_space
        if k % 3 == 0:
            reps.append(degenerate_rep(a, b, space))
        else:
            reps.append(construct_family(a, b, space, random_free_block(rng, space, a, b)))
    space = random_polygon(rng, max_points=2)
    while len(space.vertices) != 2:
        space = random_polygon(rng, max_points=2)
    a = random_observable(rng, space, "A", 2)
    b = random_observable(rng, space, "B", 3)
    reps.append(degenerate_rep(a, b, space))
    return reps


def _ball_reps():
    """Images of the qubit-ball W, random family members, and one member
    with W's linear part but a moved center W(c)."""
    rng = random.Random(31)
    reps = [qubit_ball_image(rng, random_member=k % 2 == 1) for k in range(6)]
    w = reps[0]
    shifted = {(0, 0): w.grid[0][0].shift(F(1, 8))}
    return reps + [construct_family(w.obs_a, w.obs_b, w.state_space, shifted)]


def test_enumeration_matches_is_symmetry_on_polygons():
    reps = _polygon_reps()
    assert any(not is_faithful(rep) for rep in reps)
    assert reps[-1].shape == (2, 3)
    for rep in reps:
        found = enumerate_lifted_symmetries(rep)
        assert found == _symmetries_by_is_symmetry(rep)
        assert found[0] == PhasePointMap.identity(rep.shape)


def test_enumeration_matches_is_symmetry_on_ball_images():
    sizes = []
    for rep in _ball_reps():
        assert is_faithful(rep)
        found = enumerate_lifted_symmetries(rep)
        assert found == _symmetries_by_is_symmetry(rep)
        sizes.append(len(found))
    # images of W keep all of S_4; moving the center keeps the 4 maps
    # that send {(0,0), (1,1)} onto itself
    assert sizes[0:6:2] == [24, 24, 24] and sizes[6] == 4


def _random_polygon_reps(rng, shape, count):
    """Degenerate and random family members on random polygons."""
    reps = []
    while len(reps) < count:
        space = random_polygon(rng, max_points=5)
        a = random_observable(rng, space, "A", shape[0])
        b = random_observable(rng, space, "B", shape[1])
        if len(reps) % 2:
            reps.append(degenerate_rep(a, b, space))
        else:
            reps.append(construct_family(a, b, space, random_free_block(rng, space, a, b)))
    return reps


def test_permutation_test_matches_the_fraction_invariants():
    """The integer invariants give the Fraction invariants' verdict on
    every permutation of every grid."""
    rng = random.Random(139)
    reps = (_polygon_reps() + _random_polygon_reps(rng, (2, 2), 20)
            + _random_polygon_reps(rng, (2, 3), 3) + _ball_reps())
    verdicts = {True: 0, False: 0}
    for rep in reps:
        test, oracle = symmetry._permutation_test(rep), ref.fraction_permutation_test(rep)
        n = rep.shape[0] * rep.shape[1]
        for perm in itertools.permutations(range(n)):
            verdict = test(perm)
            assert verdict == oracle(perm)
            verdicts[verdict] += 1
    assert verdicts[True] > 100 and verdicts[False] > 1000


def _flattened(rep):
    """``rep`` with every functional read at (x, 0): a representation of
    the flattened observables, which forgets y, so W is not injective on
    a polygon of dimension two."""
    drop_y = AffineMap.from_rows([[1, 0], [0, 0]], [0, 0])

    def flat(obs):
        return Observable(obs.name, obs.outcomes, tuple(f.compose(drop_y) for f in obs.effects))

    grid = tuple(tuple(f.compose(drop_y) for f in row) for row in rep.grid)
    return WignerRep(rep.state_space, flat(rep.obs_a), flat(rep.obs_b), grid)


def test_enumeration_skips_the_hull_search_when_w_is_injective(monkeypatch):
    """A faithful W is injective on aff(K), so its vertex images are the
    extreme points of W(K) and ``_describe`` never runs; otherwise the
    hull search decides them, and enumeration agrees with ``is_symmetry``."""
    rng = random.Random(149)
    reps = (_polygon_reps() + _random_polygon_reps(rng, (2, 2), 16)
            + _random_polygon_reps(rng, (2, 3), 2))
    injective = [rep for rep in reps if is_faithful(rep)]
    other = [rep for rep in reps if not is_faithful(rep)]
    other += [_flattened(rep) for rep in injective if dimension(rep.state_space) == 2][:12]
    other.append(catalog.load("cube").representations["W_0"])
    assert len(injective) >= 8 and len(other) >= 8
    assert not any(map(is_faithful, other))
    expected = [_symmetries_by_is_symmetry(rep) for rep in injective]
    # is_symmetry reads W(K)'s facets from _describe too: decide it first
    expected_other = [_symmetries_by_is_symmetry(rep) for rep in other]
    real = symmetry._describe
    calls = None  # a list once the hull search is allowed

    def describe(points):
        if calls is None:
            raise AssertionError("hull search on an injective representation")
        calls.append(len(points))
        return real(points)

    monkeypatch.setattr(symmetry, "_describe", describe)
    for rep, want in zip(injective, expected):
        assert enumerate_lifted_symmetries(rep) == want
    for rep, want in zip(other, expected_other):
        calls = []
        assert enumerate_lifted_symmetries(rep) == want
        assert len(calls) == 1  # the fallback ran, once


def test_enumerated_maps_equal_the_checked_constructor():
    """``enumerate_lifted_symmetries`` builds its maps without the table
    check; each equals, hashes and prints as ``PhasePointMap`` built with
    it, and the public constructor still refuses a bad table."""
    rng = random.Random(151)
    reps = _polygon_reps() + _random_polygon_reps(rng, (2, 3), 2) + _ball_reps()
    found = 0
    for rep in reps:
        for phi in enumerate_lifted_symmetries(rep):
            checked = PhasePointMap(phi.shape, phi.table)
            assert phi == checked and hash(phi) == hash(checked) and repr(phi) == repr(checked)
            assert type(phi) is PhasePointMap and type(phi.table) is tuple
            found += 1
    assert found > 50
    for table in ((0, 1, 2), (0, 1, 2, 4), (0, 1, 2, -1)):
        with pytest.raises(ValueError, match="table must map the phase space into itself"):
            PhasePointMap(SHAPE, table)


def test_lifted_transport_matches_the_composed_equations():
    """``find_transported_channel`` reads psi . W off a lift's phase table;
    ``reference_kernels.composed_with_rep`` builds it as the transfer
    matrix times W.  On every permutation of every 2x2 representation
    both equations give the same channel, or the same program,
    certificate and witness."""
    found = {True: 0, False: 0}
    for rep in [rep for rep in _polygon_reps() if rep.shape == SHAPE]:
        space = rep.state_space
        for table in itertools.permutations(range(4)):
            psi = lift(PhasePointMap(SHAPE, table))
            targets = ref.composed_with_rep(rep, psi.as_affine_map())
            want = theory.find_channel(space, space, list(zip(rep.functionals(), targets)))
            got = find_transported_channel(rep, psi)
            # records: a channel's map and spaces, or the program,
            # certificate and witness of an infeasible one
            assert type(got) is type(want) and got == want
            found[isinstance(got, Channel)] += 1
    assert found[True] >= 20 and found[False] >= 100, found


def _primitive(rows):
    """The rows times the one positive factor that makes them ints with
    gcd 1: equal for two lists of rows iff one is a positive multiple of
    the other."""
    scale = math.lcm(*(x.denominator for row in rows for x in row))
    ints = [[x.numerator * (scale // x.denominator) for x in row] for row in rows]
    g = math.gcd(*(x for row in ints for x in row))
    return [tuple(x // g for x in row) for row in ints]


def test_permutation_invariants_hold_ints():
    """The invariants are held as ints, so lookups hash ints, not
    Fractions.  The extreme points of W(K) and a ball's g0 are the
    Fraction invariants times one positive factor (the denominator of
    ``int_values``).  A ball's shape matrix is G G^T times a positive
    factor, and the former invariant S = G (G^T G)^-2 G^T is its
    pseudo-inverse: G G^T S G G^T = G G^T, so the two fix the same
    permutations."""
    for rep in _polygon_reps():
        ext = inspect.getclosurevars(symmetry._permutation_test(rep)).nonlocals["ext"]
        frac = inspect.getclosurevars(ref.fraction_permutation_test(rep)).nonlocals["ext"]
        assert all(type(x) is int for point in ext for x in point)
        ext, frac = list(ext), list(frac)
        assert len(ext) == len(frac) and set(_primitive(ext)) == set(_primitive(frac))
    for rep in _ball_reps():
        invariants = inspect.getclosurevars(symmetry._permutation_test(rep)).nonlocals
        frac = inspect.getclosurevars(ref.fraction_permutation_test(rep)).nonlocals
        g0, s = invariants["g0"], invariants["s"]
        assert all(type(x) is int for row in [g0, *s] for x in row)
        assert _primitive([g0]) == _primitive([frac["g0"]])
        images = [evaluate(rep, p).flatten() for p in geometry.affine_basis(rep.state_space)]
        g = [[x - y for x, y in zip(w, images[0])] for w in images[1:]]  # columns of G
        ggt = [[sum(col[i] * col[j] for col in g) for j in range(len(g0))]
               for i in range(len(g0))]
        assert _primitive(s) == _primitive(ggt)
        ggt_s = [[sum(a * b for a, b in zip(row, col)) for col in zip(*frac["s"])] for row in ggt]
        assert [[sum(a * b for a, b in zip(row, col)) for col in zip(*ggt)]
                for row in ggt_s] == ggt


def test_is_symmetry_rejects_the_grid_map_of_a_disk_shear():
    """x -> [[1, -1], [0, 0]] x + (-1/2, 0) sends (-1, 0) of the disk to
    (-3/2, 0); its grid map for qubit_xz's W is no symmetry, with that
    state as the counterexample."""
    rep = catalog.load("qubit_xz").representations["W"]
    shear = AffineMap.from_rows([[1, -1], [0, 0]], [F(-1, 2), 0])
    basis = geometry.affine_basis(rep.state_space)

    def w(x):
        return tuple(f(x) for f in rep.functionals())

    psi = geometry.affine_map_with_orthogonal_extension(
        [w(p) for p in basis], [w(shear(p)) for p in basis])
    check = is_symmetry(rep, psi)
    assert not check.ok and check.counterexample == (-1, 0)
    assert check.image.flatten() == psi(w((-1, 0))) == w((F(-3, 2), 0))


def test_ball_witness_when_the_image_leaves_the_affine_hull():
    rep = _ball_reps()[0]
    center = rep.state_space.center
    shift = AffineMap(AffineMap.identity(4).matrix, (1, 0, 0, 0))
    check = is_symmetry(rep, shift)
    assert not check.ok and check.counterexample == center
    assert check.image is None  # the escaping image has mass 2, not a grid


def test_g_symmetric_is_is_symmetry_over_the_closed_group():
    rng = random.Random(17)
    for rep in _polygon_reps()[:6] + _ball_reps()[:2]:
        found = list(enumerate_lifted_symmetries(rep))
        n = rep.shape[0] * rep.shape[1]
        perms = [PhasePointMap(rep.shape, p) for p in itertools.permutations(range(n))]
        for gens in (found, rng.sample(found, 1) + rng.sample(perms, 1), rng.sample(perms, 2)):
            expected = all(is_symmetry(rep, lift(g)).ok for g in ref.close_group(gens))
            assert is_g_symmetric(rep, gens) == expected


def test_g_symmetric_by_generators_matches_the_closed_group():
    """Testing each generator once decides what testing every element of
    the closed group decided: on the lifted symmetries of the polygon
    representations, on random subsets of them and of all permutations,
    and on the qubit ball's G4 generators."""
    rng = random.Random(23)
    cases = []
    for rep in _polygon_reps():
        found = list(enumerate_lifted_symmetries(rep))
        n = rep.shape[0] * rep.shape[1]
        perms = [PhasePointMap(rep.shape, p) for p in itertools.permutations(range(n))]
        cases += [(rep, found), (rep, rng.sample(found, rng.randint(1, len(found))))]
        cases += [(rep, rng.sample(perms, k)) for k in (1, 2)]
        cases.append((rep, rng.sample(found, 1) + rng.sample(perms, 1)))
    entry = catalog.load("qubit_ball")
    gens = [entry.named_maps[n] for n in ("phi01", "phi10", "phi11")]
    cases += [(entry.representations["W"], gens[:k]) for k in range(4)]
    verdicts = [is_g_symmetric(rep, g) for rep, g in cases]
    assert verdicts == [ref.is_g_symmetric_by_closure(rep, g) for rep, g in cases]
    assert True in verdicts and False in verdicts


def test_g_symmetric_generators_must_permute_the_phase_space():
    with pytest.raises(PreconditionError):
        is_g_symmetric(W0, [PhasePointMap(SHAPE, (0, 0, 2, 3))])
    with pytest.raises(PreconditionError):
        is_g_symmetric(W0, [PhasePointMap.identity((1, 4))])


def _outcome(f, *args):
    """``f(*args)``, or the type and message of the error it raises."""
    try:
        return f(*args)
    except (PreconditionError, UnsupportedGeometryError) as exc:
        return type(exc), str(exc)


def test_non_faithful_ball_is_still_unsupported():
    """A lossy ball representation is refused as before: ``is_symmetry``
    and ``induced_action`` raise the chart route's errors and messages."""
    rep = qubit_ball_image(random.Random(3))
    lossy = degenerate_rep(rep.obs_a, rep.obs_b, rep.state_space)
    assert not is_faithful(lossy)
    with pytest.raises(UnsupportedGeometryError, match="needs a faithful representation"):
        enumerate_lifted_symmetries(lossy)
    with pytest.raises(UnsupportedGeometryError, match="needs a faithful representation"):
        is_g_symmetric(lossy, [PhasePointMap.identity(lossy.shape)])
    for phi in (PhasePointMap.identity(SHAPE), SWAP_0011, PhasePointMap(SHAPE, (0, 0, 2, 3))):
        for engine, oracle in ((is_symmetry, ref.chart_is_symmetry),
                               (induced_action, ref.chart_induced_action)):
            arg = phi if engine is induced_action else lift(phi)
            got = _outcome(engine, lossy, arg)
            assert got == _outcome(oracle, lossy, arg) and isinstance(got, tuple)


def _ball_grid_maps(rng, rep, count):
    """Affine grid maps for ``rep``: ``count`` of the form W . A . W^-1 on
    aff W(K), A a random scaled rotation plus a shift of the state space
    (some keep K inside K, some do not), and ``count`` with random
    entries, which leave aff W(K)."""
    space = rep.state_space
    basis = geometry.affine_basis(space)
    d, n = space.ambient_dim, rep.shape[0] * rep.shape[1]

    def w(x):
        return tuple(f(x) for f in rep.functionals())

    maps = []
    for _ in range(count):
        q = random_rotation(rng) if d == 3 else ((F(3, 5), F(-4, 5)), (F(4, 5), F(3, 5)))
        c = F(rng.randint(1, 5), 4)
        t = [random_fraction(rng, -1, 1) * space.radius / 4 for _ in range(d)]
        a = AffineMap.from_rows([[c * x for x in row] for row in q],
                                [x - sum(c * y * z for y, z in zip(row, space.center)) + z0
                                 for row, x, z0 in zip(q, space.center, t)])
        maps.append(geometry.affine_map_with_orthogonal_extension(
            [w(p) for p in basis], [w(a(p)) for p in basis]))
    for _ in range(count):
        maps.append(AffineMap.from_rows(
            [[random_fraction(rng, -1, 1) for _ in range(n)] for _ in range(n)],
            [random_fraction(rng, -1, 1) for _ in range(n)]))
    return maps


def test_ball_pull_backs_match_the_chart_route(monkeypatch):
    """The square's equations replace the chart on balls.  On the catalog
    ball representations and 40 seeded ball images: the GG^T invariant
    gives ``fraction_permutation_test``'s verdict on every permutation;
    ``is_symmetry`` returns exactly the chart route's check (verdict,
    counterexample and image) on every lifted permutation, on seeded
    non-permutation tables and on seeded affine grid maps, some of which
    leave aff W(K), with the same refusal of a tight map; and
    ``induced_action`` returns exactly its channel, or its error.  No
    path solves an LP."""

    def forbidden(lp):
        raise AssertionError("LP solved")

    monkeypatch.setattr(exact, "_phase_one", forbidden)
    rng = random.Random(181)
    reps = [catalog.load(name).representations["W"] for name in ("qubit_ball", "qubit_xz")]
    reps += [qubit_ball_image(rng, random_member=k % 2 == 1) for k in range(40)]
    seen = collections.Counter()
    for rep in reps:
        assert is_faithful(rep)
        n = rep.shape[0] * rep.shape[1]
        test, oracle = symmetry._permutation_test(rep), ref.fraction_permutation_test(rep)
        tables = list(itertools.permutations(range(n)))
        tables += [tuple(rng.randrange(n) for _ in range(n)) for _ in range(4)]
        for table in tables:
            phi = PhasePointMap(rep.shape, table)
            check = _outcome(is_symmetry, rep, lift(phi))
            assert check == _outcome(ref.chart_is_symmetry, rep, lift(phi))
            if phi.is_permutation:
                assert test(table) == oracle(table) == check.ok
            assert (_outcome(induced_action, rep, phi)
                    == _outcome(ref.chart_induced_action, rep, phi))
            seen["permutation" if phi.is_permutation else "table", _verdict(check)] += 1
        for m in _ball_grid_maps(rng, rep, 3):
            check = _outcome(is_symmetry, rep, m)
            assert check == _outcome(ref.chart_is_symmetry, rep, m)
            seen["map", _verdict(check)] += 1
    # a table that merges phase points collapses W(K): never a symmetry here
    wanted = [("permutation", True), ("permutation", False), ("table", False),
              ("map", True), ("map", False), ("map", "off aff")]
    assert all(seen[key] > 0 for key in wanted), seen


def test_ball_counterexample_off_the_affine_hull_takes_one_elimination(monkeypatch):
    """A grid map that sends W(K) of a ball off its affine hull has as
    counterexample the first basis point p whose image m(W(p)) no state
    reaches (a ``solve_affine`` per basis point finds it).
    ``is_symmetry`` reads it off the ``rref`` of ``theory._fixed_map``,
    the one elimination of each call; ``symmetry`` runs none of its own."""
    assert not hasattr(symmetry, "rref")
    calls = []
    rref = theory.rref

    def counted(rows, ncols):
        calls.append(ncols)
        return rref(rows, ncols)

    monkeypatch.setattr(theory, "rref", counted)
    rng = random.Random(191)
    reps = [catalog.load(name).representations["W"] for name in ("qubit_ball", "qubit_xz")]
    off = 0
    for rep in reps + _ball_reps():
        funcs = rep.functionals()
        basis = geometry.affine_basis(rep.state_space)
        for m in _ball_grid_maps(rng, rep, 3):
            calls.clear()
            check = _outcome(is_symmetry, rep, m)
            assert calls == [rep.state_space.ambient_dim]
            unreached = [p for p in basis if exact.solve_affine(
                [f.linear for f in funcs],
                [y - f.constant for y, f in zip(m(evaluate(rep, p).flatten()), funcs)]) is None]
            if unreached:
                assert not check.ok and check.counterexample == unreached[0]
                off += 1
    assert off > 5


def _verdict(check):
    """True, False, "off aff" for an image outside aff W(K) (its
    counterexample is a basis point whose image is not a grid: the mass
    changed), or "refused" for a tight ball map."""
    if isinstance(check, tuple):
        return "refused"
    return "off aff" if not check.ok and check.image is None else check.ok


@pytest.fixture
def lp_calls(monkeypatch):
    """Counts lp_feasible calls; per-permutation tests raise if reached."""

    def forbidden(*args, **kwargs):
        raise AssertionError("enumeration tested a permutation one by one")

    monkeypatch.setattr(symmetry, "map_into", forbidden)
    monkeypatch.setattr(symmetry, "is_symmetry", forbidden)
    calls = []
    real = exact.lp_feasible

    def counting(lp):
        calls.append(lp)
        return real(lp)

    for module in (exact, theory):
        monkeypatch.setattr(module, "lp_feasible", counting)
    return calls


def test_only_compatibility_and_channels_call_the_simplex():
    """``lp_feasible`` is called from ``theory.are_compatible`` and
    ``theory.find_channel`` and nowhere else in the engine."""
    for module in (geometry, symmetry, wigner):
        assert not hasattr(module, "lp_feasible"), module.__name__
    callers = set()
    for path in sorted(pathlib.Path(exact.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for func in ast.walk(tree):
            if isinstance(func, ast.FunctionDef):
                for node in ast.walk(func):
                    if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                            and node.func.id == "lp_feasible"):
                        callers.add((path.stem, func.name))
    assert callers == {("theory", "are_compatible"), ("theory", "find_channel")}


def test_enumeration_on_a_ball_makes_no_lp(lp_calls):
    assert len(enumerate_lifted_symmetries(_ball_reps()[0])) == 24
    assert lp_calls == []


def test_enumeration_on_a_polytope_makes_only_the_hull_lps(lp_calls):
    """Stricter than its name: the extreme points of W(K) come from the
    facet description of its hull, so enumeration makes no LP at all."""
    reps = _polygon_reps()
    for rep in (WHALF, reps[-1]):  # 24 and 720 permutations
        images = [evaluate(rep, v).flatten() for v in rep.state_space.vertices]
        Polytope.hull_of(images)
        assert lp_calls == []
        assert enumerate_lifted_symmetries(rep)
        assert lp_calls == []


def test_induced_action_solves_the_square_once(monkeypatch):
    """On a ball, ``induced_action`` pulls lift(phi) back through W by
    one ``channel_system`` of the transport equations and one
    ``_fixed_map``, with no LP."""
    entry = catalog.load("qubit_ball")
    rep, phi = entry.representations["W"], entry.named_maps["phi01"]
    calls = []
    channel_system, fixed_map = symmetry.channel_system, symmetry._fixed_map

    def counted_system(source, target, equations):
        calls.append(("system", equations))
        return channel_system(source, target, equations)

    def counted_fixed(source, ints, d2):
        calls.append(("fixed", d2))
        return fixed_map(source, ints, d2)

    def forbidden(lp):
        raise AssertionError("LP solved")

    monkeypatch.setattr(symmetry, "channel_system", counted_system)
    monkeypatch.setattr(symmetry, "_fixed_map", counted_fixed)
    monkeypatch.setattr(exact, "_phase_one", forbidden)
    chan = induced_action(rep, phi)
    assert calls == [("system", programs.transport_equations(rep, phi.table)), ("fixed", 3)]
    assert chan.map.matrix.entries == (
        (F(0), F(-1), F(0)), (F(-1), F(0), F(0)), (F(0), F(0), F(1))
    )


def _polytope_theories():
    """Catalog polytope theories and random polygon theories, built anew."""
    rng = random.Random(163)
    names = ("trit", "boxworld", "rebit_diamond", "deformed_12gon")
    return ([catalog.load(name).theory for name in names]
            + [random_theory(rng, max_points=5, outcome_choices=(2, 2, 3)) for _ in range(10)])


def _consumer_results(t):
    """What the engine's consumers of vertex and basis points answer on
    the theory ``t``."""
    a, b, space = t.obs_a, t.obs_b, t.state_space
    rep = construct_family(a, b, space, {})
    member = wigner.faithful_member(a, b, space)
    out = [rep, is_faithful(rep), member, theory.are_compatible(a, b, space),
           theory.is_surjective(a, space), theory.is_surjective(b, space)]
    for perm_a, perm_b in programs.generators(a.n_outcomes, b.n_outcomes):
        equations = programs.permutation_equations(a, b, perm_a, perm_b)
        out.append(theory.find_channel(space, space, equations))
    for r in (rep, member):
        if r is not None and r.shape[0] * r.shape[1] <= symmetry.ENUMERATION_GUARD:
            found = enumerate_lifted_symmetries(r)
            out += [found, *(find_transported_channel(r, lift(phi)) for phi in found[:3])]
    return out


def test_consumers_read_the_kept_integer_form(monkeypatch):
    """With the scaling helper refusing a polytope's vertex points (which
    are its basis points too), every consumer answers as before: each
    reads the int rows that the polytope keeps, and none scales a vertex."""
    expected = [_consumer_results(t) for t in _polytope_theories()]
    theories = _polytope_theories()
    vertices = {id(v) for t in theories for v in t.state_space.vertices}
    integer_rows = _kernels.integer_rows

    def refusing(rows):
        if any(id(row) in vertices for row in rows):
            raise AssertionError("a polytope vertex scaled again")
        return integer_rows(rows)

    for module in (_kernels, exact, geometry, programs, symmetry, theory, wigner):
        monkeypatch.setattr(module, "integer_rows", refusing, raising=False)
    assert [_consumer_results(t) for t in theories] == expected


def test_ball_enumeration_evaluates_the_grid_at_the_basis_once(monkeypatch):
    """``_permutation_test`` on a ball decides faithfulness from the
    chart's values (Bareiss rank dim + 1), so enumerating evaluates the
    grid once, and a lossy representation is still refused."""
    entry = catalog.load("qubit_ball")
    rep = entry.representations["W"]
    expected = enumerate_lifted_symmetries(rep)
    calls = []
    int_values = symmetry.int_values

    def counted(funcs, xs, q):
        calls.append(len(xs))
        return int_values(funcs, xs, q)

    monkeypatch.setattr(symmetry, "int_values", counted)
    assert enumerate_lifted_symmetries(rep) == expected and len(expected) > 1
    assert calls == [4]
    lossy = wigner.degenerate_rep(entry.theory.obs_a, entry.theory.obs_b, rep.state_space)
    assert not wigner.is_faithful(lossy)
    with pytest.raises(UnsupportedGeometryError, match="faithful"):
        enumerate_lifted_symmetries(lossy)


def test_transport_of_a_faithful_symmetry_is_its_induced_action(monkeypatch):
    """On faithful polytope representations ``induced_action`` returns
    exactly ``find_transported_channel``'s channel: both solve the
    commuting square's equations.  The former chart route
    (``reference_kernels.chart_induced_action``) gives the same map on
    K's vertices, and the same map whenever K is full-dimensional.  Off a
    lower-dimensional aff(K) the chart extends orthogonally and the
    equations with free unknowns 0, so there the maps differ (on these
    representations, for every symmetry but the identity).  No route
    solves an LP."""
    rng = random.Random(113)
    reps = [rep for rep in _polygon_reps() if is_faithful(rep)]
    while len(reps) < 14:
        t = random_theory(rng, max_points=4, outcome_choices=(2,))
        rep = wigner.faithful_member(t.obs_a, t.obs_b, t.state_space)
        if rep is not None:
            reps.append(rep)
    reps += [
        rep
        for name in catalog.CATALOG_NAMES
        for rep in catalog.load(name).representations.values()
        if isinstance(rep.state_space, Polytope) and is_faithful(rep)
    ]

    def forbidden(lp):
        raise AssertionError("LP solved")

    monkeypatch.setattr(exact, "_phase_one", forbidden)
    compared = collections.Counter()
    for rep in reps:
        space = rep.state_space
        full = dimension(space) == space.ambient_dim
        for phi in enumerate_lifted_symmetries(rep):
            induced = induced_action(rep, phi)
            assert induced == find_transported_channel(rep, lift(phi))
            chart = ref.chart_induced_action(rep, phi)
            assert all(induced(v) == chart(v) for v in space.vertices)
            if full:
                assert induced.map == chart.map
            compared[full, induced.map == chart.map] += 1
    assert compared[True, True] > 20 and compared[False, False] > 0, compared