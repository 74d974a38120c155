"""Symmetry-layer tests: lifts, symmetry detection, transport, induced
actions, permutation channels and the covariant solver."""

from fractions import Fraction as F
import itertools
import random

import pytest

from helpers import (
    qubit_ball_image,
    random_free_block,
    random_observable,
    random_polygon,
    random_theory,
)
from wignerlab import catalog, exact, geometry, symmetry, theory, wigner
from wignerlab.errors import PreconditionError, SizeGuardError, UnsupportedGeometryError
from wignerlab.exact import verify_certificate
from wignerlab.geometry import AffineFunctional, AffineMap, Ball, Polytope
from wignerlab.symmetry import (
    PermutationAction,
    PhasePointMap,
    ProductGroupElement,
    TransportObstruction,
    close_group,
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
    for ex in entry.expected:
        if ex.kind == "induced_action":
            assert catalog._replay_one(entry, ex)
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
    group = close_group([SWAP_0110, SWAP_0011])
    assert len(group) == 4
    assert is_g_symmetric(WHALF, [SWAP_0110, SWAP_0011])
    assert not is_g_symmetric(WHALF, [SWAP_0001])
    assert not is_g_symmetric(W0, [SWAP_0110, SWAP_0011, SWAP_0001])
    assert is_g_symmetric(W0, [])


def test_find_permutation_channels_boxworld():
    result = find_permutation_channels(OBS_A, OBS_B, SQUARE)
    assert isinstance(result, PermutationAction)
    assert len(result.channels) == 4
    swap_a = ProductGroupElement((1, 0), (0, 1))
    chan = result.channels[swap_a]
    assert chan((0, 0)) == (F(1), F(0))
    ident = result.channels[ProductGroupElement.identity(2, 2)]
    assert all(ident(v) == v for v in SQUARE.vertices)


def test_find_permutation_channels_needs_info_completeness():
    with pytest.raises(PreconditionError):
        find_permutation_channels(OBS_A, OBS_A, SQUARE)


def test_covariant_boxworld_unique():
    result = solve_covariant(OBS_A, OBS_B, SQUARE)
    assert result.kind == "unique"
    assert result.rep.grid[0][0] == AffineFunctional((F(1, 2), F(1, 2)), F(-1, 4))
    assert result.symmetries_verified
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


def test_covariant_family_when_symmetry_is_scarce():
    # one-outcome second observable: covariance fixes nothing across columns,
    # leaving genuine freedom on a square state space with one binary reading
    obs_unit = Observable("unit", ("*",), (ONE2,))
    result = solve_covariant(OBS_A, obs_unit, SQUARE, channels={})
    # the pair is not info-complete, and channels were supplied explicitly
    assert result.kind in ("family", "unique")


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
            expected = all(is_symmetry(rep, lift(g)).ok for g in close_group(gens))
            assert is_g_symmetric(rep, gens) == expected


def test_non_faithful_ball_is_still_unsupported():
    rep = qubit_ball_image(random.Random(3))
    lossy = degenerate_rep(rep.obs_a, rep.obs_b, rep.state_space)
    assert not is_faithful(lossy)
    with pytest.raises(UnsupportedGeometryError):
        enumerate_lifted_symmetries(lossy)
    with pytest.raises(UnsupportedGeometryError):
        is_g_symmetric(lossy, [PhasePointMap.identity(lossy.shape)])


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

    for module in (exact, geometry, symmetry, theory, wigner):
        monkeypatch.setattr(module, "lp_feasible", counting)
    return calls


def test_enumeration_on_a_ball_makes_no_lp(lp_calls):
    assert len(enumerate_lifted_symmetries(_ball_reps()[0])) == 24
    assert lp_calls == []


def test_enumeration_on_a_polytope_makes_only_the_hull_lps(lp_calls):
    reps = _polygon_reps()
    for rep in (WHALF, reps[-1]):  # 24 and 720 permutations
        images = [evaluate(rep, v).flatten() for v in rep.state_space.vertices]
        lp_calls.clear()
        Polytope.hull_of(images)
        hull_lps = len(lp_calls)
        lp_calls.clear()
        enumerate_lifted_symmetries(rep)
        assert len(lp_calls) == hull_lps > 0


def test_induced_action_builds_the_chart_once(monkeypatch):
    """On a ball the precondition and the pull-back share one chart and
    one faithfulness test."""
    entry = catalog.load("qubit_ball")
    rep = entry.representations["W"]
    calls = {"chart": 0, "faithful": 0}
    chart, faithful = symmetry._chart, symmetry.is_faithful

    def counted_chart(r):
        calls["chart"] += 1
        return chart(r)

    def counted_faithful(r):
        calls["faithful"] += 1
        return faithful(r)

    monkeypatch.setattr(symmetry, "_chart", counted_chart)
    monkeypatch.setattr(symmetry, "is_faithful", counted_faithful)
    chan = induced_action(rep, entry.named_maps["phi01"])
    assert calls == {"chart": 1, "faithful": 1}
    assert chan.map.matrix.entries == (
        (F(0), F(-1), F(0)), (F(-1), F(0), F(0)), (F(0), F(0), F(1))
    )
