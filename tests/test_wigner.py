"""Representation-layer tests: family construction, positivity,
faithfulness, isomorphisms."""

from fractions import Fraction as F
import itertools
import random

import pytest

from helpers import random_fraction, random_free_block, random_polygon, random_theory
from reference_kernels import (
    closed_form_family,
    cross_corner_family,
    entrywise_positive_member,
    greedy_faithful_member,
)
from wignerlab import catalog, exact, wigner
from wignerlab.errors import DomainError, PreconditionError
from wignerlab.geometry import AffineFunctional, Ball, ExtremalValue, Polytope
from wignerlab.theory import Observable, measure
from wignerlab.wigner import (
    NoPositiveMember,
    PositiveFound,
    SignedGrid,
    WignerRep,
    check_marginals,
    construct_family,
    degenerate_rep,
    evaluate,
    faithful_choice_possible,
    faithful_member,
    grid_rank,
    is_faithful,
    is_positive,
    isomorphism,
    perturb,
    positive_member,
)

ONE2 = AffineFunctional.one(2)
SQUARE = Polytope([(0, 0), (0, 1), (1, 0), (1, 1)])
FX = AffineFunctional((1, 0), 0)
FY = AffineFunctional((0, 1), 0)
OBS_A = Observable("A", (0, 1), (FX, ONE2 - FX))
OBS_B = Observable("B", (0, 1), (FY, ONE2 - FY))
W0 = construct_family(OBS_A, OBS_B, SQUARE, {})
WHALF = construct_family(OBS_A, OBS_B, SQUARE, {(0, 0): (FX + FY).scale(F(1, 2))})

CUBE = Polytope([(i, j, k) for i in (0, 1) for j in (0, 1) for k in (0, 1)])
FX3 = AffineFunctional((1, 0, 0), 0)
FY3 = AffineFunctional((0, 1, 0), 0)
FZ3 = AffineFunctional((0, 0, 1), 0)
ONE3 = AffineFunctional.one(3)
OBS_A3 = Observable("A", (0, 1), (FX3, ONE3 - FX3))
OBS_B3 = Observable("B", (0, 1), (FY3, ONE3 - FY3))


def grid(rows):
    return tuple(tuple(F(x) for x in row) for row in rows)


def test_signed_grid_invariants():
    g = SignedGrid(grid([[0, 1], [1, -1]]))
    assert g.row_sums() == (F(1), F(0))
    assert g.col_sums() == (F(1), F(0))
    with pytest.raises(ValueError):
        SignedGrid(grid([[1, 1], [0, 1]]))


def test_evaluate_known_grids_and_domain():
    assert evaluate(W0, (1, 1)).entries == grid([[0, 1], [1, -1]])
    assert evaluate(WHALF, (0, 1)).entries == grid([["1/2", "-1/2"], ["1/2", "1/2"]])
    with pytest.raises(DomainError):
        evaluate(W0, (3, 3))


def test_evaluate_rows_are_measurements_random():
    rng = random.Random(41)
    for _ in range(40):
        theory = random_theory(rng, outcome_choices=(2, 3))
        rep = construct_family(
            theory.obs_a, theory.obs_b, theory.state_space,
            random_free_block(rng, theory.state_space, theory.obs_a, theory.obs_b),
        )
        for v in theory.state_space.vertices:
            g = evaluate(rep, v)
            assert sum(g.flatten()) == 1
            assert g.row_sums() == measure(theory.obs_a, v, theory.state_space).values
            assert g.col_sums() == measure(theory.obs_b, v, theory.state_space).values


def test_check_marginals_names_the_broken_axis():
    bumped = WignerRep(
        SQUARE, OBS_A, OBS_B,
        ((W0.grid[0][0].shift(1), W0.grid[0][1]), W0.grid[1]),
    )
    report = check_marginals(bumped)
    assert not report.ok
    assert {(v.axis, v.index) for v in report.violations} == {("row", 0), ("column", 0)}


def test_family_anchor_examples():
    # anchored at the last outcomes, a zero free slot gives the plain grid
    assert W0.grid[0][0] == AffineFunctional.zero(2)
    assert W0.grid[0][1] == FX
    assert W0.grid[1][0] == FY
    assert W0.grid[1][1] == ONE2 - FX - FY
    wz = construct_family(OBS_A3, OBS_B3, CUBE, {(0, 0): FZ3})
    assert wz.grid[0][0] == FZ3
    assert check_marginals(wz).ok


def test_family_rejects_bad_slots():
    with pytest.raises(ValueError):
        construct_family(OBS_A, OBS_B, SQUARE, {(1, 1): FX})
    with pytest.raises(ValueError):
        construct_family(OBS_A, OBS_B, SQUARE, {}, anchor=(2, 0))


def test_perturb_marginals_and_involution():
    p = perturb(W0, 0, 1, 0, 1, F(3, 7))
    assert check_marginals(p).ok
    assert p != W0
    assert perturb(p, 0, 1, 0, 1, F(-3, 7)) == W0
    assert perturb(W0, 0, 1, 0, 1, 0) == W0
    with pytest.raises(ValueError):
        perturb(W0, 0, 0, 0, 1, 1)


def test_positivity_with_witnesses():
    result = is_positive(W0)
    assert not result.ok
    assert result.witness.phase_point == (1, 1)
    assert result.witness.state == (F(1), F(1))
    assert result.witness.value == F(-1)
    obs_c = Observable("C", (0, 1), (FX.scale(F(1, 2)), ONE2 - FX.scale(F(1, 2))))
    obs_d = Observable("D", (0, 1), (FY.scale(F(1, 2)), ONE2 - FY.scale(F(1, 2))))
    assert is_positive(degenerate_rep(obs_c, obs_d, SQUARE)).ok


def test_faithfulness_ranks():
    w0c = construct_family(OBS_A3, OBS_B3, CUBE, {})
    wzc = construct_family(OBS_A3, OBS_B3, CUBE, {(0, 0): FZ3})
    assert grid_rank(w0c) == 3 and not is_faithful(w0c)
    assert grid_rank(wzc) == 4 and is_faithful(wzc)
    assert is_faithful(W0) and is_faithful(WHALF)


def test_degenerate_rep_collapse_and_info_complete_case():
    w0c = degenerate_rep(OBS_A3, OBS_B3, CUBE)
    for i in (0, 1):
        for j in (0, 1):
            assert evaluate(w0c, (i, j, 0)) == evaluate(w0c, (i, j, 1))
    # on an info-complete pair the same construction stays faithful
    assert is_faithful(degenerate_rep(OBS_A, OBS_B, SQUARE))


def test_faithful_choice_sides():
    fc = faithful_choice_possible(OBS_A, OBS_B, SQUARE)
    assert (fc.possible, fc.free_slots, fc.required) == (True, 1, 0)
    fc3 = faithful_choice_possible(OBS_A3, OBS_B3, CUBE)
    assert (fc3.possible, fc3.free_slots, fc3.required) == (True, 1, 1)
    # two copies of one observable on the trit leave rank 2
    tri = Polytope([(1, 0), (0, 1), (0, 0)])
    f = AffineFunctional((1, 0), 0)
    obs = Observable("A", (0, 1), (f, ONE2 - f))
    fct = faithful_choice_possible(obs, obs, tri)
    assert (fct.possible, fct.free_slots, fct.required) == (True, 1, 1)


def test_faithful_member_matches_inequality_random():
    rng = random.Random(43)
    for _ in range(40):
        theory = random_theory(rng, outcome_choices=(2, 3))
        fc = faithful_choice_possible(theory.obs_a, theory.obs_b, theory.state_space)
        member = faithful_member(theory.obs_a, theory.obs_b, theory.state_space)
        assert (member is not None) == fc.possible
        if member is not None:
            assert is_faithful(member)
            assert check_marginals(member).ok


def _differential_cases():
    """(obs_a, obs_b, space, anchor): random theories, random observables
    whose effects need not sum to one, and every ordered pair of catalog
    observables (with itself too) under the default and the (0, 0)
    anchor."""
    rng = random.Random(808)
    cases = []
    for _ in range(60):
        t = random_theory(rng, outcome_choices=(1, 2, 3))
        anchor = rng.choice([None, (0, 0), (t.obs_a.n_outcomes - 1, 0)])
        cases.append((t.obs_a, t.obs_b, t.state_space, anchor))
    for _ in range(20):
        space = random_polygon(rng)
        a, b = (
            Observable(name, tuple(range(k)), tuple(
                AffineFunctional((random_fraction(rng), random_fraction(rng)), random_fraction(rng))
                for _ in range(k)))
            for name, k in (("A", rng.randint(1, 3)), ("B", rng.randint(2, 3)))
        )
        cases.append((a, b, space, None))
    for name in catalog.CATALOG_NAMES:
        theory = catalog.load(name).theory
        for a, b in itertools.product(theory.observables, repeat=2):
            for anchor in (None, (0, 0)):
                cases.append((a, b, theory.state_space, anchor))
    return cases


def test_construct_family_matches_the_closed_form():
    """The constructor puts A_alpha minus the other B_b at the anchored
    corner (``cross_corner_family``), where the former one put the unit
    effect minus the other effects (``closed_form_family``); the two
    agree when the effects sum to the unit effect."""
    rng = random.Random(809)
    moved = 0
    for obs_a, obs_b, space, anchor in _differential_cases():
        free = random_free_block(rng, space, obs_a, obs_b, anchor)
        rep = construct_family(obs_a, obs_b, space, free, anchor)
        assert rep == cross_corner_family(obs_a, obs_b, space, free, anchor)
        moved += rep != closed_form_family(obs_a, obs_b, space, free, anchor)
    assert moved >= 20


def test_construct_family_keeps_the_marginals_of_a_common_sum():
    """Effects that share a sum S != 1 still give every member both
    marginals: on the unit square, A = (x, 2 - x) and B = (y, 2 - y)."""
    two = AffineFunctional.const(2, 2)
    obs_a = Observable("A", (0, 1), (FX, two - FX))
    obs_b = Observable("B", (0, 1), (FY, two - FY))
    for anchor in (None, (0, 0), (1, 0)):
        assert check_marginals(degenerate_rep(obs_a, obs_b, SQUARE, anchor)).ok
        _, slots = wigner.free_slots(obs_a, obs_b, anchor)
        free = {slot: (FX + FY).scale(F(1, 3)) for slot in slots}
        assert check_marginals(construct_family(obs_a, obs_b, SQUARE, free, anchor)).ok


def test_faithful_member_matches_the_greedy_search():
    """The rref pivots give the member that one rank test per slot and
    coordinate chose, bit for bit, and ``None`` exactly when it did."""
    found = missing = 0
    for obs_a, obs_b, space, anchor in _differential_cases():
        member = faithful_member(obs_a, obs_b, space, anchor)
        assert member == greedy_faithful_member(obs_a, obs_b, space, anchor)
        found += member is not None
        missing += member is None
    assert found > 100 and missing > 10
    trit = catalog.load("trit").theory
    assert faithful_member(trit.obs_a, trit.obs_b, trit.state_space) is None


def test_faithful_member_rejects_a_bad_anchor():
    for anchor in ((2, 0), (0, 2), (-1, 0)):
        with pytest.raises(ValueError):
            faithful_member(OBS_A, OBS_B, SQUARE, anchor)


def test_faithful_member_runs_no_rank_test(monkeypatch):
    def boom(*args, **kwargs):
        raise AssertionError("rank test called")

    monkeypatch.setattr(exact, "rank", boom)
    monkeypatch.setattr(wigner, "bareiss_rank", boom)
    monkeypatch.setattr(wigner, "grid_rank", boom)
    for name in catalog.CATALOG_NAMES:
        t = catalog.load(name).theory
        member = faithful_member(t.obs_a, t.obs_b, t.state_space)
        assert (member is None) == (name == "trit")
    assert faithful_member(OBS_A3, OBS_B3, CUBE).grid[0][0] == FZ3


def test_positive_member_matches_the_entrywise_program():
    """The compatibility LP and the former LP over the free block give
    the same verdict, and each member found has both marginals and is
    positive."""
    kinds = set()
    for obs_a, obs_b, space, anchor in _differential_cases():
        if not isinstance(space, Polytope):
            continue
        result = positive_member(obs_a, obs_b, space)
        kinds.add(type(result))
        if isinstance(result, PositiveFound):
            assert check_marginals(result.rep).ok and is_positive(result.rep).ok
            assert result.program.check(result.witness)
        else:
            assert exact.verify_certificate(result.program, result.certificate)
        former = entrywise_positive_member(obs_a, obs_b, space, anchor)
        assert type(result) is type(former), (obs_a, obs_b, space)
    assert kinds == {PositiveFound, NoPositiveMember}


def test_positive_member_boxworld():
    assert isinstance(positive_member(OBS_A, OBS_B, SQUARE), NoPositiveMember)
    obs_c = Observable("C", (0, 1), (FX.scale(F(1, 2)), ONE2 - FX.scale(F(1, 2))))
    obs_d = Observable("D", (0, 1), (FY.scale(F(1, 2)), ONE2 - FY.scale(F(1, 2))))
    found = positive_member(obs_c, obs_d, SQUARE)
    assert isinstance(found, PositiveFound)
    assert is_positive(found.rep).ok


def test_qubit_ball_rep():
    bloch = Ball((0, 0, 0), 1)
    fz = AffineFunctional((0, 0, F(1, 2)), F(1, 2))
    fx = AffineFunctional((F(1, 2), 0, 0), F(1, 2))
    obs_a = Observable("A", (0, 1), (fz, ONE3 - fz))
    obs_b = Observable("B", (0, 1), (fx, ONE3 - fx))

    def q(sx, sy, sz):
        return AffineFunctional((F(sx, 4), F(sy, 4), F(sz, 4)), F(1, 4))

    rep = WignerRep(bloch, obs_a, obs_b, ((q(1, 1, 1), q(-1, -1, 1)), (q(1, -1, -1), q(-1, 1, -1))))
    assert check_marginals(rep).ok
    assert grid_rank(rep) == 4 and is_faithful(rep)
    result = is_positive(rep)
    assert not result.ok
    assert result.witness.value == ExtremalValue(F(1, 4), F(-1, 4), 3)
    assert result.witness.phase_point == (0, 0)


def test_isomorphism_between_faithful_reps():
    lam = isomorphism(W0, WHALF)
    for v in SQUARE.vertices:
        assert lam(evaluate(W0, v).flatten()) == evaluate(WHALF, v).flatten()
    ident = isomorphism(W0, W0)
    for v in SQUARE.vertices:
        assert ident(evaluate(W0, v).flatten()) == evaluate(W0, v).flatten()


def test_isomorphism_cube_wz_variants():
    wz = construct_family(OBS_A3, OBS_B3, CUBE, {(0, 0): FZ3})
    wz2 = construct_family(OBS_A3, OBS_B3, CUBE, {(0, 0): ONE3 - FZ3})
    lam = isomorphism(wz, wz2)
    for v in CUBE.vertices:
        assert lam(evaluate(wz, v).flatten()) == evaluate(wz2, v).flatten()


def test_isomorphism_requires_faithful():
    w0c = construct_family(OBS_A3, OBS_B3, CUBE, {})
    with pytest.raises(PreconditionError):
        isomorphism(w0c, w0c)


def test_positive_member_keeps_both_marginals():
    """On the segment [0, 1], A = (x, 1 - x) and B = (x/2, x/2) sum to
    different functionals, so no grid has both marginals.  The former
    search over the free block found a positive grid whose column sums
    were wrong; the compatibility LP certifies that there is none."""
    seg = Polytope([(0,), (1,)])
    fx = AffineFunctional((1,), 0)
    half = fx.scale(F(1, 2))
    obs_a = Observable("A", (0, 1), (fx, AffineFunctional.one(1) - fx))
    obs_b = Observable("B", (0, 1), (half, half))
    result = positive_member(obs_a, obs_b, seg)
    assert isinstance(result, NoPositiveMember)
    assert exact.verify_certificate(result.program, result.certificate)
    former = entrywise_positive_member(obs_a, obs_b, seg)
    assert isinstance(former, PositiveFound) and not check_marginals(former.rep).ok
