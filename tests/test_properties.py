"""Cross-cutting randomized invariants beyond the acceptance suites."""

from fractions import Fraction as F
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import extremal_to_float, random_free_block, random_theory
from reference_kernels import entrywise_positive_member
from wignerlab.exact import Feasible, LinearProgram, lp_feasible, verify_certificate
from wignerlab.geometry import (
    AffineFunctional,
    AffineMap,
    ExtremalValue,
    Polytope,
    contains,
    dimension,
)
from wignerlab.symmetry import (
    PhasePointMap,
    is_g_symmetric,
    lift,
    solve_covariant,
)
from wignerlab.theory import (
    Compatible,
    Observable,
    are_compatible,
    are_complementary,
    is_surjective,
    jointly_info_complete,
    measure,
)
from wignerlab.wigner import (
    NoPositiveMember,
    PositiveFound,
    SignedGrid,
    check_marginals,
    evaluate,
    faithful_choice_possible,
    faithful_member,
    is_positive,
)


def test_positive_member_iff_compatible_random():
    """The former search over the family's free block
    (``entrywise_positive_member``) and the joint-observable LP are two
    independent routes to the same verdict."""
    rng = random.Random(211)
    agree_feasible = agree_infeasible = 0
    for _ in range(60):
        theory = random_theory(rng, max_points=4, outcome_choices=(2, 2, 3))
        a, b, space = theory.obs_a, theory.obs_b, theory.state_space
        compat = are_compatible(a, b, space)
        search = entrywise_positive_member(a, b, space)
        if isinstance(compat, Compatible):
            assert isinstance(search, PositiveFound)
            assert is_positive(search.rep).ok
            assert check_marginals(search.rep).ok
            agree_feasible += 1
        else:
            assert isinstance(search, NoPositiveMember)
            assert verify_certificate(search.program, search.certificate)
            agree_infeasible += 1
    assert agree_feasible > 0 and agree_infeasible > 0


def test_faithful_member_iff_inequality_random():
    rng = random.Random(223)
    possible = impossible = 0
    for _ in range(60):
        theory = random_theory(rng, outcome_choices=(2, 3))
        a, b, space = theory.obs_a, theory.obs_b, theory.state_space
        fc = faithful_choice_possible(a, b, space)
        member = faithful_member(a, b, space)
        assert (member is not None) == fc.possible
        if fc.possible:
            possible += 1
        else:
            impossible += 1
    assert possible > 0


def _random_diamond_instance(rng):
    """Affine images of the diamond instance keep all three hypotheses."""
    while True:
        a, b = F(rng.randint(-2, 2)), F(rng.randint(-2, 2))
        c, d = F(rng.randint(-2, 2)), F(rng.randint(-2, 2))
        det = a * d - b * c
        if det != 0:
            break
    shift = (F(rng.randint(-2, 2), 2), F(rng.randint(-2, 2), 2))
    fwd = AffineMap.from_rows([[a, b], [c, d]], shift)
    inv_mat = [[d / det, -b / det], [-c / det, a / det]]
    inv_shift = (
        -(inv_mat[0][0] * shift[0] + inv_mat[0][1] * shift[1]),
        -(inv_mat[1][0] * shift[0] + inv_mat[1][1] * shift[1]),
    )
    inv = AffineMap.from_rows(inv_mat, inv_shift)
    diamond = [(1, 0), (-1, 0), (0, 1), (0, -1)]
    space = Polytope([fwd(v) for v in diamond])
    one = AffineFunctional.one(2)
    fz = AffineFunctional((0, F(1, 2)), F(1, 2)).compose(inv)
    fx = AffineFunctional((F(1, 2), 0), F(1, 2)).compose(inv)
    obs_a = Observable("A", (0, 1), (fz, one - fz))
    obs_b = Observable("B", (0, 1), (fx, one - fx))
    return obs_a, obs_b, space


def test_covariant_uniqueness_on_transformed_diamonds():
    """When all three hypotheses hold and the channels exist, the
    covariance system has a zero-dimensional solution set."""
    rng = random.Random(227)
    for _ in range(30):
        obs_a, obs_b, space = _random_diamond_instance(rng)
        assert jointly_info_complete(obs_a, obs_b, space)
        assert are_complementary(obs_a, obs_b, space)
        assert is_surjective(obs_a, space) and is_surjective(obs_b, space)
        result = solve_covariant(obs_a, obs_b, space)
        assert result.kind == "unique"
        assert not result.family_directions
        assert is_g_symmetric(result.rep, [g.phase_point_map() for g in result.channels])
        assert check_marginals(result.rep).ok


def test_covariant_output_is_g_symmetric_random():
    """Covariance implies every product permutation lifts to a symmetry."""
    from wignerlab.symmetry import product_group_generators

    rng = random.Random(229)
    for _ in range(10):
        obs_a, obs_b, space = _random_diamond_instance(rng)
        result = solve_covariant(obs_a, obs_b, space)
        assert result.kind == "unique"
        gens = [
            g.phase_point_map()
            for g in product_group_generators(obs_a.n_outcomes, obs_b.n_outcomes)
        ]
        assert is_g_symmetric(result.rep, gens)


def test_compatible_joint_reproduces_measurements_random():
    rng = random.Random(233)
    seen = 0
    for _ in range(40):
        theory = random_theory(rng, max_points=4)
        a, b, space = theory.obs_a, theory.obs_b, theory.state_space
        result = are_compatible(a, b, space)
        if not isinstance(result, Compatible):
            continue
        seen += 1
        for v in space.vertices:
            rows = [sum(f(v) for f in row) for row in result.joint]
            cols = [
                sum(result.joint[i][j](v) for i in range(a.n_outcomes))
                for j in range(b.n_outcomes)
            ]
            assert rows == list(measure(a, v, space).values)
            assert cols == list(measure(b, v, space).values)
    assert seen > 0


@settings(max_examples=200, derandomize=True)
@given(
    entries=st.lists(
        st.fractions(min_value=-5, max_value=5, max_denominator=6),
        min_size=3, max_size=3,
    ),
    perm=st.permutations(list(range(4))),
)
def test_lift_preserves_mass_hypothesis(entries, perm):
    flat = entries + [1 - sum(entries)]
    grid = SignedGrid.from_flat(flat, (2, 2))
    phi = PhasePointMap((2, 2), tuple(perm))
    assert sum(lift(phi).apply(grid).flatten()) == 1


@settings(max_examples=200, derandomize=True)
@given(
    a=st.fractions(min_value=-4, max_value=4, max_denominator=8),
    b=st.fractions(min_value=-4, max_value=4, max_denominator=8),
    s=st.integers(min_value=0, max_value=40),
    t=st.fractions(min_value=-6, max_value=6, max_denominator=8),
)
def test_extremal_value_comparison_consistency(a, b, s, t):
    v = ExtremalValue(a, b, s)
    c = v.compare(t)
    assert c in (-1, 0, 1)
    approx = extremal_to_float(v) - float(t)
    if abs(approx) > 1e-8:
        assert c == (1 if approx > 0 else -1)
    # antisymmetry against the exact rational embedding
    w = ExtremalValue(t)
    assert w.compare(v) == -v.compare(w)


@settings(max_examples=150, derandomize=True)
@given(
    rows=st.lists(
        st.tuples(
            st.lists(st.integers(min_value=-3, max_value=3), min_size=2, max_size=2),
            st.integers(min_value=-3, max_value=3),
        ),
        min_size=0, max_size=5,
    )
)
def test_lp_dichotomy_hypothesis(rows):
    lp = LinearProgram(
        2, inequalities=tuple((tuple(map(F, r)), F(c)) for r, c in rows)
    )
    result = lp_feasible(lp)
    if isinstance(result, Feasible):
        assert lp.check(result.witness)
    else:
        assert verify_certificate(lp, result)


def test_polytope_dimension_vs_contains_consistency_random():
    rng = random.Random(241)
    for _ in range(60):
        theory = random_theory(rng)
        space = theory.state_space
        assert dimension(space) <= 2
        for v in space.vertices:
            assert contains(space, v)
        centroid = tuple(
            sum(v[k] for v in space.vertices) / len(space.vertices) for k in range(2)
        )
        assert contains(space, centroid)


def test_evaluate_matches_isomorphism_transport_random():
    """Faithful members of the same theory are isomorphic: checked by
    transporting one image onto the other across random instances."""
    from wignerlab.wigner import construct_family, is_faithful, isomorphism

    rng = random.Random(251)
    done = 0
    while done < 25:
        theory = random_theory(rng, max_points=4, outcome_choices=(2,))
        a, b, space = theory.obs_a, theory.obs_b, theory.state_space
        rep1 = construct_family(a, b, space, random_free_block(rng, space, a, b))
        rep2 = construct_family(a, b, space, random_free_block(rng, space, a, b))
        if not (is_faithful(rep1) and is_faithful(rep2)):
            continue
        lam = isomorphism(rep1, rep2)
        for v in space.vertices:
            assert lam(evaluate(rep1, v).flatten()) == evaluate(rep2, v).flatten()
        done += 1
