"""Compatibility and covariance solved over the free block, against the
full-grid solvers they replace (``reference_kernels``).

``theory.are_compatible`` pivots W = X + D with the free slots'
functionals on aff(K) as unknowns and lifts the answer back to
``programs.compatibility``; ``symmetry.solve_covariant`` solves stage 2 as
the homogeneous system of D at the affine basis.  Both must give the former
verdicts, kinds, values at the affine basis and family dimensions on
every catalog entry, seeded random theories, generalized boxworld up to
3 x 3 (four free slots), a pair whose effect sums differ, a pair with no
free slot and a K of lower dimension than its ambient space.
"""

import random
from fractions import Fraction as F

import pytest

import reference_kernels as ref
from helpers import generalized_boxworld, random_theory
from wignerlab import catalog, exact, programs
from wignerlab.exact import verify_certificate
from wignerlab.geometry import AffineFunctional, AffineMap, Polytope, affine_basis, dimension
from wignerlab.symmetry import ProductGroupElement, solve_covariant
from wignerlab.theory import Compatible, Observable, Theory, are_compatible
from wignerlab.wigner import WignerRep, check_marginals

ONE2 = AffineFunctional.one(2)


def _flat_square() -> Theory:
    """Boxworld's square on the plane z = x + y of R^3: K has dimension 2,
    and A = x, B = y carry a z term that vanishes on aff(K), so the grid's
    coefficients are not fixed by its values on K."""
    space = Polytope([(0, 0, 0), (1, 0, 1), (0, 1, 1), (1, 1, 2)])
    x = AffineFunctional((2, 1, -1), 0)
    y = AffineFunctional((0, 0, 1), 0) - AffineFunctional((1, 0, 0), 0)
    one = AffineFunctional.one(3)
    return Theory(space, (Observable("A", (0, 1), (x, one - x)),
                          Observable("B", (0, 1), (y, one - y))))


def _unequal_sums() -> Theory:
    """One outcome each, 1 and x/2 + 1/2, which agree on the segment
    x = 1 but not coefficient-wise."""
    segment = Polytope([(1, 0), (1, 1)])
    return Theory(segment, (Observable("U", (0,), (ONE2,)),
                            Observable("V", (0,), (AffineFunctional((F(1, 2), 0), F(1, 2)),))))


CUBE_SWAPS = {
    ProductGroupElement((1, 0), (0, 1)): AffineMap.from_rows(
        [[-1, 0, 0], [0, 1, 0], [0, 0, -1]], (1, 0, 1)),
    ProductGroupElement((0, 1), (1, 0)): AffineMap.from_rows(
        [[1, 0, 0], [0, -1, 0], [0, 0, -1]], (0, 1, 1)),
}


def _cases():
    """``(label, theory, channels)`` of the parity set."""
    out = []
    for name in catalog.CATALOG_NAMES:
        entry = catalog.load(name)
        out.append((name, entry.theory, entry.channels))
    out.append(("cube with swaps", catalog.load("cube").theory, CUBE_SWAPS))
    for m, n in ((2, 2), (2, 3), (3, 3)):
        out.append((f"boxworld {m}x{n}", generalized_boxworld(m, n), None))
    out.append(("unequal sums", _unequal_sums(), {}))
    out.append(("flat square", _flat_square(), None))
    rng = random.Random(307)
    for i in range(40):
        out.append((f"random {i}", random_theory(rng, max_points=5, outcome_choices=(2, 2, 3)),
                    None))
    return out


CASES = _cases()


def _values(rep: WignerRep):
    basis = affine_basis(rep.state_space)
    return [[f(p) for p in basis] for f in rep.functionals()]


def _family_dimension(directions) -> int:
    """The dimension of the span of the directions restricted to aff(K)."""
    rows = [[x for row in _values(d) for x in row] for d in directions]
    return exact.rank(rows) if rows else 0


@pytest.mark.parametrize("label, theory, channels", CASES, ids=[c[0] for c in CASES])
def test_compatibility_matches_the_full_grid_solver(label, theory, channels):
    """The same verdict as the simplex on the whole program; the lifted
    witness or certificate passes the guard of ``programs.compatibility``
    and the witness grid is a joint observable."""
    space = theory.state_space
    if not isinstance(space, Polytope):
        return
    a, b = theory.obs_a, theory.obs_b
    got, want = are_compatible(a, b, space), ref.full_grid_compatibility(a, b, space)
    assert type(got) is type(want)
    lp = programs.compatibility(a, b, space)
    assert got.program == lp
    if isinstance(got, Compatible):
        assert lp.check(got.witness)
        rep = WignerRep(space, a, b, got.joint)
        assert check_marginals(rep).ok
        assert all(f(v) >= 0 for f in rep.functionals() for v in space.vertices)
    else:
        assert verify_certificate(lp, got.certificate)


@pytest.mark.parametrize("label, theory, channels", CASES, ids=[c[0] for c in CASES])
def test_covariant_matches_the_full_grid_solver(label, theory, channels):
    """The same kind, the same certificate, the same family dimension
    (the directions zero-marginal and independent on aff(K)), and the same
    values at the affine basis, for a family up to a direction of it; on
    a full-dimensional K a unique grid is the same grid."""
    a, b, space = theory.obs_a, theory.obs_b, theory.state_space
    got = solve_covariant(a, b, space, channels)
    want = ref.full_grid_covariant(a, b, space, channels)
    assert got.kind == want.kind
    assert got.certificate == want.certificate and got.program == want.program
    if got.rep is None:
        return
    assert check_marginals(got.rep).ok
    dim = _family_dimension(want.family_directions)
    assert len(got.family_directions) == _family_dimension(got.family_directions) == dim
    # a family's base points may differ, by a direction of the family
    shift = [[x - y for x, y in zip(u, v)] for u, v in zip(_values(got.rep), _values(want.rep))]
    if got.kind == "unique":
        assert not any(map(any, shift))
    else:
        rows = [[x for row in _values(d) for x in row] for d in got.family_directions]
        assert exact.rank(rows + [[x for row in shift for x in row]]) == dim
    zero = AffineFunctional.zero(space.ambient_dim)
    for d in got.family_directions:
        assert all(sum(row, zero) == zero for row in d.grid)
        assert all(sum(col, zero) == zero for col in zip(*d.grid))
    if got.kind == "unique" and dimension(space) == space.ambient_dim:
        assert got.rep.grid == want.rep.grid


def test_the_parity_set_covers_every_outcome():
    """Both verdicts, all four kinds, a family, four free slots, no free
    slot, and a K of lower dimension."""
    verdicts, kinds = set(), set()
    for label, theory, channels in CASES:
        a, b, space = theory.obs_a, theory.obs_b, theory.state_space
        if isinstance(space, Polytope):
            verdicts.add(isinstance(are_compatible(a, b, space), Compatible))
        kinds.add(solve_covariant(a, b, space, channels).kind)
    assert verdicts == {True, False}
    assert kinds == {"unique", "none", "family", "hypothesis_failure"}
    slots = {(t.obs_a.n_outcomes - 1) * (t.obs_b.n_outcomes - 1) for _, t, _ in CASES}
    assert {0, 4} <= slots
    assert any(dimension(t.state_space) < t.state_space.ambient_dim for _, t, _ in CASES)


def test_the_compatibility_simplex_sees_only_the_free_block(monkeypatch):
    """Each ``are_compatible`` runs the simplex once, on (m-1)(n-1)(dim K+1)
    unknowns and no equality row; a pair whose effect sums differ runs
    none."""
    programs_seen = []
    solve = exact._phase_one

    def recording(lp):
        programs_seen.append(lp)
        return solve(lp)

    monkeypatch.setattr(exact, "_phase_one", recording)
    for label, theory, _ in CASES:
        a, b, space = theory.obs_a, theory.obs_b, theory.state_space
        if not isinstance(space, Polytope):
            continue
        programs_seen.clear()
        are_compatible(a, b, space)
        if label == "unequal sums":
            assert programs_seen == []
            continue
        (lp,) = programs_seen
        slots = (a.n_outcomes - 1) * (b.n_outcomes - 1)
        assert lp.n_vars == slots * (dimension(space) + 1)
        assert lp.equalities == ()
        assert len(lp.inequalities) == len(space.vertices) * a.n_outcomes * b.n_outcomes
