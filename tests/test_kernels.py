"""Integer pivot kernels against the Fraction oracle.

``reference_kernels`` holds the former Fraction simplex and LP frontend.
Without ``x_j >= 0`` rows the integer path must take the same pivots and
reach the same tableau (stored entries over ``D``); with them, the
verdicts must agree and every certificate must re-verify.
"""

from fractions import Fraction as F
import math
import random

import pytest

import reference_kernels as ref
import wignerlab.exact as exact_mod
from wignerlab._kernels import bareiss_rank, rref, simplex_phase1
from wignerlab.exact import Feasible, Infeasible, LinearProgram, lp_feasible, verify_certificate


def _rational(rng):
    return F(rng.randint(-4, 4), rng.choice((1, 1, 2, 3, 6)))


def _is_bound(row, rhs):
    nonzero = [a for a in row if a]
    return rhs == 0 and len(nonzero) == 1 and nonzero[0] > 0


def _random_program(rng, with_bounds):
    n = rng.randint(1, 4)

    def row():
        return tuple(_rational(rng) for _ in range(n))

    eqs = [(row(), _rational(rng)) for _ in range(rng.randint(0, 3))]
    ineqs = [(row(), _rational(rng)) for _ in range(rng.randint(0, 4))]
    if eqs and rng.random() < 0.3:
        eqs.append(eqs[0])  # duplicate rows make tied ratios
    if ineqs and rng.random() < 0.3:
        ineqs.append(ineqs[-1])
    if with_bounds:
        for _ in range(rng.randint(1, n + 1)):
            j = rng.randrange(n)
            c = rng.choice((1, 1, 3, F(1, 2)))
            bound = tuple(c if i == j else 0 for i in range(n))
            ineqs.insert(rng.randint(0, len(ineqs)), (bound, 0))
    else:
        ineqs = [(r, c) for r, c in ineqs if not _is_bound(r, c)]
    return LinearProgram(n, tuple(eqs), tuple(ineqs))


def _capture(kernel, calls):
    """Wrap ``kernel`` so that each call records its final state."""

    def recording(tab, obj, basis):
        start_obj = list(obj)
        npiv = kernel(tab, obj, basis)
        calls.append((tab, obj, basis, npiv, start_obj))
        return npiv

    return recording


def test_kernel_matches_oracle_on_integer_tableaux():
    rng = random.Random(71)
    for _ in range(300):
        m, n = rng.randint(1, 4), rng.randint(1, 5)
        # [A | I | b] with b >= 0 and a phase-1 style objective row
        tab = [
            [rng.randint(-3, 3) for _ in range(n)]
            + [int(i == k) for i in range(m)]
            + [rng.randint(0, 3)]
            for k in range(m)
        ]
        obj = [-sum(r[j] for r in tab) for j in range(n)] + [0] * m
        obj.append(-sum(r[-1] for r in tab))
        basis = [n + k for k in range(m)]
        frac_tab = [[F(x) for x in r] for r in tab]
        frac_obj = [F(x) for x in obj]
        frac_basis = list(basis)
        npiv = simplex_phase1(tab, obj, basis)
        assert npiv == ref.simplex_phase1(frac_tab, frac_obj, frac_basis)
        assert basis == frac_basis
        d = tab[0][basis[0]]
        assert d > 0 and all(tab[i][basis[i]] == d for i in range(m))
        assert [[F(x, d) for x in r] for r in tab] == frac_tab
        assert [F(x, d) for x in obj] == frac_obj


def test_simplex_equivalence_on_random_programs():
    """Same pivots, same T/D up to the artificials' rescaling, same answer."""
    rng = random.Random(73)
    pivots = 0
    for _ in range(300):
        lp = _random_program(rng, with_bounds=False)
        new_calls, old_calls = [], []
        saved_new, saved_old = exact_mod.simplex_phase1, ref.simplex_phase1
        try:
            exact_mod.simplex_phase1 = _capture(saved_new, new_calls)
            ref.simplex_phase1 = _capture(saved_old, old_calls)
            assert exact_mod._phase_one(lp) == ref._phase_one(lp)
        finally:
            exact_mod.simplex_phase1, ref.simplex_phase1 = saved_new, saved_old
        if not old_calls:
            continue
        (tab, obj, basis, npiv, _), = new_calls
        (frac_tab, frac_obj, frac_basis, frac_npiv, frac_start_obj), = old_calls
        assert (basis, npiv) == (frac_basis, frac_npiv)
        pivots += npiv
        # row k was scaled by s_k with its artificial coefficient kept at
        # 1, so artificial column k is 1/s_k times the oracle's
        rows = lp.equalities + lp.inequalities
        scales = [math.lcm(c.denominator, *(a.denominator for a in r)) for r, c in rows]
        art0 = len(obj) - 1 - len(rows)
        col_scale = [F(1)] * art0 + [F(1, s) for s in scales] + [F(1)]
        d = tab[0][basis[0]]
        lcm_obj = math.lcm(*(x.denominator for x in frac_start_obj))
        for i, row in enumerate(tab):
            q = col_scale[basis[i]]
            assert [F(x, d) for x in row] == [
                x * p / q for x, p in zip(frac_tab[i], col_scale)
            ]
        assert [F(x, lcm_obj * d) for x in obj] == [
            x * p for x, p in zip(frac_obj, col_scale)
        ]
    assert pivots > 300  # the programs exercise the kernel


@pytest.mark.parametrize("seed", [79, 83])
def test_bounds_give_oracle_verdicts_and_valid_certificates(seed):
    rng = random.Random(seed)
    kinds = set()
    for _ in range(300):
        lp = _random_program(rng, with_bounds=True)
        result = lp_feasible(lp)
        expected = ref._phase_one(lp)
        assert type(result) is type(expected)
        if isinstance(result, Feasible):
            assert lp.check(result.witness)
        else:
            assert verify_certificate(lp, result)
        kinds.add(type(result))
    assert kinds == {Feasible, Infeasible}


def test_bound_edge_cases():
    one, zero = F(1), F(0)
    # duplicate bound rows and a scaled bound: x0 >= 0 twice, 3 x0 >= 0,
    # with x0 <= -1 forcing infeasibility
    lp = LinearProgram(
        1, (), (((one,), zero), ((F(3),), zero), ((one,), zero), ((-one,), one))
    )
    cert = lp_feasible(lp)
    assert isinstance(cert, Infeasible) and verify_certificate(lp, cert)
    assert sum(1 for m in cert.ineq_multipliers[:3] if m) == 1
    # a bounded variable that also appears in other inequalities
    lp = LinearProgram(
        2, (((one, one), one),), (((one, zero), zero), ((one, -one), F(1, 2)))
    )
    res = lp_feasible(lp)
    assert isinstance(res, Feasible) and res.witness[0] >= F(3, 4)
    lp = LinearProgram(
        2, (((one, one), -one),), (((one, zero), zero), ((zero, one), zero))
    )
    cert = lp_feasible(lp)
    assert isinstance(cert, Infeasible) and verify_certificate(lp, cert)
    assert cert.gap == 1 and cert.ineq_multipliers == (one, one)
    # only bound rows
    bounds = tuple((tuple(2 * int(i == j) for i in range(3)), 0) for j in range(3))
    assert lp_feasible(LinearProgram(3, (), bounds)) == Feasible((zero,) * 3)
    # no variables
    assert isinstance(lp_feasible(LinearProgram(0, (((), zero),), (((), zero),))), Feasible)
    cert = lp_feasible(LinearProgram(0, (), (((), one),)))
    assert isinstance(cert, Infeasible) and cert.gap == 1


def test_bareiss_equivalence_and_rank_vs_rref():
    rng = random.Random(67)
    for _ in range(100):
        m, n = rng.randint(1, 5), rng.randint(1, 5)
        rows = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(m)]
        pivots = rref([[F(x) for x in r] for r in rows], n)
        assert bareiss_rank([list(r) for r in rows]) == len(pivots)
