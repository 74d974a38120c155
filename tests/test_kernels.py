"""Integer pivot kernels, frontend and guards against the Fraction oracles.

``reference_kernels`` holds the former Fraction simplex, LP frontend and
guards, and the slack-start frontend in Fraction arithmetic.  Without
``x_j >= 0`` rows the integer path must take the slack-start oracle's
pivots and reach its tableau (stored entries over ``D``); against the
former all-artificial frontend, and with bound rows, the verdicts must
agree and every certificate must re-verify.  The integer guards must
give the Fraction guards' answers, also on tampered data.  The integer
``rref`` and ``vec_dot`` must give the former Fraction kernels' pivots,
rows and values exactly.
"""

from fractions import Fraction as F
import math
import random

import pytest

import reference_kernels as ref
import wignerlab._kernels as kernels_mod
import wignerlab.exact as exact_mod
from wignerlab import catalog
from wignerlab._kernels import bareiss_rank, rref, simplex_phase1
from wignerlab.exact import (
    Feasible,
    Infeasible,
    LinearProgram,
    lp_feasible,
    vec_dot,
    verify_certificate,
)
from wignerlab.theory import Incompatible, are_compatible


def _rational(rng):
    return F(rng.randint(-4, 4), rng.choice((1, 1, 2, 3, 6)))


def _is_bound(row, rhs):
    nonzero = [a for a in row if a]
    return rhs == 0 and len(nonzero) == 1 and nonzero[0] > 0


def _random_program(rng, with_bounds, nonpositive=False):
    n = rng.randint(1, 4)

    def row():
        return tuple(_rational(rng) for _ in range(n))

    def ineq_rhs():
        return -abs(_rational(rng)) if nonpositive else _rational(rng)

    eqs = [(row(), _rational(rng)) for _ in range(rng.randint(0, 3))]
    ineqs = [(row(), ineq_rhs()) for _ in range(rng.randint(0, 4))]
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


def _kernel_matches_oracle(tab, n, m):
    """Phase 1 on ``[A | I | b]``: same pivots, basis and ``T/D == T``."""
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
    return npiv


def test_kernel_matches_oracle_on_integer_tableaux():
    rng = random.Random(71)
    for _ in range(300):
        m, n = rng.randint(1, 4), rng.randint(1, 5)
        # [A | I | b] with b >= 0
        tab = [
            [rng.randint(-3, 3) for _ in range(n)]
            + [int(i == k) for i in range(m)]
            + [rng.randint(0, 3)]
            for k in range(m)
        ]
        _kernel_matches_oracle(tab, n, m)


def _column_scales(lp, width):
    """Integer-frontend column j is p_j times the oracle's column j.

    Row k is stored as s_k times the rational row with its basic column
    (artificial, or the slack of an inequality with rhs <= 0) kept at
    coefficient 1, so that column is 1/s_k times the oracle's.
    """
    scales = [math.lcm(c.denominator, *(a.denominator for a in r)) for r, c in
              lp.equalities + lp.inequalities]
    n_eq = len(lp.equalities)
    slack_basic = [k >= n_eq and c <= 0 for k, (_, c) in
                   enumerate(lp.equalities + lp.inequalities)]
    slacks = [F(1, s) if b else F(1) for s, b in zip(scales[n_eq:], slack_basic[n_eq:])]
    arts = [F(1, s) for s, b in zip(scales, slack_basic) if not b]
    lead = width - 1 - len(slacks) - len(arts)
    return [F(1)] * lead + slacks + arts + [F(1)]


def test_simplex_equivalence_on_random_programs():
    """Same pivots, same T/D up to the basic columns' rescaling, same answer."""
    rng = random.Random(73)
    pivots = 0
    for _ in range(300):
        lp = _random_program(rng, with_bounds=False)
        new_calls, old_calls = [], []
        saved_new, saved_old = exact_mod.simplex_phase1, ref.simplex_phase1
        try:
            exact_mod.simplex_phase1 = _capture(saved_new, new_calls)
            ref.simplex_phase1 = _capture(saved_old, old_calls)
            assert exact_mod._phase_one(lp) == ref.slack_phase_one(lp)
        finally:
            exact_mod.simplex_phase1, ref.simplex_phase1 = saved_new, saved_old
        if not old_calls:
            assert not new_calls
            continue
        (tab, obj, basis, npiv, _), = new_calls
        (frac_tab, frac_obj, frac_basis, frac_npiv, frac_start_obj), = old_calls
        assert (basis, npiv) == (frac_basis, frac_npiv)
        pivots += npiv
        col_scale = _column_scales(lp, len(obj))
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


@pytest.mark.parametrize("with_bounds", [False, True])
def test_slack_start_keeps_the_former_verdicts(with_bounds):
    """Programs whose inequalities have rhs <= 0, mostly slack-basic rows."""
    rng = random.Random(89 + with_bounds)
    kinds = set()
    for _ in range(300):
        lp = _random_program(rng, with_bounds, nonpositive=True)
        result = lp_feasible(lp)
        assert type(result) is type(ref._phase_one(lp))
        if isinstance(result, Feasible):
            assert lp.check(result.witness)
        else:
            assert verify_certificate(lp, result)
        kinds.add(type(result))
    assert kinds == {Feasible, Infeasible}


def _tampered(rng, values):
    """``values`` with one entry moved, or all of them scaled."""
    values = list(values)
    if not values:
        return values
    how = rng.randrange(4)
    if how == 3:
        return [v * 2 for v in values]
    i = rng.randrange(len(values))
    values[i] = (values[i] + 1, -values[i] - 1, values[i] + F(1, 7))[how]
    return values


def test_integer_guards_match_the_fraction_guards():
    rng = random.Random(97)
    seen = {True: 0, False: 0}
    for _ in range(400):
        lp = _random_program(rng, with_bounds=rng.random() < 0.5)
        result = lp_feasible(lp)
        if isinstance(result, Feasible):
            candidates = [result.witness, _tampered(rng, result.witness)]
            candidates.append([_rational(rng) for _ in range(lp.n_vars)])
            candidates.append(result.witness[:-1])
            for x in candidates:
                ok = lp.check(x)
                assert ok == ref.check(lp, x)
                seen[ok] += 1
            continue
        eq, ineq, gap = result.eq_multipliers, result.ineq_multipliers, result.gap
        certs = [
            result,
            Infeasible(tuple(_tampered(rng, eq)), ineq, gap),
            Infeasible(eq, tuple(_tampered(rng, ineq)), gap),
            Infeasible(eq, ineq, _tampered(rng, [gap])[0]),
            Infeasible(eq, ineq, F(0)),
            Infeasible(eq, ineq[1:], gap),
        ]
        for cert in certs:
            ok = verify_certificate(lp, cert)
            assert ok == ref.verify_certificate(lp, cert)
            seen[ok] += 1
    assert min(seen.values()) > 200


def test_kernel_leaves_rows_the_entering_column_misses():
    """Block-diagonal tableaux: the pivots of one block miss the other's rows."""
    rng = random.Random(101)
    pivots = 0
    for _ in range(200):
        blocks = [(rng.randint(1, 3), rng.randint(1, 3)) for _ in range(rng.randint(2, 3))]
        m = sum(b[0] for b in blocks)
        n = sum(b[1] for b in blocks)
        tab = []
        col = 0
        for rows, cols in blocks:
            for _ in range(rows):
                line = [0] * (n + m + 1)
                for j in range(col, col + cols):
                    if rng.random() < 0.8:
                        line[j] = rng.randint(-4, 5)
                line[n + len(tab)] = 1
                line[-1] = rng.randint(0, 4)
                tab.append(line)
            col += cols
        pivots += _kernel_matches_oracle(tab, n, m)
    assert pivots > 200


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


def test_deformed_12gon_compatibility_lp_work():
    """The free block's program: 3 unknowns (one slot's coefficients on
    the plane's two coordinates and its constant), no equality and the 32
    rows W_ab(v) >= 0.  Its 32-row tableau takes 5 pivots; the full
    grid's (12 marginal equalities and 32 rows, 44 in the tableau) took
    20, and 444 with an artificial on every row."""
    theory = catalog.load("deformed_12gon").theory
    calls = []
    saved = exact_mod.simplex_phase1
    try:
        exact_mod.simplex_phase1 = _capture(saved, calls)
        result = are_compatible(theory.obs_a, theory.obs_b, theory.state_space)
    finally:
        exact_mod.simplex_phase1 = saved
    assert isinstance(result, Incompatible)
    (tab, _, _, npiv, _), = calls
    assert len(tab) == 32 and npiv <= 5


def test_bareiss_equivalence_and_rank_vs_rref():
    rng = random.Random(67)
    for _ in range(100):
        m, n = rng.randint(1, 5), rng.randint(1, 5)
        rows = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(m)]
        pivots = rref([[F(x) for x in r] for r in rows], n)
        assert bareiss_rank([list(r) for r in rows]) == len(pivots)


def _rref_case(rng):
    """A random ``(rows, ncols)``: empty, tall or wide, with mixed
    denominators, zero rows, dependent rows and 0-2 augmented columns."""
    m, n, extra = rng.randint(0, 6), rng.randint(0, 6), rng.randint(0, 2)
    den = rng.choice(((1,), (1, 2), (1, 2, 3, 4, 6), (1, 5, 7, 12, 35)))

    def entry():
        if rng.random() < 0.3:
            return F(0)
        return F(rng.randint(-9, 9), rng.choice(den))

    rows = [[entry() for _ in range(n + extra)] for _ in range(m)]
    for i in range(1, m):
        how = rng.random()
        if how < 0.25:
            # a combination of earlier rows, with its own augmented part
            row = [F(0)] * (n + extra)
            for j in rng.sample(range(i), rng.randint(1, i)):
                c = entry()
                row = [a + c * b for a, b in zip(row, rows[j])]
            rows[i] = row[:n] + [entry() if rng.random() < 0.5 else x for x in row[n:]]
        elif how < 0.35:
            rows[i] = [F(0)] * (n + extra)
    return rows, n


def _mixed(rows, rng):
    """The same rows with some integral Fractions given as ints."""
    return [[int(x) if x.denominator == 1 and rng.random() < 0.5 else x for x in row]
            for row in rows]


def _primitive(row):
    """The primitive integer vector (gcd 1) along a rational row."""
    den = math.lcm(*(x.denominator for x in row))
    ints = [x.numerator * (den // x.denominator) for x in row]
    g = math.gcd(*ints)
    return [a // g for a in ints] if g else ints


def test_rref_matches_the_fraction_oracle():
    """Same pivots, same rows (augmented ones too) up to one positive
    factor per row, and the same row objects in the same places: every
    row comes back as the ints of the primitive vector along the
    oracle's row."""
    rng = random.Random(131)
    seen = dict.fromkeys(
        ("empty", "tall", "wide", "deficient", "inconsistent", "negative pivot",
         "zero row", "mixed denominators"), 0)
    for _ in range(10_000):
        rows, n = _rref_case(rng)
        expected = [list(r) for r in rows]
        got = _mixed(rows, rng)
        before = [id(r) for r in got]
        before_ref = [id(r) for r in expected]
        first = next((r[c] for c in range(n) for r in rows if r[c]), None)
        pivots = rref(got, n)
        assert pivots == ref.rref(expected, n)
        assert got == [_primitive(r) for r in expected]
        assert all(type(x) is int for row in got for x in row)
        assert [before.index(id(r)) for r in got] == [before_ref.index(id(r)) for r in expected]
        m = len(rows)
        seen["empty"] += not m or not n
        seen["tall"] += m > n > 0
        seen["wide"] += 0 < m < n
        seen["deficient"] += len(pivots) < min(m, n)
        seen["inconsistent"] += any(any(r[n:]) for r in got[len(pivots):])
        seen["negative pivot"] += first is not None and first < 0
        seen["zero row"] += any(not any(r) for r in rows)
        seen["mixed denominators"] += any(
            len({x.denominator for x in r if x}) > 1 for r in rows)
    assert min(seen.values()) > 500, seen


def test_rref_takes_int_rows_as_their_fractions(monkeypatch):
    """A row of ints skips the ``integer_rows`` scaling, and gives the
    pivots and rows of the same row as ``Fraction``s: on int matrices,
    some with augmented columns, and on int rows mixed with rows that
    hold a non-integral ``Fraction``."""
    scaled = []
    saved = kernels_mod.integer_rows

    def counting(rows):
        scaled.append(rows)
        return saved(rows)

    monkeypatch.setattr(kernels_mod, "integer_rows", counting)
    rng = random.Random(139)
    mixed = 0
    for _ in range(3000):
        m, n, extra = rng.randint(1, 6), rng.randint(0, 6), rng.randint(0, 2)
        rows = [[rng.randint(-9, 9) if rng.random() < 0.7 else 0 for _ in range(n + extra)]
                for _ in range(m)]
        if rng.random() < 0.3:
            i = rng.randrange(m)
            rows[i] = [F(x, 2) for x in rows[i]]
        fractions = [[F(x) for x in row] for row in rows]
        not_ints = sum(not all(type(x) is int for x in row) for row in rows)
        scaled.clear()
        pivots = rref(rows, n)
        assert len(scaled) == not_ints
        mixed += bool(scaled)
        assert pivots == rref(fractions, n) and rows == fractions
    assert mixed > 500


def test_rref_ops_keeps_the_row_operations():
    """``rref_ops`` takes ``rref``'s pivots, and each reduced row is a
    positive multiple of ``rref``'s on the pivot-eligible columns, with
    its identity block y reproducing it from the rows as given: y . A is
    the reduced row, augmented columns included.  A zero row whose
    augmented part is not zero is a Fredholm certificate: y A = 0 and
    y . b != 0."""
    rng = random.Random(137)
    fredholm = 0
    for _ in range(3000):
        rows, n = _rref_case(rng)
        given = _mixed(rows, rng)
        plain = [list(r) for r in rows]
        pivots = rref(plain, n)
        reduced = [list(r) for r in given]
        got, ops = kernels_mod.rref_ops(reduced, n)
        assert got == pivots and len(ops) == len(rows)
        for row, y, r in zip(reduced, ops, plain):
            assert all(type(x) is int for x in row + y)
            assert [sum(F(a) * b[k] for a, b in zip(y, rows)) for k in range(len(row))] == row
            assert _primitive([F(x) for x in row[:n]]) == _primitive([F(x) for x in r[:n]])
        for row, y in zip(reduced[len(pivots):], ops[len(pivots):]):
            assert not any(row[:n]) and any(y)
            fredholm += any(row[n:])
    assert fredholm > 300


def test_vec_dot_matches_the_fraction_oracle():
    rng = random.Random(137)
    kinds = set()
    for _ in range(3000):
        n = rng.randint(0, 8)
        kind = rng.choice(("int", "fraction", "mixed"))
        kinds.add(kind)

        def value():
            x = rng.randint(-20, 20)
            if kind == "int" or (kind == "mixed" and rng.random() < 0.5):
                return x
            return F(x, rng.choice((1, 2, 3, 5, 12, 49)))

        u = tuple(value() for _ in range(n))
        v = tuple(value() for _ in range(n))
        start = rng.choice((0, 3, F(-7, 6), F(0)))
        got = vec_dot(u, v, start)
        assert type(got) is F and got == start + ref.vec_dot(u, v)
        assert vec_dot(u, v) == ref.vec_dot(u, v)
        for w in (u + (F(1),), u + (0, 0)):
            with pytest.raises(ValueError):
                ref.vec_dot(w, v)
            with pytest.raises(ValueError):
                vec_dot(w, v)
    assert kinds == {"int", "fraction", "mixed"}
