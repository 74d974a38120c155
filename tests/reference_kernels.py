"""Test-only oracle: the Fraction phase-1 simplex and LP frontend.

This is the engine's former LP path, kept verbatim so that the integer
kernel and the bounded frontend in ``wignerlab.exact`` can be checked
against it.  Every row, including each ``x_j >= 0`` row, gets a slack
and an artificial, every variable is split into ``x+ - x-``, and the
tableau holds ``fractions.Fraction`` entries.
"""

from __future__ import annotations

from wignerlab.exact import QQ, Feasible, FeasibilityResult, Infeasible, LinearProgram, zeros


def simplex_phase1(tab, obj, basis):
    """Run Bland-rule phase-1 simplex pivots until optimality.

    ``tab`` is the m x (N+1) constraint tableau (rhs in the last
    column), ``obj`` the reduced-cost row of length N+1, and ``basis``
    the list of basic column indices, all mutated in place.  Entering
    variable: smallest column index with negative reduced cost; leaving
    variable: lexicographically smallest basic index among the minimum
    ratios.  Bland's rule guarantees termination.  Returns the pivot
    count.
    """
    m = len(tab)
    width = len(obj)
    rhs = width - 1
    npiv = 0
    while True:
        enter = -1
        for j in range(rhs):
            if obj[j] < 0:
                enter = j
                break
        if enter < 0:
            return npiv
        leave = -1
        best = None
        for i in range(m):
            tij = tab[i][enter]
            if tij > 0:
                ratio = tab[i][rhs] / tij
                if best is None or ratio < best or (ratio == best and basis[i] < basis[leave]):
                    best = ratio
                    leave = i
        if leave < 0:
            # phase-1 objective is bounded below by 0, so this is unreachable
            # for any tableau produced by the feasibility frontend
            raise ArithmeticError("unbounded phase-1 tableau")
        prow = tab[leave]
        pv = prow[enter]
        if pv != 1:
            for k in range(width):
                prow[k] = prow[k] / pv
        for i in range(m):
            if i != leave:
                f = tab[i][enter]
                if f:
                    row = tab[i]
                    for k in range(width):
                        row[k] = row[k] - f * prow[k]
        f = obj[enter]
        if f:
            for k in range(width):
                obj[k] = obj[k] - f * prow[k]
        basis[leave] = enter
        npiv += 1


def _phase_one(lp: LinearProgram) -> FeasibilityResult:
    n = lp.n_vars
    rows = [("eq", row, rhs) for row, rhs in lp.equalities]
    rows += [("ineq", row, rhs) for row, rhs in lp.inequalities]
    m = len(rows)
    if m == 0:
        return Feasible(zeros(n))
    n_ineq = len(lp.inequalities)
    # columns: x+ | x- | slacks | artificials | rhs
    n_cols = 2 * n + n_ineq + m
    art0 = 2 * n + n_ineq
    tab = []
    flips = []
    slack_at = 2 * n
    for k, (kind, row, rhs) in enumerate(rows):
        sigma = QQ(1) if rhs >= 0 else QQ(-1)
        flips.append(sigma)
        line = [QQ(0)] * (n_cols + 1)
        for j, a in enumerate(row):
            if a:
                line[j] = sigma * a
                line[n + j] = -sigma * a
        if kind == "ineq":
            line[slack_at] = -sigma
            slack_at += 1
        line[art0 + k] = QQ(1)
        line[n_cols] = sigma * rhs
        tab.append(line)
    basis = [art0 + k for k in range(m)]
    # phase-1 reduced costs with the all-artificial basis: cost 1 on
    # artificials minus the column sums of the tableau
    obj = [QQ(0)] * (n_cols + 1)
    for j in range(n_cols + 1):
        s = QQ(0)
        for i in range(m):
            s += tab[i][j]
        obj[j] = -s
    for k in range(m):
        obj[art0 + k] += QQ(1)
    simplex_phase1(tab, obj, basis)
    optimum = -obj[n_cols]
    if optimum == 0:
        values = {}
        for i, col in enumerate(basis):
            values[col] = tab[i][n_cols]
        witness = tuple(
            values.get(j, QQ(0)) - values.get(n + j, QQ(0)) for j in range(n)
        )
        return Feasible(witness)
    # Farkas multipliers: y_k = cost(artificial_k) - reduced cost of its
    # column, mapped back through the row sign flips
    eq_mult = []
    ineq_mult = []
    for k, (kind, _, _) in enumerate(rows):
        y = QQ(1) - obj[art0 + k]
        mult = flips[k] * y
        if kind == "eq":
            eq_mult.append(mult)
        else:
            ineq_mult.append(mult)
    return Infeasible(tuple(eq_mult), tuple(ineq_mult), optimum)
