"""Exact integer kernels, pure Python.

Three pivot loops are where the engine spends most of its time: reduced
row echelon form, fraction-free (Bareiss) integer elimination, and the
Bland-rule phase-1 simplex iteration.  Beside them sit the helpers
built on ``rref`` (its row operations, the greedy affine basis and the
orthogonal complement) and ``hull``, the exact convex hull of int points
from which ``geometry`` reads every polytope's facets.  All run on
Python ints.

``rref`` holds each row as ints over its own positive denominator, in
lowest terms (the gcd of the row and its denominator is 1).  A pivot
row is scaled to its pivot entry ``pv > 0``, which becomes its
denominator; another row meeting the pivot column at ``f`` becomes
``pv*row - f*prow`` over ``pv`` times its denominator, and the gcd is
divided out.  It takes the same pivots as Gauss-Jordan over
``Fraction``, and since the reduced echelon form is unique and every
other row is the same rational combination, its result is the same up
to one positive factor per row: it returns each row as the primitive
integer vector (gcd 1) along its reduced row, and builds no ``Fraction``.

The simplex works on Python ints only.  Its tableau is kept over a
common positive denominator ``D``: on return every entry is ``D`` times
the true entry, so ``D`` is what each row holds at its basic column.  A
pivot on ``pv`` updates each row the entering column meets (``f != 0``)
by the Edmonds/Bareiss rule ``(pv*row - f*prow) // D`` and then sets
``D = pv``; the division is exact because each stored entry is a minor
of the starting tableau (Sylvester's identity), provided that tableau is
integral with an identity basis, i.e. starts at ``D = 1``.  No
``Fraction`` is built inside the loop.  A row the column misses keeps
its true entries and is not touched: it remembers the ``D`` it was last
written at, ``s_i``, and a later update divides by ``s_i`` instead
(still exact: the result is ``pv`` times the new true row).  A stale
pivot row is brought to ``D`` first, and every stale row at return.

``exact._phase_one`` builds that tableau.  Its ``x_j >= 0`` bounds only
drop columns and rows before the kernel runs, and it reads witnesses and
Farkas multipliers back as ``entry / D``, so the certificates keep the
format of the rational simplex and re-check with the same
``verify_certificate``.
"""

from __future__ import annotations

import math
import operator


def integer_rows(rows):
    """``(ints, q)``: rows of ints or Fractions as int lists times the lcm
    ``q > 0`` of all their denominators; the engine's one such scaling."""
    q = math.lcm(*(x.denominator for row in rows for x in row))
    return [[x.numerator * (q // x.denominator) for x in row] for row in rows], q


def rref(rows, ncols):
    """Reduce ``rows`` in place to reduced row echelon form.

    Only the first ``ncols`` columns are eligible as pivots; any extra
    trailing columns (augmented right-hand sides) are carried along by
    the row operations.  Returns the list of pivot column indices.

    Entries may be ints or Fractions.  A row of ints is taken as it is
    (over 1), and any other row is scaled by ``integer_rows``, which
    would leave the ints unchanged, so both give the same pivots and
    rows.  On return each row holds the ints of the primitive vector
    (gcd 1) along its reduced row, so a pivot row's entry at its pivot
    column is its denominator.  The elimination runs on ints (see the
    module docstring).
    """
    m = len(rows)
    if m == 0:
        return []
    # row i is nums[i] / dens[i], with gcd(dens[i], *nums[i]) == 1
    nums, dens = [], []
    for row in rows:
        if all(type(x) is int for x in row):
            nums.append(list(row))
            dens.append(1)
        else:
            (num,), den = integer_rows([row])
            nums.append(num)
            dens.append(den)
    pivots = []
    r = 0
    for c in range(ncols):
        p = -1
        for i in range(r, m):
            if nums[i][c]:
                p = i
                break
        if p < 0:
            continue
        if p != r:
            rows[p], rows[r] = rows[r], rows[p]
            nums[p], nums[r] = nums[r], nums[p]
            dens[p], dens[r] = dens[r], dens[p]
        prow = nums[r]
        g = math.gcd(*prow)
        if prow[c] < 0:
            g = -g
        if g != 1:
            prow = nums[r] = [a // g for a in prow]
        pv = dens[r] = prow[c]
        for i in range(m):
            if i != r and nums[i][c]:
                row = nums[i]
                f = row[c]
                row = [pv * a - f * b for a, b in zip(row, prow)]
                den = dens[i] * pv
                g = math.gcd(den, *row)
                if g != 1:
                    row = [a // g for a in row]
                    den //= g
                nums[i], dens[i] = row, den
        pivots.append(c)
        r += 1
        if r == m:
            break
    for i, (row, num) in enumerate(zip(rows, nums)):
        g = math.gcd(*num) if i >= r else 1
        row[:] = [a // g for a in num] if g > 1 else num
    return pivots


def rref_ops(rows, ncols):
    """``rref`` of ``[rows | I]``: reduces ``rows`` in place as ``rref``
    does and returns ``(pivots, ops)``, where ``ops[r]`` is the identity
    block beside reduced row r, the ints y with y . rows (as given) =
    ``rows[r]``.  A reduced row that is zero on the first ``ncols``
    columns but not after them is the Fredholm alternative's y: A x = b
    has no solution iff some y has y A = 0 and y . b != 0 (Schrijver,
    *Theory of Linear and Integer Programming*, 1986, Cor. 3.1b)."""
    m = len(rows)
    aug = [[*row, *(int(i == j) for j in range(m))] for i, row in enumerate(rows)]
    pivots = rref(aug, ncols)
    w = len(aug[0]) - m if m else 0
    rows[:] = [row[:w] for row in aug]
    return pivots, [row[w:] for row in aug]


def independent_affine_subset(points):
    """Indices of a greedy maximal affinely independent subset: the first
    point and each later one whose difference from it is independent of
    the earlier differences, i.e. the pivot columns of their matrix."""
    if not points:
        return []
    p0 = points[0]
    diffs = [[p[k] - p0[k] for p in points[1:]] for k in range(len(p0))]
    return [0] + [j + 1 for j in rref(diffs, len(points) - 1)]


def orthogonal_complement(rows, n):
    """The pivot columns of ``rows`` (reduced in place by ``rref``) and a
    basis of the vectors in Q^n orthogonal to every row's first n entries
    (later ones, such as a right-hand side, are carried along), one per
    free column: the primitive ints along 1 there, minus the reduced rows'."""
    pivots = rref(rows, n)
    dens = [row[j] for row, j in zip(rows, pivots)]
    scale = math.lcm(*dens)
    basis = []
    for free in (j for j in range(n) if j not in pivots):
        c = [0] * n
        c[free] = scale
        for row, j, d in zip(rows, pivots, dens):
            c[j] = -row[free] * (scale // d)
        g = math.gcd(*c)
        basis.append([a // g for a in c])
    return pivots, basis


def hull(ys):
    """The facets of the convex hull of int points ``ys`` that affinely
    span Z^d, d >= 1, as a set of primitive ``(a, b)`` with ``a . y >= b``
    on every point and equality on a facet, and the indices of the points
    the boundary keeps: in the plane exactly the vertices, else a
    superset of them (points on a face that were extreme when inserted).

    The plane takes Andrew's monotone chain (IPL 9, 1979), with collinear
    points dropped.  Higher d takes beneath-beyond (Edelsbrunner,
    *Algorithms in Combinatorial Geometry*, 1987, ch. 8): a simplicial
    boundary starts at the greedy affine basis, and each later point, in
    input order, replaces the simplices it lies strictly beyond by cones
    from it over their horizon ridges.  A point on a simplex's hyperplane
    does not see it, so coplanar simplices share one primitive key, and
    the set of keys is the set of facets.  Each hyperplane is oriented by
    ``c``, the sum of the basis points, (d + 1) times an interior point.
    """
    d = len(ys[0])
    if d == 2:
        return _chain(ys)
    base = independent_affine_subset(ys)
    c = [sum(col) for col in zip(*(ys[i] for i in base))]
    facets, ridges = {}, {}

    def add(s):
        y0 = ys[s[0]]
        a = _normal([[u - v for u, v in zip(ys[i], y0)] for i in s[1:]])
        g = math.gcd(*a)
        b = sum(map(operator.mul, a, y0))
        if sum(map(operator.mul, a, c)) < (d + 1) * b:
            g = -g
        facets[s] = tuple(x // g for x in a), b // g
        for k in range(d):
            ridges.setdefault(s[:k] + s[k + 1:], []).append(s)

    for k in range(d + 1):
        add(tuple(base[:k] + base[k + 1:]))
    inserted = set(base)
    for i, y in enumerate(ys):
        if i in inserted:
            continue
        visible = [s for s, (a, b) in facets.items() if sum(map(operator.mul, a, y)) < b]
        if not visible:
            continue
        seen = set(visible)
        cones = []
        for s in visible:
            del facets[s]
            for k in range(d):
                r = s[:k] + s[k + 1:]
                pair = ridges[r]
                pair.remove(s)
                if not pair:
                    del ridges[r]
                elif pair[0] not in seen:
                    cones.append(tuple(sorted(r + (i,))))
        for s in cones:
            add(s)
    return set(facets.values()), {i for s in facets for i in s}


def _chain(ys):
    """``hull`` in the plane: the counterclockwise ring of strict turns,
    whose interior lies left of each edge p -> q, so the edge's inward
    normal is (p_y - q_y, q_x - p_x)."""
    def half(order):
        ring = []
        for i in order:
            x, y = ys[i]
            while len(ring) > 1:
                (ox, oy), (px, py) = ys[ring[-2]], ys[ring[-1]]
                if (px - ox) * (y - oy) - (py - oy) * (x - ox) > 0:
                    break
                ring.pop()
            ring.append(i)
        return ring[:-1]

    order = sorted(range(len(ys)), key=ys.__getitem__)
    ring = half(order) + half(reversed(order))
    planes = set()
    for i, j in zip(ring, ring[1:] + ring[:1]):
        (px, py), (qx, qy) = ys[i], ys[j]
        a0, a1 = py - qy, qx - px
        g = math.gcd(a0, a1)
        planes.add(((a0 // g, a1 // g), (a0 * px + a1 * py) // g))
    return planes, set(ring)


def _normal(spans):
    """A nonzero integer vector orthogonal to d-1 independent integer rows
    in Z^d: 1 for d = 1, the cross product for d = 3, else the one
    vector of their ``orthogonal_complement``."""
    if not spans:
        return [1]
    if len(spans) == 2:
        (a0, a1, a2), (b0, b1, b2) = spans
        return [a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0]
    return orthogonal_complement(spans, len(spans) + 1)[1][0]


def bareiss_rank(rows):
    """Rank of an integer matrix by fraction-free Gaussian elimination.

    ``rows`` (lists of ints) are mutated.  The Bareiss update keeps all
    intermediate entries integral, so no rational arithmetic is needed.
    """
    m = len(rows)
    if m == 0:
        return 0
    n = len(rows[0])
    prev = 1
    r = 0
    for c in range(n):
        p = -1
        for i in range(r, m):
            if rows[i][c]:
                p = i
                break
        if p < 0:
            continue
        if p != r:
            rows[p], rows[r] = rows[r], rows[p]
        piv = rows[r][c]
        prow = rows[r]
        for i in range(r + 1, m):
            row = rows[i]
            f = row[c]
            for k in range(c + 1, n):
                row[k] = (piv * row[k] - f * prow[k]) // prev
            row[c] = 0
        prev = piv
        r += 1
        if r == m:
            break
    return r


def simplex_phase1(tab, obj, basis):
    """Run Bland-rule phase-1 simplex pivots on an integer tableau.

    ``tab`` is the m x (N+1) constraint tableau (rhs in the last
    column), ``obj`` the reduced-cost row of length N+1, and ``basis``
    the list of basic column indices.  All entries are ints; ``tab``
    must be ``D`` times the true tableau, where ``D`` is the common
    value of ``tab[i][basis[i]]`` (1 for a starting tableau whose basic
    columns are unit vectors), and ``obj`` any positive multiple of the
    true reduced costs times ``D``.  ``basis`` and ``obj`` are mutated
    in place and the rows of ``tab`` are replaced; afterwards the true
    tableau is ``tab / D`` with ``D = tab[i][basis[i]]``.

    Entering variable: smallest column index with negative reduced
    cost; leaving variable: lexicographically smallest basic index
    among the minimum ratios, compared by cross-multiplying.  Bland's
    rule guarantees termination, and the pivot sequence is the one the
    same rule takes on the rational tableau.  Returns the pivot count.
    """
    m = len(tab)
    rhs = len(obj) - 1
    d = tab[0][basis[0]] if m else 1
    # row i is den[i] times its true row; den[i] falls behind D while the
    # entering columns miss the row
    den = [d] * m
    npiv = 0
    while True:
        enter = -1
        for j in range(rhs):
            if obj[j] < 0:
                enter = j
                break
        if enter < 0:
            for i, s in enumerate(den):
                if s != d:
                    tab[i] = [a * d // s for a in tab[i]]
            return npiv
        leave = -1
        for i in range(m):
            t = tab[i][enter]
            if t > 0:
                r = tab[i][rhs]
                if leave < 0:
                    leave, best_r, best_t = i, r, t
                    continue
                new, old = r * best_t, best_r * t
                if new < old or (new == old and basis[i] < basis[leave]):
                    leave, best_r, best_t = i, r, t
        if leave < 0:
            # phase-1 objective is bounded below by 0, so this is unreachable
            # for any tableau produced by the feasibility frontend
            raise ArithmeticError("unbounded phase-1 tableau")
        prow = tab[leave]
        if den[leave] != d:
            prow = tab[leave] = [a * d // den[leave] for a in prow]
        pv = prow[enter]
        for i in range(m):
            if i == leave:
                continue
            row = tab[i]
            f = row[enter]
            if f:
                s = den[i]
                tab[i] = [(pv * a - f * b) // s for a, b in zip(row, prow)]
                den[i] = pv
        f = obj[enter]
        obj[:] = [(pv * a - f * b) // d for a, b in zip(obj, prow)]
        den[leave] = pv
        basis[leave] = enter
        d = pv
        npiv += 1
