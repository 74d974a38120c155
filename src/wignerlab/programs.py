"""Integer constructors of every LP that a report claim is about.

A claim about an LP names the arguments of its constructor here, never
the program itself.  The engine decides with these programs, and
``report.verify_report`` rebuilds them from the report's embedded theory
and the claim's arguments, then checks the claim's witness or Farkas
certificate against the rebuilt program.  So a certificate is checked
against the input, the theory, and not against a program that the
report supplies.

- ``compatibility``: the joint-observable LP of a pair on a polytope K.
  Its unknowns are the coefficients of the grid functionals W_ab (block
  ``(a * n_b + b) * (dim + 1)``, the constant last, ``grid_unknowns``);
  the marginal identities hold coefficient-wise, and every W_ab is >= 0
  at every vertex.  It is the claim's program, but not the one the
  engine pivots: that is ``free_block_compatibility``, over the free
  slots' functionals on aff(K) and with no equality, whose rows are
  this program's inequality rows with the marginals solved (W = X + D).
  ``theory.are_compatible`` lifts its witness or Farkas certificate back
  to this program, where ``exact.checked`` and ``verify`` check it.
- ``marginal_program``: the marginal identities alone.  The Farkas
  certificate of a pair whose effect sums differ lives on them.
- ``surjectivity``: convex weights of the vertices of K at which one
  effect takes the value 1.
- ``channel_system`` and ``channel_program``: the facet-form LP of an
  affine map ``m(x) = M x + t`` from a polytope into a polytope with
  ``g(m(x)) = h(x)`` for every equation ``(g, h)``.  The system holds one
  integer row per equation and per equality of the target's hull, with
  one right-hand side per point of the source's affine basis, and takes
  balls too (the symmetry layer's pull-backs through W); the
  program has that system at every basis point, and one inequality per
  source vertex and target facet.
- ``permutation_equations``: the equations of the channel that permutes
  the outcome statistics as a pair of outcome permutations does.
- ``transport_equations``: the equations of a channel that completes the
  square of a lifted phase-point map, given by its table.

Two helpers name these arguments for the engine and ``verify`` alike:
``generators``, the outcome permutations of the generators of S_m x S_n,
and ``moved_points``, the text of a phase table in a ``no_transport`` id.
Others describe the free block of a grid, for the engine alone: the
completion rule (``free_slots`` and ``_slot_signs``, as cells and signs
``slot_terms``) and two grids with both marginals for a pair whose
effects have one sum, one on the anchored cross (``cross_terms``) and
the covariant W0 (``base_grid``).

Each constructor writes its rows straight in the integer form of
``LinearProgram`` (``LinearProgram.from_scaled``): a row ``r . x (= or
>=) rhs`` as ``(s*r, s*rhs, s)`` with ``s > 0`` and gcd 1, in the same
row order as the rational construction, so the program equals it and
the simplex pivots the same: ``_reduced`` takes out the common
denominator of the polytope's kept int points.  There is no LP here and
no elimination beyond the affine basis and facets that the state space
keeps.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence

from ._kernels import integer_rows
from .exact import QQ, LinearProgram
from .geometry import (
    Polytope, _functional, basis_ints, hull_coords, int_values, signed_sums, vertex_ints,
)


def grid_unknowns(n_a: int, n_b: int, dim: int):
    """``(n_vars, idx)``: the unknowns of a grid of affine functionals on
    R^dim, and ``idx(a, b, k)``, the index of coefficient k of W_ab."""
    width = dim + 1

    def idx(a: int, b: int, k: int) -> int:
        return (a * n_b + b) * width + k

    return n_a * n_b * width, idx


def _reduced(row, rhs: int, s: int) -> tuple[tuple[int, ...], int, int]:
    """``(row, rhs, s)`` over their gcd."""
    g = math.gcd(s, rhs, *row)
    if g > 1:
        return tuple(a // g for a in row), rhs // g, s // g
    return tuple(row), rhs, s


def _marginal_rows(obs_a, obs_b) -> tuple[int, list]:
    """The row-sum identities of A, then the column-sums of B, one per
    coefficient: sum_b W_ab[k] = A_a[k] and sum_a W_ab[k] = B_b[k]."""
    n_a, n_b = obs_a.n_outcomes, obs_b.n_outcomes
    n_vars, idx = grid_unknowns(n_a, n_b, obs_a.effects[0].dim)
    rows = []
    for obs, cells in ((obs_a, lambda i: [(i, b) for b in range(n_b)]),
                       (obs_b, lambda i: [(a, i) for a in range(n_a)])):
        for i, f in enumerate(obs.effects):
            for k, c in enumerate(f.coefficients()):
                s = c.denominator
                row = [0] * n_vars
                for a, b in cells(i):
                    row[idx(a, b, k)] = s
                rows.append((tuple(row), c.numerator, s))
    return n_vars, rows


def free_slots(obs_a, obs_b, anchor: Optional[tuple[int, int]] = None):
    """The anchor (alpha, beta), by default the last outcome of each
    observable, and the free slots (a, b) with a != alpha and b != beta in
    row-major order, the order in which members list their free block."""
    n_a, n_b = obs_a.n_outcomes, obs_b.n_outcomes
    alpha, beta = anchor if anchor is not None else (n_a - 1, n_b - 1)
    if not (0 <= alpha < n_a and 0 <= beta < n_b):
        raise ValueError("anchor out of range")
    slots = [(a, b) for a in range(n_a) for b in range(n_b) if a != alpha and b != beta]
    return (alpha, beta), slots


def _slot_signs(slot: tuple[int, int], anchor: tuple[int, int]):
    """The completion rule: a free slot's functional enters its own entry
    and the corner with sign +1, and (a, beta) and (alpha, b) with -1."""
    (a, b), (alpha, beta) = slot, anchor
    return (((a, b), 1), ((a, beta), -1), ((alpha, b), -1), ((alpha, beta), 1))


def slot_terms(obs_a, obs_b, anchor: Optional[tuple[int, int]] = None) -> list:
    """Per cell ``a * n_b + b``, the ``(s, sign)`` of each free slot s (its
    index in ``free_slots``) that enters the cell by the completion rule:
    the zero-marginal grid D of slot functionals f_s has D_ab = sum of
    sign * f_s over them."""
    anchor, slots = free_slots(obs_a, obs_b, anchor)
    n_b = obs_b.n_outcomes
    terms = [[] for _ in range(obs_a.n_outcomes * n_b)]
    for s, slot in enumerate(slots):
        for (a, b), sign in _slot_signs(slot, anchor):
            terms[a * n_b + b].append((s, sign))
    return terms


def cross_terms(obs_a, obs_b, anchor: Optional[tuple[int, int]] = None) -> list[list]:
    """Per cell ``a * n_b + b``, the signed effects ``(sign, f)`` of a
    member on the anchored cross: A_a at (a, beta), B_b at (alpha, b) for
    b != beta, and A_alpha minus those B_b at the corner.  Its rows sum
    to the A_a, and its columns to the B_b whenever the effects of A and
    B have one sum; it is ``wigner.degenerate_rep``."""
    n_b = obs_b.n_outcomes
    (alpha, beta), _ = free_slots(obs_a, obs_b, anchor)
    terms = [[] for _ in range(obs_a.n_outcomes * n_b)]
    for a, f in enumerate(obs_a.effects):
        terms[a * n_b + beta].append((1, f))
    for b, f in enumerate(obs_b.effects):
        if b != beta:
            terms[alpha * n_b + b].append((1, f))
            terms[alpha * n_b + beta].append((-1, f))
    return terms


def base_grid(obs_a, obs_b) -> list:
    """W0_ab = A_a/n_b + B_b/n_a - S/(n_a n_b), flat in cell order
    ``a * n_b + b``, for a pair whose effects have one sum S: its rows sum
    to the A_a and its columns to the B_b, coefficient-wise."""
    n_a, n_b = obs_a.n_outcomes, obs_b.n_outcomes
    rows, q = integer_rows([f.coefficients() for f in obs_a.effects + obs_b.effects])
    total = [sum(col) for col in zip(*rows[:n_a])]
    den = n_a * n_b * q
    grid = []
    for x in rows[:n_a]:
        for y in rows[n_a:]:
            *lin, c = (QQ(n_a * u + n_b * v - t, den) for u, v, t in zip(x, y, total))
            grid.append(_functional(tuple(lin), c))
    return grid


def marginal_program(obs_a, obs_b) -> LinearProgram:
    """The marginal identities of a grid for the pair, with no inequality."""
    n_vars, rows = _marginal_rows(obs_a, obs_b)
    return LinearProgram.from_scaled(n_vars, rows, len(rows))


def compatibility(obs_a, obs_b, space) -> LinearProgram:
    """The joint-observable LP of the pair on the polytope ``space``: the
    marginal identities, then W_ab(v) >= 0 for each vertex v, a and b."""
    n_vars, rows = _marginal_rows(obs_a, obs_b)
    n_eq = len(rows)
    width = obs_a.effects[0].dim + 1
    cells = obs_a.n_outcomes * obs_b.n_outcomes
    xs, q = vertex_ints(space)
    for x in xs:
        point, _, s = _reduced((*x, q), 0, q)
        for cell in range(cells):
            row = [0] * n_vars
            row[cell * width:(cell + 1) * width] = point
            rows.append((tuple(row), 0, s))
    return LinearProgram.from_scaled(n_vars, rows, n_eq)


def free_block_compatibility(obs_a, obs_b, space) -> LinearProgram:
    """The program the engine pivots for ``compatibility``, for a pair
    whose effects have one sum: W = X + D, X the member on the anchored
    cross (``cross_terms``) and D the zero-marginal grid of the free slots'
    functionals f_s (``slot_terms``), has both marginals.  On aff(K) each
    f_s is its coefficients on ``geometry.hull_coords`` and its constant,
    dim K + 1 numbers, and unknown ``s * w + i`` is the i-th of them; there
    is no equality.  Its rows are X_ab(v) + sum of sign * f_s(v) >= 0 per
    vertex v and cell, in the row order of ``compatibility``, each the
    same rational row as that program's W_ab(v) >= 0 once W = X + D."""
    terms = slot_terms(obs_a, obs_b)
    coords = hull_coords(space)
    xs, q = vertex_ints(space)
    base, den = int_values(signed_sums(cross_terms(obs_a, obs_b), space.ambient_dim), xs, q)
    w = len(coords) + 1
    n_vars = w * (obs_a.n_outcomes - 1) * (obs_b.n_outcomes - 1)
    rows = []
    for j, x in enumerate(xs):
        point = [den * x[k] for k in coords] + [den * q]
        for values, entries in zip(base, terms):
            row = [0] * n_vars
            for s, sign in entries:
                row[s * w:(s + 1) * w] = [sign * c for c in point]
            rows.append(_reduced(row, -q * values[j], q * den))
    return LinearProgram.from_scaled(n_vars, rows, 0)


def surjectivity(f, space) -> LinearProgram:
    """Convex weights ``w`` of the vertices of the polytope ``space`` with
    ``sum_i w_i f(v_i) = 1``: that row, then ``sum_i w_i = 1``, then
    ``w_i >= 0``."""
    (values,), den = int_values([f], *vertex_ints(space))
    n = len(values)
    rows = [_reduced(values, den, den), ((1,) * n, 1, 1)]
    rows += [(tuple(int(i == j) for j in range(n)), 0, 1) for i in range(n)]
    return LinearProgram.from_scaled(n, rows, 2)


def channel_system(source, target, equations) -> list[tuple[list[int], int]]:
    """The system ``c . y_i = rhs[i]`` on the images ``y_i`` of the affine
    basis ``p_i`` of ``source``, as int rows ``([s*c | s*rhs], s)`` with
    ``s > 0``: ``g . y_i = h(p_i) - g0`` per equation ``(g, h)``, then the
    equalities ``c . (scale * y) = e`` of the target's hull.  Either space
    may be a ball: its basis is the center and the axis points, and a
    ball target has no hull equality."""
    basis, q = basis_ints(source)
    hvals, den = int_values([h for _, h in equations], basis, q)
    ints = []
    for (g, _), hv in zip(equations, hvals):
        ((*c, g0),), t = integer_rows([g.coefficients()])
        ints.append(([den * a for a in c] + [t * v - den * g0 for v in hv], den * t))
    if isinstance(target, Polytope):
        hrep = target._facets
        ints += [([hrep.scale * a for a in c] + [e] * len(basis), hrep.scale)
                 for c, e in hrep.equalities]
    return ints


def channel_program(source, target, system) -> LinearProgram:
    """The facet-form LP over ``M`` and ``t`` of ``m(x) = M x + t``, with
    unknown ``k * d1 + j`` for M[k][j] and ``d2 * d1 + k`` for t[k]: each
    row of ``system`` (``channel_system``) at each basis point, then
    ``a . (scale * m(v)[coords]) >= b`` per source vertex and target facet."""
    d1, d2 = source.ambient_dim, target.ambient_dim
    n_vars = d2 * d1 + d2

    def image_row(xs: Sequence[int], q: int, c: Sequence[int], coords) -> list[int]:
        """``c . (M x + t)[coords]`` times q, for x = xs / q."""
        row = [0] * n_vars
        for k, ck in zip(coords, c):
            if ck:
                row[k * d1:(k + 1) * d1] = [ck * x for x in xs]
                row[d2 * d1 + k] = ck * q
        return row

    basis, q = basis_ints(source)
    rows = []
    for row, s in system:
        c = row[:d2]
        for xs, r in zip(basis, row[d2:]):
            rows.append(_reduced(image_row(xs, q, c, range(d2)), r * q, s * q))
    n_eq = len(rows)
    hrep = target._facets
    s = hrep.scale
    vertices, q = vertex_ints(source)
    for v in vertices:
        xs = [s * x for x in v]
        for a, b in hrep.facets:
            # a . m(v)[coords] >= b / s, times s * q
            rows.append(_reduced(image_row(xs, s * q, a, hrep.coords), b * q, s * q))
    return LinearProgram.from_scaled(n_vars, rows, n_eq)


def _inverse(perm: Sequence[int]) -> tuple[int, ...]:
    """The inverse of a permutation table: its argsort."""
    return tuple(sorted(range(len(perm)), key=perm.__getitem__))


def permutation_equations(obs_a, obs_b, perm_a: Sequence[int], perm_b: Sequence[int]):
    """``(A_a, A_(g^-1 a))`` for every a, then likewise for B: the channel
    F of g = (perm_a, perm_b) has A_a(F x) = A_(g^-1 a)(x)."""
    inv_a, inv_b = _inverse(perm_a), _inverse(perm_b)
    return ([(obs_a.effects[a], obs_a.effects[inv_a[a]]) for a in range(obs_a.n_outcomes)]
            + [(obs_b.effects[b], obs_b.effects[inv_b[b]]) for b in range(obs_b.n_outcomes)])


def generators(n_a: int, n_b: int) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """``(perm_a, perm_b)`` of the adjacent transpositions of A's outcomes,
    then of B's: they generate the translation group S_m x S_n."""
    def swaps(n):
        return [(*range(i), i + 1, i, *range(i + 2, n)) for i in range(n - 1)]

    id_a, id_b = tuple(range(n_a)), tuple(range(n_b))
    return [(t, id_b) for t in swaps(n_a)] + [(id_a, t) for t in swaps(n_b)]


def moved_points(n_b: int, table: Sequence[int]) -> str:
    """The points that a phase table over flat indices ``a * n_b + b``
    moves, as ``(a, b)->(a', b')`` joined by ``, ``; ``id`` if none."""
    moved = [f"{divmod(i, n_b)}->{divmod(t, n_b)}" for i, t in enumerate(table) if i != t]
    return ", ".join(moved) or "id"


def transport_equations(rep, table: Sequence[int]):
    """``(W_i, sum of the W_j with table[j] = i)`` for every flat phase
    point i: the channel F completes the square of the lifted map,
    W_i(F x) = (lift(table) W(x))_i."""
    funcs = rep.functionals()
    terms = [[] for _ in funcs]
    for j, i in enumerate(table):
        terms[i].append((1, funcs[j]))
    return list(zip(funcs, signed_sums(terms, rep.state_space.ambient_dim)))
