"""Test-only oracles: the Fraction phase-1 simplex, LP frontends and guards.

``simplex_phase1``, ``_phase_one``, ``check`` and ``verify_certificate``
are the engine's former LP path, kept verbatim so that the integer
kernel, the bounded frontend and the integer guards in ``wignerlab.exact``
can be checked against them.  In ``_phase_one`` every row, including each
``x_j >= 0`` row, gets a slack and an artificial, every variable is split
into ``x+ - x-``, and the tableau holds ``fractions.Fraction`` entries.

``slack_phase_one`` is the engine's frontend on programs without bound
rows, in the same Fraction arithmetic: an inequality row with rhs <= 0
starts with its slack basic and gets no artificial.

``vertex_image_channel`` is the former LP of ``theory.find_channel`` on
polytope pairs, over vertex images and convex weights, against which
the facet form is checked.  ``unconstrained_witness`` is the former
diagnosis of an infeasible channel, one block system over all basis
images; ``per_column_affine_map`` the former ``affine_map_from_points``,
one ``solve_affine`` per target coordinate, against which
``geometry.interpolant`` of the one ``geometry.interpolation`` rref is
checked (free unknowns 0); ``rank_greedy_subset`` the former greedy
affine basis, one exact rank per point.

``orthogonal_extension`` (with ``projection_matrix``) is the former
``geometry.affine_map_with_orthogonal_extension``: one ``solve_affine``
per point off a greedy affine basis, then the interpolant composed with
the orthogonal projection onto the domain's difference span.  Over the
W-images of every vertex it is also the former interpolation of
``symmetry.find_symmetry_for_channel``, which now pushes a channel
forward at the affine basis alone.
``closed_form_family`` is the former ``wigner.construct_family``, with
the unit effect minus the other effects at the anchored corner, and
``cross_corner_family`` the same with A_alpha minus the other B_b there,
the closed form of the constructor on the anchored cross;
``greedy_faithful_member`` is the former ``wigner.faithful_member`` (one
``construct_family`` and ``grid_rank`` per slot and coordinate trial)
and ``entrywise_positive_member`` the former ``wigner.positive_member``,
whose LP rows restate the completion rule entry by entry; the last two
build their members with ``cross_corner_family``.

``surjectivity_details`` is the former ``theory.surjectivity_details``,
which solves the convex-weights LP of every effect on a polytope with
``lp_feasible``; the closed forms are checked against it.

``rref`` and ``vec_dot`` are the former ``Fraction`` kernels, one
``Fraction`` operation per entry, against which the integer ``rref``
with per-row denominators and the integer ``vec_dot`` are checked.
``values_at`` is the per-entry evaluation ``f(p)`` that
``geometry.int_values`` replaces with one integer matrix, and
``hull_equalities`` the former equalities of ``geometry._describe``,
read off the ``Fraction`` rref of the points' integer differences.
``subset_scan_describe`` is the former ``geometry._describe``, which
tried every d-subset of the points as a facet against every point
(C(n, d) n work), against which the integer hull is checked, facet
order included.
``fraction_permutation_test`` is the former
``symmetry._permutation_test``, whose invariants (the extreme points
of W(K), and g0 and S = G (G^T G)^-2 G^T on balls) hold ``Fraction``
entries.

``chart_is_symmetry`` and ``chart_induced_action`` are the former
pull-back of a grid map through the chart of a faithful W: the integer
left inverse G+ = (G^T G)^-1 G^T of its basis images (``_chart``), one
state per mapped basis image (``_solve_state``) and the interpolant of
those states extended orthogonally off aff(K) (``_pull_back``), kept
verbatim but for module-qualified kernel names.  The engine solves the
square's equations at the affine basis instead, and is checked against
them on balls and polytopes.

``is_g_symmetric_by_closure`` is the former ``symmetry.is_g_symmetric``,
which ran the permutation test on every element of the group that
``close_group`` (the former ``symmetry.close_group``) builds, against
which the test of the generators alone is checked.

``is_psd`` is the former PSD test of ball containment, the signs of all
2^n principal minors by Bareiss determinants (``int_det``), against
which the symmetric elimination of ``geometry._negative_direction`` is
checked.

``squarefree_by_trial_division`` is the former ``geometry._squarefree``,
trial division up to sqrt(n), against which the bounded decomposition is
checked.

``map_into_by_vertices`` is the former polytope branch of
``geometry.map_into``: one ``AffineMap.__call__`` per source vertex,
then ``_Facets.holds`` on the image, against which the one integer
matrix of vertex images is checked.

``membership_weights`` is the former ``geometry.membership_weights``,
convex vertex weights of a member from a walk over the facets, with no
LP; ``_in_hull`` is the convex-weights LP, the oracle of membership that
the facet walk is checked against.

``compatibility_program``, ``marginal_equalities``,
``surjectivity_program`` and ``channel_program`` are the former
``Fraction``-row constructions of the compatibility LP, the marginal
identities, the convex-weights LP of one effect and the facet-form
channel LP, inline in ``theory`` and ``symmetry`` before
``wignerlab.programs`` wrote integer rows; the constructors are checked
equal to them.

``composed_with_rep`` is the former second construction of
``symmetry.find_transported_channel``, for any affine grid map: the
functionals of x -> m(flat(W(x))), the transfer matrix times W, against
which the equations read off a phase table are checked.
``transfer_matrix`` is the n x n 0/1 matrix that ``symmetry.lift`` built
for every lifted map, and ``covariance_by_evaluation`` the former
``covariance_identity`` branch of ``report._verify_claim``, which
evaluated W_g(a,b)(F p) = W_ab(p) in ``Fraction``s at the affine basis
instead of checking the transport equations of g's phase table.

``full_grid_compatibility`` is the former ``theory.are_compatible``, the
simplex on the whole compatibility program (every grid coefficient an
unknown, the marginal identities as equality rows), and
``full_grid_covariant`` the former ``symmetry.solve_covariant``, whose
stage 2 solved the marginal identities and every covariance row over all
grid coefficients with ``solve_affine``; the solvers over the free
block are checked against them.

``dataclass_twin`` rebuilds a record class (``wignerlab._record``) as the
``@dataclass(frozen=True)`` it replaced, the oracle of the record
methods.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
import operator

from typing import Callable, NamedTuple, Optional, Sequence, Union

from wignerlab import _kernels, exact
from wignerlab.errors import PreconditionError, SizeGuardError, UnsupportedGeometryError
from wignerlab.exact import (
    QQ,
    Feasible,
    FeasibilityResult,
    Infeasible,
    LinearProgram,
    Matrix,
    Vec,
    lp_feasible,
    rank,
    solve_affine,
    unit,
    vec,
    vec_sub,
    zeros,
)
from wignerlab.geometry import (
    AffineFunctional,
    AffineMap,
    Ball,
    Containment,
    Polytope,
    StateSpace,
    _Facets,
    _functional,
    affine_basis,
    affine_map_with_orthogonal_extension,
    basis_ints,
    contains,
    dimension,
    extremal_range,
    independent_affine_subset,
    int_values,
    map_into,
)
from wignerlab import programs, symmetry
from wignerlab.report import read_map
from wignerlab.symmetry import PhasePointMap
from wignerlab.theory import (
    Channel, Compatible, Incompatible, Observable, are_complementary, is_surjective,
    jointly_info_complete,
)
from wignerlab.wigner import (
    NoPositiveMember,
    PositiveFound,
    WignerRep,
    evaluate,
    grid_rank,
    is_faithful,
    is_positive,
)


def rref(rows, ncols):
    """Reduce ``rows`` in place to reduced row echelon form.

    Only the first ``ncols`` columns are eligible as pivots; any extra
    trailing columns (augmented right-hand sides) are carried along by
    the row operations.  Returns the list of pivot column indices.
    """
    m = len(rows)
    if m == 0:
        return []
    width = len(rows[0])
    pivots = []
    r = 0
    for c in range(ncols):
        p = -1
        for i in range(r, m):
            if rows[i][c]:
                p = i
                break
        if p < 0:
            continue
        if p != r:
            rows[p], rows[r] = rows[r], rows[p]
        prow = rows[r]
        pv = prow[c]
        if pv != 1:
            for k in range(c, width):
                prow[k] = prow[k] / pv
        for i in range(m):
            if i != r and rows[i][c]:
                f = rows[i][c]
                row = rows[i]
                for k in range(c, width):
                    row[k] = row[k] - f * prow[k]
        pivots.append(c)
        r += 1
        if r == m:
            break
    return pivots


def values_at(funcs: Sequence[AffineFunctional], points) -> list[list[QQ]]:
    """f(p) for each functional and point, one ``Fraction`` each."""
    return [[f(p) for p in points] for f in funcs]


def hull_equalities(points, scale: int) -> tuple:
    """The equalities ``c . X = e`` of aff(points) in ``X = scale * x``:
    per free column of the rref of the differences from the first point,
    1 there and minus that column at the pivots, as primitive ints."""
    ints = [tuple(int(v * scale) for v in p) for p in points]
    p0, n = ints[0], len(ints[0])
    rows = [[QQ(a - b) for a, b in zip(p, p0)] for p in ints[1:]]
    pivots = rref(rows, n)
    out = []
    for free in (j for j in range(n) if j not in pivots):
        c = [QQ(0)] * n
        c[free] = QQ(1)
        for r, j in enumerate(pivots):
            c[j] = -rows[r][free]
        den = math.lcm(*(a.denominator for a in c))
        c = [int(a * den) for a in c]
        c = tuple(a // math.gcd(*c) for a in c)
        out.append((c, sum(a * b for a, b in zip(c, p0))))
    return tuple(out)


def _normal(spans: list[list[int]]) -> list[int]:
    """A nonzero integer vector orthogonal to d-1 independent integer rows
    in Z^d (the cross product for d = 3), and zero if they are dependent."""
    if not spans:
        return [1]
    if len(spans) == 1:
        (a, b), = spans
        return [b, -a]
    if len(spans) == 2:
        (a0, a1, a2), (b0, b1, b2) = spans
        return [a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0]
    _, complement = _kernels.orthogonal_complement(spans, len(spans) + 1)
    return complement[0] if len(complement) == 1 else [0] * (len(spans) + 1)


def subset_scan_describe(points: Sequence[Sequence]) -> tuple[_Facets, tuple, list[bool]]:
    """The facet description of conv(points), the points as ints over its
    ``scale``, and for each point whether it is a vertex that occurs once.

    The points are scaled to ints over one denominator; one rref of
    their differences gives the equalities of the affine hull (its
    nullspace) and d pivot coordinates.  There every d-subset of points
    spanning a hyperplane gives an integer normal (``_normal``), kept (with
    the sign that makes it >= on every point, over its gcd) when no
    point lies strictly on each side.  A point is a vertex iff the
    normals of its tight facets have rank d.
    """
    ints, scale = _kernels.integer_rows(points)
    ints = tuple(map(tuple, ints))
    p0 = ints[0]
    diffs = [[a - b for a, b in zip(p, p0)] for p in ints[1:]]
    pivots, complement = _kernels.orthogonal_complement(diffs, len(p0))
    coords = tuple(pivots)
    equalities = [(tuple(c), sum(map(operator.mul, c, p0))) for c in complement]
    d = len(coords)
    distinct = list(dict.fromkeys(ints))
    ys = [tuple(p[j] for j in coords) for p in distinct]
    facets: dict[tuple[tuple[int, ...], int], list[int]] = {}
    for subset in itertools.combinations(range(len(ys)), d) if d else ():
        base = ys[subset[0]]
        normal = _normal([[a - b for a, b in zip(ys[i], base)] for i in subset[1:]])
        if not any(normal):
            continue
        offset = sum(map(operator.mul, normal, base))
        side = [sum(map(operator.mul, normal, y)) - offset for y in ys]
        lo, hi = min(side), max(side)
        if lo < 0 < hi:
            continue
        g = math.gcd(*normal) if lo >= 0 else -math.gcd(*normal)
        key = (tuple(a // g for a in normal), offset // g)
        if key not in facets:
            facets[key] = [i for i, v in enumerate(side) if not v]
    tight: list[list[tuple[int, ...]]] = [[] for _ in ys]
    for (a, _), on in facets.items():
        for i in on:
            tight[i].append(a)
    extreme = {
        p: len(t) >= d and _kernels.bareiss_rank([list(a) for a in t]) == d
        for p, t in zip(distinct, tight)
    }
    flags = [extreme[p] and ints.count(p) == 1 for p in ints]
    return _Facets(scale, coords, tuple(equalities), tuple(facets)), ints, flags


def vec_dot(u: Vec, v: Vec) -> QQ:
    return sum((a * b for a, b in zip(u, v, strict=True)), QQ(0))


def fraction_permutation_test(rep: WignerRep) -> Callable[[Sequence[int]], bool]:
    """Exact predicate on permutation tables: is the lift a symmetry of W?

    Polytopes: the relabelling fixes the set of extreme points of W(K),
    as tuples of Fractions.  Balls (faithful W): it fixes g0 = W(center)
    and S = G H^-2 G^T entry by entry.
    """
    space = rep.state_space
    funcs = rep.functionals()
    n = len(funcs)
    if isinstance(space, Polytope):
        images = [tuple(f(v) for f in funcs) for v in space.vertices]
        ext = set(Polytope.hull_of(images).vertices)

        def fixes_ext(perm: Sequence[int]) -> bool:
            for point in ext:
                mapped = [QQ(0)] * n
                for j, value in enumerate(point):
                    mapped[perm[j]] = value
                if tuple(mapped) not in ext:
                    return False
            return True

        return fixes_ext
    if not is_faithful(rep):
        raise ValueError("ball symmetry testing needs a faithful representation")
    # the chart in Fractions: g0 = W(p0), columns W(p_i) - g0 of G, and
    # G+ = (G^T G)^-1 G^T from the rref of [G^T G | G^T]
    images = [tuple(f(p) for f in funcs) for p in affine_basis(space)]
    g0 = images[0]
    cols = [vec_sub(w, g0) for w in images[1:]]
    aug = [[vec_dot(u, v) for v in cols] + list(u) for u in cols]
    rref(aug, len(cols))
    gplus_cols = [tuple(row[len(cols) + i] for row in aug) for i in range(n)]
    s = [[vec_dot(u, v) for v in gplus_cols] for u in gplus_cols]  # G H^-2 G^T
    return lambda perm: all(
        g0[perm[i]] == g0[i] and all(s[perm[i]][perm[j]] == s[i][j] for j in range(n))
        for i in range(n)
    )


class _Chart(NamedTuple):
    """W on aff(K) over an affine basis: W(p0 + sum c_i (p_i - p0)) = g0 + G c.

    In integers: ``images`` are ``den * W(p_i)`` (so g0 and the columns
    W(p_i) - g0 of G are over ``den``), and ``gplus`` the rows of the
    left inverse G+ = (G^T G)^-1 G^T times ``gden / den``.  Valid for
    faithful representations, where G has full column rank.
    """

    basis: tuple[Vec, ...]
    den: int
    images: list[tuple[int, ...]]
    gplus: list[list[int]]
    gden: int


def _chart(rep: WignerRep) -> Optional[_Chart]:
    """The chart of W, or None when W is not faithful: faithful means
    that its values at the basis have rank dim(K) + 1 (``is_faithful``)."""
    basis = affine_basis(rep.state_space)
    vals, den = int_values(rep.functionals(), *basis_ints(rep.state_space))
    images = list(zip(*vals))
    if _kernels.bareiss_rank(vals) != len(basis):  # it eliminates vals in place
        return None
    cols = [[a - b for a, b in zip(w, images[0])] for w in images[1:]]
    # [G^T G | G^T] times den^2 and den reduces to [I | G+ / den]
    aug = [[sum(map(operator.mul, u, v)) for v in cols] + u for u in cols]
    _kernels.rref(aug, len(cols))
    gden = math.lcm(*(row[r] for r, row in enumerate(aug)))
    gplus = [[a * (gden // row[r]) for a in row[len(cols):]] for r, row in enumerate(aug)]
    return _Chart(basis, den, images, gplus, gden)


def _solve_state(chart: _Chart, target: Sequence[int], q: int) -> Optional[Vec]:
    """The state y in aff(K) with W(y) = target / q, or None.  Over ints,
    ``rhs = q * den * (W(y) - g0)`` and the coefficients are
    ``gplus . rhs = gden * q * c``."""
    g0 = chart.images[0]
    rhs = [chart.den * t - q * g for t, g in zip(target, g0)]
    coeffs = [sum(map(operator.mul, row, rhs)) for row in chart.gplus]
    cols = [[a - b for a, b in zip(w, g0)] for w in chart.images[1:]]
    if any(sum(map(operator.mul, coeffs, col)) != chart.gden * r
           for col, r in zip(zip(*cols), rhs)):
        return None
    p0 = chart.basis[0]
    c = [QQ(x, chart.gden * q) for x in coeffs]
    return tuple(exact.vec_dot(c, [p[k] - p0[k] for p in chart.basis[1:]], p0[k])
                 for k in range(len(p0)))


def _pull_back(chart: _Chart, m: AffineMap) -> Optional[AffineMap]:
    """The channel candidate W^-1 . m . W on the affine hull of K."""
    rows, q = int_values(m.functionals(), chart.images, chart.den)
    images = [_solve_state(chart, target, q) for target in zip(*rows)]
    return None if None in images else affine_map_with_orthogonal_extension(chart.basis, images)


def chart_is_symmetry(rep: WignerRep, lam) -> symmetry.SymmetryCheck:
    """The ball branch of the former ``symmetry.is_symmetry``: the map
    pulled back through the chart, then decided as a ball self-map."""
    space = rep.state_space
    m = lam.as_affine_map() if isinstance(lam, symmetry.LiftedMap) else lam
    chart = _chart(rep)
    if chart is None:
        raise UnsupportedGeometryError(
            "unsupported: ball symmetry testing needs a faithful representation"
        )
    pulled = _pull_back(chart, m)
    if pulled is None:
        # some mapped image point left the affine hull of W(K)
        rows, q = int_values(m.functionals(), chart.images, chart.den)
        for p, target in zip(chart.basis, zip(*rows)):
            if _solve_state(chart, target, q) is None:
                image = tuple(QQ(x, q) for x in target)
                return symmetry.SymmetryCheck(False, p, symmetry._grid_of_flat(image, rep.shape))
        raise ArithmeticError("pull-back failed without witness")  # pragma: no cover
    result = map_into(space, pulled, space)
    if result.ok:
        return symmetry.SymmetryCheck(True)
    image = m(evaluate(rep, result.witness_point).flatten())
    return symmetry.SymmetryCheck(
        False, result.witness_point, symmetry._grid_of_flat(image, rep.shape))


def chart_induced_action(rep: WignerRep, phi: PhasePointMap) -> Channel:
    """The former ``symmetry.induced_action``: W^-1 . lift(phi) . W
    through the chart, extended off aff(K) orthogonally."""
    if not phi.is_permutation:
        raise PreconditionError("induced actions need permutation phase maps")
    chart = _chart(rep)
    if chart is None:
        raise PreconditionError("induced actions need a faithful representation")
    if not fraction_permutation_test(rep)(phi.table):
        raise PreconditionError("the lifted map is not a symmetry of W")
    m = _pull_back(chart, symmetry.lift(phi).as_affine_map())
    if m is None:  # pragma: no cover - symmetry guarantees solvability
        raise ArithmeticError("symmetric image left the representation span")
    return Channel(m, rep.state_space, rep.state_space)


def composed_with_rep(rep: WignerRep, m: AffineMap) -> list[AffineFunctional]:
    """The functionals of x -> m(flat(W(x))), one per phase point."""
    *lin, const = zip(*(f.coefficients() for f in rep.functionals()))
    return [
        _functional(tuple(exact.vec_dot(row, col) for col in lin),
                    exact.vec_dot(row, const, c))
        for row, c in zip(m.matrix.entries, m.offset)
    ]


def transfer_matrix(phi: PhasePointMap) -> Matrix:
    """The transfer matrix of lift(phi): one 1 per column j, at row phi(j)."""
    n = len(phi.table)
    zero, one = QQ(0), QQ(1)
    rows = [[zero] * n for _ in range(n)]
    for j, i in enumerate(phi.table):
        rows[i][j] = one
    return Matrix(tuple(map(tuple, rows)), n)


def covariance_by_evaluation(claim: dict, theory, wigner_reps) -> bool:
    """The verdict of a ``covariance_identity`` claim, every grid entry
    evaluated at every affine basis point of K."""
    rep = wigner_reps[claim["rep"]]
    space = theory.state_space
    chan = read_map(claim["channel"], space.ambient_dim, "channel.")
    inside = map_into(space, chan, space)
    perm_a, perm_b = claim["perm_a"], claim["perm_b"]
    if (claim["verdict"] is not True or not inside.ok
            or [sorted(perm_a), sorted(perm_b)] != [list(range(n)) for n in rep.shape]):
        return False
    # W_g(a,b)(F p) = W_ab(p), the engine's W_ab(F p) = W_g^-1(a,b)(p)
    basis = affine_basis(space)
    return all(rep.grid[perm_a[a]][perm_b[b]](chan(p)) == rep.grid[a][b](p)
               for a in range(len(perm_a)) for b in range(len(perm_b)) for p in basis)


def close_group(
    generators: Sequence[PhasePointMap], guard: int = 10_000
) -> set[PhasePointMap]:
    """Closure of permutation phase maps under composition."""
    for g in generators:
        if not g.is_permutation:
            raise PreconditionError("group generators must be permutations")
    if not generators:
        return set()
    shape = generators[0].shape
    identity = PhasePointMap.identity(shape)
    elements = {identity}
    frontier = [identity]
    while frontier:
        nxt = []
        for g in generators:
            for h in frontier:
                prod = g.compose(h)
                if prod not in elements:
                    elements.add(prod)
                    nxt.append(prod)
                    if len(elements) > guard:
                        raise SizeGuardError(
                            f"generated group exceeds the guard of {guard} elements"
                        )
        frontier = nxt
    return elements


def is_g_symmetric_by_closure(rep: WignerRep, generators) -> bool:
    """Is the lift of every element of the closed group a symmetry?"""
    if not generators:
        return True
    test = symmetry._permutation_test(rep)
    return all(test(element.table) for element in close_group(generators))


def check(lp: LinearProgram, x) -> bool:
    """Exact satisfaction check for a candidate point."""
    x = vec(x)
    if len(x) != lp.n_vars:
        return False
    return all(vec_dot(r, x) == c for r, c in lp.equalities) and all(
        vec_dot(r, x) >= c for r, c in lp.inequalities
    )


def verify_certificate(lp: LinearProgram, cert: Infeasible) -> bool:
    """Re-check an infeasibility certificate by pure arithmetic."""
    if len(cert.eq_multipliers) != len(lp.equalities):
        return False
    if len(cert.ineq_multipliers) != len(lp.inequalities):
        return False
    if any(m < 0 for m in cert.ineq_multipliers):
        return False
    combo = [QQ(0)] * lp.n_vars
    total = QQ(0)
    for m, (row, rhs) in zip(cert.eq_multipliers, lp.equalities):
        if m:
            for k in range(lp.n_vars):
                combo[k] += m * row[k]
            total += m * rhs
    for m, (row, rhs) in zip(cert.ineq_multipliers, lp.inequalities):
        if m:
            for k in range(lp.n_vars):
                combo[k] += m * row[k]
            total += m * rhs
    return total == cert.gap and cert.gap > 0 and all(c == 0 for c in combo)


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


def slack_phase_one(lp: LinearProgram) -> FeasibilityResult:
    n = lp.n_vars
    rows = [(row, rhs, False) for row, rhs in lp.equalities]
    rows += [(row, rhs, True) for row, rhs in lp.inequalities]
    needs_art = [not ineq or rhs > 0 for _, rhs, ineq in rows]
    if not any(needs_art):
        return Feasible(zeros(n))
    # columns: x+ | x- | slacks | artificials | rhs
    art0 = 2 * n + len(lp.inequalities)
    n_cols = art0 + sum(needs_art)
    tab = []
    flips = []
    basis = []
    slack_at, art_at = 2 * n, art0
    for (row, rhs, ineq), art in zip(rows, needs_art):
        # a row without artificial is a.x >= b with b <= 0, stored negated
        # as -a.x + slack = -b with its slack basic
        sigma = QQ(1) if art and rhs >= 0 else QQ(-1)
        flips.append(sigma)
        line = [QQ(0)] * (n_cols + 1)
        for j, a in enumerate(row):
            if a:
                line[j] = sigma * a
                line[n + j] = -sigma * a
        if ineq:
            line[slack_at] = -sigma
            if not art:
                basis.append(slack_at)
            slack_at += 1
        if art:
            line[art_at] = QQ(1)
            basis.append(art_at)
            art_at += 1
        line[n_cols] = sigma * rhs
        tab.append(line)
    start = list(basis)
    # phase-1 reduced costs: cost 1 on artificials minus the column sums
    # of the rows with an artificial (basic slacks cost 0)
    obj = [QQ(0)] * (n_cols + 1)
    for j in range(n_cols + 1):
        obj[j] = -sum((line[j] for line, art in zip(tab, needs_art) if art), QQ(0))
    for col in range(art0, n_cols):
        obj[col] += QQ(1)
    simplex_phase1(tab, obj, basis)
    optimum = -obj[n_cols]
    if optimum == 0:
        values = {col: tab[i][n_cols] for i, col in enumerate(basis)}
        witness = tuple(
            values.get(j, QQ(0)) - values.get(n + j, QQ(0)) for j in range(n)
        )
        return Feasible(witness)
    # Farkas multipliers: 1 - reduced cost of an artificial, mapped back
    # through the sign flip; the reduced cost of a basic slack's column
    mults = [
        flips[k] * (QQ(1) - obj[col]) if art else obj[col]
        for k, (col, art) in enumerate(zip(start, needs_art))
    ]
    n_eq = len(lp.equalities)
    return Infeasible(tuple(mults[:n_eq]), tuple(mults[n_eq:]), optimum)


def vertex_image_channel(source, target, equations):
    """The former ``find_channel`` LP on a polytope pair: the unknowns are
    the images of all source vertices, tied together by one equality row
    per affine dependency, plus convex weights over the target vertices
    placing each image inside the target.  Returns ``(program, result,
    map)``, the map rebuilt from the basis images, ``None`` when
    infeasible."""
    verts = source.vertices
    basis = affine_basis(source)
    basis_idx = [verts.index(b) for b in basis]
    d2 = target.ambient_dim
    n_src, n_tgt = len(verts), len(target.vertices)
    n_vars = n_src * d2 + n_src * n_tgt

    def idx_y(i, k):
        return i * d2 + k

    def idx_lam(i, j):
        return n_src * d2 + i * n_tgt + j

    eqs = []
    for i in range(n_src):
        for k in range(d2):
            row = [QQ(0)] * n_vars
            row[idx_y(i, k)] = QQ(1)
            for j, w in enumerate(target.vertices):
                row[idx_lam(i, j)] = -w[k]
            eqs.append((tuple(row), QQ(0)))
        row = [QQ(0)] * n_vars
        for j in range(n_tgt):
            row[idx_lam(i, j)] = QQ(1)
        eqs.append((tuple(row), QQ(1)))
    for i, v in enumerate(verts):
        if i in basis_idx:
            continue
        rows = [[b[k] for b in basis] for k in range(len(v))] + [[QQ(1)] * len(basis)]
        coeffs = solve_affine(rows, list(v) + [QQ(1)]).particular
        for k in range(d2):
            row = [QQ(0)] * n_vars
            row[idx_y(i, k)] = QQ(1)
            for c, bi in zip(coeffs, basis_idx):
                row[idx_y(bi, k)] -= c
            eqs.append((tuple(row), QQ(0)))
    for g, h in equations:
        for i, v in enumerate(verts):
            row = [QQ(0)] * n_vars
            for k in range(d2):
                row[idx_y(i, k)] = g.linear[k]
            eqs.append((tuple(row), h(v) - g.constant))
    ineqs = [(unit(n_vars, idx_lam(i, j)), QQ(0)) for i in range(n_src) for j in range(n_tgt)]
    lp = LinearProgram(n_vars, tuple(eqs), tuple(ineqs))
    result = lp_feasible(lp)
    if isinstance(result, Infeasible):
        return lp, result, None
    images = [tuple(result.witness[idx_y(i, k)] for k in range(d2)) for i in basis_idx]
    return lp, result, per_column_affine_map(basis, images)


def map_into_by_vertices(source: Polytope, m: AffineMap, target: Polytope) -> Containment:
    for v in source.vertices:
        img = m(v)
        if not target._facets.holds(img):
            return Containment(False, v, img)
    return Containment(True)


def _in_hull(x: Vec, points: Sequence[Vec]) -> Optional[Vec]:
    """Convex weights expressing x over ``points``, or ``None``."""
    n = len(points)
    dim = len(x)
    eqs = []
    for k in range(dim):
        eqs.append((tuple(p[k] for p in points), x[k]))
    eqs.append(((QQ(1),) * n, QQ(1)))
    ineqs = [(unit(n, i), QQ(0)) for i in range(n)]
    res = lp_feasible(LinearProgram(n, tuple(eqs), tuple(ineqs)))
    return res.witness if isinstance(res, Feasible) else None


def membership_weights(space: Polytope, x: Sequence) -> Optional[Vec]:
    """Convex vertex weights of ``x`` (polytopes only), at most dim(K) + 1
    of them positive, or ``None`` when ``x`` is outside.

    The ray from the first vertex v0 through x leaves K at y = v0 + t (x -
    v0) on the first facet with the least exit parameter t >= 1 (facets
    tight at v0 never are the exit).  Then x = (1 - 1/t) v0 + (1/t) y, and
    y gets its weights over that facet's vertices, one dimension down.
    """
    if not isinstance(space, Polytope):
        raise UnsupportedGeometryError("membership weights need a polytope")
    x, points, hrep = vec(x), space.vertices, space._facets
    if not contains(space, x):
        return None
    v0, s, coords = points[0], hrep.scale, hrep.coords
    if x == v0:
        return unit(len(points), 0)
    d = [x[k] - v0[k] for k in coords]
    t, a, b = min(
        (((b - s * vec_dot(a, [v0[k] for k in coords])) / slope, a, b)
         for a, b in hrep.facets if (slope := s * vec_dot(a, d)) < 0),
        key=operator.itemgetter(0),
    )
    on = [i for i, p in enumerate(points) if s * vec_dot(a, [p[k] for k in coords]) == b]
    y = tuple(p + t * (q - p) for p, q in zip(v0, x))
    weights = [QQ(0)] * len(points)
    for i, w in zip(on, membership_weights(Polytope([points[i] for i in on]), y)):
        weights[i] = w / t
    weights[0] = 1 - 1 / t
    return tuple(weights)


def surjectivity_details(obs: Observable, space: StateSpace) -> list[tuple]:
    """Per outcome, whether some state is mapped onto its simplex vertex.

    Polytopes return (outcome, program, feasibility result) rows where
    the program searches convex vertex weights reaching effect value 1;
    balls return (outcome, None, bool) decided by the exact extremal
    maximum.
    """
    rows = []
    if isinstance(space, Ball):
        for outcome, f in zip(obs.outcomes, obs.effects):
            _, hi = extremal_range(space, f)
            rows.append((outcome, None, hi.compare(1) == 0))
        return rows
    n = len(space.vertices)
    for outcome, f in zip(obs.outcomes, obs.effects):
        eqs = [
            (tuple(f(v) for v in space.vertices), QQ(1)),
            ((QQ(1),) * n, QQ(1)),
        ]
        ineqs = [(unit(n, i), QQ(0)) for i in range(n)]
        lp = LinearProgram(n, tuple(eqs), tuple(ineqs))
        rows.append((outcome, lp, lp_feasible(lp)))
    return rows


def unconstrained_witness(source, target, equations):
    """If the equations alone fix the images of an affine basis of the
    source (one block system over all of them), the first vertex whose
    image leaves the target and that image; else ``(None, None)``."""
    basis = affine_basis(source)
    d2 = target.ambient_dim
    n = len(basis) * d2
    rows, rhs = [], []
    for g, h in equations:
        for i, p in enumerate(basis):
            row = [QQ(0)] * n
            row[i * d2:(i + 1) * d2] = g.linear
            rows.append(row)
            rhs.append(h(p) - g.constant)
    sol = solve_affine(rows, rhs) if rows else None
    if sol is None or sol.nullspace:
        return None, None
    images = [sol.particular[i * d2:(i + 1) * d2] for i in range(len(basis))]
    m = per_column_affine_map(basis, images)
    for v in source.vertices:
        if not contains(target, m(v)):
            return v, m(v)
    return None, None


def per_column_affine_map(domain, images):
    """Row k and offset k of the map from ``solve_affine`` on ``[p, 1] .
    x = img[k]``, free unknowns 0; ``None`` if a column is inconsistent."""
    domain = [vec(p) for p in domain]
    src = len(domain[0])
    system = [list(p) + [QQ(1)] for p in domain]
    rows, offset = [], []
    for k in range(len(images[0])):
        sol = solve_affine(system, [img[k] for img in images])
        if sol is None:
            return None
        rows.append(sol.particular[:src])
        offset.append(sol.particular[src])
    return AffineMap(Matrix.from_rows(rows, cols=src), tuple(offset))


def rank_greedy_subset(points):
    """Indices of the first point and of each later one that raises the
    rank of the differences from it."""
    points = [vec(p) for p in points]
    chosen, diffs = [0], []
    for i, p in enumerate(points[1:], start=1):
        candidate = diffs + [tuple(a - b for a, b in zip(p, points[0]))]
        if rank(candidate) > len(diffs):
            chosen.append(i)
            diffs = candidate
    return chosen


def projection_matrix(directions: Sequence[Vec], n: int) -> Matrix:
    """Orthogonal projection of Q^n onto span(directions)."""
    dirs = [vec(d) for d in directions if any(d)]
    if not dirs:
        return Matrix.zero(n, n)
    b = Matrix.from_rows([[d[i] for d in dirs] for i in range(n)], cols=len(dirs))
    gram = b.transpose().matmul(b)
    bt = b.transpose()
    cols = []
    for j in range(n):
        sol = solve_affine(gram, bt.column(j))
        if sol is None:  # pragma: no cover - gram of independent dirs is invertible
            raise ArithmeticError("singular Gram matrix")
        cols.append(sol.particular)
    x = Matrix.from_rows(
        [[cols[j][i] for j in range(n)] for i in range(len(dirs))], cols=n
    )
    return b.matmul(x)


def orthogonal_extension(
    domain: Sequence[Sequence], images: Sequence[Sequence]
) -> Optional[AffineMap]:
    """The canonical affine map interpolating ``domain -> images``.

    On the affine hull of the domain points the map is the (unique)
    interpolant; on the orthogonal complement it acts as the identity
    when source and target dimensions agree, as zero otherwise.  Returns
    ``None`` when the required images violate an affine dependency of
    the domain points, i.e. no affine interpolant exists.
    """
    domain = [vec(p) for p in domain]
    images = [vec(p) for p in images]
    if len(domain) != len(images) or not domain:
        raise ValueError("need equally many domain and image points")
    n1, n2 = len(domain[0]), len(images[0])
    idx = independent_affine_subset(domain)
    base_dom = [domain[i] for i in idx]
    base_img = [images[i] for i in idx]
    system = Matrix.from_rows([[b[k] for b in base_dom] for k in range(n1)] + [[QQ(1)] * len(idx)])
    chosen = set(idx)
    for j, p in enumerate(domain):
        if j in chosen:
            continue
        coeffs = solve_affine(system, list(p) + [QQ(1)])
        if coeffs is None:  # pragma: no cover - p is in the hull by construction
            raise ArithmeticError("interpolation basis does not span")
        predicted = tuple(
            sum((c * b[k] for c, b in zip(coeffs.particular, base_img)), QQ(0))
            for k in range(n2)
        )
        if predicted != images[j]:
            return None
    interp = per_column_affine_map(base_dom, base_img)
    if interp is None:  # pragma: no cover - basis is affinely independent
        raise ArithmeticError("interpolation failed on an affine basis")
    m0, t0 = interp.matrix, interp.offset
    proj = projection_matrix([vec_sub(p, base_dom[0]) for p in base_dom[1:]], n1)
    if n1 == n2:
        ext = Matrix.from_rows(
            [
                [(QQ(1) if i == j else QQ(0)) - proj.entries[i][j] for j in range(n1)]
                for i in range(n1)
            ],
            cols=n1,
        )
    else:
        ext = Matrix.zero(n2, n1)
    mat = Matrix.from_rows(
        [
            [vec_dot(m0.row(i), proj.column(j)) + ext.entries[i][j] for j in range(n1)]
            for i in range(n2)
        ],
        cols=n1,
    )
    anchor = base_dom[0]
    base = tuple(a + b for a, b in zip(m0.matvec(anchor), t0))
    offset = vec_sub(base, mat.matvec(anchor))
    result = AffineMap(mat, offset)
    for p, img in zip(domain, images):
        if result(p) != img:  # pragma: no cover - internal guard
            raise ArithmeticError("extension broke the interpolation")
    return result


def closed_form_family(
    obs_a: Observable,
    obs_b: Observable,
    space: StateSpace,
    free: Optional[dict[tuple[int, int], AffineFunctional]] = None,
    anchor: Optional[tuple[int, int]] = None,
) -> WignerRep:
    """Member of the representation family for the given free block.

    ``free`` maps index pairs (a, b) with a != anchor_a, b != anchor_b
    to arbitrary affine functionals (missing slots default to zero);
    the anchored row, column and corner are filled by the closed-form
    completion, so the result always passes ``check_marginals``.
    """
    n_a, n_b = obs_a.n_outcomes, obs_b.n_outcomes
    alpha, beta = anchor if anchor is not None else (obs_a.n_outcomes - 1, obs_b.n_outcomes - 1)
    if not (0 <= alpha < n_a and 0 <= beta < n_b):
        raise ValueError("anchor out of range")
    dim = space.ambient_dim
    zero = AffineFunctional.zero(dim)
    free = dict(free or {})
    for (a, b) in free:
        if a == alpha or b == beta or not (0 <= a < n_a and 0 <= b < n_b):
            raise ValueError(f"slot {(a, b)} is not in the free block")
    grid = [[zero for _ in range(n_b)] for _ in range(n_a)]
    for a in range(n_a):
        for b in range(n_b):
            if a != alpha and b != beta:
                grid[a][b] = free.get((a, b), zero)
    for a in range(n_a):
        if a == alpha:
            continue
        total = zero
        for b in range(n_b):
            if b != beta:
                total = total + grid[a][b]
        grid[a][beta] = obs_a.effects[a] - total
    for b in range(n_b):
        if b == beta:
            continue
        total = zero
        for a in range(n_a):
            if a != alpha:
                total = total + grid[a][b]
        grid[alpha][b] = obs_b.effects[b] - total
    corner = AffineFunctional.one(dim)
    for a in range(n_a):
        if a != alpha:
            corner = corner - obs_a.effects[a]
    for b in range(n_b):
        if b != beta:
            corner = corner - obs_b.effects[b]
    for a in range(n_a):
        for b in range(n_b):
            if a != alpha and b != beta:
                corner = corner + grid[a][b]
    grid[alpha][beta] = corner
    return WignerRep(space, obs_a, obs_b, tuple(tuple(row) for row in grid))


def cross_corner_family(
    obs_a: Observable,
    obs_b: Observable,
    space: StateSpace,
    free: Optional[dict[tuple[int, int], AffineFunctional]] = None,
    anchor: Optional[tuple[int, int]] = None,
) -> WignerRep:
    """``closed_form_family`` with A_alpha minus the other B_b at the
    anchored corner, where it has the unit effect minus the other
    effects: the corner moves by S_A - 1, S_A the sum of A's effects,
    so both marginals hold whenever the effects of A and B have one sum.
    This is the closed form of ``wigner.construct_family``."""
    rep = closed_form_family(obs_a, obs_b, space, free, anchor)
    alpha, beta = anchor if anchor is not None else (obs_a.n_outcomes - 1, obs_b.n_outcomes - 1)
    dim = space.ambient_dim
    shift = sum(obs_a.effects, AffineFunctional.zero(dim)) - AffineFunctional.one(dim)
    grid = [list(row) for row in rep.grid]
    grid[alpha][beta] = grid[alpha][beta] + shift
    return WignerRep(space, obs_a, obs_b, tuple(map(tuple, grid)))


def greedy_faithful_member(
    obs_a: Observable,
    obs_b: Observable,
    space: StateSpace,
    anchor: Optional[tuple[int, int]] = None,
) -> Optional[WignerRep]:
    """A faithful family member, or ``None`` when none exists.

    Free slots are filled greedily with ambient coordinate functionals,
    keeping a choice exactly when it increases the rank of the grid
    restricted to aff(K).
    """
    n_a, n_b = obs_a.n_outcomes, obs_b.n_outcomes
    alpha, beta = anchor if anchor is not None else (obs_a.n_outcomes - 1, obs_b.n_outcomes - 1)
    dim_ambient = space.ambient_dim
    target = dimension(space) + 1
    pool = [AffineFunctional.coordinate(dim_ambient, i) for i in range(dim_ambient)]
    free: dict[tuple[int, int], AffineFunctional] = {}
    rep = cross_corner_family(obs_a, obs_b, space, free, (alpha, beta))
    best = grid_rank(rep)
    for a in range(n_a):
        for b in range(n_b):
            if a == alpha or b == beta or best >= target:
                continue
            for g in pool:
                trial = dict(free)
                trial[(a, b)] = g
                candidate = cross_corner_family(obs_a, obs_b, space, trial, (alpha, beta))
                r = grid_rank(candidate)
                if r > best:
                    free, rep, best = trial, candidate, r
                    break
    return rep if best == target else None


def entrywise_positive_member(
    obs_a: Observable,
    obs_b: Observable,
    space: StateSpace,
    anchor: Optional[tuple[int, int]] = None,
) -> Union[PositiveFound, NoPositiveMember]:
    """Search the whole family for a positive member by one LP over the
    free block.  Since the family parametrization is exhaustive, an
    infeasibility certificate proves no positive representation exists.
    """
    if not isinstance(space, Polytope):
        raise PreconditionError("positive-member search needs a polytope")
    n_a, n_b = obs_a.n_outcomes, obs_b.n_outcomes
    alpha, beta = anchor if anchor is not None else (obs_a.n_outcomes - 1, obs_b.n_outcomes - 1)
    dim = space.ambient_dim
    width = dim + 1
    slots = [(a, b) for a in range(n_a) for b in range(n_b) if a != alpha and b != beta]
    slot_pos = {s: i for i, s in enumerate(slots)}
    n_vars = len(slots) * width

    def entry_expression(a: int, b: int):
        """Return (coeff_map, fixed) with coeff_map: var index -> sign,
        fixed: AffineFunctional, so that entry = fixed + sum sign * q_slot."""
        fixed = AffineFunctional.zero(dim)
        coeffs: dict[tuple[int, int], QQ] = {}
        if a != alpha and b != beta:
            coeffs[(a, b)] = QQ(1)
        elif a != alpha and b == beta:
            fixed = obs_a.effects[a]
            for bb in range(n_b):
                if bb != beta:
                    coeffs[(a, bb)] = QQ(-1)
        elif a == alpha and b != beta:
            fixed = obs_b.effects[b]
            for aa in range(n_a):
                if aa != alpha:
                    coeffs[(aa, b)] = QQ(-1)
        else:
            fixed = AffineFunctional.one(dim)
            for aa in range(n_a):
                if aa != alpha:
                    fixed = fixed - obs_a.effects[aa]
            for bb in range(n_b):
                if bb != beta:
                    fixed = fixed - obs_b.effects[bb]
            for s in slots:
                coeffs[s] = QQ(1)
        return coeffs, fixed

    ineqs = []
    for v in space.vertices:
        point = v + (QQ(1),)
        for a in range(n_a):
            for b in range(n_b):
                coeffs, fixed = entry_expression(a, b)
                row = [QQ(0)] * n_vars
                for slot, sign in coeffs.items():
                    base = slot_pos[slot] * width
                    for k in range(width):
                        row[base + k] += sign * point[k]
                ineqs.append((tuple(row), -fixed(v)))
    lp = LinearProgram(n_vars, (), tuple(ineqs))
    result = lp_feasible(lp)
    if isinstance(result, Infeasible):
        return NoPositiveMember(lp, result)
    free = {}
    for slot, i in slot_pos.items():
        base = i * width
        free[slot] = AffineFunctional(
            result.witness[base : base + dim], result.witness[base + dim]
        )
    rep = cross_corner_family(obs_a, obs_b, space, free, (alpha, beta))
    if not is_positive(rep).ok:  # pragma: no cover - internal guard
        raise ArithmeticError("LP returned a non-positive member")
    return PositiveFound(rep, lp, result.witness)


def int_det(rows: list[list[int]]) -> int:
    """Determinant of a square integer matrix (Bareiss elimination)."""
    m = [list(r) for r in rows]
    n, sign, prev = len(m), 1, 1
    for c in range(n):
        p = next((i for i in range(c, n) if m[i][c]), None)
        if p is None:
            return 0
        if p != c:
            m[c], m[p], sign = m[p], m[c], -sign
        for i in range(c + 1, n):
            for k in range(c + 1, n):
                m[i][k] = (m[c][c] * m[i][k] - m[i][c] * m[c][k]) // prev
        prev = m[c][c]
    return sign * prev


def squarefree_by_trial_division(n: int) -> tuple[int, int]:
    """Decompose n = k^2 * m with m squarefree (n > 0)."""
    k, m = 1, 1
    d = 2
    while d * d <= n:
        e = 0
        while n % d == 0:
            n //= d
            e += 1
        k *= d ** (e // 2)
        if e % 2:
            m *= d
        d += 1 if d == 2 else 2
    return k, m * n


def is_psd(s: list[list[QQ]]) -> bool:
    """Exact PSD test for a symmetric rational matrix.

    Checks every principal minor (not only the leading ones, which do
    not characterize semidefiniteness on the boundary), on the matrix
    scaled to integers by a positive common denominator.
    """
    n = len(s)
    den = math.lcm(*(x.denominator for row in s for x in row))
    ints = [[int(x * den) for x in row] for row in s]
    for size in range(1, n + 1):
        for idx in itertools.combinations(range(n), size):
            if int_det([[ints[i][j] for j in idx] for i in idx]) < 0:
                return False
    return True


def dataclass_twin(cls):
    """``cls`` as a frozen dataclass: the same name, fields, defaults and
    own methods (``__post_init__`` too), with the methods ``record``
    installed generated by ``dataclasses`` instead; ``slots`` when ``cls``
    declares ``__slots__``, and no ``__init__``, ``__repr__`` or
    ``__eq__`` where ``cls`` defines its own."""
    slots = cls.__dict__.get("__slots__", ())
    skip = {"__dict__", "__weakref__", "__slots__", *slots}
    body = {
        name: value for name, value in vars(cls).items()
        if name not in skip and getattr(value, "__module__", None) != "wignerlab._record"
    }
    twin = type(cls.__name__, (), body)
    return dataclasses.dataclass(
        twin, frozen=True, slots=bool(slots), init="__init__" not in body,
        repr="__repr__" not in body, eq="__eq__" not in body,
    )


def marginal_equalities(obs_a: Observable, obs_b: Observable) -> list[tuple[Vec, QQ]]:
    """Coefficient-wise row-sum and column-sum identities."""
    n_a, n_b = obs_a.n_outcomes, obs_b.n_outcomes
    dim = obs_a.effects[0].dim
    width = dim + 1
    n_vars = n_a * n_b * width
    eqs = []
    for a in range(n_a):
        coeffs = obs_a.effects[a].coefficients()
        for k in range(dim + 1):
            row = [QQ(0)] * n_vars
            for b in range(n_b):
                row[(a * n_b + b) * width + k] = QQ(1)
            eqs.append((tuple(row), coeffs[k]))
    for b in range(n_b):
        coeffs = obs_b.effects[b].coefficients()
        for k in range(dim + 1):
            row = [QQ(0)] * n_vars
            for a in range(n_a):
                row[(a * n_b + b) * width + k] = QQ(1)
            eqs.append((tuple(row), coeffs[k]))
    return eqs


def compatibility_program(obs_a: Observable, obs_b: Observable, space: Polytope) -> LinearProgram:
    """The marginal identities, then nonnegativity of every grid entry at
    every vertex."""
    n_a, n_b = obs_a.n_outcomes, obs_b.n_outcomes
    dim = space.ambient_dim
    width = dim + 1
    n_vars = n_a * n_b * width
    ineqs = []
    for v in space.vertices:
        point = v + (QQ(1),)
        for a in range(n_a):
            for b in range(n_b):
                row = [QQ(0)] * n_vars
                for k in range(dim + 1):
                    row[(a * n_b + b) * width + k] = point[k]
                ineqs.append((tuple(row), QQ(0)))
    return LinearProgram(n_vars, tuple(marginal_equalities(obs_a, obs_b)), tuple(ineqs))


def surjectivity_program(f: AffineFunctional, space: Polytope) -> LinearProgram:
    """Convex vertex weights at which ``f`` takes the value 1."""
    n = len(space.vertices)
    eqs = [(tuple(f(v) for v in space.vertices), QQ(1)), ((QQ(1),) * n, QQ(1))]
    ineqs = [(unit(n, i), QQ(0)) for i in range(n)]
    return LinearProgram(n, tuple(eqs), tuple(ineqs))


def channel_program(source: Polytope, target: Polytope, equations) -> LinearProgram:
    """The facet-form LP over ``M`` and ``t`` of ``m(x) = M x + t``: ``g .
    m(p) = h(p)`` per equation and the target's hull equalities at every
    basis point ``p``, then every facet of the target at every source
    vertex image."""
    basis = affine_basis(source)
    d1, d2 = source.ambient_dim, target.ambient_dim
    n_vars = d2 * d1 + d2
    hrep = target._facets
    system = [(g.linear, [h(p) - g.constant for p in basis]) for g, h in equations]
    system += [(tuple(QQ(a) for a in c), [QQ(e, hrep.scale)] * len(basis))
               for c, e in hrep.equalities]

    def image_row(p: Vec, c, coords=range(d2)) -> tuple:
        """Coefficients of ``c . (M p + t)[coords]`` in the unknowns."""
        row = [QQ(0)] * n_vars
        for k, ck in zip(coords, c):
            if ck:
                row[k * d1:(k + 1) * d1] = [ck * x for x in p]
                row[d2 * d1 + k] = ck
        return tuple(row)

    eqs = [(image_row(p, c), r) for c, rhs in system for p, r in zip(basis, rhs)]
    ineqs = [
        (image_row(v, a, hrep.coords), QQ(b, hrep.scale))
        for v in source.vertices
        for a, b in hrep.facets
    ]
    return LinearProgram(n_vars, tuple(eqs), tuple(ineqs))



def _functional_from_block(witness: Vec, idx, a: int, b: int, dim: int) -> AffineFunctional:
    return AffineFunctional(
        tuple(witness[idx(a, b, k)] for k in range(dim)), witness[idx(a, b, dim)]
    )


def full_grid_compatibility(obs_a: Observable, obs_b: Observable, space: StateSpace):
    """The former ``theory.are_compatible``: the simplex on the whole of
    ``programs.compatibility``, every coefficient of every grid entry an
    unknown and the marginal identities as equality rows."""
    if not isinstance(space, Polytope):
        raise UnsupportedGeometryError(
            "compatibility LP needs a polytope state space"
        )
    n_a, n_b = obs_a.n_outcomes, obs_b.n_outcomes
    dim = space.ambient_dim
    _, idx = programs.grid_unknowns(n_a, n_b, dim)
    lp = programs.compatibility(obs_a, obs_b, space)
    result = lp_feasible(lp)
    if isinstance(result, Infeasible):
        return Incompatible(lp, result)
    joint = tuple(
        tuple(_functional_from_block(result.witness, idx, a, b, dim) for b in range(n_b))
        for a in range(n_a)
    )
    return Compatible(joint, lp, result.witness)


def full_grid_covariant(obs_a, obs_b, space, channels=None) -> symmetry.CovariantResult:
    """The former ``symmetry.solve_covariant``: stage 2 hands
    ``solve_affine`` the marginal identities and every covariance row of
    every generator, cell and basis point as ``Fraction`` rows over all
    grid coefficients, and keeps the nullspace directions that do not
    vanish on aff(K)."""
    hyps = {
        "jointly_info_complete": jointly_info_complete(obs_a, obs_b, space),
        "complementary": are_complementary(obs_a, obs_b, space),
        "surjective_a": is_surjective(obs_a, space),
        "surjective_b": is_surjective(obs_b, space),
    }
    if not hyps["jointly_info_complete"] and channels is None:
        return symmetry.CovariantResult("hypothesis_failure", hyps)
    if isinstance(space, Ball) and channels is None:
        raise UnsupportedGeometryError(
            "channels required for ball backends: supply the generator channels"
        )
    stage1 = symmetry.find_permutation_channels(obs_a, obs_b, space, supplied=channels)
    if isinstance(stage1, symmetry.PermutationObstruction):
        return symmetry.CovariantResult(
            "none",
            hyps,
            obstruction=stage1,
            certificate=stage1.detail.certificate,
            program=stage1.detail.program,
        )
    n_a, n_b = obs_a.n_outcomes, obs_b.n_outcomes
    dim = space.ambient_dim
    n_vars, idx = programs.grid_unknowns(n_a, n_b, dim)
    marginals = programs.marginal_program(obs_a, obs_b)
    sum_a, sum_b = (sum(o.effects[1:], o.effects[0]).coefficients() for o in (obs_a, obs_b))
    if sum_a != sum_b:
        k = next(k for k, (x, y) in enumerate(zip(sum_a, sum_b)) if x != y)
        sign = 1 if sum_a[k] > sum_b[k] else -1
        mults = [QQ(0)] * (n_a + n_b) * (dim + 1)
        for i in range(n_a + n_b):
            mults[i * (dim + 1) + k] = QQ(sign if i < n_a else -sign)
        cert = exact.checked(marginals, Infeasible(tuple(mults), (), abs(sum_a[k] - sum_b[k])))
        return symmetry.CovariantResult("none", hyps, certificate=cert, program=marginals)
    eqs = list(marginals.equalities)
    basis = affine_basis(space)
    for gen, chan in stage1.channels.items():
        inv = gen.inverse()
        for a in range(n_a):
            for b in range(n_b):
                src = (inv.perm_a[a], inv.perm_b[b])
                for p in basis:
                    img = chan(p)
                    row = [QQ(0)] * n_vars
                    for k in range(dim):
                        row[idx(a, b, k)] += img[k]
                        row[idx(src[0], src[1], k)] -= p[k]
                    row[idx(a, b, dim)] += QQ(1)
                    row[idx(src[0], src[1], dim)] -= QQ(1)
                    eqs.append((tuple(row), QQ(0)))
    sol = solve_affine([row for row, _ in eqs], [rhs for _, rhs in eqs])

    def grid_from(coeffs) -> WignerRep:
        return WignerRep(space, obs_a, obs_b, tuple(
            tuple(_functional_from_block(coeffs, idx, a, b, dim) for b in range(n_b))
            for a in range(n_a)
        ))

    genuine = []
    for direction in sol.nullspace:
        rep_dir = grid_from(direction)
        if any(f(p) != 0 for f in rep_dir.functionals() for p in basis):
            genuine.append(rep_dir)
    rep = grid_from(sol.particular)
    if genuine:
        return symmetry.CovariantResult(
            "family", hyps, rep=rep, family_directions=tuple(genuine),
            channels=stage1.channels)
    return symmetry.CovariantResult("unique", hyps, rep=rep, channels=stage1.channels)
