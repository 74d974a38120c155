"""State-space geometry: functionals, affine maps, polytopes and balls.

Polytopes are stored by their vertex list (which must be irredundant:
every listed point is extreme) together with an exact facet description
built once at construction: integer equalities cutting out the affine
hull and integer facet inequalities on coordinates onto which the hull
projects injectively (the double-description view of Fukuda and Prodon,
1996).  The facets come from an exact integer hull whose time grows
with its facets, not with the d-subsets of the points (``_describe``,
on ``_kernels.hull``: a monotone chain in the plane, beneath-beyond
above it), listed in a fixed order that reports depend on.
Membership, irredundancy and polytope containment are integer dot
products against the description; this module runs no LP.
``map_into`` on polytopes does not apply the map vertex by vertex: it
evaluates every vertex image as one int matrix of the map's rows, tests
its columns against the target's integer facets, and builds
``Fraction``s only for the witness it returns.
Balls are stored by center and radius.  Extremal values of affine
functionals over balls are irrational in general, so they are carried
symbolically as ``rational + rational * sqrt(radicand)`` and compared by
exact sign analysis, never through floats.  Ball images are decided by an
S-lemma certificate at a rational multiplier or a rational point whose
image leaves the target; no float enters any decision.

A polytope keeps the int vertex rows that ``_describe`` builds over the
facet scale (``vertex_ints``), and its affine basis as indices into them
(``basis_ints``).  ``int_values`` evaluates functionals at int points as
one int matrix over one positive denominator, so signs, equalities and
ranks are read off ints; ``integer_rows`` scales other rational points to them.
``signed_sums`` adds signed functionals the same way, one ``Fraction``
per coefficient of each sum.  Every affine map read off images of points
comes from one fraction-free ``rref_ops`` of ``q [p_i, 1]`` (``interpolation``,
kept per space for its affine basis by ``basis_interpolation``) and one
reader of its rows (``interpolant``).  Functional arithmetic reuses its
``Fraction`` entries (``_functional``).
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from typing import NamedTuple, Optional, Sequence, Union

from ._kernels import (
    bareiss_rank, hull, independent_affine_subset, integer_rows, orthogonal_complement, rref_ops,
)
from ._record import record
from .errors import SizeGuardError, UnsupportedGeometryError
from .exact import (
    QQ,
    Matrix,
    Vec,
    qq,
    unit,
    vec,
    vec_add,
    vec_dot,
    vec_scale,
    vec_sub,
    zeros,
)


@record
class AffineFunctional:
    """x -> linear . x + constant on the ambient coordinate space."""

    linear: Vec
    constant: QQ

    def __post_init__(self):
        object.__setattr__(self, "linear", vec(self.linear))
        object.__setattr__(self, "constant", qq(self.constant))

    @classmethod
    def zero(cls, dim: int) -> "AffineFunctional":
        return cls(zeros(dim), QQ(0))

    @classmethod
    def const(cls, dim: int, value) -> "AffineFunctional":
        return cls(zeros(dim), qq(value))

    @classmethod
    def one(cls, dim: int) -> "AffineFunctional":
        return cls.const(dim, 1)

    @classmethod
    def coordinate(cls, dim: int, i: int) -> "AffineFunctional":
        return cls(unit(dim, i), QQ(0))

    @property
    def dim(self) -> int:
        return len(self.linear)

    def __call__(self, point: Sequence) -> QQ:
        return vec_dot(self.linear, vec(point), self.constant)

    def __add__(self, other: "AffineFunctional") -> "AffineFunctional":
        return _functional(vec_add(self.linear, other.linear), self.constant + other.constant)

    def __sub__(self, other: "AffineFunctional") -> "AffineFunctional":
        return _functional(vec_sub(self.linear, other.linear), self.constant - other.constant)

    def __neg__(self) -> "AffineFunctional":
        return _functional(tuple(-a for a in self.linear), -self.constant)

    def scale(self, c) -> "AffineFunctional":
        c = qq(c)
        return _functional(vec_scale(c, self.linear), c * self.constant)

    def shift(self, c) -> "AffineFunctional":
        return _functional(self.linear, self.constant + qq(c))

    def compose(self, m: "AffineMap") -> "AffineFunctional":
        """Pull back along ``m``: returns x -> self(m(x))."""
        row = tuple(
            vec_dot(self.linear, m.matrix.column(j)) for j in range(m.matrix.cols)
        )
        return _functional(row, vec_dot(self.linear, m.offset, self.constant))

    def coefficients(self) -> Vec:
        """Linear coefficients with the constant appended."""
        return self.linear + (self.constant,)

    def is_constant(self) -> bool:
        return all(a == 0 for a in self.linear)


def _functional(linear: Vec, constant: QQ) -> AffineFunctional:
    """The functional of ``Fraction`` entries, without coercing them again."""
    f = object.__new__(AffineFunctional)
    f.__dict__.update(linear=linear, constant=constant)
    return f


def int_values(funcs: Sequence[AffineFunctional], xs: Sequence[Sequence[int]], q: int):
    """``(rows, den)``: the ints ``rows[i][j] = den * funcs[i](xs[j] / q)``
    over one positive ``den``, one integer dot product each (Edmonds'
    fraction-free arithmetic), for int points ``xs`` over ``q > 0``."""
    if len({f.dim for f in funcs} | {len(x) for x in xs}) > 1:
        raise ValueError("dimension mismatch")
    ints, s = integer_rows([f.coefficients() for f in funcs])
    return [[sum(map(operator.mul, lin, x), c * q) for x in xs] for *lin, c in ints], s * q


def signed_sums(entries: Sequence[Sequence[tuple[int, AffineFunctional]]],
                dim: int) -> list[AffineFunctional]:
    """For each entry, a list of ``(sign, f)`` terms, the functional sum
    of ``sign * f``: one integer numerator per coefficient over the lcm
    ``s`` of all the terms' denominators, and one ``Fraction`` per
    coefficient.  An entry of one ``+1`` term is that functional, an empty
    one the zero functional."""
    ints: dict[int, list[int]] = {}
    s = 1
    if any(len(terms) != 1 or terms[0][0] != 1 for terms in entries):
        funcs = {id(f): f.coefficients() for terms in entries for _, f in terms}
        rows, s = integer_rows(list(funcs.values()))
        ints = dict(zip(funcs, rows))
    out = []
    for terms in entries:
        if len(terms) == 1 and terms[0][0] == 1:
            out.append(terms[0][1])
            continue
        total = [0] * (dim + 1)
        for sign, f in terms:
            total = [t + sign * a for t, a in zip(total, ints[id(f)], strict=True)]
        *lin, c = (QQ(t, s) for t in total)
        out.append(_functional(tuple(lin), c))
    return out


@record
class AffineMap:
    """x -> matrix . x + offset."""

    matrix: Matrix
    offset: Vec

    def __post_init__(self):
        object.__setattr__(self, "offset", vec(self.offset))
        if len(self.offset) != self.matrix.rows:
            raise ValueError("offset length must equal matrix row count")

    @classmethod
    def identity(cls, dim: int) -> "AffineMap":
        return cls(Matrix.identity(dim), zeros(dim))

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence], offset: Sequence) -> "AffineMap":
        return cls(Matrix.from_rows(rows), vec(offset))

    @property
    def source_dim(self) -> int:
        return self.matrix.cols

    @property
    def target_dim(self) -> int:
        return self.matrix.rows

    def functionals(self) -> list[AffineFunctional]:
        """The coordinate functionals of the map, one per row."""
        return [_functional(r, c) for r, c in zip(self.matrix.entries, self.offset)]

    def __call__(self, point: Sequence) -> Vec:
        x = vec(point)
        if len(x) != self.matrix.cols:
            raise ValueError("dimension mismatch")
        return tuple(vec_dot(r, x, c) for r, c in zip(self.matrix.entries, self.offset))

    def compose(self, inner: "AffineMap") -> "AffineMap":
        """Returns x -> self(inner(x))."""
        return AffineMap(
            self.matrix.matmul(inner.matrix),
            tuple(
                a + b
                for a, b in zip(self.matrix.matvec(inner.offset), self.offset)
            ),
        )


def interpolation(xs: Sequence[Sequence[int]], q: int):
    """The ``rref_ops`` of ``q [p_i, 1]`` for the points ``p_i = xs[i] / q``
    (int rows, ``q > 0``), the engine's one elimination that reads affine
    maps off images of points, as ``(d, pivots, dependencies)``: d the
    points' dimension, one ``(c, lam, e)`` per reduced row with pivot
    column ``c`` (``e`` combines the rows ``[p_i, 1]`` into ``lam`` times
    it, so ``e`` is q times the row operations), and the row operations of
    each zero row, an affine dependency that images must keep."""
    d = len(xs[0])
    rows = [[*x, q] for x in xs]
    pivots, ops = rref_ops(rows, d + 1)
    return (d, tuple((c, row[c], [q * a for a in e]) for c, row, e in zip(pivots, rows, ops)),
            tuple(ops[len(pivots):]))


def interpolant(
    interp, coords: Sequence[Sequence[int]], dens: Sequence[int]
) -> Optional[AffineMap]:
    """The map sending the points of ``interp`` to images whose k-th
    coordinates are ``coords[k] / dens[k]`` (ints, ``dens[k] > 0``), or
    ``None`` if they break a dependency.  Row k with its offset at index
    d is ``(e . coords[k]) / (lam dens[k])`` at each pivot column ``c`` and
    0 at the free ones: the rref's solution, read off without eliminating."""
    d, pivots, dependencies = interp
    if any(sum(map(operator.mul, e, y)) for e in dependencies for y in coords):
        return None
    rows = []
    for y, den in zip(coords, dens, strict=True):
        row = [QQ(0)] * (d + 1)
        for c, lam, e in pivots:
            row[c] = QQ(sum(map(operator.mul, e, y)), lam * den)
        rows.append(row)
    return AffineMap(Matrix(tuple(tuple(r[:d]) for r in rows), d), tuple(r[d] for r in rows))


def affine_map_with_orthogonal_extension(
    domain: Sequence[Sequence], images: Sequence[Sequence]
) -> Optional[AffineMap]:
    """The canonical affine map interpolating ``domain -> images``.

    On the affine hull of the domain points the map is the (unique)
    interpolant; on the orthogonal complement it acts as the identity
    when source and target dimensions agree, as zero otherwise.  So for
    each vector c of a basis of that complement (the nullspace of the
    differences from p0 = domain[0]) the point p0 + c is added with image
    y0 + c, or y0, and ``interpolant`` reads the map off the now full
    rank ``interpolation``.  Returns ``None`` when the required images
    violate an affine dependency of the domain points, i.e. no affine
    interpolant exists.
    """
    if len(domain) != len(images) or not domain:
        raise ValueError("need equally many domain and image points")
    (xs, q), (ys, r) = integer_rows(list(map(vec, domain))), integer_rows(list(map(vec, images)))
    x0, y0 = xs[0], ys[0]
    same = len(x0) == len(y0)
    _, complement = orthogonal_complement(
        [[a - b for a, b in zip(x, x0)] for x in xs[1:]], len(x0))
    xs += [[a + q * b for a, b in zip(x0, c)] for c in complement]
    ys += [[a + r * b for a, b in zip(y0, c)] if same else y0 for c in complement]
    return interpolant(interpolation(xs, q), list(zip(*ys)), [r] * len(y0))


# Trial division in ``_squarefree`` stops below this bound: past it, a
# radicand's square part would need factoring, and trial division up to
# sqrt(n) can run for hours on one radicand.
SQUAREFREE_TRIAL_BOUND = 2 ** 16


def _squarefree(n: int) -> tuple[int, int]:
    """Decompose n = k^2 * m with m squarefree (n > 0).

    A square n is taken whole.  Else primes below B =
    ``SQUAREFREE_TRIAL_BOUND`` are divided out, leaving a cofactor with no
    prime factor below B: below B^3 it is 1, p, p^2 or p q, told apart by
    ``isqrt``; a larger one raises ``SizeGuardError``.
    """
    root = math.isqrt(n)
    if root * root == n:
        return root, 1
    radicand, bound = n, SQUAREFREE_TRIAL_BOUND
    k, m, d = 1, 1, 2
    while d < bound and d * d <= n:
        e = 0
        while n % d == 0:
            n //= d
            e += 1
        k *= d ** (e // 2)
        m *= d ** (e % 2)
        d += 1 if d == 2 else 2
    if d * d <= n and n >= bound ** 3:
        raise SizeGuardError(
            f"radicand {radicand} leaves a cofactor {n} of at least {bound}^3"
            f" with no prime factor below {bound}; its square part is not computed"
        )
    root = math.isqrt(n)
    return (k * root, m) if root * root == n else (k, m * n)


@record
class ExtremalValue:
    """The exact number ``rational_part + radical_part * sqrt(radicand)``.

    Normal form: radicand is a squarefree integer > 1 (else the value is
    stored as a plain rational with radical_part = radicand = 0), so
    equality of normal forms is equality of values; rationals and ints
    compare directly.
    """

    rational_part: QQ
    radical_part: QQ = QQ(0)
    radicand: QQ = QQ(0)

    def __eq__(self, other):
        if isinstance(other, ExtremalValue):
            return (
                self.rational_part == other.rational_part
                and self.radical_part == other.radical_part
                and self.radicand == other.radicand
            )
        if isinstance(other, (int, Fraction)):
            return self.is_rational and self.rational_part == other
        return NotImplemented

    def __hash__(self):
        if self.is_rational:
            return hash(self.rational_part)
        return hash((self.rational_part, self.radical_part, self.radicand))

    def __post_init__(self):
        a, b, s = qq(self.rational_part), qq(self.radical_part), qq(self.radicand)
        if s < 0:
            raise ValueError("radicand must be nonnegative")
        if b == 0 or s == 0:
            b, s = QQ(0), QQ(0)
        else:
            # sqrt(p/q) = sqrt(p q)/q, then pull the square part out
            n = s.numerator * s.denominator
            k, m = _squarefree(n)
            b = b * k / s.denominator
            if m == 1:
                a, b, s = a + b, QQ(0), QQ(0)
            else:
                s = QQ(m)
        object.__setattr__(self, "rational_part", a)
        object.__setattr__(self, "radical_part", b)
        object.__setattr__(self, "radicand", s)

    @property
    def is_rational(self) -> bool:
        return self.radical_part == 0

    def as_rational(self) -> QQ:
        if not self.is_rational:
            raise ValueError("value is irrational")
        return self.rational_part

    def compare(self, other) -> int:
        """Exact three-way comparison against a rational or ExtremalValue."""
        if isinstance(other, ExtremalValue):
            if other.is_rational:
                return self._compare_rational(other.rational_part)
            if self.is_rational:
                return -other._compare_rational(self.rational_part)
            if self.radicand != other.radicand:
                # a + b1 sqrt(s1) against b2 sqrt(s2), a = a1 - a2: by signs,
                # then by squares (a value with radicand s1 against a rational)
                a = self.rational_part - other.rational_part
                b, s = self.radical_part, self.radicand
                left = ExtremalValue(a, b, s)._compare_rational(QQ(0))
                right = 1 if other.radical_part > 0 else -1
                if left != right:
                    return (left > right) - (left < right)
                square = ExtremalValue(a * a + b * b * s, 2 * a * b, s)
                return left * square._compare_rational(other.radical_part ** 2 * other.radicand)
            diff = ExtremalValue(
                self.rational_part - other.rational_part,
                self.radical_part - other.radical_part,
                self.radicand,
            )
            return diff._compare_rational(QQ(0))
        return self._compare_rational(qq(other))

    def _compare_rational(self, t: QQ) -> int:
        u = self.rational_part - t
        b = self.radical_part
        if b == 0:
            return (u > 0) - (u < 0)
        s = self.radicand
        if u >= 0 and b > 0:
            return 1
        if u <= 0 and b < 0:
            return -1
        # opposite signs: compare u^2 with b^2 s on the dominant side
        lhs = u * u
        rhs = b * b * s
        if u > 0:  # b < 0
            return (lhs > rhs) - (lhs < rhs)
        return (rhs > lhs) - (rhs < lhs)

    def __lt__(self, other):
        return self.compare(other) < 0

    def __le__(self, other):
        return self.compare(other) <= 0

    def __gt__(self, other):
        return self.compare(other) > 0

    def __ge__(self, other):
        return self.compare(other) >= 0

    def __str__(self):
        if self.is_rational:
            return str(self.rational_part)
        return f"{self.rational_part} + {self.radical_part}*sqrt({self.radicand})"


class _Facets(NamedTuple):
    """Exact H-description of a polytope K in the integer coordinates
    ``X = scale * x``: ``c . X = e`` for each of ``equalities`` cuts out
    aff(K), and on it K is ``a . X[coords] >= b`` for each of ``facets``;
    aff(K) projects injectively onto ``coords``."""

    scale: int
    coords: tuple[int, ...]
    equalities: tuple[tuple[tuple[int, ...], int], ...]
    facets: tuple[tuple[tuple[int, ...], int], ...]

    def holds(self, x: Vec) -> bool:
        """Is the rational point ``x`` in K?"""
        (xq,), q = integer_rows([x])
        return self.holds_ints(xq, q)

    def holds_ints(self, xq: Sequence[int], q: int) -> bool:
        """Is the point ``xq / q`` in K, for ints ``xq`` and ``q > 0``?
        ``c . X = e`` iff ``scale * (c . xq) = e * q``."""
        s = self.scale
        if any(s * sum(map(operator.mul, c, xq)) != e * q for c, e in self.equalities):
            return False
        xs = [xq[i] for i in self.coords]
        return all(s * sum(map(operator.mul, a, xs)) >= b * q for a, b in self.facets)


def _describe(points: Sequence[Sequence]) -> tuple[_Facets, tuple, list[bool]]:
    """The facet description of conv(points), the points as ints over its
    ``scale``, and for each point whether it is a vertex that occurs once.

    The points are scaled to ints over one denominator; one rref of
    their differences gives the equalities of the affine hull (its
    nullspace) and d pivot coordinates.  There the exact integer hull of
    ``_kernels.hull`` (a monotone chain in the plane, beneath-beyond
    above it) gives the facets as primitive normals with the sign that
    makes them >= on every point, and the points its boundary keeps.
    Facets are listed by the lexicographically first d-subset of their
    tight points that spans them, the order in which a scan of every
    d-subset meets them (``tests/reference_kernels.subset_scan_describe``).
    The order is kept because ``programs.channel_program`` writes its
    rows in facet order and reports carry those programs, so it fixes
    their bytes.  Affine independence is a matroid, so that subset is
    the greedy basis of the tight points.  A point is a vertex iff the hull kept it and
    the normals of its tight facets have rank d; in the plane the chain
    keeps the vertices alone.
    """
    ints, scale = integer_rows(points)
    ints = tuple(map(tuple, ints))
    p0 = ints[0]
    diffs = [[a - b for a, b in zip(p, p0)] for p in ints[1:]]
    pivots, complement = orthogonal_complement(diffs, len(p0))
    coords = tuple(pivots)
    equalities = [(tuple(c), sum(map(operator.mul, c, p0))) for c in complement]
    d = len(coords)
    distinct = list(dict.fromkeys(ints))
    ys = [tuple(p[j] for j in coords) for p in distinct]
    planes, kept = hull(ys) if d else ((), {0})
    facets = []
    for a, b in planes:
        on = [i for i, y in enumerate(ys) if sum(map(operator.mul, a, y)) == b]
        first = on if len(on) == d or d == 2 else [
            on[j] for j in independent_affine_subset([ys[i] for i in on])]
        facets.append((first[:d], (a, b), on))
    facets.sort(key=operator.itemgetter(0))
    tight: list[list[tuple[int, ...]]] = [[] for _ in ys]
    for _, (a, _), on in facets:
        for i in on:
            tight[i].append(a)
    extreme = {
        p: i in kept and (d <= 2 or len(t) >= d and bareiss_rank([list(a) for a in t]) == d)
        for i, (p, t) in enumerate(zip(distinct, tight))
    }
    flags = [extreme[p] and ints.count(p) == 1 for p in ints]
    return _Facets(scale, coords, tuple(equalities), tuple(f for _, f, _ in facets)), ints, flags


@record
class Polytope:
    """Convex hull of an irredundant vertex list, with its facet
    description (``_facets``), its int vertex rows (``_ints``) and, once
    asked for, its affine basis as indices into them (``_basis``) and the
    interpolation over it (``_interp``); none is a field, so ``eq``,
    ``hash`` and ``repr`` see only the vertices."""

    vertices: tuple[Vec, ...]

    def __post_init__(self):
        vertices = _points(self.vertices)
        object.__setattr__(self, "vertices", vertices)
        facets, ints, flags = _describe(vertices)
        for v, ok in zip(vertices, flags):
            if not ok:
                raise ValueError(
                    f"vertex {tuple(map(str, v))} is redundant (inside the hull"
                    " of the remaining points)"
                )
        object.__setattr__(self, "_facets", facets)
        object.__setattr__(self, "_ints", ints)

    @classmethod
    def hull_of(cls, points: Sequence[Sequence]) -> "Polytope":
        """Polytope spanned by arbitrary points; redundant ones dropped,
        the vertices kept in input order."""
        points = tuple(dict.fromkeys(_points(points)))
        facets, ints, flags = _describe(points)
        hull = object.__new__(cls)
        object.__setattr__(hull, "vertices", tuple(p for p, ok in zip(points, flags) if ok))
        object.__setattr__(hull, "_facets", facets)
        object.__setattr__(hull, "_ints", tuple(x for x, ok in zip(ints, flags) if ok))
        return hull

    @property
    def ambient_dim(self) -> int:
        return len(self.vertices[0])


@record
class Ball:
    """Closed euclidean ball with rational center and radius."""

    center: Vec
    radius: QQ

    def __post_init__(self):
        object.__setattr__(self, "center", vec(self.center))
        object.__setattr__(self, "radius", qq(self.radius))
        if self.radius <= 0:
            raise ValueError("radius must be positive")

    @property
    def ambient_dim(self) -> int:
        return len(self.center)


StateSpace = Union[Polytope, Ball]


def _points(points: Sequence[Sequence]) -> tuple[Vec, ...]:
    """Coerced points of one dimension; at least one."""
    pts = tuple(vec(p) for p in points)
    if not pts:
        raise ValueError("a polytope needs at least one vertex")
    if any(len(p) != len(pts[0]) for p in pts):
        raise ValueError("vertices have mixed dimensions")
    return pts


def hull_coords(space: StateSpace) -> tuple[int, ...]:
    """The coordinates onto which aff(space) projects injectively: a
    polytope's facet coordinates, every coordinate of a ball.  On
    aff(space) every affine functional is one of these coordinates and
    the constant alone."""
    if isinstance(space, Ball):
        return tuple(range(space.ambient_dim))
    return space._facets.coords


def dimension(space: StateSpace) -> int:
    """Dimension of the affine hull."""
    return len(hull_coords(space))


def affine_basis(space: StateSpace) -> tuple[Vec, ...]:
    """dim(space) + 1 affinely independent points of the space.

    For polytopes the points are the greedy choice among the vertices, in
    vertex order (``_basis_indices``); for balls the center plus the axis
    points center + radius * e_i.
    """
    if isinstance(space, Ball):
        return (space.center,) + tuple(
            tuple(c + space.radius if k == i else c for k, c in enumerate(space.center))
            for i in range(space.ambient_dim)
        )
    return tuple(space.vertices[i] for i in _basis_indices(space))


def _basis_indices(space: Polytope) -> tuple[int, ...]:
    """The affine basis as indices into the vertices, kept as ``_basis``."""
    basis = getattr(space, "_basis", None)
    if basis is None:
        basis = tuple(independent_affine_subset(space._ints))
        object.__setattr__(space, "_basis", basis)
    return basis


def vertex_ints(space: Polytope):
    """``(xs, q)``: the kept int vertex rows ``xs = q * v``, q the facet scale."""
    return space._ints, space._facets.scale


def basis_ints(space: StateSpace):
    """``(xs, q)``: ``affine_basis(space)`` as int rows ``xs = q * p``."""
    if isinstance(space, Ball):
        ((*c, r),), q = integer_rows([(*space.center, space.radius)])
        return [c] + [[x + r * (k == i) for k, x in enumerate(c)] for i in range(len(c))], q
    return [space._ints[i] for i in _basis_indices(space)], space._facets.scale


def basis_interpolation(space: StateSpace):
    """``interpolation`` of ``affine_basis(space)``, a polytope's or a
    ball's, found on the first call and kept as ``_interp``: the
    ``interpolant`` of images of the basis points is the map they fix."""
    interp = getattr(space, "_interp", None)
    if interp is None:
        interp = interpolation(*basis_ints(space))
        object.__setattr__(space, "_interp", interp)
    return interp


def contains(space: StateSpace, x: Sequence) -> bool:
    x = vec(x)
    if len(x) != space.ambient_dim:
        raise ValueError("point has wrong dimension")
    if isinstance(space, Ball):
        d = vec_sub(x, space.center)
        return vec_dot(d, d) <= space.radius * space.radius
    return space._facets.holds(x)


def _polytope_extrema(space: Polytope, f: AffineFunctional):
    """Min and max of ``f``, each with the first vertex attaining it."""
    (values,), den = int_values([f], *vertex_ints(space))
    lo, hi = min(values), max(values)
    vertices = space.vertices
    return QQ(lo, den), vertices[values.index(lo)], QQ(hi, den), vertices[values.index(hi)]


def extremal_range(
    space: StateSpace, f: AffineFunctional
) -> tuple[ExtremalValue, ExtremalValue]:
    """Exact (min, max) of ``f`` over the space."""
    if f.dim != space.ambient_dim:
        raise ValueError("functional dimension mismatch")
    if isinstance(space, Polytope):
        lo, _, hi, _ = _polytope_extrema(space, f)
        return ExtremalValue(lo), ExtremalValue(hi)
    mid = f(space.center)
    norm_sq = vec_dot(f.linear, f.linear)
    if norm_sq == 0:
        return ExtremalValue(mid), ExtremalValue(mid)
    return (
        ExtremalValue(mid, -space.radius, norm_sq),
        ExtremalValue(mid, space.radius, norm_sq),
    )


@record
class Containment:
    """Outcome of an image-containment test, exact either way: on failure
    ``witness_point`` is a source point that the map sends to
    ``witness_image``, outside the target."""

    ok: bool
    witness_point: Optional[Vec] = None
    witness_image: Optional[Vec] = None

    def __bool__(self):
        return self.ok


def map_into(source: StateSpace, m: AffineMap, target: StateSpace) -> Containment:
    """Does ``m`` send ``source`` into ``target``?

    Supported pairs: polytope -> polytope (vertex images against the
    target's facets) and ball -> ball (an S-lemma certificate at a
    rational multiplier, or a rational source point whose image leaves
    the target; ``_ball_map_into``).  Both are decided exactly; a ball map
    that neither test settles raises ``UnsupportedGeometryError``.
    """
    if m.source_dim != source.ambient_dim or m.target_dim != target.ambient_dim:
        raise ValueError("map dimensions disagree with the spaces")
    if isinstance(source, Polytope) and isinstance(target, Polytope):
        # every vertex image at once: column j of rows / den is m(v_j)
        rows, den = int_values(m.functionals(), *vertex_ints(source))
        holds = target._facets.holds_ints
        for v, img in zip(source.vertices, zip(*rows)):
            if not holds(img, den):
                return Containment(False, v, tuple(QQ(x, den) for x in img))
        return Containment(True)
    if isinstance(source, Ball) and isinstance(target, Ball):
        return _ball_map_into(source, m, target)
    raise UnsupportedGeometryError(
        f"unsupported geometry: {type(source).__name__} -> {type(target).__name__}"
    )


# Bisection steps on the S-lemma multiplier, so that deciding a map never
# hangs: a map that none of the bisected multipliers certifies and that
# yields no witness is tight or nearly so, and is refused.
MULTIPLIER_STEPS = 64


def _ball_map_into(source: Ball, m: AffineMap, target: Ball) -> Containment:
    """Ball -> ball containment by the S-lemma (Polik and Terlaky, 2007).

    With |u| <= 1, m(c1 + R1 u) - c2 = M u + d for M = R1 A, d = m(c1) - c2.
    The map is contained iff some lam >= 0 makes P(lam) = [[lam I - M^T M,
    -M^T d], [-d^T M, R2^2 - |d|^2 - lam]] PSD, as then R2^2 - |M u + d|^2
    >= lam (1 - |u|^2).  The first lam, R2 (R2 - rho) with rational rho >=
    |d| (R2^2 when d = 0), certifies every map with sigma_max(M) + rho <= R2.
    A failing lam gives (r, s) (``_negative_direction``) whose value is
    affine in lam with slope |r|^2 - s^2, so all lam on one side fail too.
    Past the top eigenvalue of M^T M, (r, s) = ((lam I - M^T M)^-1 M^T d, 1),
    and the bisection drives r / s to the farthest point (Moré and Sorensen,
    1983).  So r / s inside the ball is a witness candidate, and so are the
    sphere points on the line from the last such point (at first the
    center) along the last direction from below, a near top eigenvector
    when the farthest point needs one, rounded short (``_image_outside``).
    """
    r2 = target.radius
    center_image = m(source.center)
    d = vec_sub(center_image, target.center)
    d_sq = vec_dot(d, d)
    if d_sq > r2 * r2:
        return Containment(False, source.center, center_image)
    # M^T M and M^T d from the int columns of q [A | d], M = R1 A
    ints, q = integer_rows([(*row, x) for row, x in zip(m.matrix.entries, d)])
    *cols, dq = zip(*ints)
    rn, rd = source.radius.numerator, source.radius.denominator * q
    gram = [[QQ(rn * rn * sum(map(operator.mul, a, b)), rd * rd) for b in cols] for a in cols]
    md = [QQ(rn * sum(map(operator.mul, a, dq)), rd * q) for a in cols]
    slack = r2 * r2 - d_sq
    lo, hi = QQ(0), slack
    lam = max(r2 * (r2 - _root(d_sq, 64, up=True)), lo)
    below, inside = None, zeros(len(cols))
    for _ in range(MULTIPLIER_STEPS):
        p = [[lam * (i == j) - x for j, x in enumerate(row)] + [-md[i]]
             for i, row in enumerate(gram)]
        direction = _negative_direction(p + [[-x for x in md] + [slack - lam]])
        if direction is None:
            return Containment(True)
        *r, s = direction
        witness = None
        if vec_dot(r, r) > s * s:
            lo, below = lam, r
        else:
            hi, inside = lam, vec_scale(1 / s, r)
            witness = _image_outside(source, m, target, inside)
        if witness is None and below is not None:
            witness = _sphere_witness(source, m, target, inside, below)
        if witness is not None:
            return Containment(False, *witness)
        lam = (lo + hi) / 2
    raise UnsupportedGeometryError(
        f"unsupported: no multiplier of {MULTIPLIER_STEPS} bisection steps certifies"
        " the ball map and no witness was found (it is tight or nearly so)"
    )


def _image_outside(source: Ball, m: AffineMap, target: Ball, u: Vec) -> Optional[tuple]:
    """The point c1 + R1 u and its image, if that is outside the target,
    with u rounded toward zero (so inside the ball) at the fewest of 8,
    16, 32, ... bits that keep it outside; the violation is strict."""
    def point(u):
        x = tuple(c + source.radius * a for c, a in zip(source.center, u))
        image = m(x)
        diff = vec_sub(image, target.center)
        return (x, image) if vec_dot(diff, diff) > target.radius * target.radius else None

    found, bits = point(u), 8
    while found and any(a.denominator > 1 << bits for a in u):
        shorter = point(tuple(QQ(math.trunc(a * (1 << bits)), 1 << bits) for a in u))
        if shorter is not None:
            return shorter
        bits *= 2
    return found


def _sphere_witness(source: Ball, m: AffineMap, target: Ball, u0: Vec, v) -> Optional[tuple]:
    """A point c1 + R1 (u0 + tau v), |u0| < 1, and its image outside the
    target, or ``None``.

    The line meets |u| = 1 at tau = (-b +- sqrt(D)) / n, n = |v|^2,
    b = u0.v, D = b^2 - n (|u0|^2 - 1).  There the sphere's equation turns
    |e + tau w|^2 - R2^2 (e, w the images of u0 and v, from c2) into
    x + y sqrt(D), whose sign is that of x |x| + y |y| D.  An end that
    maps outside is approached from inside, sqrt(D) rounded down at 16,
    32, 64, ... bits; the violation is strict, so this ends.
    """
    n = vec_dot(v, v)
    if not n:
        return None
    b, c = vec_dot(u0, v), vec_dot(u0, u0) - 1
    disc = b * b - n * c
    e = vec_sub(m(tuple(x + source.radius * a for x, a in zip(source.center, u0))),
                target.center)
    w = vec_scale(source.radius, m.matrix.matvec(v))
    a1 = 2 * (vec_dot(e, w) - b * vec_dot(w, w) / n)
    a0 = vec_dot(e, e) - target.radius * target.radius - c * vec_dot(w, w) / n
    for sign in (1, -1):
        x, y = a0 - a1 * b / n, sign * a1 / n
        if x * abs(x) + y * abs(y) * disc <= 0:
            continue
        bits = 16
        while True:
            tau = (-b + sign * _root(disc, bits, up=False)) / n
            found = _image_outside(source, m, target, vec_add(u0, vec_scale(tau, v)))
            if found is not None:
                return found
            bits *= 2
    return None


def _root(x: QQ, bits: int, up: bool) -> QQ:
    """sqrt(x) for rational x >= 0 within 2^-bits / den(x), from below or
    (``up``) above; exact for rational squares.  sqrt(p/q) = sqrt(pq)/q."""
    n = (x.numerator * x.denominator) << (2 * bits)
    k = math.isqrt(n)
    if up and k * k < n:
        k += 1
    return QQ(k, x.denominator << bits)


def _negative_direction(s: list[list[QQ]]) -> Optional[Vec]:
    """``None`` when the symmetric rational ``s`` is PSD, else a rational
    r with r^T S r < 0.

    Symmetric elimination (LDL^T) keeps the trailing block of T S T^T in
    ``a``, with ``t`` the rows of T = L^-1, so the k-th row gives r^T S r
    = a_kk.  A negative pivot returns its row.  A zero pivot with some
    a_kj != 0 returns c t_k + t_j, whose value 2c a_kj + a_jj is -1 for
    c = -(a_jj + 1) / (2 a_kj); one with a zero row is skipped.  If no
    pivot is negative, S is congruent to a nonnegative diagonal.
    """
    n = len(s)
    a = [list(row) for row in s]
    t = [[QQ(int(i == j)) for j in range(n)] for i in range(n)]
    for k in range(n):
        p = a[k][k]
        if p < 0:
            return tuple(t[k])
        if p == 0:
            j = next((j for j in range(k + 1, n) if a[k][j]), None)
            if j is not None:
                c = -(a[j][j] + 1) / (2 * a[k][j])
                return tuple(c * x + y for x, y in zip(t[k], t[j]))
            continue
        for i in range(k + 1, n):
            f = a[i][k] / p
            if f:
                a[i][k + 1:] = [x - f * y for x, y in zip(a[i][k + 1:], a[k][k + 1:])]
                t[i] = [x - f * y for x, y in zip(t[i], t[k])]
    return None
