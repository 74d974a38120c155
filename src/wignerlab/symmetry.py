"""Symmetries of Wigner representations.

Lifted maps push signed distributions forward along a map of the phase
space; a lifted symmetry keeps the representation's image inside
itself.  Transported symmetries are the ones realized by a channel on
the state space (the commuting square), and for faithful
representations every symmetry is transported.  There the square fixes
the channel on aff(K), F = W^-1 . Psi . W.  Every symmetry reads the
representation's one integer table (``wigner._table``: den * W at K's
vertices on a polytope, at its affine basis on a ball), built once.  On
a polytope where W is injective on aff(K), a permutation whose
relabelled vertex images are vertex images gives F by relabelling K's
vertices (``_relabelled_channel``): the interpolant of the relabelled
basis vertices, which permutes the vertices of K, so it needs no
elimination and no ``map_into``.  Every other map is pulled back through
W by the square's equations W_i(F x) = (Psi W(x))_i at the affine basis
of K, solved by one integer elimination (``programs.channel_system``,
then ``theory._fixed_map``), with no LP, on a polytope or a ball.  A
lifted map is its phase table, and transport reads Psi . W off it
(``programs.transport_equations``; a permutation reorders W);
``induced_action`` relabels a polytope's vertices for a lifted symmetry
and solves the same equations on a ball, and ``is_symmetry`` on a ball
those of (W_i, g_i . W) for the coordinate functionals g_i of any grid
map.  The other way round, ``find_symmetry_for_channel`` pushes a
channel phi forward: Psi with Psi(W(p)) = W(phi(p)) at the affine basis
(``wigner._push_forward``, as in ``isomorphism``), on a polytope or a
ball.  Covariance under g, W_g(a,b)(F_g p) = W_ab(p), is the same square
for lift(g), and ``verify`` checks it with the same equations.  The
covariant solver combines two exact stages: permutation channels for
the generators of the outcome translation group S_m x S_n, then the
covariance system of the free block, the zero-marginal part D of W = W0
+ D on aff(K), whose nullspace at the affine basis is one
``_kernels.orthogonal_complement``; effect sums that differ get a
closed-form certificate.  This module runs no elimination loop and
never calls the simplex itself: the only LPs under it are
``find_channel``'s, for a map that its equations leave free (W forgets
part of the state).  Equations that no map satisfies are certified by
the row operations of their elimination, and ``is_symmetry`` reads its
counterexample off ``_fixed_map``'s.

Generators decide, and no group is closed: covariance identities
compose (W_g(a,b)(F_g p) = W_ab(p) for g and h gives it for gh and
F_g F_h), so a grid covariant under the m + n - 2 channels of
``product_group_generators`` is covariant under S_m x S_n.  Lifted
symmetries compose too, so ``is_g_symmetric`` tests each generator once.

A lifted permutation P has finite order, so P(W(K)) inside W(K) already
forces P(W(K)) = W(K): permutation symmetries are the relabellings of
phase points that fix an invariant of W(K), built once per
representation (``_invariants``), with no LP per permutation.  On
a polytope the invariant is the set ext W(K) of extreme points.  When
there are as many distinct vertex images as K has vertices and they
affinely span dim(K), W is injective on aff(K), W(K) is an affine copy
of K and every vertex image is extreme, so no hull runs; other images
go through the exact integer hull of ``geometry._describe``, in time
that grows with its facets, not with the d-subsets of the images, which
also gives ``is_symmetry`` the facets of W(K) from the integer vertex
images.  On a ball with faithful W, W(K) is the ellipsoid
{g0 + G u : |u| <= 1} with g0 = W(center) and columns
W(center + r e_i) - g0 of G.  Its support function y . g0 + |G^T y|
depends on G only through the shape matrix G G^T, so P fixes W(K) iff
P g0 = g0 and P G G^T P^T = G G^T; both are ints read off W's values at
the basis, with no elimination.  The enumeration builds only the
relabellings that keep a per-point invariant of the same data (the
multiset of a coordinate over ext W(K); g0, the diagonal entry and the
multiset of a row of G G^T), by a depth-first search in the order of
``itertools.permutations`` (``_candidates``), and each one still takes
the full test.
"""

from __future__ import annotations

import itertools
import operator
from typing import Callable, Iterator, Optional, Sequence, Union

from ._kernels import bareiss_rank, orthogonal_complement
from ._record import record
from .errors import PreconditionError, SizeGuardError, UnsupportedGeometryError
from .exact import (
    QQ,
    Infeasible,
    LinearProgram,
    Matrix,
    Vec,
    checked,
    zeros,
)
from .geometry import (
    AffineMap,
    Ball,
    Polytope,
    StateSpace,
    _basis_indices,
    _describe,
    affine_basis,
    basis_ints,
    basis_interpolation,
    dimension,
    hull_coords,
    int_values,
    interpolant,
    map_into,
    vertex_ints,
)
from .programs import (
    _inverse, base_grid, channel_system, generators, marginal_program, moved_points,
    permutation_equations, slot_terms, transport_equations,
)
from .theory import (
    Channel,
    ChannelInfeasible,
    Observable,
    _fixed_map,
    are_complementary,
    effect_sums_certificate,
    find_channel,
    free_block_grid,
    is_surjective,
    jointly_info_complete,
)
from .wigner import SignedGrid, WignerRep, _push_forward, _table, evaluate, is_faithful

# phase points; 8! permutations is the ceiling.  A permutation has finite
# order, so it is a symmetry iff it fixes an invariant of W(K) built once
# (ext W(K) on polytopes; on balls the center g0 and the shape matrix
# G G^T, which fix the ellipsoid because its support function is
# y . g0 + |G^T y|): each one costs entry comparisons, no LP.  Per-point
# invariants prune the search below the guard, which still bounds its
# worst case, a representation whose points all share one invariant.
ENUMERATION_GUARD = 8


@record
class PhasePointMap:
    """Total map on the product phase space, stored over flat indices."""

    __slots__ = ("shape", "table")
    shape: tuple[int, int]
    table: tuple[int, ...]

    def __post_init__(self):
        n = self.shape[0] * self.shape[1]
        object.__setattr__(self, "table", tuple(self.table))
        if len(self.table) != n or any(not 0 <= t < n for t in self.table):
            raise ValueError("table must map the phase space into itself")

    @classmethod
    def identity(cls, shape: tuple[int, int]) -> "PhasePointMap":
        return cls(shape, tuple(range(shape[0] * shape[1])))

    @classmethod
    def from_pairs(cls, shape, mapping: dict) -> "PhasePointMap":
        """Build from a mapping {(a, b): (a', b')}; unlisted points stay put."""
        n_a, n_b = shape
        table = list(range(n_a * n_b))
        for (a, b), (a2, b2) in mapping.items():
            table[a * n_b + b] = a2 * n_b + b2
        return cls(shape, tuple(table))

    @classmethod
    def transposition(cls, shape, p: tuple[int, int], q: tuple[int, int]) -> "PhasePointMap":
        return cls.from_pairs(shape, {p: q, q: p})

    @classmethod
    def product(cls, shape, perm_a: Sequence[int], perm_b: Sequence[int]) -> "PhasePointMap":
        """(a, b) -> (perm_a[a], perm_b[b])."""
        return cls(shape, tuple(i * shape[1] + j for i in perm_a for j in perm_b))

    def __call__(self, point: tuple[int, int]) -> tuple[int, int]:
        n_b = self.shape[1]
        t = self.table[point[0] * n_b + point[1]]
        return divmod(t, n_b)

    @property
    def is_permutation(self) -> bool:
        return len(set(self.table)) == len(self.table)

    def compose(self, other: "PhasePointMap") -> "PhasePointMap":
        """self after other: (self . other)(p) = self(other(p))."""
        if self.shape != other.shape:
            raise ValueError("shape mismatch")
        return PhasePointMap(self.shape, tuple(self.table[t] for t in other.table))

    def inverse(self) -> "PhasePointMap":
        if not self.is_permutation:
            raise ValueError("only permutations are invertible")
        return PhasePointMap(self.shape, _inverse(self.table))

    def describe(self) -> str:
        return moved_points(self.shape[1], self.table)


def _phase_map(shape: tuple[int, int], table: tuple[int, ...]) -> PhasePointMap:
    """The map of a table known to be valid, without checking it again."""
    phi = object.__new__(PhasePointMap)
    object.__setattr__(phi, "shape", shape)
    object.__setattr__(phi, "table", table)
    return phi


@record
class LiftedMap:
    """Push-forward of signed distributions along a phase-point map.

    The map is its phase table: entry i of the image sums the entries j
    with phi(j) = i, so total mass is preserved and nonnegative grids stay
    nonnegative.  ``as_affine_map`` builds the 0/1 transfer matrix.
    """

    phase_map: PhasePointMap

    @property
    def shape(self) -> tuple[int, int]:
        return self.phase_map.shape

    def apply(self, grid: SignedGrid) -> SignedGrid:
        flat = grid.flatten()
        out = [QQ(0)] * len(flat)
        for j, value in enumerate(flat):
            out[self.phase_map.table[j]] += value
        return SignedGrid.from_flat(out, self.shape)

    def as_affine_map(self) -> AffineMap:
        """The transfer matrix, with a zero offset."""
        table = self.phase_map.table
        n = len(table)
        zero, one = QQ(0), QQ(1)
        rows = [[zero] * n for _ in range(n)]
        for j, i in enumerate(table):
            rows[i][j] = one
        return AffineMap(Matrix(tuple(map(tuple, rows)), n), zeros(n))


def lift(phi: PhasePointMap) -> LiftedMap:
    """The linear action (phi^ nu)_i = sum over phi(j) = i of nu_j."""
    return LiftedMap(phi)


GridMap = Union[LiftedMap, AffineMap]


@record
class SymmetryCheck:
    """Outcome of a symmetry test, with the escaping image on failure."""

    ok: bool
    counterexample: Optional[Vec] = None
    image: Optional[SignedGrid] = None

    def __bool__(self):
        return self.ok


def _grid_of_flat(flat: Vec, shape) -> Optional[SignedGrid]:
    try:
        return SignedGrid.from_flat(flat, shape)
    except ValueError:
        return None


def is_symmetry(rep: WignerRep, lam: GridMap) -> SymmetryCheck:
    """Does ``lam`` send the image W(K) into itself?

    Polytopes: each mapped image vertex is tested against the facets of
    W(K) (affine images of polytopes are hulls of vertex images), in ints:
    those of den * W(K), from ``_describe`` of the int images.  Balls need
    a faithful representation: the map m is pulled back through W by the
    equations ``(W_i, g_i . W)`` for its coordinate functionals g_i, and
    decided exactly as a ball self-map (``map_into``).  If they have no
    solution, the first basis point p whose column is inconsistent has
    m(W(p)) outside aff W(K).
    """
    space = rep.state_space
    m = lam.as_affine_map() if isinstance(lam, LiftedMap) else lam
    if isinstance(space, Polytope):
        vals, den = _table(rep)
        images = list(zip(*vals))
        hull = _describe(images)[0]
        rows, mden = int_values(m.functionals(), images, den)  # columns m(W(v_j)) * mden
        for v, mapped in zip(space.vertices, zip(*rows)):
            if not hull.holds_ints(mapped, mden // den):
                image = tuple(QQ(x, mden) for x in mapped)
                return SymmetryCheck(False, v, _grid_of_flat(image, rep.shape))
        return SymmetryCheck(True)
    if not is_faithful(rep):
        raise UnsupportedGeometryError(
            "unsupported: ball symmetry testing needs a faithful representation"
        )
    funcs = rep.functionals()
    w = AffineMap.from_rows([f.linear for f in funcs], [f.constant for f in funcs])
    ints = channel_system(space, space, list(zip(funcs, m.compose(w).functionals())))
    pulled, column = _fixed_map(space, ints, space.ambient_dim)
    if pulled is None:
        # W is faithful, so its rows have rank d: some column is inconsistent
        p = affine_basis(space)[column]
        return SymmetryCheck(False, p, _grid_of_flat(m(evaluate(rep, p).flatten()), rep.shape))
    result = map_into(space, pulled, space)
    if result.ok:
        return SymmetryCheck(True)
    image = m(evaluate(rep, result.witness_point).flatten())
    return SymmetryCheck(False, result.witness_point, _grid_of_flat(image, rep.shape))


def _injective_images(rep: WignerRep) -> Optional[tuple[tuple[int, ...], ...]]:
    """On a polytope K, the columns of ``wigner._table``, den * W(v) for
    each vertex v in vertex order, if W is injective on aff(K); else
    None.  It is iff the vertex images are distinct and their differences
    have rank dim K: then W maps aff(K) onto an affine space of its own
    dimension.  Decided on the first call and kept on the representation
    as ``_images`` (``()`` when not injective), beside its table."""
    images = getattr(rep, "_images", None)
    if images is None:
        vals, _ = _table(rep)
        images = tuple(zip(*vals))
        p0 = images[0]
        if len(set(images)) < len(images) or bareiss_rank(
            [[a - b for a, b in zip(p, p0)] for p in images[1:]]
        ) != dimension(rep.state_space):
            images = ()
        object.__setattr__(rep, "_images", images)
    return images or None


def _invariants(rep: WignerRep) -> tuple[Callable[[Sequence[int]], bool], list]:
    """``(test, keys)``: the exact predicate on permutation tables (is the
    lift a symmetry of W?) and one invariant per phase point that every
    symmetry keeps, so a symmetry sends point j to a point with the same
    key.

    ``test`` builds the invariant of W(K) from the module docstring once,
    in ints (a positive scaling) read off ``wigner._table``; each call
    then only compares entries under the relabelling.  On a polytope the
    key of j is the multiset of coordinate j over ext W(K): a symmetry
    permutes ext W(K), and coordinate perm[j] of a mapped point is
    coordinate j of the point.  On a ball it is (g0[j], S[j][j], the
    multiset of row j of S) for the shape matrix S: P g0 = g0 and
    P S P^T = S send row j of S onto row perm[j], permuted.  Balls need a
    faithful representation.
    """
    space = rep.state_space
    vals, _ = _table(rep)
    n = len(vals)
    if isinstance(space, Polytope):
        images = _injective_images(rep)
        if images is not None:
            # W is injective on aff(K): every vertex image is extreme
            ext = set(images)
        else:
            images = tuple(dict.fromkeys(zip(*vals)))
            flags = _describe(images)[2]
            ext = {p for p, ok in zip(images, flags) if ok}

        def fixes_ext(perm: Sequence[int]) -> bool:
            for point in ext:
                mapped = [0] * n
                for j, value in enumerate(point):
                    mapped[perm[j]] = value
                if tuple(mapped) not in ext:
                    return False
            return True

        return fixes_ext, [tuple(sorted(p[j] for p in ext)) for j in range(n)]
    # den * W at the center and the axis points: g0 and the rows of G
    g0 = [row[0] for row in vals]
    g = [[x - row[0] for x in row[1:]] for row in vals]
    s = [[sum(map(operator.mul, u, v)) for v in g] for u in g]  # G G^T times den^2
    if bareiss_rank(list(map(list, vals))) != len(vals[0]):
        raise UnsupportedGeometryError(
            "unsupported: ball symmetry testing needs a faithful representation"
        )
    return (lambda perm: all(
        g0[perm[i]] == g0[i] and all(s[perm[i]][perm[j]] == s[i][j] for j in range(n))
        for i in range(n)
    )), [(g0[j], s[j][j], tuple(sorted(s[j]))) for j in range(n)]


def _permutation_test(rep: WignerRep) -> Callable[[Sequence[int]], bool]:
    """Exact predicate on permutation tables: is the lift a symmetry of W?
    (``_invariants``)."""
    return _invariants(rep)[0]


def _candidates(keys: Sequence) -> Iterator[tuple[int, ...]]:
    """The permutation tables that send every point to one with the same
    key, in the lexicographic order of ``itertools.permutations``: a
    depth-first search that tries the images of point j in increasing
    order, among the points left."""
    n = len(keys)
    options = [[k for k in range(n) if keys[k] == key] for key in keys]
    perm, free = [0] * n, [True] * n

    def extend(j: int) -> Iterator[tuple[int, ...]]:
        if j == n:
            yield tuple(perm)
            return
        for k in options[j]:
            if free[k]:
                free[k] = False
                perm[j] = k
                yield from extend(j + 1)
                free[k] = True

    return extend(0)


def enumerate_lifted_symmetries(rep: WignerRep) -> tuple[PhasePointMap, ...]:
    """All phase-space permutations whose lifts are symmetries of W, in
    the order of ``itertools.permutations``.

    Guarded at 8 phase points (40320 permutations).  The search is pruned
    by per-point invariants (``_invariants``, after McKay and Piperno,
    "Practical graph isomorphism, II", 2014): only tables that keep every
    point's key are built (``_candidates``), and each of them still takes
    the full test.  Each table is built unchecked.
    """
    shape = rep.shape
    n = shape[0] * shape[1]
    if n > ENUMERATION_GUARD:
        raise SizeGuardError(
            f"{n} phase points exceed the enumeration guard of {ENUMERATION_GUARD}"
        )
    test, keys = _invariants(rep)
    return tuple(_phase_map(shape, perm) for perm in _candidates(keys) if test(perm))


def _relabelled_channel(rep: WignerRep, table: Sequence[int]) -> Optional[Channel]:
    """The channel F with W . F = P . W for the permutation table P
    (entry ``table[j]`` of P w is w_j), read off by relabelling the
    vertices of the polytope K, or None where that does not apply.

    It applies when W is injective on aff(K) (``_injective_images``) and
    every relabelled vertex image P W(v) is the image W(v_s) of a vertex.
    F is the ``interpolant`` over ``geometry.basis_interpolation(K)`` of
    the images v_s of the basis points.  Proof: W . F and P . W are
    affine on aff(K) and agree at its affine basis, so W(F x) = P W(x)
    there, and F solves the transport equations.  W is injective on
    aff(K), so the equations with the hull equalities of K fix the basis
    images, and ``theory._fixed_map`` reads off the same interpolant of
    the same points: F is ``find_channel``'s map.  At each vertex
    W(F v) = P W(v) = W(v_s) with F v in aff(K), so F v = v_s; v -> v_s is
    injective because P is and W is on the vertices, so F permutes the
    vertices of K and F(K) = K.  So the channel needs no ``map_into``,
    and it is built unchecked, as ``_phase_map`` builds a table.
    """
    images = _injective_images(rep)
    if images is None:
        return None
    index = {p: k for k, p in enumerate(images)}
    targets = []
    for point in images:
        mapped = [0] * len(point)
        for j, value in enumerate(point):
            mapped[table[j]] = value
        k = index.get(tuple(mapped))
        if k is None:
            return None
        targets.append(k)
    space = rep.state_space
    xs, q = vertex_ints(space)
    coords = list(zip(*(xs[targets[i]] for i in _basis_indices(space))))
    chan = object.__new__(Channel)
    object.__setattr__(chan, "map", interpolant(
        basis_interpolation(space), coords, [q] * space.ambient_dim))
    object.__setattr__(chan, "source", space)
    object.__setattr__(chan, "target", space)
    return chan


def find_transported_channel(
    rep: WignerRep, psi: LiftedMap
) -> Union[Channel, ChannelInfeasible]:
    """A channel F with psi . W = W . F, or an infeasibility certificate.

    A permutation whose relabelled vertex images are vertex images, for
    W injective on aff(K), gives F by relabelling K's vertices
    (``_relabelled_channel``), with no elimination and no ``map_into``.
    Every other table solves ``programs.transport_equations``: entry i of
    psi . W is the sum of the W_j with phi(j) = i, so a permutation only
    reorders W.  For faithful W they fix F on aff(K), and
    ``find_channel`` solves them without an LP.  Both give the same
    channel where both apply.
    """
    space = rep.state_space
    if not isinstance(space, Polytope):
        raise UnsupportedGeometryError("transported-channel solving needs a polytope")
    phi = psi.phase_map
    if phi.is_permutation:
        chan = _relabelled_channel(rep, phi.table)
        if chan is not None:
            return chan
    return find_channel(space, space, transport_equations(rep, phi.table))


@record
class TransportObstruction:
    """Why no grid map can complete the square for a channel.

    ``pair`` holds two vertices with equal W-images that the channel
    separates in image; when the obstruction is a higher-order affine
    dependency instead, ``dependency`` names the basis points whose
    images under W and W . phi disagree on it.
    """

    pair: Optional[tuple[Vec, Vec]] = None
    dependency: Optional[tuple[Vec, ...]] = None


def find_symmetry_for_channel(
    rep: WignerRep, phi: Union[Channel, AffineMap]
) -> Union[AffineMap, TransportObstruction]:
    """A grid map Psi with Psi . W = W . phi, or the obstruction.

    Psi is pushed forward at the affine basis of K (``_push_forward``),
    on a polytope or a ball.  On a polytope, two vertices that W merges
    and W . phi separates are reported first, as ``pair``.
    """
    space = rep.state_space
    chan = phi.map if isinstance(phi, Channel) else phi
    if isinstance(space, Polytope):
        images = [evaluate(rep, v).flatten() for v in space.vertices]
        mapped = [evaluate(rep, chan(v)).flatten() for v in space.vertices]
        for i, j in itertools.combinations(range(len(images)), 2):
            if images[i] == images[j] and mapped[i] != mapped[j]:
                return TransportObstruction(pair=(space.vertices[i], space.vertices[j]))
    psi = _push_forward(rep, lambda p: evaluate(rep, chan(p)).flatten())
    if psi is None:
        return TransportObstruction(dependency=affine_basis(space))
    return psi


def induced_action(rep: WignerRep, phi: PhasePointMap) -> Channel:
    """The channel W^-1 . lift(phi) . W of a lifted symmetry.

    Requires a faithful representation and that ``lift(phi)`` is a
    symmetry; the result is the unique channel making the square
    commute, ``find_transported_channel``'s.  On a polytope it is read
    off by relabelling K's vertices (``_relabelled_channel``): a faithful
    W is injective on aff(K), and a symmetry permutes ext W(K), the
    vertex images.  On a ball it is solved from
    ``programs.transport_equations`` by one ``_fixed_map``.
    """
    if not phi.is_permutation:
        raise PreconditionError("induced actions need permutation phase maps")
    if not is_faithful(rep):
        raise PreconditionError("induced actions need a faithful representation")
    if not _permutation_test(rep)(phi.table):
        raise PreconditionError("the lifted map is not a symmetry of W")
    space = rep.state_space
    if isinstance(space, Polytope):
        return _relabelled_channel(rep, phi.table)
    ints = channel_system(space, space, transport_equations(rep, phi.table))
    return Channel(_fixed_map(space, ints, space.ambient_dim)[0], space, space)


def is_g_symmetric(rep: WignerRep, generators: Sequence[PhasePointMap]) -> bool:
    """Is the lift of every element of the generated group a symmetry?

    The generators decide: a product of lifted symmetries is one, and
    every element of a finite group is a product of generators, so each
    generator gets one ``_permutation_test`` and the group is never
    closed.  Generators must be permutations of the phase space of ``rep``.
    """
    for g in generators:
        if g.shape != rep.shape or not g.is_permutation:
            raise PreconditionError("group generators must be permutations of the phase space")
    if not generators:
        return True
    test = _permutation_test(rep)
    return all(test(g.table) for g in generators)


@record
class ProductGroupElement:
    """A pair of outcome permutations (images at each index)."""

    perm_a: tuple[int, ...]
    perm_b: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "perm_a", tuple(self.perm_a))
        object.__setattr__(self, "perm_b", tuple(self.perm_b))
        if sorted(self.perm_a) != list(range(len(self.perm_a))) or sorted(
            self.perm_b
        ) != list(range(len(self.perm_b))):
            raise ValueError("both components must be permutations")

    @classmethod
    def identity(cls, n_a: int, n_b: int) -> "ProductGroupElement":
        return cls(tuple(range(n_a)), tuple(range(n_b)))

    def compose(self, other: "ProductGroupElement") -> "ProductGroupElement":
        """self after other."""
        return ProductGroupElement(
            tuple(self.perm_a[x] for x in other.perm_a),
            tuple(self.perm_b[x] for x in other.perm_b),
        )

    def inverse(self) -> "ProductGroupElement":
        return ProductGroupElement(_inverse(self.perm_a), _inverse(self.perm_b))

    def phase_point_map(self) -> PhasePointMap:
        return PhasePointMap.product(
            (len(self.perm_a), len(self.perm_b)), self.perm_a, self.perm_b
        )


def product_group_generators(n_a: int, n_b: int) -> list[ProductGroupElement]:
    """Adjacent transpositions of A's outcomes, then of B's
    (``programs.generators``): they generate the translation group S_m x S_n."""
    return [ProductGroupElement(a, b) for a, b in generators(n_a, n_b)]


@record
class PermutationAction:
    """One channel per generator of the translation group, keyed by the
    generator, in ``product_group_generators`` order."""

    channels: dict[ProductGroupElement, Channel]


@record
class PermutationObstruction:
    element: ProductGroupElement
    detail: ChannelInfeasible


def find_permutation_channels(
    obs_a: Observable,
    obs_b: Observable,
    space: StateSpace,
    supplied: Optional[dict[ProductGroupElement, Union[Channel, AffineMap]]] = None,
) -> Union[PermutationAction, PermutationObstruction]:
    """Channels permuting the outcome statistics, one per generator of
    S_m x S_n, in ``product_group_generators`` order.

    The generators decide (see the module docstring): the m + n - 2
    generator channels are solved and returned, and no other element of
    the group is built.  Joint informational completeness makes each
    channel unique when it exists.  For ball backends the generator
    channels must be supplied and are verified instead of solved;
    supplied channels of other elements are ignored.  Supplying channels
    waives the info-completeness precondition: the caller then owns the
    choice among possibly many channels per element.
    """
    if supplied is None and not jointly_info_complete(obs_a, obs_b, space):
        raise PreconditionError(
            "permutation channels need jointly info-complete observables"
            " (or explicitly supplied channels)"
        )
    solved: dict[ProductGroupElement, Channel] = {}
    for gen in product_group_generators(obs_a.n_outcomes, obs_b.n_outcomes):
        # a bad supplied map raises, so only a solved generator is infeasible
        cand = (supplied or {}).get(gen)
        result = find_channel(
            space, space, permutation_equations(obs_a, obs_b, gen.perm_a, gen.perm_b),
            candidate=cand.map if isinstance(cand, Channel) else cand,
        )
        if isinstance(result, ChannelInfeasible):
            return PermutationObstruction(gen, result)
        solved[gen] = result
    return PermutationAction(solved)


@record
class CovariantResult:
    """Outcome of the covariant-representation solver.

    kind is one of "unique", "none", "family", "hypothesis_failure";
    hypotheses records the uniqueness assumptions that were
    checked (the solver proceeds even when complementarity or
    surjectivity fail, tagging the result).  Only "none" sets
    ``program`` and ``certificate``; "unique" and "family" set
    ``channels``, the generator channels of ``find_permutation_channels``.
    Their ``rep`` is G-symmetric without a test: W_g(a,b)(F_g p) = W_ab(p)
    gives lift(g) W(p) = W(F_g p), and each ``Channel`` certifies
    F_g(K) inside K.
    """

    kind: str
    hypotheses: dict[str, bool]
    rep: Optional[WignerRep] = None
    family_directions: tuple = ()
    obstruction: Optional[PermutationObstruction] = None
    certificate: Optional[Infeasible] = None
    program: Optional[LinearProgram] = None
    channels: Optional[dict[ProductGroupElement, Channel]] = None


def _grid(flat: Sequence, n_b: int) -> tuple:
    """The rows of a flat grid in cell order ``a * n_b + b``."""
    return tuple(tuple(flat[i:i + n_b]) for i in range(0, len(flat), n_b))


def solve_covariant(
    obs_a: Observable,
    obs_b: Observable,
    space: StateSpace,
    channels: Optional[dict[ProductGroupElement, Union[Channel, AffineMap]]] = None,
) -> CovariantResult:
    """Find the covariant representation or certify there is none.

    The generators of the outcome translation group decide (see the
    module docstring), and the group is never closed.  Stage 1 builds
    their permutation channels (outcome translations acting on states);
    an infeasible generator yields a machine-checkable Farkas
    certificate that no covariant representation exists.  Stage 2 runs
    no LP.

    If the effect sums S_A and S_B differ, no grid has both marginals:
    ``theory.effect_sums_certificate`` is the Farkas certificate of the
    marginal system alone (``programs.marginal_program``), the reported
    program, since covariance rows would need the solved channels.  If
    S_A = S_B = S, W0_ab = A_a/n_b + B_b/n_a - S/(n_a n_b)
    (``programs.base_grid``) has both marginals, and it is covariant:
    stage 1 imposes A_a(F p) = A_(g^-1 a)(p) and likewise for B at the
    basis points, so S(F p) = S(p) and W0_g(a,b)(F_g p) = W0_ab(p).  Every
    grid with the marginals is W0 + D for a zero-marginal D of free-slot
    functionals (``programs.slot_terms``), so stage 2 solves only
    D_g(a,b)(F_g p_j) = D_ab(p_j) for each generator g, cell and point
    p_j of the affine basis.  The unknowns are the slots' functionals on
    aff(K), their coefficients on ``geometry.hull_coords`` and constants,
    (m-1)(n-1)(dim K+1) of them, so the system is one integer
    ``orthogonal_complement`` of the coordinates of p_j and F_g p_j.  A
    trivial nullspace gives "unique" with W0; otherwise the result is
    "family" with base point W0, and each nullspace vector, over its entry
    at its free column (1 there, 0 at the other free columns), is a
    direction, the D of ``theory.free_block_grid``, nonzero on aff(K).
    """
    hyps = {
        "jointly_info_complete": jointly_info_complete(obs_a, obs_b, space),
        "complementary": are_complementary(obs_a, obs_b, space),
        "surjective_a": is_surjective(obs_a, space),
        "surjective_b": is_surjective(obs_b, space),
    }
    if not hyps["jointly_info_complete"] and channels is None:
        # without info-completeness the permutation channels need not be
        # unique and the covariance system is not well-posed
        return CovariantResult("hypothesis_failure", hyps)
    if isinstance(space, Ball) and channels is None:
        raise UnsupportedGeometryError(
            "channels required for ball backends: supply the generator channels"
        )
    stage1 = find_permutation_channels(obs_a, obs_b, space, supplied=channels)
    if isinstance(stage1, PermutationObstruction):
        return CovariantResult(
            "none",
            hyps,
            obstruction=stage1,
            certificate=stage1.detail.certificate,
            program=stage1.detail.program,
        )
    cert = effect_sums_certificate(obs_a, obs_b)
    if cert is not None:
        marginals = marginal_program(obs_a, obs_b)
        return CovariantResult("none", hyps, certificate=checked(marginals, cert),
                               program=marginals)
    n_a, n_b = obs_a.n_outcomes, obs_b.n_outcomes
    terms = slot_terms(obs_a, obs_b)
    coords = hull_coords(space)
    w = len(coords) + 1
    n = w * (n_a - 1) * (n_b - 1)
    xs, q = basis_ints(space)
    rows = []
    for gen, chan in stage1.channels.items():
        images, den = int_values(chan.map.functionals(), xs, q)
        for j, x in enumerate(xs):
            # (F p_j, 1) and (p_j, 1) on the coordinates, times q * den
            image = [q * images[k][j] for k in coords] + [q * den]
            point = [den * x[k] for k in coords] + [q * den]
            for cell, entries in enumerate(terms):
                a, b = divmod(cell, n_b)
                row = [0] * n
                # D_g(a,b)(F p_j) - D_ab(p_j)
                for s, sign in terms[gen.perm_a[a] * n_b + gen.perm_b[b]]:
                    for i, c in enumerate(image):
                        row[s * w + i] += sign * c
                for s, sign in entries:
                    for i, c in enumerate(point):
                        row[s * w + i] -= sign * c
                rows.append(row)
    pivots, complement = orthogonal_complement(rows, n)
    rep = WignerRep(space, obs_a, obs_b, _grid(base_grid(obs_a, obs_b), n_b))
    directions = []
    for v, free in zip(complement, (k for k in range(n) if k not in pivots)):
        flat = free_block_grid(space, terms, [QQ(x, v[free]) for x in v], [[] for _ in terms])
        directions.append(WignerRep(space, obs_a, obs_b, _grid(flat, n_b)))
    return CovariantResult("family" if directions else "unique", hyps, rep=rep,
                           family_directions=tuple(directions), channels=stage1.channels)
