"""Symmetries of Wigner representations.

Lifted maps push signed distributions forward along a map of the phase
space; a lifted symmetry keeps the representation's image inside
itself.  Transported symmetries are the ones realized by a channel on
the state space (the commuting square), and for faithful
representations every symmetry is transported.  The covariant solver
combines two exact stages: permutation channels for the outcome
translation groups, then the linear covariance system over the grid
functionals.

A lifted permutation P has finite order, so P(W(K)) inside W(K) already
forces P(W(K)) = W(K): permutation symmetries are the relabellings of
phase points that fix an invariant of W(K), built once per
representation (``_permutation_test``), with no LP per permutation.  On
a polytope the invariant is the set ext W(K) of extreme points.  On a
ball with faithful W, W(K) is the ellipsoid {g0 + G t : |t| <= 1} with
g0 = W(center) and columns W(center + r e_i) - g0 of G; P fixes it iff
P g0 = g0 and P S P^T = S for S = G H^-2 G^T, H = G^T G.  S is the
pseudo-inverse of G G^T, so its kernel is span(G)-perp and the second
identity also says that P preserves span(G).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional, Sequence, Union

from ._kernels import rref
from .errors import PreconditionError, SizeGuardError, UnsupportedGeometryError
from .exact import (
    QQ,
    Feasible,
    Infeasible,
    LinearProgram,
    Matrix,
    Vec,
    lp_feasible,
    solve_affine,
    vec_add,
    vec_dot,
    vec_scale,
    vec_sub,
    zeros,
)
from .geometry import (
    AffineFunctional,
    AffineMap,
    Ball,
    Polytope,
    StateSpace,
    _in_hull,
    affine_basis,
    affine_map_with_orthogonal_extension,
    contains,
    map_into,
)
from .theory import (
    Channel,
    ChannelInfeasible,
    Observable,
    _marginal_equalities,
    are_complementary,
    find_channel,
    is_surjective,
    jointly_info_complete,
)
from .wigner import SignedGrid, WignerRep, evaluate, is_faithful

# phase points; 8! permutations is the ceiling.  A permutation has finite
# order, so it is a symmetry iff it fixes an invariant of W(K) built once
# (ext W(K) on polytopes; the center and G H^-2 G^T on balls): each one
# costs entry comparisons, no LP.
ENUMERATION_GUARD = 8
GROUP_GUARD = 10_000  # closed group elements


@dataclass(frozen=True, slots=True)
class PhasePointMap:
    """Total map on the product phase space, stored over flat indices."""

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
        n_a, n_b = shape
        table = [0] * (n_a * n_b)
        for a in range(n_a):
            for b in range(n_b):
                table[a * n_b + b] = perm_a[a] * n_b + perm_b[b]
        return cls(shape, tuple(table))

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
        inv = [0] * len(self.table)
        for i, t in enumerate(self.table):
            inv[t] = i
        return PhasePointMap(self.shape, tuple(inv))

    def describe(self) -> str:
        n_b = self.shape[1]
        moved = [
            f"{divmod(i, n_b)}->{divmod(t, n_b)}"
            for i, t in enumerate(self.table)
            if i != t
        ]
        return "id" if not moved else ", ".join(moved)


@dataclass(frozen=True)
class LiftedMap:
    """Push-forward of signed distributions along a phase-point map.

    The transfer matrix has exactly one 1 per column (at row phi(j)), so
    total mass is preserved and nonnegative grids stay nonnegative.
    """

    phase_map: PhasePointMap
    matrix: Matrix

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
        return AffineMap(self.matrix, zeros(self.matrix.rows))


def lift(phi: PhasePointMap) -> LiftedMap:
    """The linear action (phi^ nu)_i = sum over phi(j) = i of nu_j."""
    n = len(phi.table)
    rows = [[QQ(0)] * n for _ in range(n)]
    for j, i in enumerate(phi.table):
        rows[i][j] = QQ(1)
    return LiftedMap(phi, Matrix.from_rows(rows, cols=n))


GridMap = Union[LiftedMap, AffineMap]


def _as_affine(lam: GridMap) -> AffineMap:
    return lam.as_affine_map() if isinstance(lam, LiftedMap) else lam


@dataclass(frozen=True)
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

    Polytopes: exact convex-hull membership of each mapped image vertex
    (affine images of polytopes are hulls of vertex images).  Balls need
    a faithful representation: the map is pulled back through the
    inverse of W and tested as a ball self-map.
    """
    space = rep.state_space
    m = _as_affine(lam)
    if isinstance(space, Polytope):
        image_pts = [evaluate(rep, v).flatten() for v in space.vertices]
        return _polytope_symmetry(rep, m, image_pts, space.vertices)
    if not is_faithful(rep):
        raise UnsupportedGeometryError(
            "unsupported: ball symmetry testing needs a faithful representation"
        )
    chart = _chart(rep)
    pulled = _pull_back(chart, m)
    if pulled is None:
        # some mapped image point left the affine hull of W(K)
        for p, w in zip(chart.basis, chart.images):
            target = m(w)
            if _solve_state(chart, target) is None:
                return SymmetryCheck(False, p, _grid_of_flat(target, rep.shape))
        raise ArithmeticError("pull-back failed without witness")  # pragma: no cover
    result = map_into(space, pulled, space)
    if result.ok:
        return SymmetryCheck(True)
    witness = result.witness_point
    image = None
    if witness is not None and contains(space, witness):
        image = _grid_of_flat(m(evaluate(rep, witness).flatten()), rep.shape)
    return SymmetryCheck(False, witness, image)


def _polytope_symmetry(rep, m, image_pts, vertices) -> SymmetryCheck:
    known = set(image_pts)
    for v, img in zip(vertices, image_pts):
        mapped = m(img)
        # vertex images are in W(K) by definition; LP only for new points
        if mapped in known:
            continue
        if _in_hull(mapped, image_pts) is None:
            return SymmetryCheck(False, v, _grid_of_flat(mapped, rep.shape))
    return SymmetryCheck(True)


class _Chart(NamedTuple):
    """W on aff(K) over an affine basis: W(p0 + sum c_i (p_i - p0)) = g0 + G c.

    ``images`` are the W(p_i), ``cols`` the columns W(p_i) - g0 of G and
    ``gplus`` the rows of its left inverse G+ = (G^T G)^-1 G^T.  Valid for
    faithful representations, where G has full column rank.
    """

    basis: tuple[Vec, ...]
    images: list[Vec]
    cols: list[Vec]
    gplus: list[Vec]


def _chart(rep: WignerRep) -> _Chart:
    basis = affine_basis(rep.state_space)
    funcs = rep.functionals()
    images = [tuple(f(p) for f in funcs) for p in basis]
    cols = [vec_sub(w, images[0]) for w in images[1:]]
    aug = [[vec_dot(u, v) for v in cols] + list(u) for u in cols]  # [G^T G | G^T]
    rref(aug, len(cols))
    return _Chart(basis, images, cols, [tuple(row[len(cols):]) for row in aug])


def _solve_state(chart: _Chart, target: Vec) -> Optional[Vec]:
    """The state y in aff(K) with W(y) = target, or None."""
    rhs = vec_sub(target, chart.images[0])
    coeffs = [vec_dot(row, rhs) for row in chart.gplus]
    if any(sum((c * col[i] for c, col in zip(coeffs, chart.cols)), QQ(0)) != r
           for i, r in enumerate(rhs)):
        return None
    p0 = chart.basis[0]
    y = p0
    for c, p in zip(coeffs, chart.basis[1:]):
        y = vec_add(y, vec_scale(c, vec_sub(p, p0)))
    return y


def _pull_back(chart: _Chart, m: AffineMap) -> Optional[AffineMap]:
    """The channel candidate W^-1 . m . W on the affine hull of K."""
    images = []
    for w in chart.images:
        y = _solve_state(chart, m(w))
        if y is None:
            return None
        images.append(y)
    return affine_map_with_orthogonal_extension(chart.basis, images)


def _permutation_test(
    rep: WignerRep, chart: Optional[_Chart] = None
) -> Callable[[Sequence[int]], bool]:
    """Exact predicate on permutation tables: is the lift a symmetry of W?

    Builds the invariant of W(K) from the module docstring once; each
    call then only compares entries under the relabelling.  Balls need a
    faithful representation; a caller that has already checked that and
    built the chart passes it in.
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
    if chart is None:
        if not is_faithful(rep):
            raise UnsupportedGeometryError(
                "unsupported: ball symmetry testing needs a faithful representation"
            )
        chart = _chart(rep)
    g0 = chart.images[0]
    gplus_cols = [tuple(row[i] for row in chart.gplus) for i in range(n)]
    s = [[vec_dot(u, v) for v in gplus_cols] for u in gplus_cols]  # G H^-2 G^T
    return lambda perm: all(
        g0[perm[i]] == g0[i] and all(s[perm[i]][perm[j]] == s[i][j] for j in range(n))
        for i in range(n)
    )


def enumerate_lifted_symmetries(rep: WignerRep) -> tuple[PhasePointMap, ...]:
    """All phase-space permutations whose lifts are symmetries of W.

    Guarded at 8 phase points (40320 permutations).
    """
    shape = rep.shape
    n = shape[0] * shape[1]
    if n > ENUMERATION_GUARD:
        raise SizeGuardError(
            f"{n} phase points exceed the enumeration guard of {ENUMERATION_GUARD}"
        )
    test = _permutation_test(rep)
    return tuple(
        PhasePointMap(shape, perm) for perm in itertools.permutations(range(n)) if test(perm)
    )


def composed_with_rep(rep: WignerRep, m: AffineMap) -> list[AffineFunctional]:
    """The functionals of x -> m(flat(W(x))), one per phase point."""
    funcs = rep.functionals()
    out = []
    for i in range(m.matrix.rows):
        row = m.matrix.row(i)
        f = AffineFunctional.const(rep.state_space.ambient_dim, m.offset[i])
        for coeff, q in zip(row, funcs):
            if coeff:
                f = f + q.scale(coeff)
        out.append(f)
    return out


def find_transported_channel(
    rep: WignerRep, psi: GridMap
) -> Union[Channel, ChannelInfeasible]:
    """A channel F with psi . W = W . F, or an infeasibility certificate."""
    space = rep.state_space
    if not isinstance(space, Polytope):
        raise UnsupportedGeometryError("transported-channel solving needs a polytope")
    m = _as_affine(psi)
    targets = composed_with_rep(rep, m)
    equations = list(zip(rep.functionals(), targets))
    return find_channel(space, space, equations)


@dataclass(frozen=True)
class TransportObstruction:
    """Why no grid map can complete the square for a channel.

    ``pair`` holds two states with equal W-images that the channel
    separates in image; when the obstruction is a higher-order affine
    dependency instead, ``dependency`` names the vertices involved.
    """

    pair: Optional[tuple[Vec, Vec]] = None
    dependency: Optional[tuple[Vec, ...]] = None


def find_symmetry_for_channel(
    rep: WignerRep, phi: Union[Channel, AffineMap]
) -> Union[AffineMap, TransportObstruction]:
    """A grid map Psi with Psi . W = W . phi, or the obstruction."""
    space = rep.state_space
    if not isinstance(space, Polytope):
        raise UnsupportedGeometryError("transported-symmetry solving needs a polytope")
    chan = phi.map if isinstance(phi, Channel) else phi
    images = [evaluate(rep, v).flatten() for v in space.vertices]
    mapped = [evaluate(rep, chan(v)).flatten() for v in space.vertices]
    for i, j in itertools.combinations(range(len(images)), 2):
        if images[i] == images[j] and mapped[i] != mapped[j]:
            return TransportObstruction(pair=(space.vertices[i], space.vertices[j]))
    psi = affine_map_with_orthogonal_extension(images, mapped)
    if psi is None:
        return TransportObstruction(dependency=tuple(space.vertices))
    return psi


def induced_action(rep: WignerRep, phi: PhasePointMap) -> Channel:
    """The channel W^-1 . lift(phi) . W of a lifted symmetry.

    Requires a faithful representation and that ``lift(phi)`` is a
    symmetry; the result is the unique channel making the square
    commute.
    """
    if not phi.is_permutation:
        raise PreconditionError("induced actions need permutation phase maps")
    if not is_faithful(rep):
        raise PreconditionError("induced actions need a faithful representation")
    chart = _chart(rep)
    if not _permutation_test(rep, chart)(phi.table):
        raise PreconditionError("the lifted map is not a symmetry of W")
    m = _pull_back(chart, lift(phi).as_affine_map())
    if m is None:  # pragma: no cover - symmetry guarantees solvability
        raise ArithmeticError("symmetric image left the representation span")
    return Channel(m, rep.state_space, rep.state_space)


def close_group(
    generators: Sequence[PhasePointMap], guard: int = GROUP_GUARD
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


def is_g_symmetric(rep: WignerRep, generators: Sequence[PhasePointMap]) -> bool:
    """Is the lift of every element of the generated group a symmetry?

    The whole closure is tested rather than the generators alone; this
    is sound (symmetries compose) and catches wrong generator sets.
    """
    if not generators:
        return True
    group = close_group(generators)
    test = _permutation_test(rep)
    return all(test(element.table) for element in group)


@dataclass(frozen=True)
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

    @property
    def is_identity(self) -> bool:
        return self.perm_a == tuple(range(len(self.perm_a))) and self.perm_b == tuple(
            range(len(self.perm_b))
        )

    def compose(self, other: "ProductGroupElement") -> "ProductGroupElement":
        """self after other."""
        return ProductGroupElement(
            tuple(self.perm_a[x] for x in other.perm_a),
            tuple(self.perm_b[x] for x in other.perm_b),
        )

    def inverse(self) -> "ProductGroupElement":
        inv_a = [0] * len(self.perm_a)
        inv_b = [0] * len(self.perm_b)
        for i, t in enumerate(self.perm_a):
            inv_a[t] = i
        for i, t in enumerate(self.perm_b):
            inv_b[t] = i
        return ProductGroupElement(tuple(inv_a), tuple(inv_b))

    def phase_point_map(self) -> PhasePointMap:
        return PhasePointMap.product(
            (len(self.perm_a), len(self.perm_b)), self.perm_a, self.perm_b
        )

    def describe(self) -> str:
        return f"(A:{self.perm_a}, B:{self.perm_b})"


def _adjacent_transpositions(n: int) -> list[tuple[int, ...]]:
    out = []
    for i in range(n - 1):
        perm = list(range(n))
        perm[i], perm[i + 1] = perm[i + 1], perm[i]
        out.append(tuple(perm))
    return out


def product_group_generators(n_a: int, n_b: int) -> list[ProductGroupElement]:
    """Adjacent transpositions of each factor of the translation group."""
    id_a = tuple(range(n_a))
    id_b = tuple(range(n_b))
    gens = [ProductGroupElement(t, id_b) for t in _adjacent_transpositions(n_a)]
    gens += [ProductGroupElement(id_a, t) for t in _adjacent_transpositions(n_b)]
    return gens


def _permutation_equations(
    obs_a: Observable, obs_b: Observable, element: ProductGroupElement
) -> list[tuple[AffineFunctional, AffineFunctional]]:
    inv = element.inverse()
    eqs = [
        (obs_a.effects[a], obs_a.effects[inv.perm_a[a]])
        for a in range(obs_a.n_outcomes)
    ]
    eqs += [
        (obs_b.effects[b], obs_b.effects[inv.perm_b[b]])
        for b in range(obs_b.n_outcomes)
    ]
    return eqs


def _channel_matches_element(
    obs_a: Observable,
    obs_b: Observable,
    space: StateSpace,
    element: ProductGroupElement,
    chan: Channel,
) -> bool:
    points = affine_basis(space)
    for g, h in _permutation_equations(obs_a, obs_b, element):
        pulled = g.compose(chan.map)
        if any(pulled(p) != h(p) for p in points):
            return False
    return True


@dataclass(frozen=True)
class PermutationAction:
    """One channel per translation-group element, keyed by the element."""

    channels: dict[ProductGroupElement, Channel]


@dataclass(frozen=True)
class PermutationObstruction:
    element: ProductGroupElement
    detail: ChannelInfeasible


def find_permutation_channels(
    obs_a: Observable,
    obs_b: Observable,
    space: StateSpace,
    supplied: Optional[dict[ProductGroupElement, Union[Channel, AffineMap]]] = None,
) -> Union[PermutationAction, PermutationObstruction]:
    """Channels permuting the outcome statistics, for the full product of
    the two symmetric groups.

    Joint informational completeness makes each channel unique when it
    exists, so solving the generators and composing is exhaustive.  For
    ball backends the generator channels must be supplied and are
    verified instead of solved.  Supplying channels waives the
    info-completeness precondition: the caller then owns the choice
    among possibly many channels per element.
    """
    if supplied is None and not jointly_info_complete(obs_a, obs_b, space):
        raise PreconditionError(
            "permutation channels need jointly info-complete observables"
            " (or explicitly supplied channels)"
        )
    n_a, n_b = obs_a.n_outcomes, obs_b.n_outcomes
    import math as _math

    if _math.factorial(n_a) * _math.factorial(n_b) > GROUP_GUARD:
        raise SizeGuardError("product translation group exceeds the size guard")
    generators = product_group_generators(n_a, n_b)
    solved: dict[ProductGroupElement, Channel] = {}
    identity = ProductGroupElement.identity(n_a, n_b)
    solved[identity] = Channel(
        AffineMap.identity(space.ambient_dim), space, space
    )
    for gen in generators:
        chan: Optional[Channel] = None
        if supplied is not None and gen in supplied:
            cand = supplied[gen]
            cand_map = cand.map if isinstance(cand, Channel) else cand
            result = find_channel(
                space, space, _permutation_equations(obs_a, obs_b, gen), candidate=cand_map
            )
            chan = result
        else:
            result = find_channel(space, space, _permutation_equations(obs_a, obs_b, gen))
            if isinstance(result, ChannelInfeasible):
                return PermutationObstruction(gen, result)
            chan = result
        solved[gen] = chan
    # close the set by composing generator channels
    frontier = list(solved)
    while frontier:
        nxt = []
        for gen in generators:
            for e in frontier:
                composed = gen.compose(e)
                if composed not in solved:
                    chan = Channel(
                        solved[gen].map.compose(solved[e].map), space, space
                    )
                    if not _channel_matches_element(obs_a, obs_b, space, composed, chan):
                        raise ArithmeticError(  # pragma: no cover - internal guard
                            "composed channel violates its permutation equations"
                        )
                    solved[composed] = chan
                    nxt.append(composed)
        frontier = nxt
    return PermutationAction(solved)


@dataclass(frozen=True)
class CovariantResult:
    """Outcome of the covariant-representation solver.

    kind is one of "unique", "none", "family", "hypothesis_failure";
    hypotheses records the uniqueness assumptions that were
    checked (the solver proceeds even when complementarity or
    surjectivity fail, tagging the result).
    """

    kind: str
    hypotheses: dict[str, bool]
    rep: Optional[WignerRep] = None
    family_directions: tuple = ()
    obstruction: Optional[PermutationObstruction] = None
    certificate: Optional[Infeasible] = None
    program: Optional[LinearProgram] = None
    channels: Optional[dict[ProductGroupElement, Channel]] = None
    symmetries_verified: bool = False


def solve_covariant(
    obs_a: Observable,
    obs_b: Observable,
    space: StateSpace,
    channels: Optional[dict[ProductGroupElement, Union[Channel, AffineMap]]] = None,
) -> CovariantResult:
    """Find the covariant representation or certify there is none.

    Stage 1 builds the permutation channels (outcome translations acting
    on states); an infeasible generator yields a machine-checkable
    Farkas certificate that no covariant representation exists.  Stage 2
    solves the linear system of marginal identities plus the covariance
    identities for the group generators and classifies the solution set
    by the dimension of its restriction to aff(K).
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
    n_a, n_b = obs_a.n_outcomes, obs_b.n_outcomes
    dim = space.ambient_dim
    width = dim + 1
    n_vars = n_a * n_b * width

    def idx(a, b, k):
        return (a * n_b + b) * width + k

    eqs = _marginal_equalities(obs_a, obs_b, n_vars, idx)
    basis = affine_basis(space)
    generators = product_group_generators(n_a, n_b)
    for gen in generators:
        chan = stage1.channels[gen]
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
    program = LinearProgram(n_vars, tuple(eqs), ())
    if sol is None:
        result = lp_feasible(program)
        if isinstance(result, Feasible):  # pragma: no cover - internal guard
            raise ArithmeticError("solve_affine and simplex disagree")
        return CovariantResult("none", hyps, certificate=result, program=program)

    def grid_from(coeffs) -> WignerRep:
        grid = tuple(
            tuple(
                AffineFunctional(
                    tuple(coeffs[idx(a, b, k)] for k in range(dim)),
                    coeffs[idx(a, b, dim)],
                )
                for b in range(n_b)
            )
            for a in range(n_a)
        )
        return WignerRep(space, obs_a, obs_b, grid)

    # directions that vanish on aff(K) are coefficient gauge, not freedom
    genuine = []
    for direction in sol.nullspace:
        rep_dir = grid_from(direction)
        if any(f(p) != 0 for f in rep_dir.functionals() for p in basis):
            genuine.append(rep_dir)
    rep = grid_from(sol.particular)
    verified = _verify_covariant(rep, generators)
    if genuine:
        return CovariantResult(
            "family",
            hyps,
            rep=rep,
            family_directions=tuple(genuine),
            channels=stage1.channels,
            program=program,
            symmetries_verified=verified,
        )
    return CovariantResult(
        "unique",
        hyps,
        rep=rep,
        channels=stage1.channels,
        program=program,
        symmetries_verified=verified,
    )


def _verify_covariant(rep: WignerRep, generators) -> bool:
    tables = [gen.phase_point_map().table for gen in generators]
    try:
        return not tables or all(map(_permutation_test(rep), tables))
    except UnsupportedGeometryError:
        return False
