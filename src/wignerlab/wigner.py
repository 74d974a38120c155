"""Wigner representations: construction, positivity, faithfulness.

A representation is a grid of affine functionals, one per phase point
(a, b), whose row sums reproduce the first observable's effects and
whose column sums reproduce the second's.  The whole family for a fixed
pair of observables is parametrized by the free block of
(|A|-1)(|B|-1) functionals: the anchored row, column and corner are
then forced by the marginal identities.  That completion rule is
written once, in ``programs`` (``free_slots`` for the slot order and
default anchor, ``_slot_signs`` for where a free functional enters, as
cells and signs ``slot_terms``), and ``construct_family`` and
``faithful_member`` build on it, as do the compatibility and covariance
solvers over the free block.  ``construct_family`` is the member on the
anchored cross (``programs.cross_terms``, the effects there and A_alpha
minus the other B_b at the corner) plus the free functionals, each
entry's signed terms added once, one integer numerator per coefficient
over one denominator (``geometry.signed_sums``), not by chained
functional additions; ``faithful_member`` needs one elimination, not a
rank test per slot and coordinate.  ``isomorphism`` pushes W1 forward
to W2 at the affine basis of K (``_push_forward``, one
``geometry.interpolation``, which also gives a channel's transported
symmetry), on a polytope or a ball.
A representation's integer values at K are one table, den * W_i at the
vertices of a polytope or at the affine basis of a ball, built on the
first call and kept on it (``_table``, as ``_values``): ``is_positive``
reads its signs, ``grid_rank`` and ``is_faithful`` the rank of its
columns at the affine basis, and ``symmetry`` its permutation test,
``is_symmetry`` and the relabelling that transports a symmetry.
A positive member is a joint observable, so ``positive_member`` reads
the compatibility LP of ``theory.are_compatible`` and runs no LP of its
own; this module never calls the simplex.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence, Union

from ._kernels import bareiss_rank, rref
from ._record import record
from .errors import DomainError, PreconditionError
from .exact import QQ, Infeasible, LinearProgram, Vec, qq, vec
from .geometry import (
    AffineFunctional,
    AffineMap,
    ExtremalValue,
    Polytope,
    StateSpace,
    _basis_indices,
    affine_basis,
    affine_map_with_orthogonal_extension,
    basis_ints,
    contains,
    dimension,
    extremal_range,
    int_values,
    signed_sums,
    vertex_ints,
)
from .programs import cross_terms, free_slots, slot_terms
from .theory import Incompatible, Observable, are_compatible


@record
class SignedGrid:
    """A signed probability measure on the product phase space."""

    entries: tuple[Vec, ...]

    def __post_init__(self):
        entries = tuple(vec(row) for row in self.entries)
        if not entries or not entries[0]:
            raise ValueError("empty grid")
        width = len(entries[0])
        if any(len(r) != width for r in entries):
            raise ValueError("ragged grid")
        if sum(x for row in entries for x in row) != 1:
            raise ValueError("grid entries must sum to one")
        object.__setattr__(self, "entries", entries)

    @property
    def shape(self) -> tuple[int, int]:
        return len(self.entries), len(self.entries[0])

    def flatten(self) -> Vec:
        return tuple(x for row in self.entries for x in row)

    @classmethod
    def from_flat(cls, flat: Sequence, shape: tuple[int, int]) -> "SignedGrid":
        n_a, n_b = shape
        flat = vec(flat)
        return cls(tuple(flat[a * n_b : (a + 1) * n_b] for a in range(n_a)))

    def row_sums(self) -> Vec:
        return tuple(sum(row, QQ(0)) for row in self.entries)

    def col_sums(self) -> Vec:
        n_a, n_b = self.shape
        return tuple(sum((self.entries[a][b] for a in range(n_a)), QQ(0)) for b in range(n_b))

    def is_nonnegative(self) -> bool:
        return all(x >= 0 for row in self.entries for x in row)


@record
class WignerRep:
    """Grid of affine functionals tied to a state space and two observables.

    Once asked for, a representation keeps its integer table (``_values``,
    built by ``_table``) and, on a polytope, its vertex images if W is
    injective on aff(K) (``_images``, ``symmetry._injective_images``);
    neither is a field, so ``eq``, ``hash`` and ``repr`` see only the grid
    and what it is tied to."""

    state_space: StateSpace
    obs_a: Observable
    obs_b: Observable
    grid: tuple[tuple[AffineFunctional, ...], ...]

    def __post_init__(self):
        grid = tuple(tuple(row) for row in self.grid)
        if len(grid) != self.obs_a.n_outcomes or any(
            len(row) != self.obs_b.n_outcomes for row in grid
        ):
            raise ValueError("grid shape must be |A| x |B|")
        dim = self.state_space.ambient_dim
        if any(f.dim != dim for row in grid for f in row):
            raise ValueError("grid functionals have the wrong dimension")
        object.__setattr__(self, "grid", grid)

    @property
    def shape(self) -> tuple[int, int]:
        return self.obs_a.n_outcomes, self.obs_b.n_outcomes

    def functionals(self) -> list[AffineFunctional]:
        return [f for row in self.grid for f in row]


def evaluate(rep: WignerRep, x: Sequence) -> SignedGrid:
    """The signed distribution assigned to the state ``x``."""
    x = vec(x)
    if not contains(rep.state_space, x):
        raise DomainError(f"point {tuple(map(str, x))} is not a state")
    return SignedGrid(tuple(tuple(f(x) for f in row) for row in rep.grid))


@record
class MarginalViolation:
    axis: str  # "row" or "column"
    index: int
    expected: AffineFunctional
    got: AffineFunctional


@record
class MarginalReport:
    violations: tuple[MarginalViolation, ...]

    @property
    def ok(self) -> bool:
        return not self.violations

    def __bool__(self):
        return self.ok


def check_marginals(rep: WignerRep) -> MarginalReport:
    """Verify the row/column identities coefficient-wise, not pointwise."""
    n_a, n_b = rep.shape
    dim = rep.state_space.ambient_dim
    violations = []
    for a in range(n_a):
        total = sum(rep.grid[a], AffineFunctional.zero(dim))
        if total != rep.obs_a.effects[a]:
            violations.append(MarginalViolation("row", a, rep.obs_a.effects[a], total))
    for b in range(n_b):
        total = sum((row[b] for row in rep.grid), AffineFunctional.zero(dim))
        if total != rep.obs_b.effects[b]:
            violations.append(MarginalViolation("column", b, rep.obs_b.effects[b], total))
    return MarginalReport(tuple(violations))


def construct_family(
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
    completion, so the result passes ``check_marginals`` whenever the
    effects of A and B have one sum: the member on the anchored cross
    (``programs.cross_terms``) plus each free functional with the signs
    of the completion rule (``programs.slot_terms``).  Each entry lists
    its signed terms and ``signed_sums`` adds them once, over one
    denominator.
    """
    _, slots = free_slots(obs_a, obs_b, anchor)
    free = dict(free or {})
    for slot in free:
        if slot not in slots:
            raise ValueError(f"slot {slot} is not in the free block")
    funcs = [free.get(slot) for slot in slots]
    terms = cross_terms(obs_a, obs_b, anchor)
    for cell, entering in zip(terms, slot_terms(obs_a, obs_b, anchor)):
        for s, sign in entering:
            if funcs[s] is not None:
                cell.append((sign, funcs[s]))
    flat = signed_sums(terms, space.ambient_dim)
    n_b = obs_b.n_outcomes
    grid = tuple(tuple(flat[a * n_b:(a + 1) * n_b]) for a in range(obs_a.n_outcomes))
    return WignerRep(space, obs_a, obs_b, grid)


def degenerate_rep(
    obs_a: Observable,
    obs_b: Observable,
    space: StateSpace,
    anchor: Optional[tuple[int, int]] = None,
) -> WignerRep:
    """The representation supported on the anchored cross (all free
    slots zero); it collapses exactly the state pairs the two
    observables cannot distinguish."""
    return construct_family(obs_a, obs_b, space, free={}, anchor=anchor)


def perturb(
    rep: WignerRep, a1: int, a2: int, b1: int, b2: int, t
) -> WignerRep:
    """Add the checkerboard t * (e_[a1,b1] + e_[a2,b2] - e_[a1,b2] - e_[a2,b1]).

    All marginals are unchanged, so the result is another representation
    of the same observables; for t != 0 it differs from the input.
    """
    if a1 == a2 or b1 == b2:
        raise ValueError("perturbation indices must be distinct per axis")
    t = qq(t)
    rows = [list(row) for row in rep.grid]
    rows[a1][b1] = rows[a1][b1].shift(t)
    rows[a2][b2] = rows[a2][b2].shift(t)
    rows[a1][b2] = rows[a1][b2].shift(-t)
    rows[a2][b1] = rows[a2][b1].shift(-t)
    return WignerRep(rep.state_space, rep.obs_a, rep.obs_b, tuple(tuple(r) for r in rows))


@record
class NegativityWitness:
    """Where a representation goes negative: the phase point, an exact
    value, and either the witnessing vertex (polytopes) or the ambient
    direction of the minimizing boundary state (balls)."""

    phase_point: tuple
    value: Union[QQ, ExtremalValue]
    state: Optional[Vec] = None
    direction: Optional[Vec] = None


@record
class PositivityResult:
    ok: bool
    witness: Optional[NegativityWitness] = None

    def __bool__(self):
        return self.ok


def _table(rep: WignerRep):
    """``(rows, den)``: the ints ``rows[i][j] = den * W_i(x_j)`` over one
    positive ``den``, at the vertices x_j of a polytope K or at the
    affine basis of a ball (``int_values``).  Built on the first call and
    kept on the representation as ``_values``, as a polytope keeps
    ``_basis``; not a field, so ``eq``, ``hash`` and ``repr`` do not see
    it.  The rows are tuples: callers that eliminate copy them."""
    table = getattr(rep, "_values", None)
    if table is None:
        space = rep.state_space
        points = vertex_ints(space) if isinstance(space, Polytope) else basis_ints(space)
        rows, den = int_values(rep.functionals(), *points)
        table = tuple(map(tuple, rows)), den
        object.__setattr__(rep, "_values", table)
    return table


def is_positive(rep: WignerRep) -> PositivityResult:
    """Is the image inside the genuine probability simplex?"""
    space = rep.state_space
    n_b = rep.shape[1]
    funcs = rep.functionals()
    if isinstance(space, Polytope):
        rows, den = _table(rep)
    for i, f in enumerate(funcs):
        point = (rep.obs_a.outcomes[i // n_b], rep.obs_b.outcomes[i % n_b])
        if isinstance(space, Polytope):
            j = next((j for j, val in enumerate(rows[i]) if val < 0), None)
            if j is not None:
                return PositivityResult(False, NegativityWitness(
                    point, QQ(rows[i][j], den), state=space.vertices[j]))
        else:
            lo, _ = extremal_range(space, f)
            if lo < 0:
                return PositivityResult(False, NegativityWitness(
                    point, lo, direction=tuple(-c for c in f.linear)))
    return PositivityResult(True)


def grid_rank(rep: WignerRep) -> int:
    """Rank of the grid functionals restricted to the affine hull of K:
    of ``_table``'s columns at the affine basis (a ball's table is there)."""
    rows, _ = _table(rep)
    space = rep.state_space
    if isinstance(space, Polytope):
        basis = _basis_indices(space)
        return bareiss_rank([[row[j] for j in basis] for row in rows])
    return bareiss_rank(list(map(list, rows)))


def is_faithful(rep: WignerRep) -> bool:
    """Faithful iff the grid functionals span all affine functions on K."""
    return grid_rank(rep) == dimension(rep.state_space) + 1


@record
class FaithfulChoice:
    """Both sides of the faithful-choice inequality."""

    possible: bool
    free_slots: int  # (|A|-1)(|B|-1)
    required: int  # dim(K) + 1 - rank(effect span)
    space_dim: int
    effect_rank: int

    def __bool__(self):
        return self.possible


def faithful_choice_possible(
    obs_a: Observable, obs_b: Observable, space: StateSpace, span: Optional[int] = None
) -> FaithfulChoice:
    """Whether the free slots can make a member faithful; ``span`` is
    ``theory.effect_span_rank`` of the pair, computed here when not given."""
    from .theory import effect_span_rank

    free_slots = (obs_a.n_outcomes - 1) * (obs_b.n_outcomes - 1)
    dim = dimension(space)
    if span is None:
        span = effect_span_rank(obs_a, obs_b, space)
    required = dim + 1 - span
    return FaithfulChoice(free_slots >= required, free_slots, required, dim, span)


def faithful_member(
    obs_a: Observable,
    obs_b: Observable,
    space: StateSpace,
    anchor: Optional[tuple[int, int]] = None,
) -> Optional[WignerRep]:
    """A faithful family member, or ``None`` when none exists.

    On aff(K) a member's grid spans exactly what the degenerate member's
    grid and the free functionals span.  So the free slots, in order, get
    the ambient coordinate functionals that raise that span, each the
    earliest one left: the coordinate pivot columns of one rref, over
    the affine basis of K, of the degenerate grid followed by the
    coordinates.  This is the greedy choice that keeps a coordinate in a
    slot exactly when it increases the rank of the grid on aff(K).
    """
    anchor, slots = free_slots(obs_a, obs_b, anchor)
    funcs = degenerate_rep(obs_a, obs_b, space, anchor).functionals()
    n = len(funcs)
    basis, q = basis_ints(space)
    # columns scaled by den and q: the same pivot columns
    vals, _ = int_values(funcs, basis, q)
    rows = [list(col) + list(x) for col, x in zip(zip(*vals), basis)]
    pivots = rref(rows, n + space.ambient_dim)
    coords = [c - n for c in pivots if c >= n][:len(slots)]
    if sum(c < n for c in pivots) + len(coords) < dimension(space) + 1:
        return None
    free = {
        slot: AffineFunctional.coordinate(space.ambient_dim, i) for slot, i in zip(slots, coords)
    }
    return construct_family(obs_a, obs_b, space, free, anchor)


@record
class PositiveFound:
    rep: WignerRep
    program: LinearProgram
    witness: Vec


@record
class NoPositiveMember:
    program: LinearProgram
    certificate: Infeasible


def positive_member(
    obs_a: Observable, obs_b: Observable, space: StateSpace
) -> Union[PositiveFound, NoPositiveMember]:
    """A positive representation, or the certificate that none exists.

    A positive representation is a grid of functionals with the two
    marginals that is nonnegative at every vertex: a joint observable.
    So the compatibility LP of ``are_compatible`` decides it, and its
    witness grid is the member; the LP's equalities are the marginal
    identities, so the member always satisfies them.
    """
    if not isinstance(space, Polytope):
        raise PreconditionError("positive-member search needs a polytope")
    compat = are_compatible(obs_a, obs_b, space)
    if isinstance(compat, Incompatible):
        return NoPositiveMember(compat.program, compat.certificate)
    rep = WignerRep(space, obs_a, obs_b, compat.joint)
    return PositiveFound(rep, compat.program, compat.witness)


def _push_forward(rep: WignerRep, image: Callable[[Vec], Vec]) -> Optional[AffineMap]:
    """The grid map L with L(W(p)) = image(p) at the affine basis of K,
    extended off aff W(K) by ``affine_map_with_orthogonal_extension``, or
    ``None`` if the images break an affine dependency of the W(p).  For
    an affine ``image`` the basis decides: every point of aff(K) is an
    affine combination of it."""
    basis = affine_basis(rep.state_space)
    return affine_map_with_orthogonal_extension(
        [evaluate(rep, p).flatten() for p in basis], [image(p) for p in basis])


def isomorphism(rep1: WignerRep, rep2: WignerRep) -> AffineMap:
    """Affine bijection between the image hulls with L(W1(x)) = W2(x).

    Off the hull of W1(K) the map acts as the identity on the orthogonal
    complement when both grids have the same size, and as zero
    otherwise; either extension keeps total mass 1 (``_push_forward``).
    """
    if rep1.state_space != rep2.state_space:
        raise PreconditionError("representations live on different state spaces")
    if not is_faithful(rep1) or not is_faithful(rep2):
        raise PreconditionError("isomorphism needs faithful representations")
    lam = _push_forward(rep1, lambda p: evaluate(rep2, p).flatten())
    if lam is None:  # pragma: no cover - faithful images are independent
        raise ArithmeticError("interpolation failed on a faithful image")
    return lam
