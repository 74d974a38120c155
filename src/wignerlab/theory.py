"""Observables, effect validation, compatibility and channel solving.

An observable is a finite outcome list with one affine effect per
outcome; validity on a state space means every effect stays in [0, 1]
and the effects sum to the constant-one functional coefficient-wise.
Compatibility of two observables is an exact LP feasibility question,
on the program of ``programs.compatibility``, and so is channel
existence (``programs.channel_program``) when the channel's equations
leave the map free.  Otherwise one integer elimination of the images of
the source's affine basis decides: they fix a map into the target, a
map that leaves it, or none, and the last two get the Farkas
certificate of the channel LP from the row operations of one
``_kernels.rref_ops``, with no LP.  A map is read off its basis images
by ``geometry.interpolant``.  The compatibility simplex runs on the
free block (``programs.free_block_compatibility``: W = X + D, no
equality row), and its witness or Farkas certificate is lifted back to
the claim's program in closed form.  ``are_compatible`` and ``find_channel`` are
the only callers of ``lp_feasible`` in the engine; a positive Wigner
representation is a joint observable, so ``wigner.positive_member``
reads the compatibility LP.  Surjectivity is decided by the effects'
values at the vertices, and its convex-weights LP
(``programs.surjectivity``) gets a witness or certificate in closed
form.  Every LP answer built without the simplex passes the same guard
as ``lp_feasible``'s (``exact.checked``).  Joint informational
completeness and complementarity reduce to exact rank
and face computations.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence, Union

from ._kernels import bareiss_rank, integer_rows, rref, rref_ops
from ._record import record
from . import programs
from .errors import (
    ContainmentError, DomainError, PairError, PreconditionError, UnsupportedGeometryError,
)
from .exact import (
    QQ,
    Feasible,
    FeasibilityResult,
    Infeasible,
    LinearProgram,
    Vec,
    checked,
    lp_feasible,
    unit,
    vec,
    vec_dot,
    zeros,
)
from .geometry import (
    AffineFunctional,
    AffineMap,
    Ball,
    ExtremalValue,
    Polytope,
    StateSpace,
    _polytope_extrema,
    affine_basis,
    basis_interpolation,
    basis_ints,
    contains,
    dimension,
    extremal_range,
    hull_coords,
    int_values,
    interpolant,
    map_into,
    signed_sums,
    vertex_ints,
)


@record
class Observable:
    """Finite outcome set with one affine effect per outcome."""

    name: str
    outcomes: tuple
    effects: tuple[AffineFunctional, ...]

    def __post_init__(self):
        object.__setattr__(self, "outcomes", tuple(self.outcomes))
        object.__setattr__(self, "effects", tuple(self.effects))
        if not self.outcomes:
            raise ValueError("an observable needs at least one outcome")
        if len(self.outcomes) != len(self.effects):
            raise ValueError("one effect per outcome required")
        if len({e.dim for e in self.effects}) > 1:
            raise ValueError("effects live on different ambient spaces")

    @property
    def n_outcomes(self) -> int:
        return len(self.outcomes)

    def effect(self, outcome) -> AffineFunctional:
        return self.effects[self.outcomes.index(outcome)]


@record
class Distribution:
    """Probability vector over an outcome list."""

    values: Vec

    def __post_init__(self):
        object.__setattr__(self, "values", vec(self.values))
        if any(v < 0 for v in self.values):
            raise ValueError("negative probability")
        if sum(self.values) != 1:
            raise ValueError("probabilities must sum to one")


@record
class Violation:
    """One broken observable invariant, with an exact witness."""

    observable: str
    kind: str
    message: str
    witness: Optional[Vec] = None
    value: object = None


@record
class Theory:
    """A state space with named observables; two are the designated pair."""

    state_space: StateSpace
    observables: tuple[Observable, ...]
    pair: Optional[tuple[str, str]] = None

    def __post_init__(self):
        object.__setattr__(self, "observables", tuple(self.observables))
        names = [o.name for o in self.observables]
        if len(set(names)) != len(names):
            raise ValueError("duplicate observable names")
        if self.pair is None and len(self.observables) >= 2:
            object.__setattr__(self, "pair", (names[0], names[1]))
        elif self.pair is not None and (len(self.pair) != 2 or not set(self.pair) <= set(names)):
            raise PairError(f"pair {list(self.pair)} does not name two of the observables {names}")

    def observable(self, name: str) -> Observable:
        for obs in self.observables:
            if obs.name == name:
                return obs
        raise KeyError(name)

    def _paired(self, i: int) -> Observable:
        if self.pair is None:
            raise PairError(f"pair needs two observables, the theory has {len(self.observables)}")
        return self.observable(self.pair[i])

    @property
    def obs_a(self) -> Observable:
        return self._paired(0)

    @property
    def obs_b(self) -> Observable:
        return self._paired(1)


def validate_observable(obs: Observable, space: StateSpace) -> list[Violation]:
    """Effect range and normalization checks, with exact witnesses."""
    out = []
    for outcome, f in zip(obs.outcomes, obs.effects):
        if f.dim != space.ambient_dim:
            out.append(
                Violation(obs.name, "dimension", f"effect for outcome {outcome!r} has"
                          f" dimension {f.dim}, space has {space.ambient_dim}")
            )
            continue
        lo, hi = extremal_range(space, f)
        lo_v = hi_v = None
        if isinstance(space, Polytope) and (lo < 0 or hi > 1):
            _, lo_v, _, hi_v = _polytope_extrema(space, f)
        if lo < 0:
            out.append(
                Violation(obs.name, "range", f"effect for outcome {outcome!r} goes"
                          f" below 0 (min {lo})", lo_v, lo)
            )
        if hi > 1:
            out.append(
                Violation(obs.name, "range", f"effect for outcome {outcome!r} goes"
                          f" above 1 (max {hi})", hi_v, hi)
            )
    total = sum(obs.effects[1:], obs.effects[0])
    one = AffineFunctional.one(total.dim)
    if total != one:
        out.append(
            Violation(obs.name, "normalization",
                      "effects do not sum to the unit effect",
                      value=total)
        )
    return out


def validate(theory: Theory) -> list[Violation]:
    """All violations across the theory's observables (empty means ok)."""
    out = []
    for obs in theory.observables:
        out.extend(validate_observable(obs, theory.state_space))
    return out


def measure(obs: Observable, x: Sequence, space: StateSpace) -> Distribution:
    """Outcome distribution of ``obs`` at the state ``x``."""
    x = vec(x)
    if not contains(space, x):
        raise DomainError(f"point {tuple(map(str, x))} is not a state")
    return Distribution(tuple(f(x) for f in obs.effects))


@record
class Compatible:
    """A joint observable on the product outcome set, plus the LP data."""

    joint: tuple[tuple[AffineFunctional, ...], ...]
    program: LinearProgram
    witness: Vec


@record
class Incompatible:
    program: LinearProgram
    certificate: Infeasible


def effect_sums_certificate(obs_a: Observable, obs_b: Observable) -> Optional[Infeasible]:
    """The Farkas certificate of ``programs.marginal_program`` when the
    effect sums differ, else ``None``.

    Both marginals sum to the grid's total, so if S_A = sum_a A_a and
    S_B = sum_b B_b differ at a first coefficient k, +1 on the row and -1
    on the column marginals at k (negated if needed) combine to 0 = S_A[k]
    - S_B[k], a certificate with gap |S_A[k] - S_B[k]|.
    """
    n_a, n_b = obs_a.n_outcomes, obs_b.n_outcomes
    sum_a, sum_b = (sum(o.effects[1:], o.effects[0]).coefficients() for o in (obs_a, obs_b))
    if sum_a == sum_b:
        return None
    width = len(sum_a)
    k = next(k for k, (x, y) in enumerate(zip(sum_a, sum_b)) if x != y)
    sign = 1 if sum_a[k] > sum_b[k] else -1
    mults = [QQ(0)] * (n_a + n_b) * width  # row i at coefficient k is i * width + k
    for i in range(n_a + n_b):
        mults[i * width + k] = QQ(sign if i < n_a else -sign)
    return Infeasible(tuple(mults), (), abs(sum_a[k] - sum_b[k]))


def free_block_grid(space: StateSpace, terms, values, entries) -> list[AffineFunctional]:
    """The flat grid of the signed terms ``entries`` of each cell plus D,
    for the free slots' values ``values[s * w:(s + 1) * w]``: f_s's
    coefficients on ``geometry.hull_coords`` and its constant, as in
    ``programs.free_block_compatibility``.  Each f_s enters its cells with
    the signs of ``programs.slot_terms``, and ``signed_sums`` adds every
    cell's terms once."""
    coords = hull_coords(space)
    w = len(coords) + 1
    slots = []
    for s in range(0, len(values), w):
        linear = [QQ(0)] * space.ambient_dim
        for k, c in zip(coords, values[s:s + w]):
            linear[k] = c
        slots.append(AffineFunctional(tuple(linear), values[s + w - 1]))
    for entry, cell in zip(entries, terms):
        entry += [(sign, slots[s]) for s, sign in cell]
    return signed_sums(entries, space.ambient_dim)


def _lifted_certificate(obs_a, obs_b, space: Polytope, y: Vec) -> Infeasible:
    """The Farkas certificate of ``programs.compatibility`` whose
    inequality multipliers are ``y``, those of the free block's program
    (Farkas' lemma: y >= 0 combines its rows to 0 >= gap > 0).

    Write the claim's program as E x = e, G x >= 0, and x0 for the
    coefficients of X (``programs.cross_terms``).  Row (v, a, b) of the
    free block is row (v, a, b) of G at x = x0 + D(t), with slot
    functionals f_s of coefficients t_s on ``hull_coords`` and 0 on the
    other coordinates.  Let u = y G, u(a,b,k) = sum_v y (v, 1)[k].  Any
    affine g equals on aff(K) a g' of that form, so u against the
    zero-marginal grid of g in slot s is the free block's combination
    against g''s coefficients in slot s, which is 0.  Those grids span the
    kernel of E, so u(a,b) - u(a,0) - u(0,b) + u(0,0) = 0, and the
    marginal multipliers z_row(a,k) = -u(a,0,k), z_col(b,k) = u(0,0,k) -
    u(0,b,k) give z E = -u.  Their gap z . e = z E x0 = -y G x0 is the
    free block's gap.
    """
    n_a, n_b = obs_a.n_outcomes, obs_b.n_outcomes
    cells = n_a * n_b
    xs, q = vertex_ints(space)
    (yq,), yden = integer_rows([y])
    u = [[0] * (len(xs[0]) + 1) for _ in range(cells)]
    for j, x in enumerate(xs):
        point = (*x, q)
        for cell in range(cells):
            m = yq[j * cells + cell]
            if m:
                u[cell] = [a + m * p for a, p in zip(u[cell], point)]
    z = [[-x for x in u[a * n_b]] for a in range(n_a)]
    z += [[x - y for x, y in zip(u[0], u[b])] for b in range(n_b)]
    eq = tuple(QQ(x, yden * q) for row in z for x in row)
    rhs = [c for f in obs_a.effects + obs_b.effects for c in f.coefficients()]
    return Infeasible(eq, y, vec_dot(eq, rhs))


def are_compatible(
    obs_a: Observable, obs_b: Observable, space: StateSpace
) -> Union[Compatible, Incompatible]:
    """Joint-measurability as exact LP feasibility.

    The claim's program is ``programs.compatibility``: the affine
    functionals of a candidate joint observable on the product outcome
    set, the two marginal identities coefficient-wise and nonnegativity
    at every vertex.  The simplex runs on the free block instead
    (``programs.free_block_compatibility``): W = X + D, the free slots'
    functionals on aff(K) as unknowns, one row per vertex and cell and
    no equality.  Its answer is lifted back: a witness becomes the grid's
    coefficients (``free_block_grid``), and a Farkas vector keeps its
    multipliers on the same rows, with marginal multipliers in closed
    form (``_lifted_certificate``).  Effect sums that differ get the
    closed-form certificate of ``effect_sums_certificate`` on the
    marginal rows.  Every answer passes ``exact.checked`` on the claim's
    program.
    """
    if not isinstance(space, Polytope):
        raise UnsupportedGeometryError(
            "compatibility LP needs a polytope state space"
        )
    lp = programs.compatibility(obs_a, obs_b, space)
    cert = effect_sums_certificate(obs_a, obs_b)
    if cert is not None:
        n_ineq = len(space.vertices) * obs_a.n_outcomes * obs_b.n_outcomes
        return Incompatible(lp, checked(lp, Infeasible(cert.eq_multipliers, zeros(n_ineq),
                                                       cert.gap)))
    result = lp_feasible(programs.free_block_compatibility(obs_a, obs_b, space))
    if isinstance(result, Infeasible):
        return Incompatible(lp, checked(lp, _lifted_certificate(
            obs_a, obs_b, space, result.ineq_multipliers)))
    flat = free_block_grid(space, programs.slot_terms(obs_a, obs_b), result.witness,
                           programs.cross_terms(obs_a, obs_b))
    witness = tuple(c for f in flat for c in f.coefficients())
    n_b = obs_b.n_outcomes
    joint = tuple(tuple(flat[a * n_b:(a + 1) * n_b]) for a in range(obs_a.n_outcomes))
    return Compatible(joint, lp, checked(lp, Feasible(witness)).witness)


def effect_span_rank(obs_a: Observable, obs_b: Observable, space: StateSpace) -> int:
    """Rank of all effects of both observables restricted to aff(K): of
    their ``int_values`` rows at the affine basis of K."""
    return bareiss_rank(int_values(obs_a.effects + obs_b.effects, *basis_ints(space))[0])


def jointly_info_complete(
    obs_a: Observable, obs_b: Observable, space: StateSpace
) -> bool:
    """Do the two outcome statistics determine the state?"""
    return effect_span_rank(obs_a, obs_b, space) == dimension(space) + 1


def are_complementary(
    obs_a: Observable, obs_b: Observable, space: StateSpace
) -> bool:
    """Certain outcome of one observable forces the uniform distribution
    of the other, in both directions.

    For polytopes the set where an effect equals 1 is the face spanned
    by the vertices attaining 1, and an affine map is constant on a face
    iff constant on its vertices.  For balls a nonconstant effect
    attains 1 in at most one (exposed) point, which is checked through
    exact radical arithmetic.
    """
    return _half_complementary(obs_a, obs_b, space) and _half_complementary(
        obs_b, obs_a, space
    )


def _half_complementary(
    first: Observable, second: Observable, space: StateSpace
) -> bool:
    if isinstance(space, Polytope):
        # over ints: f(v) = 1 is f = den, g(v) = 1/n is n * g = den
        rows, den = int_values(first.effects + second.effects, *vertex_ints(space))
        n = second.n_outcomes
        face = [j for f in rows[:len(first.effects)] for j, x in enumerate(f) if x == den]
        return all(n * g[j] == den for g in rows[len(first.effects):] for j in face)
    tau = QQ(1, second.n_outcomes)
    for f in first.effects:
        if f.is_constant():
            if f.constant == 1:
                raise UnsupportedGeometryError(
                    "unsupported degenerate face: a constant-one effect makes"
                    " the whole ball extremal"
                )
            continue
        _, hi = extremal_range(space, f)
        if hi.compare(1) != 0:
            continue
        # unique maximizer x* = center + radius * l / |l|
        s = vec_dot(f.linear, f.linear)
        for g in second.effects:
            cross = vec_dot(g.linear, f.linear)
            val = ExtremalValue(g(space.center), space.radius * cross / s, s)
            if val.compare(tau) != 0:
                return False
    return True


def surjectivity_details(obs: Observable, space: StateSpace) -> list[tuple]:
    """Per outcome, whether some state is mapped onto its simplex vertex.

    Polytopes return (outcome, program, feasibility result) rows where
    the program searches convex vertex weights reaching effect value 1;
    ``_reach_one`` answers it from the vertex values, with no simplex.
    Balls return (outcome, None, bool) decided by the exact extremal
    maximum.
    """
    rows = []
    if isinstance(space, Ball):
        for outcome, f in zip(obs.outcomes, obs.effects):
            _, hi = extremal_range(space, f)
            rows.append((outcome, None, hi.compare(1) == 0))
        return rows
    for outcome, f in zip(obs.outcomes, obs.effects):
        lp = programs.surjectivity(f, space)
        values, _ = lp.equalities[0]
        rows.append((outcome, lp, checked(lp, _reach_one(values))))
    return rows


def _reach_one(a: Vec) -> FeasibilityResult:
    """Convex weights ``w`` with ``a . w = 1``, or the Farkas certificate
    that there are none, for the vertex values ``a``.

    A vertex with value 1 is the witness.  If every value is below 1,
    the equalities with multipliers (1, -max) and ``w_i >= 0`` with
    ``max - a_i`` combine to 0 = 1 - max > 0; if every value is above 1,
    (-1, min) and ``a_i - min`` give min - 1.  Otherwise the first
    minimum and maximum straddle 1 and their combination reaches it.
    """
    n = len(a)
    if 1 in a:
        return Feasible(unit(n, a.index(1)))
    lo, hi = min(a), max(a)
    if hi < 1:
        return Infeasible((QQ(1), -hi), tuple(hi - x for x in a), 1 - hi)
    if lo > 1:
        return Infeasible((QQ(-1), lo), tuple(x - lo for x in a), lo - 1)
    w = [QQ(0)] * n
    w[a.index(lo)] = (hi - 1) / (hi - lo)
    w[a.index(hi)] = (1 - lo) / (hi - lo)
    return Feasible(tuple(w))


def is_surjective(obs: Observable, space: StateSpace) -> bool:
    """Does the measurement map reach every outcome-simplex vertex?

    Convexity of the image makes hitting each vertex of the simplex
    necessary and sufficient for surjectivity.  On a polytope an effect
    reaches 1 iff its vertex values straddle it: ``min <= 1 <= max``.
    """
    if isinstance(space, Polytope):
        rows, den = int_values(obs.effects, *vertex_ints(space))
        return all(min(row) <= den <= max(row) for row in rows)
    return all(reached for _, _, reached in surjectivity_details(obs, space))


@record
class Channel:
    """An affine map whose image containment is certified at construction."""

    map: AffineMap
    source: StateSpace
    target: StateSpace

    def __post_init__(self):
        result = map_into(self.source, self.map, self.target)
        if not result.ok:
            raise ContainmentError(
                f"map does not send the source into the target"
                f" (witness {result.witness_point})",
                result.witness_point, result.witness_image,
            )

    def __call__(self, x: Sequence) -> Vec:
        return self.map(x)


@record
class ChannelInfeasible:
    """No affine map satisfies the requested equations inside the target.

    ``certificate`` is the Farkas proof for ``program``: from the simplex
    for a map that the equations and the target's hull leave free, else
    from their elimination.  When the equations alone fix a candidate
    map, the witness fields show a vertex that it sends outside the
    target.
    """

    program: LinearProgram
    certificate: Infeasible
    witness_point: Optional[Vec] = None
    witness_image: Optional[Vec] = None


def find_channel(
    source: StateSpace,
    target: StateSpace,
    equations: Sequence[tuple[AffineFunctional, AffineFunctional]],
    candidate: Optional[AffineMap] = None,
) -> Union[Channel, ChannelInfeasible]:
    """Affine map ``m: source -> target`` with ``g(m(x)) = h(x)`` on the
    source for every pair ``(g, h)``.

    On polytope pairs the images ``y_i`` of an affine basis ``p_i`` of
    the source decide the map, and each solves one system: ``g . y_i =
    h(p_i)`` per equation and the target's hull equalities.  One rref of
    it, with a right-hand side per basis point, fixes them, finds them
    inconsistent or leaves them free (``_fixed_map``).  A fixed map that
    sends the source into the target is the channel.  The claim's program
    is ``programs.channel_program``, in facet form over ``M`` and ``t`` of
    ``m(x) = M x + t``: the system at the basis and one inequality per
    source vertex and target facet.  A fixed map that leaves the target
    and inconsistent equations get its Farkas certificate from the row
    operations of one elimination (``_system_certificate``).  Only free
    maps run the simplex, and a feasible LP's channel is rebuilt from the
    basis images.  Ball backends need a candidate map, verified exactly.
    """
    if candidate is not None or not (
        isinstance(source, Polytope) and isinstance(target, Polytope)
    ):
        if candidate is None:
            raise UnsupportedGeometryError(
                "channel solving needs polytopes; supply a candidate map"
                " for ball backends"
            )
        if not _solves(equations, candidate, source):
            raise PreconditionError("candidate map does not satisfy the requested equations")
        return Channel(candidate, source, target)
    basis = affine_basis(source)
    d1, d2 = source.ambient_dim, target.ambient_dim
    ints = programs.channel_system(source, target, equations)
    fixed, column = _fixed_map(source, ints, d2)
    leaves = None
    if fixed is not None:
        try:
            return Channel(fixed, source, target)
        except ContainmentError as exc:
            leaves = exc  # the fixed map leaves the target: certified below
    lp = programs.channel_program(source, target, ints)
    if fixed is None and column is None:
        result = lp_feasible(lp)
    else:
        result = checked(lp, _system_certificate(source, target, ints, column, leaves))
    if isinstance(result, Infeasible):
        wp, wi = _unconstrained_witness(source, target, ints[:len(equations)])
        return ChannelInfeasible(lp, result, wp, wi)
    w = result.witness
    images, den = integer_rows([
        [vec_dot(w[k * d1:(k + 1) * d1], p, w[d2 * d1 + k]) for k in range(d2)] for p in basis
    ])
    return Channel(interpolant(basis_interpolation(source), list(zip(*images)), [den] * d2),
                   source, target)


def _fixed_map(source: StateSpace, ints, d2) -> tuple[Optional[AffineMap], Optional[int]]:
    """``(map, column)`` from one ``rref`` of the int rows ``([c | rhs],
    s)``, for the images ``y_i`` in Q^d2 of the affine basis of ``source``
    (a polytope's or a ball's) with ``c . y_i = rhs[i]``.  ``map`` is the
    ``interpolant`` of the y_i if the rows fix them (the c's have rank d2
    and every rhs is consistent), else None; ``column`` is the first basis
    point whose rhs the rows contradict, or None."""
    aug = [list(row) for row, _ in ints]
    pivots = rref(aug, d2)
    # rows past the pivots are zero on the c's
    column = next((i - d2 for i, col in enumerate(zip(*aug[len(pivots):])) if any(col)), None)
    if column is not None or len(pivots) < d2:
        return None, column
    # pivot row k is aug[k][k] times (e_k | the k-th coordinates of the y_i)
    return interpolant(basis_interpolation(source), [row[d2:] for row in aug[:d2]],
                       [row[k] for k, row in enumerate(aug[:d2])]), None


def _system_certificate(source, target, ints, column, leaves) -> Infeasible:
    """The Farkas certificate of ``programs.channel_program`` for a system
    that its elimination decides, from one ``rref_ops`` of its int rows
    ``[c_j | R_j]`` over ``s_j`` (``programs.channel_system``), whose row
    (j, i) in the program is ``c_j . y_i = R_ji`` over ``s_j``.

    Inconsistent at basis point ``column``: a reduced row that is zero on
    the c's and ``g != 0`` there has row operations y with ``sum_j y_j c_j
    = 0``, so ``sign(g) y_j s_j`` on the rows (j, column) and 0 elsewhere
    combine to 0 = |g| (the Fredholm alternative), written over the gcd of
    these ints.

    A fixed map that ``leaves`` the target, sending the source vertex v to
    ``img`` (the leaving certificate): take the first facet ``(a, b)``
    that ``img`` violates, the barycentric coordinates ``lam`` of v over
    the basis, and ``mu`` with ``sum_j mu_j c_j / s_j = a`` (lifted to the
    target's coordinates).  Pivot row k is ``den_k e_k`` on the c's, so
    ``mu_j = s_j sum_k a_k ops[k][j] / den_k``, an a-combination of the
    pivot rows.  Row ``(v, a)`` is ``sum_ij mu_j lam_i`` times the rows (j,
    i), so 1 on it and ``-mu_j lam_i`` on those leave ``b/scale - a .
    img[coords] > 0``.
    """
    d2, hrep = target.ambient_dim, target._facets
    rows = [list(row) for row, _ in ints]
    pivots, ops = rref_ops(rows, d2)
    nb = len(rows[0]) - d2
    ineq = [QQ(0)] * (len(source.vertices) * len(hrep.facets))
    if leaves is None:
        g, y = next((row[d2 + column], y) for row, y in zip(rows[len(pivots):], ops[len(pivots):])
                    if row[d2 + column])
        eq = [QQ(0)] * (len(ints) * nb)
        weights = [yj * s for yj, (_, s) in zip(y, ints)]
        h = math.gcd(g, *weights) * (1 if g > 0 else -1)  # a positive factor leaves it valid
        for j, w in enumerate(weights):
            eq[j * nb + column] = QQ(w // h)
        return Infeasible(tuple(eq), tuple(ineq), QQ(g // h))
    v, img = leaves.witness_point, leaves.witness_image
    xs = [img[k] for k in hrep.coords]
    at, (a, b) = next(
        (at, (a, b)) for at, (a, b) in enumerate(hrep.facets)
        if hrep.scale * vec_dot(a, xs) < b
    )
    identity = [[int(i == j) for j in range(nb)] for i in range(nb)]
    lam = interpolant(basis_interpolation(source), identity, [1] * nb)(v)
    mu = [s * sum(QQ(ak * ops[k][j], rows[k][k]) for k, ak in zip(hrep.coords, a))
          for j, (_, s) in enumerate(ints)]
    ineq[source.vertices.index(v) * len(hrep.facets) + at] = QQ(1)
    return Infeasible(
        tuple(-m * l for m in mu for l in lam), tuple(ineq), QQ(b, hrep.scale) - vec_dot(a, xs)
    )


def _solves(equations, m: AffineMap, space: StateSpace) -> bool:
    """Does g(m(p)) = h(p) hold for every equation ``(g, h)`` and basis point?"""
    rows, _ = int_values([g.compose(m) - h for g, h in equations], *basis_ints(space))
    return not any(map(any, rows))


def _unconstrained_witness(source, target, ints):
    """Diagnose infeasibility: if the equations' int rows alone fix the
    map, report the first vertex whose image leaves the target."""
    m = _fixed_map(source, ints, target.ambient_dim)[0]
    if m is None:
        return None, None
    result = map_into(source, m, target)
    return result.witness_point, result.witness_image
