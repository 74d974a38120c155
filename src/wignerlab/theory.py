"""Observables, effect validation, compatibility and channel solving.

An observable is a finite outcome list with one affine effect per
outcome; validity on a state space means every effect stays in [0, 1]
and the effects sum to the constant-one functional coefficient-wise.
Compatibility of two observables, surjectivity and channel existence
are all exact LP feasibility questions; joint informational
completeness and complementarity reduce to exact rank and face
computations.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence, Union

from .errors import DomainError, PreconditionError, UnsupportedGeometryError
from .exact import (
    QQ,
    Infeasible,
    LinearProgram,
    Vec,
    lp_feasible,
    rank,
    solve_affine,
    unit,
    vec,
    vec_dot,
)
from .geometry import (
    AffineFunctional,
    AffineMap,
    Ball,
    ExtremalValue,
    Polytope,
    StateSpace,
    affine_basis,
    affine_map_from_points,
    contains,
    dimension,
    extremal_range,
    map_into,
)


@dataclass(frozen=True)
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


@dataclass(frozen=True)
class Distribution:
    """Probability vector over an outcome list."""

    values: Vec

    def __post_init__(self):
        object.__setattr__(self, "values", vec(self.values))
        if any(v < 0 for v in self.values):
            raise ValueError("negative probability")
        if sum(self.values) != 1:
            raise ValueError("probabilities must sum to one")

    @classmethod
    def uniform(cls, n: int) -> "Distribution":
        return cls((QQ(1, n),) * n)


@dataclass(frozen=True)
class Violation:
    """One broken observable invariant, with an exact witness."""

    observable: str
    kind: str
    message: str
    witness: Optional[Vec] = None
    value: object = None


@dataclass(frozen=True)
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

    def observable(self, name: str) -> Observable:
        for obs in self.observables:
            if obs.name == name:
                return obs
        raise KeyError(name)

    @property
    def obs_a(self) -> Observable:
        return self.observable(self.pair[0])

    @property
    def obs_b(self) -> Observable:
        return self.observable(self.pair[1])


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
        if lo < 0:
            out.append(
                Violation(obs.name, "range", f"effect for outcome {outcome!r} goes"
                          f" below 0 (min {lo})", _argmin(space, f, True), lo)
            )
        if hi > 1:
            out.append(
                Violation(obs.name, "range", f"effect for outcome {outcome!r} goes"
                          f" above 1 (max {hi})", _argmin(space, f, False), hi)
            )
    total = obs.effects[0]
    for f in obs.effects[1:]:
        total = total + f
    one = AffineFunctional.one(total.dim)
    if total != one:
        out.append(
            Violation(obs.name, "normalization",
                      "effects do not sum to the unit effect",
                      value=total)
        )
    return out


def _argmin(space: StateSpace, f: AffineFunctional, minimum: bool) -> Optional[Vec]:
    if not isinstance(space, Polytope):
        return None
    best = None
    arg = None
    for v in space.vertices:
        val = f(v)
        if best is None or (val < best if minimum else val > best):
            best, arg = val, v
    return arg


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


@dataclass(frozen=True)
class Compatible:
    """A joint observable on the product outcome set, plus the LP data."""

    joint: tuple[tuple[AffineFunctional, ...], ...]
    program: LinearProgram
    witness: Vec


@dataclass(frozen=True)
class Incompatible:
    program: LinearProgram
    certificate: Infeasible


def _grid_unknown_layout(n_a: int, n_b: int, dim: int):
    width = dim + 1

    def idx(a: int, b: int, k: int) -> int:
        return (a * n_b + b) * width + k

    return n_a * n_b * width, idx


def _marginal_equalities(
    obs_a: Observable, obs_b: Observable, n_vars: int, idx
) -> list[tuple[Vec, QQ]]:
    """Coefficient-wise row-sum and column-sum identities."""
    n_a, n_b = obs_a.n_outcomes, obs_b.n_outcomes
    dim = obs_a.effects[0].dim
    eqs = []
    for a in range(n_a):
        coeffs = obs_a.effects[a].coefficients()
        for k in range(dim + 1):
            row = [QQ(0)] * n_vars
            for b in range(n_b):
                row[idx(a, b, k)] = QQ(1)
            eqs.append((tuple(row), coeffs[k]))
    for b in range(n_b):
        coeffs = obs_b.effects[b].coefficients()
        for k in range(dim + 1):
            row = [QQ(0)] * n_vars
            for a in range(n_a):
                row[idx(a, b, k)] = QQ(1)
            eqs.append((tuple(row), coeffs[k]))
    return eqs


def _functional_from_block(witness: Vec, idx, a: int, b: int, dim: int) -> AffineFunctional:
    return AffineFunctional(
        tuple(witness[idx(a, b, k)] for k in range(dim)), witness[idx(a, b, dim)]
    )


def are_compatible(
    obs_a: Observable, obs_b: Observable, space: StateSpace
) -> Union[Compatible, Incompatible]:
    """Joint-measurability as exact LP feasibility.

    Unknowns are the affine functionals of a candidate joint observable
    on the product outcome set; the LP imposes the two marginal
    identities coefficient-wise and nonnegativity at every vertex.
    """
    if not isinstance(space, Polytope):
        raise UnsupportedGeometryError(
            "compatibility LP needs a polytope state space"
        )
    n_a, n_b = obs_a.n_outcomes, obs_b.n_outcomes
    dim = space.ambient_dim
    n_vars, idx = _grid_unknown_layout(n_a, n_b, dim)
    eqs = _marginal_equalities(obs_a, obs_b, n_vars, idx)
    ineqs = []
    for v in space.vertices:
        point = v + (QQ(1),)
        for a in range(n_a):
            for b in range(n_b):
                row = [QQ(0)] * n_vars
                for k in range(dim + 1):
                    row[idx(a, b, k)] = point[k]
                ineqs.append((tuple(row), QQ(0)))
    lp = LinearProgram(n_vars, tuple(eqs), tuple(ineqs))
    result = lp_feasible(lp)
    if isinstance(result, Infeasible):
        return Incompatible(lp, result)
    joint = tuple(
        tuple(_functional_from_block(result.witness, idx, a, b, dim) for b in range(n_b))
        for a in range(n_a)
    )
    return Compatible(joint, lp, result.witness)


def effect_span_rank(obs_a: Observable, obs_b: Observable, space: StateSpace) -> int:
    """Rank of all effects of both observables restricted to aff(K)."""
    basis = affine_basis(space)
    rows = [
        [f(p) for p in basis] for f in obs_a.effects + obs_b.effects
    ]
    return rank(rows)


def jointly_info_complete(
    obs_a: Observable, obs_b: Observable, space: StateSpace
) -> bool:
    """Do the two outcome statistics determine the state?"""
    return effect_span_rank(obs_a, obs_b, space) == dimension(space) + 1


def _polytope_face_vertices(space: Polytope, f: AffineFunctional) -> list[Vec]:
    return [v for v in space.vertices if f(v) == 1]


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
    tau = QQ(1, second.n_outcomes)
    if isinstance(space, Polytope):
        for f in first.effects:
            for v in _polytope_face_vertices(space, f):
                if any(g(v) != tau for g in second.effects):
                    return False
        return True
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


def is_surjective(obs: Observable, space: StateSpace) -> bool:
    """Does the measurement map reach every outcome-simplex vertex?

    Convexity of the image makes hitting each vertex of the simplex
    necessary and sufficient for surjectivity.
    """
    for _, _, result in surjectivity_details(obs, space):
        if isinstance(result, Infeasible) or result is False:
            return False
    return True


@dataclass(frozen=True)
class Channel:
    """An affine map whose image containment is certified at construction."""

    map: AffineMap
    source: StateSpace
    target: StateSpace

    def __post_init__(self):
        result = map_into(self.source, self.map, self.target)
        if not result.ok:
            raise PreconditionError(
                f"map does not send the source into the target"
                f" (witness {result.witness_point})"
            )
        if not result.exact:
            raise PreconditionError(
                "containment of the image was decided only by the numeric"
                " fallback, not exactly"
            )

    def __call__(self, x: Sequence) -> Vec:
        return self.map(x)


@dataclass(frozen=True)
class ChannelInfeasible:
    """No affine map satisfies the requested equations inside the target.

    ``certificate`` is the Farkas proof for ``program``.  When the
    equations alone determine a unique candidate map, the witness fields
    show a vertex that the candidate sends outside the target.
    """

    program: LinearProgram
    certificate: Infeasible
    witness_point: Optional[Vec] = None
    witness_image: Optional[Vec] = None


def _barycentric(basis: Sequence[Vec], point: Vec) -> Vec:
    """Affine combination of basis points giving ``point`` (exact)."""
    rows = [[b[k] for b in basis] for k in range(len(point))]
    rows.append([QQ(1)] * len(basis))
    sol = solve_affine(rows, list(point) + [QQ(1)])
    if sol is None:  # pragma: no cover - basis spans by construction
        raise ArithmeticError("point outside the affine hull of the basis")
    return sol.particular


def find_channel(
    source: StateSpace,
    target: StateSpace,
    equations: Sequence[tuple[AffineFunctional, AffineFunctional]],
    candidate: Optional[AffineMap] = None,
) -> Union[Channel, ChannelInfeasible]:
    """Affine map ``m: source -> target`` with ``g(m(x)) = h(x)`` on the
    source for every pair ``(g, h)``.

    Polytope pairs are solved as one LP whose unknowns are the images of
    all source vertices (tied together by one equality row per affine
    dependency) plus convex-combination weights placing each image
    inside the target.  For ball backends a candidate map must be
    supplied and is verified exactly.
    """
    if candidate is not None or not (
        isinstance(source, Polytope) and isinstance(target, Polytope)
    ):
        if candidate is None:
            raise UnsupportedGeometryError(
                "channel solving needs polytopes; supply a candidate map"
                " for ball backends"
            )
        return _verify_candidate(source, target, equations, candidate)
    verts = source.vertices
    basis = affine_basis(source)
    basis_idx = [verts.index(b) for b in basis]
    d2 = target.ambient_dim
    n_src = len(verts)
    n_tgt = len(target.vertices)
    n_vars = n_src * d2 + n_src * n_tgt

    def idx_y(i: int, k: int) -> int:
        return i * d2 + k

    def idx_lam(i: int, j: int) -> int:
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
    basis_set = set(basis_idx)
    for i, v in enumerate(verts):
        if i in basis_set:
            continue
        coeffs = _barycentric(basis, v)
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
    ineqs = [
        (unit(n_vars, idx_lam(i, j)), QQ(0))
        for i in range(n_src)
        for j in range(n_tgt)
    ]
    lp = LinearProgram(n_vars, tuple(eqs), tuple(ineqs))
    result = lp_feasible(lp)
    if isinstance(result, Infeasible):
        wp, wi = _unconstrained_witness(source, target, equations)
        return ChannelInfeasible(lp, result, wp, wi)
    images = [
        tuple(result.witness[idx_y(i, k)] for k in range(d2)) for i in range(n_src)
    ]
    m = affine_map_from_points(basis, [images[i] for i in basis_idx])
    if m is None or any(m(v) != images[i] for i, v in enumerate(verts)):
        raise ArithmeticError("inconsistent channel reconstruction")  # pragma: no cover
    return Channel(m, source, target)


def _verify_candidate(source, target, equations, candidate) -> Channel:
    points = affine_basis(source)
    for g, h in equations:
        pulled = g.compose(candidate)
        if any(pulled(p) != h(p) for p in points):
            raise PreconditionError(
                "candidate map does not satisfy the requested equations"
            )
    return Channel(candidate, source, target)


def _unconstrained_witness(source, target, equations):
    """Diagnose infeasibility: if the equations alone pin down the map on
    the affine hull, report a vertex whose image leaves the target."""
    basis = affine_basis(source)
    d2 = target.ambient_dim
    n = len(basis) * d2

    def idx(i, k):
        return i * d2 + k

    rows = []
    rhs = []
    for g, h in equations:
        for i, p in enumerate(basis):
            row = [QQ(0)] * n
            for k in range(d2):
                row[idx(i, k)] = g.linear[k]
            rows.append(row)
            rhs.append(h(p) - g.constant)
    sol = solve_affine(rows, rhs) if rows else None
    if sol is None or sol.nullspace:
        return None, None
    images = [tuple(sol.particular[idx(i, k)] for k in range(d2)) for i in range(len(basis))]
    m = affine_map_from_points(basis, images)
    if m is None:
        return None, None
    if isinstance(source, Polytope):
        for v in source.vertices:
            img = m(v)
            if not contains(target, img):
                return v, img
    return None, None
