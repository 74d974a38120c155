"""Exact rational linear algebra and LP feasibility.

Every scalar in the engine is a ``fractions.Fraction`` (the LP tableau
holds them as Python ints over common denominators); nothing in a
decision path ever touches floating point.  The module provides dense
rational matrices, exact rank (fraction-free over integers), affine
system solving with nullspace bases, and LP feasibility with verified
witnesses or Farkas infeasibility certificates.

Feasibility is decided by a phase-1 simplex with Bland's anti-cycling
rule.  A row ``c * x_j >= 0`` (one nonzero ``c > 0``, rhs 0) is taken as
the sign bound ``x_j >= 0``; every other variable is split into positive
parts, the remaining inequality rows get slacks, and every remaining row
gets an artificial variable.  The phase-1 optimum is zero exactly when
the program is feasible.

The tableau is built from Python ints: each row is scaled by the lcm of
its own denominators while its artificial keeps coefficient 1 (the
artificial is rescaled), so the starting basis is the identity, and the
objective is the unscaled phase-1 reduced-cost row times its own lcm
``L``.  These scalings are positive and per row or per column, so
Bland's choices, and hence the pivots, witnesses and multipliers, are
those of the rational tableau; ``_kernels.simplex_phase1`` then pivots
with exact integer division over a common denominator ``D``.

On infeasibility the dual values read off the final tableau are the
Farkas multipliers: nonnegative on inequality rows, free on equality
rows, combining the constraints into the contradiction 0 >= gap with
gap > 0.  A bound row has no artificial to read; its multiplier is
whatever cancels the other rows' combination on ``x_j`` (0 for a
duplicate bound), which is nonnegative because ``x_j``'s column prices
at >= 0 at the optimum.  So every row of the program still gets a
multiplier and the certificate format, and ``verify_certificate``, are
the same with or without bounds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence, Union

from ._kernels import bareiss_rank, rref, simplex_phase1

QQ = Fraction

Vec = tuple[QQ, ...]


def qq(value) -> QQ:
    """Coerce ints, strings like ``"3/4"`` / ``"0.25"``, or Fractions."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, float):
        raise TypeError("floats are not exact; pass a Fraction, int or string")
    return Fraction(value)


def vec(values) -> Vec:
    return tuple(qq(v) for v in values)


def vec_add(u: Vec, v: Vec) -> Vec:
    return tuple(a + b for a, b in zip(u, v, strict=True))


def vec_sub(u: Vec, v: Vec) -> Vec:
    return tuple(a - b for a, b in zip(u, v, strict=True))


def vec_scale(c, u: Vec) -> Vec:
    c = qq(c)
    return tuple(c * a for a in u)


def vec_dot(u: Vec, v: Vec) -> QQ:
    return sum((a * b for a, b in zip(u, v, strict=True)), QQ(0))


def zeros(n: int) -> Vec:
    return (QQ(0),) * n


def unit(n: int, i: int) -> Vec:
    return tuple(QQ(1) if k == i else QQ(0) for k in range(n))


@dataclass(frozen=True)
class Matrix:
    """Dense rational matrix; immutable, rectangular, possibly empty."""

    entries: tuple[Vec, ...]
    cols: int

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence], cols: Optional[int] = None) -> "Matrix":
        rows = tuple(vec(r) for r in rows)
        if rows:
            width = len(rows[0])
            if any(len(r) != width for r in rows):
                raise ValueError("ragged rows")
            if cols is not None and cols != width:
                raise ValueError("explicit column count disagrees with rows")
            cols = width
        elif cols is None:
            cols = 0
        return cls(rows, cols)

    @classmethod
    def identity(cls, n: int) -> "Matrix":
        return cls.from_rows([unit(n, i) for i in range(n)], cols=n)

    @classmethod
    def zero(cls, rows: int, cols: int) -> "Matrix":
        return cls(tuple(zeros(cols) for _ in range(rows)), cols)

    @property
    def rows(self) -> int:
        return len(self.entries)

    def row(self, i: int) -> Vec:
        return self.entries[i]

    def column(self, j: int) -> Vec:
        return tuple(r[j] for r in self.entries)

    def transpose(self) -> "Matrix":
        return Matrix.from_rows(
            [[self.entries[i][j] for i in range(self.rows)] for j in range(self.cols)],
            cols=self.rows,
        )

    def matvec(self, v: Sequence) -> Vec:
        v = vec(v)
        if len(v) != self.cols:
            raise ValueError("dimension mismatch")
        return tuple(vec_dot(r, v) for r in self.entries)

    def matmul(self, other: "Matrix") -> "Matrix":
        if self.cols != other.rows:
            raise ValueError("dimension mismatch")
        cols = [other.column(j) for j in range(other.cols)]
        return Matrix.from_rows(
            [[vec_dot(r, c) for c in cols] for r in self.entries], cols=other.cols
        )

    def rank(self) -> int:
        return rank(self)


def rank(m: Union[Matrix, Sequence[Sequence]]) -> int:
    """Exact rank by fraction-free Gaussian elimination.

    Each row is scaled to integers by its denominator lcm (row scaling
    preserves rank) and eliminated with the Bareiss update.
    """
    rows = m.entries if isinstance(m, Matrix) else [vec(r) for r in m]
    int_rows = []
    for r in rows:
        scale = math.lcm(*(f.denominator for f in r)) if r else 1
        int_rows.append([int(f * scale) for f in r])
    return bareiss_rank(int_rows)


@dataclass(frozen=True)
class AffineSolution:
    """Solution set of ``A x = b``: one particular point plus ker(A)."""

    particular: Vec
    nullspace: tuple[Vec, ...]

    @property
    def unique(self) -> bool:
        return not self.nullspace


def solve_affine(a: Union[Matrix, Sequence[Sequence]], b: Sequence) -> Optional[AffineSolution]:
    """Solve ``A x = b`` exactly; ``None`` when inconsistent."""
    rows = a.entries if isinstance(a, Matrix) else tuple(vec(r) for r in a)
    rhs = vec(b)
    if len(rows) != len(rhs):
        raise ValueError("A and b have different heights")
    if rows:
        n = len(rows[0])
    else:
        n = a.cols if isinstance(a, Matrix) else 0
    aug = [list(r) + [rhs[i]] for i, r in enumerate(rows)]
    pivots = rref(aug, n)
    for row in aug[len(pivots):]:
        if row[n]:
            return None
    particular = [QQ(0)] * n
    for r, c in enumerate(pivots):
        particular[c] = aug[r][n]
    pivot_set = set(pivots)
    basis = []
    for free in range(n):
        if free in pivot_set:
            continue
        direction = [QQ(0)] * n
        direction[free] = QQ(1)
        for r, c in enumerate(pivots):
            direction[c] = -aug[r][free]
        basis.append(tuple(direction))
    return AffineSolution(tuple(particular), tuple(basis))


@dataclass(frozen=True)
class LinearProgram:
    """Feasibility program: ``row . x = rhs`` and ``row . x >= rhs`` rows."""

    n_vars: int
    equalities: tuple[tuple[Vec, QQ], ...] = ()
    inequalities: tuple[tuple[Vec, QQ], ...] = ()

    def __post_init__(self):
        object.__setattr__(
            self,
            "equalities",
            tuple((vec(r), qq(c)) for r, c in self.equalities),
        )
        object.__setattr__(
            self,
            "inequalities",
            tuple((vec(r), qq(c)) for r, c in self.inequalities),
        )
        for row, _ in self.equalities + self.inequalities:
            if len(row) != self.n_vars:
                raise ValueError("constraint row has wrong length")

    def check(self, x: Sequence) -> bool:
        """Exact satisfaction check for a candidate point."""
        x = vec(x)
        if len(x) != self.n_vars:
            return False
        return all(vec_dot(r, x) == c for r, c in self.equalities) and all(
            vec_dot(r, x) >= c for r, c in self.inequalities
        )


@dataclass(frozen=True)
class Feasible:
    """Feasibility witness; satisfies the program exactly."""

    witness: Vec


@dataclass(frozen=True)
class Infeasible:
    """Farkas certificate: the multiplier combination of the constraint
    rows is the zero functional while the combined right-hand side is
    ``gap > 0``, i.e. the contradiction 0 >= gap."""

    eq_multipliers: Vec
    ineq_multipliers: Vec
    gap: QQ


FeasibilityResult = Union[Feasible, Infeasible]


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


def lp_feasible(lp: LinearProgram) -> FeasibilityResult:
    """Exact feasibility decision with a verified witness or certificate."""
    result = _phase_one(lp)
    if isinstance(result, Feasible):
        if not lp.check(result.witness):  # pragma: no cover - internal guard
            raise ArithmeticError("simplex produced an invalid witness")
    else:
        if not verify_certificate(lp, result):  # pragma: no cover - internal guard
            raise ArithmeticError("simplex produced an invalid certificate")
    return result


def _phase_one(lp: LinearProgram) -> FeasibilityResult:
    n = lp.n_vars
    # a row c * x_j >= 0 with c > 0 is the sign bound x_j >= 0: no row,
    # slack, artificial or x- column
    bound_rows: dict[int, tuple[int, QQ]] = {}
    rows = [("eq", row, rhs) for row, rhs in lp.equalities]
    for k, (row, rhs) in enumerate(lp.inequalities):
        if not rhs:
            nonzero = [j for j, a in enumerate(row) if a]
            if len(nonzero) == 1 and row[nonzero[0]] > 0:
                bound_rows[k] = (nonzero[0], row[nonzero[0]])
                continue
        rows.append(("ineq", row, rhs))
    m = len(rows)
    if m == 0:
        return Feasible(zeros(n))
    bounded = {j for j, _ in bound_rows.values()}
    # columns: x+ | x- of unbounded variables | slacks | artificials | rhs
    minus = {j: n + i for i, j in enumerate(j for j in range(n) if j not in bounded)}
    slack_at = n + len(minus)
    art0 = slack_at + len(lp.inequalities) - len(bound_rows)
    n_cols = art0 + m
    # row k is sigma_k * scale_k times the rational row, with its
    # artificial coefficient left at 1 (the artificial is rescaled), so
    # the tableau is integral and starts from the identity basis, D = 1
    tab = []
    flips = []
    scales = []
    for k, (kind, row, rhs) in enumerate(rows):
        sigma = 1 if rhs >= 0 else -1
        scale = math.lcm(rhs.denominator, *(a.denominator for a in row))
        line = [0] * (n_cols + 1)
        for j, a in enumerate(row):
            if a:
                line[j] = sigma * a.numerator * (scale // a.denominator)
                if j in minus:
                    line[minus[j]] = -line[j]
        if kind == "ineq":
            line[slack_at] = -sigma * scale
            slack_at += 1
        line[art0 + k] = 1
        line[n_cols] = sigma * rhs.numerator * (scale // rhs.denominator)
        tab.append(line)
        flips.append(sigma)
        scales.append(scale)
    basis = [art0 + k for k in range(m)]
    # phase-1 reduced costs of the unscaled program (artificials cost 1
    # and are basic, so they price at 0): minus the column sums of the
    # rational rows, times their least common denominator L
    common = math.lcm(*scales)
    weights = [common // s for s in scales]
    obj = [0] * (n_cols + 1)
    for j in [*range(art0), n_cols]:
        obj[j] = -sum(w * r[j] for w, r in zip(weights, tab))
    g = math.gcd(common, *obj)
    obj = [c // g for c in obj]
    big_l = common // g
    simplex_phase1(tab, obj, basis)
    d = tab[0][basis[0]]
    if not obj[n_cols]:
        values = {col: QQ(tab[i][n_cols], d) for i, col in enumerate(basis)}
        witness = tuple(
            values.get(j, QQ(0)) - values.get(minus.get(j), QQ(0)) for j in range(n)
        )
        return Feasible(witness)
    # Farkas multipliers: y_k = cost(artificial_k) - reduced cost of its
    # column, undoing the artificial's rescaling and the row sign flip
    mults = [
        flips[k] * (1 - QQ(scales[k] * obj[art0 + k], big_l * d)) for k in range(m)
    ]
    # a bound row's multiplier cancels what the other rows leave on x_j;
    # it is >= 0 because x_j's column prices at >= 0 at the optimum, and a
    # duplicate bound row gets 0
    left = {
        j: sum((y * row[j] for y, (_, row, _) in zip(mults, rows) if y and row[j]), QQ(0))
        for j in bounded
    }
    kept = iter(mults[len(lp.equalities):])
    ineq_mult = []
    for k in range(len(lp.inequalities)):
        if k in bound_rows:
            j, c = bound_rows[k]
            ineq_mult.append(-left.pop(j, QQ(0)) / c)
        else:
            ineq_mult.append(next(kept))
    gap = QQ(-obj[n_cols], big_l * d)
    return Infeasible(tuple(mults[: len(lp.equalities)]), tuple(ineq_mult), gap)
