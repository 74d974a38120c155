"""Exact rational linear algebra and LP feasibility.

Every scalar in the engine is a ``fractions.Fraction`` (the LP tableau
holds them as Python ints over common denominators); nothing in a
decision path ever touches floating point.  The module provides dense
rational matrices, exact rank (fraction-free over integers), affine
system solving with nullspace bases, and LP feasibility with verified
witnesses or Farkas infeasibility certificates.  ``solve_affine`` is
public API and a test oracle; the engine never calls it.

The hot arithmetic runs on ints over one denominator (Edmonds'
fraction-free arithmetic) and builds a ``Fraction`` only for a value the
public API returns or a report writes: ``vec_dot`` sums one integer
numerator over the product of the terms' denominators, ``rank``, the
program rows and the guards scale by ``_kernels.integer_rows``, and
``geometry`` evaluates functionals at each polytope's kept int vertices.

Feasibility is decided by a phase-1 simplex with Bland's anti-cycling
rule.  A row ``c * x_j >= 0`` (one nonzero ``c > 0``, rhs 0) is taken as
the sign bound ``x_j >= 0``; every other variable is split into positive
parts and the remaining inequality rows get slacks.  Phase 1 starts from
the slack basis where it can (Chvatal, *Linear Programming*, ch. 8): a
row ``a.x >= b`` with ``b <= 0`` is stored as ``-a.x + slack = -b`` with
its slack basic, and only the other rows get artificials, which the
phase-1 objective sums.  Its optimum is zero exactly when the program is
feasible; with no artificial, ``x = 0`` is the witness.

``LinearProgram`` has one storage: each row once over the integers,
times the lcm ``s`` of its reduced denominators (so the row, its
right-hand side and ``s`` have gcd 1 and the form is unique).  It is
built from rational rows or, by the constructors of ``programs``,
straight from integer rows; the rational rows ``equalities`` and
``inequalities`` are views built on demand, which the solver and the
guards never read.  The tableau is built from these rows with each
starting basic column kept at coefficient 1 (rescaled by ``s``), so the
starting basis is the identity, and the objective is the unscaled
phase-1 reduced-cost row times its own lcm ``L``.  These scalings are
positive and per row or per column, so Bland's choices, and hence the
pivots, witnesses and multipliers, are those of the rational tableau;
``_kernels.simplex_phase1`` pivots with exact integer division over a
common denominator ``D``.

On infeasibility the dual values read off the final tableau are the
Farkas multipliers: nonnegative on inequality rows, free on equality
rows, combining the constraints into the contradiction 0 >= gap with
gap > 0.  An artificial row's is ``1 - s*obj[art]/(L*D)`` (with the
row's sign), a slack-basic row's ``s*obj[slack]/(L*D)``, >= 0 since the
slack prices at >= 0 at the optimum.  A bound row's multiplier cancels
the other rows' combination on ``x_j`` (0 for a duplicate bound); it is
nonnegative because ``x_j``'s column prices at >= 0 at the optimum.

The guards, ``LinearProgram.check`` and ``verify_certificate``, re-check
every answer of ``lp_feasible`` and every LP claim of a report;
``checked`` applies them, also to the witnesses and certificates that
callers build in closed form.  They run on the same integer rows, with
the witness or the certificate's weights over one common denominator:
integer dot products, no ``Fraction`` arithmetic per entry (Edmonds'
fraction-free arithmetic).
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from typing import Optional, Sequence, Union

from ._kernels import bareiss_rank, integer_rows, orthogonal_complement, simplex_phase1
from ._record import record

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


def vec_dot(u: Vec, v: Vec, start=0) -> QQ:
    """``start + u . v`` for ints and Fractions, summed as one integer
    numerator over the product of the terms' denominators."""
    num, den = start.numerator, start.denominator
    for a, b in zip(u, v, strict=True):
        d = a.denominator * b.denominator
        if d == den:
            num += a.numerator * b.numerator
        else:
            num = num * d + a.numerator * b.numerator * den
            den *= d
    return QQ(num, den)


def zeros(n: int) -> Vec:
    return (QQ(0),) * n


def unit(n: int, i: int) -> Vec:
    return tuple(QQ(1) if k == i else QQ(0) for k in range(n))


@record
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

    The rows are scaled to integers over one denominator (a positive
    factor preserves rank) and eliminated with the Bareiss update.
    """
    rows = m.entries if isinstance(m, Matrix) else [vec(r) for r in m]
    return bareiss_rank(integer_rows(rows)[0])


@record
class AffineSolution:
    """Solution set of ``A x = b``: one particular point plus ker(A)."""

    particular: Vec
    nullspace: tuple[Vec, ...]


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
    pivots, complement = orthogonal_complement(aug, n)
    if any(row[n] for row in aug[len(pivots):]):
        return None
    # row r of aug is aug[r][c] times the reduced row of pivot c
    particular = [QQ(0)] * n
    for r, c in enumerate(pivots):
        particular[c] = QQ(aug[r][n], aug[r][c])
    # each complement vector is a positive multiple of the direction that
    # is 1 at its free column
    frees = [j for j in range(n) if j not in pivots]
    return AffineSolution(tuple(particular), tuple(
        tuple(QQ(x, v[free]) for x in v) for v, free in zip(complement, frees)))


@record
class LinearProgram:
    """Feasibility program: ``row . x = rhs`` and ``row . x >= rhs`` rows.

    Built from rational rows (ints, Fractions or strings; no floats) or,
    by ``programs``, with ``from_scaled`` from integer rows already in
    their form, and stored only as ``_scaled``: equalities then
    inequalities as ``(s*row, s*rhs, s)``, the unique integer form of each
    row, which ``eq`` and ``hash`` compare.
    """

    n_vars: int
    _scaled: tuple[tuple[tuple[int, ...], int, int], ...]
    _n_eq: int

    def __init__(self, n_vars: int, equalities=(), inequalities=()):
        eqs = [_scaled_row(row, rhs) for row, rhs in equalities]
        ineqs = [_scaled_row(row, rhs) for row, rhs in inequalities]
        self._store(n_vars, eqs + ineqs, len(eqs))

    @classmethod
    def from_scaled(cls, n_vars: int, rows, n_eq: int) -> "LinearProgram":
        """The program of integer rows ``(s*row, s*rhs, s)``, equalities
        first, each already in its unique form: ``s > 0`` and gcd 1."""
        lp = object.__new__(cls)
        lp._store(n_vars, rows, n_eq)
        return lp

    def _store(self, n_vars, rows, n_eq):
        if any(len(row) != n_vars for row, _, _ in rows):
            raise ValueError("constraint row has wrong length")
        object.__setattr__(self, "n_vars", n_vars)
        object.__setattr__(self, "_scaled", tuple(rows))
        object.__setattr__(self, "_n_eq", n_eq)

    @property
    def equalities(self) -> tuple[tuple[Vec, QQ], ...]:
        """The equality rows as Fractions, built on each access."""
        return _rational_rows(self._scaled[:self._n_eq])

    @property
    def inequalities(self) -> tuple[tuple[Vec, QQ], ...]:
        """The inequality rows as Fractions, built on each access."""
        return _rational_rows(self._scaled[self._n_eq:])

    def __repr__(self):
        return f"LinearProgram({self.n_vars}, {self.equalities!r}, {self.inequalities!r})"

    def check(self, x: Sequence) -> bool:
        """Exact satisfaction check for a candidate point: with ``x`` over
        one denominator ``q``, ``row . x >= rhs`` iff ``(s*row) . (q*x) >= s*rhs*q``."""
        x = vec(x)
        if len(x) != self.n_vars:
            return False
        (xq,), q = integer_rows([x])
        excess = [sum(map(operator.mul, row, xq)) - rhs * q for row, rhs, _ in self._scaled]
        n_eq = self._n_eq
        return not any(excess[:n_eq]) and all(e >= 0 for e in excess[n_eq:])


def _scaled_row(row, rhs) -> tuple[tuple[int, ...], int, int]:
    """``(s*row, s*rhs, s)``, s the lcm of the reduced denominators."""
    ((*ints, r),), scale = integer_rows([[*map(qq, row), qq(rhs)]])
    return tuple(ints), r, scale


def _rational_rows(rows) -> tuple[tuple[Vec, QQ], ...]:
    return tuple((tuple(QQ(a, s) for a in row), QQ(rhs, s)) for row, rhs, s in rows)


@record
class Feasible:
    """Feasibility witness; satisfies the program exactly."""

    witness: Vec


@record
class Infeasible:
    """Farkas certificate: the multiplier combination of the constraint
    rows is the zero functional while the combined right-hand side is
    ``gap > 0``, i.e. the contradiction 0 >= gap."""

    eq_multipliers: Vec
    ineq_multipliers: Vec
    gap: QQ


FeasibilityResult = Union[Feasible, Infeasible]


def verify_certificate(lp: LinearProgram, cert: Infeasible) -> bool:
    """Re-check an infeasibility certificate by pure arithmetic.

    With the weights ``y_k / s_k`` of the integer rows over one common
    denominator ``Q``, the combination must vanish and its right-hand
    side must be ``gap * Q``.
    """
    if len(cert.eq_multipliers) != lp._n_eq:
        return False
    if len(cert.ineq_multipliers) != len(lp._scaled) - lp._n_eq:
        return False
    if any(m < 0 for m in cert.ineq_multipliers) or not cert.gap > 0:
        return False
    mults = (*cert.eq_multipliers, *cert.ineq_multipliers)
    used = [(QQ(m, s), row, rhs) for m, (row, rhs, s) in zip(mults, lp._scaled) if m]
    (weights,), q = integer_rows([[w for w, _, _ in used]])
    combo = [0] * lp.n_vars
    total = 0
    for wq, (_, row, rhs) in zip(weights, used):
        combo = [c + wq * a for c, a in zip(combo, row)]
        total += wq * rhs
    return total == cert.gap * q and not any(combo)


def checked(lp: LinearProgram, result: FeasibilityResult) -> FeasibilityResult:
    """``result`` once it passes the guard: ``lp.check`` for a witness,
    ``verify_certificate`` for a Farkas certificate.  Answers built in
    closed form, without the simplex, pass the same guard."""
    if isinstance(result, Feasible):
        if not lp.check(result.witness):  # pragma: no cover - internal guard
            raise ArithmeticError("invalid feasibility witness")
    elif not verify_certificate(lp, result):  # pragma: no cover - internal guard
        raise ArithmeticError("invalid infeasibility certificate")
    return result


def lp_feasible(lp: LinearProgram) -> FeasibilityResult:
    """Exact feasibility decision with a verified witness or certificate."""
    return checked(lp, _phase_one(lp))


def _phase_one(lp: LinearProgram) -> FeasibilityResult:
    n = lp.n_vars
    n_eq = lp._n_eq
    # a row c * x_j >= 0 with c > 0 is the sign bound x_j >= 0: no row,
    # slack, artificial or x- column
    bound_rows: dict[int, tuple[int, QQ]] = {}
    rows = []
    for k, (row, rhs, scale) in enumerate(lp._scaled):
        if k >= n_eq and not rhs:
            nonzero = [j for j, a in enumerate(row) if a]
            if len(nonzero) == 1 and row[nonzero[0]] > 0:
                bound_rows[k - n_eq] = (nonzero[0], QQ(row[nonzero[0]], scale))
                continue
        # an inequality with rhs <= 0 holds at x = 0: its slack starts basic
        rows.append((row, rhs, scale, k >= n_eq, k >= n_eq and rhs <= 0))
    n_art = sum(1 for *_, slack_basic in rows if not slack_basic)
    if not n_art:
        return Feasible(zeros(n))
    bounded = {j for j, _ in bound_rows.values()}
    # columns: x+ | x- of unbounded variables | slacks | artificials | rhs
    minus = {j: n + i for i, j in enumerate(j for j in range(n) if j not in bounded)}
    slack_at = n + len(minus)
    art_at = art0 = slack_at + len(rows) - n_eq
    n_cols = art0 + n_art
    # each row is the integer row times sigma = +-1, so that its rhs is
    # >= 0, and its basic column (artificial, or the slack of a row with
    # rhs <= 0) has coefficient 1, i.e. is rescaled by the row's scale: the
    # tableau is integral and starts from the identity basis, D = 1
    tab, basis, flips = [], [], []
    for row, rhs, scale, ineq, slack_basic in rows:
        sigma = -1 if rhs < 0 or slack_basic else 1
        line = [0] * (n_cols + 1)
        for j, a in enumerate(row):
            if a:
                line[j] = sigma * a
                if j in minus:
                    line[minus[j]] = -line[j]
        if ineq:
            line[slack_at] = 1 if slack_basic else -sigma * scale
            if slack_basic:
                basis.append(slack_at)
            slack_at += 1
        if not slack_basic:
            line[art_at] = 1
            basis.append(art_at)
            art_at += 1
        line[n_cols] = sigma * rhs
        tab.append(line)
        flips.append(sigma)
    # phase-1 reduced costs of the unscaled program (artificials cost 1,
    # and they and the basic slacks price at 0): minus the column sums of
    # the rational rows with an artificial, times their lcm L
    art_rows = [(scale, line) for (*_, scale, _, slack_basic), line in zip(rows, tab)
                if not slack_basic]
    common = math.lcm(*(s for s, _ in art_rows))
    weighted = [(common // s, line) for s, line in art_rows]
    obj = [0] * (n_cols + 1)
    for j in [*range(art0), n_cols]:
        obj[j] = -sum(w * line[j] for w, line in weighted)
    g = math.gcd(common, *obj)
    obj = [c // g for c in obj]
    big_l = common // g
    start = list(basis)
    simplex_phase1(tab, obj, basis)
    d = tab[0][basis[0]]
    if not obj[n_cols]:
        values = {col: QQ(tab[i][n_cols], d) for i, col in enumerate(basis)}
        witness = tuple(
            values.get(j, QQ(0)) - values.get(minus.get(j), QQ(0)) for j in range(n)
        )
        return Feasible(witness)
    # Farkas multipliers from the reduced cost of each row's starting basic
    # column, undoing its rescaling and the row's sign: y_k = 1 - reduced
    # cost for an artificial, y_k = reduced cost (>= 0) for a basic slack
    mults = []
    for (_, _, scale, _, slack_basic), sigma, col in zip(rows, flips, start):
        price = QQ(scale * obj[col], big_l * d)
        mults.append(price if slack_basic else sigma * (1 - price))
    # a bound row's multiplier cancels what the other rows leave on x_j;
    # it is >= 0 because x_j's column prices at >= 0 at the optimum, and a
    # duplicate bound row gets 0
    left = {
        j: sum((y * QQ(row[j], scale) for y, (row, _, scale, *_) in zip(mults, rows)
                if y and row[j]), QQ(0))
        for j in bounded
    }
    kept = iter(mults[n_eq:])
    ineq_mult = []
    for k in range(len(lp._scaled) - n_eq):
        if k in bound_rows:
            j, c = bound_rows[k]
            ineq_mult.append(-left.pop(j, QQ(0)) / c)
        else:
            ineq_mult.append(next(kept))
    gap = QQ(-obj[n_cols], big_l * d)
    return Infeasible(tuple(mults[:n_eq]), tuple(ineq_mult), gap)
