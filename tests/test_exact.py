"""Exact-core unit tests: rank, affine solving, LP feasibility."""

from fractions import Fraction as F
import math
import random

import pytest

from wignerlab.exact import (
    Feasible,
    Infeasible,
    LinearProgram,
    Matrix,
    lp_feasible,
    rank,
    solve_affine,
    vec_dot,
    verify_certificate,
)


def test_rank_identity_zero_proportional():
    assert rank(Matrix.identity(2)) == 2
    assert rank(Matrix.zero(3, 3)) == 0
    assert rank([[1, 1], [2, 2]]) == 1


def test_rank_transpose_random():
    rng = random.Random(7)
    for _ in range(50):
        rows = rng.randint(1, 5)
        cols = rng.randint(1, 5)
        m = Matrix.from_rows(
            [[F(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(cols)] for _ in range(rows)]
        )
        assert m.rank() == m.transpose().rank()


def test_solve_affine_identity():
    sol = solve_affine(Matrix.identity(2), [3, 4])
    assert sol.particular == (F(3), F(4))
    assert sol.nullspace == ()


def test_solve_affine_underdetermined():
    sol = solve_affine([[1, 1]], [1])
    assert sol.particular == (F(1), F(0))
    assert len(sol.nullspace) == 1
    direction = sol.nullspace[0]
    assert direction[0] + direction[1] == 0


def test_solve_affine_inconsistent():
    assert solve_affine([[0, 0]], [1]) is None


def test_solve_affine_residual_zero_random():
    rng = random.Random(11)
    for _ in range(50):
        rows = rng.randint(1, 4)
        cols = rng.randint(1, 4)
        m = [[F(rng.randint(-4, 4)) for _ in range(cols)] for _ in range(rows)]
        x = [F(rng.randint(-3, 3), 2) for _ in range(cols)]
        b = [sum(r[j] * x[j] for j in range(cols)) for r in m]
        sol = solve_affine(m, b)
        assert sol is not None
        assert all(
            vec_dot(tuple(r), sol.particular) == bi for r, bi in zip(m, b)
        )
        for direction in sol.nullspace:
            assert all(vec_dot(tuple(r), direction) == 0 for r in m)


def test_lp_simple_feasible():
    lp = LinearProgram(
        1, inequalities=[((F(1),), F(0)), ((F(1),), F(1)), ((F(-1),), F(-2))]
    )
    result = lp_feasible(lp)
    assert isinstance(result, Feasible)
    assert lp.check(result.witness)


def test_lp_simple_infeasible_certificate():
    lp = LinearProgram(1, inequalities=[((F(1),), F(1)), ((F(-1),), F(0))])
    result = lp_feasible(lp)
    assert isinstance(result, Infeasible)
    assert result.ineq_multipliers == (F(1), F(1))
    assert result.gap == 1
    assert verify_certificate(lp, result)


def test_lp_degenerate_programs():
    assert lp_feasible(LinearProgram(0)) == Feasible(())
    assert isinstance(lp_feasible(LinearProgram(3)), Feasible)
    # 0 variables with an impossible equality
    bad = LinearProgram(0, equalities=[((), F(1))])
    result = lp_feasible(bad)
    assert isinstance(result, Infeasible)
    assert verify_certificate(bad, result)


def test_lp_equality_mix():
    lp = LinearProgram(
        2,
        equalities=[((F(1), F(1)), F(1))],
        inequalities=[((F(1), F(0)), F(0)), ((F(0), F(1)), F(0))],
    )
    result = lp_feasible(lp)
    assert isinstance(result, Feasible)


def test_lp_random_verified(seeded_cases=120):
    """Every answer self-verifies: witnesses satisfy, certificates combine."""
    rng = random.Random(23)
    infeasible_seen = 0
    for _ in range(seeded_cases):
        n = rng.randint(1, 4)
        eqs = []
        ineqs = []
        for _ in range(rng.randint(0, 3)):
            eqs.append(
                (
                    tuple(F(rng.randint(-3, 3)) for _ in range(n)),
                    F(rng.randint(-3, 3)),
                )
            )
        for _ in range(rng.randint(0, 5)):
            ineqs.append(
                (
                    tuple(F(rng.randint(-3, 3)) for _ in range(n)),
                    F(rng.randint(-3, 3)),
                )
            )
        lp = LinearProgram(n, tuple(eqs), tuple(ineqs))
        result = lp_feasible(lp)
        if isinstance(result, Feasible):
            assert lp.check(result.witness)
        else:
            infeasible_seen += 1
            assert verify_certificate(lp, result)
            assert all(m >= 0 for m in result.ineq_multipliers)
    assert infeasible_seen > 0


def test_certificate_rejects_tampering():
    lp = LinearProgram(1, inequalities=[((F(1),), F(1)), ((F(-1),), F(0))])
    result = lp_feasible(lp)
    bad = Infeasible(result.eq_multipliers, (F(1), F(2)), result.gap)
    assert not verify_certificate(lp, bad)


def test_matrix_shape_validation():
    with pytest.raises(ValueError):
        Matrix.from_rows([[1, 2], [3]])
    with pytest.raises(ValueError):
        LinearProgram(2, equalities=[((F(1),), F(0))])


def _random_program(rng, n):
    def row():
        return (tuple(F(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(n)),
                F(rng.randint(-6, 6), rng.randint(1, 4)))
    return LinearProgram(n, [row() for _ in range(rng.randint(0, 3))],
                         [row() for _ in range(rng.randint(0, 5))])


def test_program_keeps_one_canonical_integer_form():
    """Any pair form of the same rows gives the same program: equal, equal
    hash, the same ``_scaled`` rows with gcd 1, and the same views."""
    rng = random.Random(31)
    for _ in range(60):
        lp = _random_program(rng, rng.randint(0, 4))

        def pairs(rows, k):
            # unreduced pairs: numerator and denominator times k
            return [([(a.numerator * k, a.denominator * k) for a in row],
                     (rhs.numerator * k, rhs.denominator * k)) for row, rhs in rows]

        k = rng.randint(1, 5)
        twin = LinearProgram.from_ratios(lp.n_vars, pairs(lp.equalities, k),
                                         pairs(lp.inequalities, k))
        strings = LinearProgram(
            lp.n_vars,
            [([str(a) for a in row], str(rhs)) for row, rhs in lp.equalities],
            [([str(a) for a in row], str(rhs)) for row, rhs in lp.inequalities],
        )
        for other in (twin, strings):
            assert other == lp and hash(other) == hash(lp)
            assert other._scaled == lp._scaled
            assert other.equalities == lp.equalities
            assert other.inequalities == lp.inequalities
        for row, rhs, scale in lp._scaled:
            assert scale > 0 and math.gcd(scale, rhs, *row) == 1
    assert LinearProgram(1, [((F(1, 2),), F(1))]) != LinearProgram(1, (), [((F(1, 2),), F(1))])


def test_program_views_return_fractions_as_given():
    lp = LinearProgram(2, [((1, "1/2"), F(3, 4))], [(("-2/6", 0), 0)])
    assert lp.equalities == (((F(1), F(1, 2)), F(3, 4)),)
    assert lp.inequalities == (((F(-1, 3), F(0)), F(0)),)
    assert all(type(x) is F for row, rhs in lp.equalities + lp.inequalities
               for x in (*row, rhs))
    with pytest.raises(TypeError):
        LinearProgram(1, [((0.5,), 0)])
    with pytest.raises(ValueError):
        LinearProgram.from_ratios(2, [([(1, 1)], (0, 1))])
    with pytest.raises(ValueError):
        LinearProgram.from_ratios(1, [([(1, 0)], (0, 1))])


def test_guards_never_read_the_rational_views(monkeypatch):
    """lp_feasible, check and verify_certificate run on the integer rows."""
    rng = random.Random(37)
    programs = [_random_program(rng, rng.randint(1, 4)) for _ in range(40)]

    def forbidden(self):
        raise AssertionError("rational view built")

    monkeypatch.setattr(LinearProgram, "equalities", property(forbidden))
    monkeypatch.setattr(LinearProgram, "inequalities", property(forbidden))
    kinds = set()
    for lp in programs:
        result = lp_feasible(lp)
        kinds.add(type(result))
        if isinstance(result, Feasible):
            assert lp.check(result.witness)
        else:
            assert verify_certificate(lp, result)
            bad = Infeasible(result.eq_multipliers, result.ineq_multipliers, result.gap + 1)
            assert not verify_certificate(lp, bad)
    assert kinds == {Feasible, Infeasible}
