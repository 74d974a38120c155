"""Geometry tests: state spaces, ranges, radical values, containment."""

from fractions import Fraction as F
import random

import pytest

from wignerlab import geometry
from wignerlab.errors import UnsupportedGeometryError
from wignerlab.geometry import (
    AffineFunctional,
    AffineMap,
    Ball,
    ExtremalValue,
    Polytope,
    affine_basis,
    affine_map_with_orthogonal_extension,
    contains,
    dimension,
    extremal_range,
    map_into,
    membership_weights,
)

SQUARE = Polytope([(0, 0), (0, 1), (1, 0), (1, 1)])
CUBE = Polytope([(i, j, k) for i in (0, 1) for j in (0, 1) for k in (0, 1)])
DISK = Ball((0, 0), 1)
BLOCH = Ball((0, 0, 0), 1)


def test_dimension():
    assert dimension(SQUARE) == 2
    assert dimension(Polytope([(1, 2, 3)])) == 0
    assert dimension(CUBE) == 3
    assert dimension(DISK) == 2


def test_contains():
    assert contains(SQUARE, (F(1, 2), F(1, 2)))
    assert not contains(SQUARE, (2, 0))
    assert contains(DISK, (F(3, 5), F(4, 5)))  # boundary pythagorean point
    assert not contains(DISK, (F(3, 5), F(4, 5) + F(1, 1000)))


def test_contains_all_vertices_and_center():
    for v in CUBE.vertices:
        assert contains(CUBE, v)
    assert contains(BLOCH, BLOCH.center)


def test_membership_weights_certify():
    x = (F(1, 3), F(2, 3))
    weights = membership_weights(SQUARE, x)
    assert weights is not None
    assert sum(weights) == 1 and all(w >= 0 for w in weights)
    combo = tuple(
        sum(w * v[k] for w, v in zip(weights, SQUARE.vertices)) for k in range(2)
    )
    assert combo == x


def test_redundant_vertex_rejected():
    with pytest.raises(ValueError, match="redundant"):
        Polytope([(0, 0), (1, 0), (F(1, 2), 0)])
    with pytest.raises(ValueError, match="redundant"):
        Polytope([(0, 0), (0, 0)])


def test_hull_of_filters():
    p = Polytope.hull_of([(0, 0), (1, 0), (0, 1), (F(1, 4), F(1, 4)), (1, 0)])
    assert len(p.vertices) == 3


def test_hull_of_runs_each_irredundancy_lp_once(monkeypatch):
    calls = []
    in_hull = geometry._in_hull

    def counting(x, points):
        calls.append(x)
        return in_hull(x, points)

    monkeypatch.setattr(geometry, "_in_hull", counting)
    points = [(0, 0), (1, 0), (0, 1), (1, 1), (F(1, 2), F(1, 3))]
    hull = Polytope.hull_of(points)
    # one sweep drops the inner point, the next finds the square irredundant
    assert len(calls) == 5 + 4
    assert hull == Polytope(points[:4]) and len(calls) == 9 + 4
    with pytest.raises(ValueError, match="mixed dimensions"):
        Polytope.hull_of([(0, 0), (1,)])
    with pytest.raises(ValueError, match="at least one vertex"):
        Polytope.hull_of([])


def test_extremal_range_square():
    f = AffineFunctional((1, 0), 0)
    lo, hi = extremal_range(SQUARE, f)
    assert lo == ExtremalValue(F(0)) and hi == ExtremalValue(F(1))
    c = AffineFunctional.const(2, F(5, 7))
    lo, hi = extremal_range(SQUARE, c)
    assert lo == hi == ExtremalValue(F(5, 7))


def test_extremal_range_bloch_min():
    f = AffineFunctional((F(1, 4), F(1, 4), F(1, 4)), F(1, 4))
    lo, hi = extremal_range(BLOCH, f)
    assert lo == ExtremalValue(F(1, 4), F(-1, 4), 3)
    assert lo < 0 < hi
    assert hi <= 1


def test_extremal_range_affine_combination_polytope():
    rng = random.Random(3)
    for _ in range(100):
        g = AffineFunctional((F(rng.randint(-3, 3)), F(rng.randint(-3, 3))), F(rng.randint(-2, 2)))
        h = AffineFunctional((F(rng.randint(-3, 3)), F(rng.randint(-3, 3))), F(rng.randint(-2, 2)))
        alpha = F(rng.randint(0, 8), 8)
        f = g.scale(alpha) + h.scale(1 - alpha)
        lo_f, _ = extremal_range(SQUARE, f)
        lo_g, _ = extremal_range(SQUARE, g)
        lo_h, _ = extremal_range(SQUARE, h)
        assert lo_f.as_rational() >= alpha * lo_g.as_rational() + (1 - alpha) * lo_h.as_rational()


def test_extremal_value_normal_form_and_comparisons():
    # sqrt(3/16) = sqrt(3)/4, so the two spellings are equal
    assert ExtremalValue(F(1, 4), F(-1), F(3, 16)) == ExtremalValue(F(1, 4), F(-1, 4), 3)
    # perfect squares collapse to rationals
    assert ExtremalValue(F(1), F(2), F(9, 4)) == ExtremalValue(F(4))
    v = ExtremalValue(F(1, 4), F(-1, 4), 3)
    assert v < 0 and v > F(-1, 5) and v.compare(v) == 0
    assert ExtremalValue(F(0), F(1), 2) > 1
    assert ExtremalValue(F(0), F(1), 2) < F(3, 2)
    with pytest.raises(ValueError):
        ExtremalValue(F(0), F(1), F(-1))


def test_extremal_value_vs_float_random():
    rng = random.Random(5)
    for _ in range(200):
        a = F(rng.randint(-8, 8), rng.randint(1, 4))
        b = F(rng.randint(-8, 8), rng.randint(1, 4))
        s = F(rng.randint(0, 30))
        t = F(rng.randint(-12, 12), rng.randint(1, 4))
        v = ExtremalValue(a, b, s)
        approx = v.to_float() - float(t)
        got = v.compare(t)
        if abs(approx) > 1e-9:
            assert got == (1 if approx > 0 else -1)
        else:
            assert got == 0


def test_map_into_identity_and_vertex_agreement():
    assert map_into(SQUARE, AffineMap.identity(2), SQUARE).ok
    rng = random.Random(9)
    for _ in range(40):
        m = AffineMap.from_rows(
            [[F(rng.randint(-2, 2), 2) for _ in range(2)] for _ in range(2)],
            [F(rng.randint(-2, 2), 2) for _ in range(2)],
        )
        result = map_into(SQUARE, m, SQUARE)
        brute = all(contains(SQUARE, m(v)) for v in SQUARE.vertices)
        assert result.ok == brute
        if not result.ok:
            assert not contains(SQUARE, result.witness_image)


def test_map_into_deformed_reflection_witness():
    gon = Polytope(
        [
            (0, 1), (0, -1), (1, 0), (-1, 0),
            (F(3, 5), F(-4, 5)), (F(-3, 5), F(-4, 5)),
            (F(4, 5), F(-3, 5)), (F(-4, 5), F(-3, 5)),
        ]
    )
    flip = AffineMap.from_rows([[1, 0], [0, -1]], [0, 0])
    result = map_into(gon, flip, gon)
    assert not result.ok
    assert result.witness_point == (F(3, 5), F(-4, 5))
    assert result.witness_image == (F(3, 5), F(4, 5))


def test_map_into_ball_isometries_and_failures():
    signed = AffineMap.from_rows([[0, -1, 0], [-1, 0, 0], [0, 0, 1]], [0, 0, 0])
    assert map_into(BLOCH, signed, BLOCH).ok
    shrink = AffineMap.from_rows([[F(1, 2), 0], [0, F(1, 2)]], [0, 0])
    assert map_into(DISK, shrink, DISK).ok
    double = AffineMap.from_rows([[2, 0], [0, 2]], [0, 0])
    result = map_into(DISK, double, DISK)
    assert not result.ok and result.exact
    dx = result.witness_image
    assert dx[0] ** 2 + dx[1] ** 2 > 1
    # off-center shift decided by the exact sufficient bound
    shift = AffineMap.from_rows([[F(1, 4), 0], [0, F(1, 4)]], [F(1, 2), 0])
    assert map_into(DISK, shift, DISK).ok


def test_map_into_unsupported_pair():
    with pytest.raises(UnsupportedGeometryError):
        map_into(SQUARE, AffineMap.identity(2), DISK)


def test_affine_basis():
    basis = affine_basis(CUBE)
    assert len(basis) == 4
    assert affine_basis(DISK) == ((F(0), F(0)), (F(1), F(0)), (F(0), F(1)))


def test_orthogonal_extension_interpolates_and_detects_conflicts():
    domain = [(F(0), F(0)), (F(1), F(0)), (F(0), F(1)), (F(1), F(1))]
    images = [(F(0), F(0)), (F(0), F(1)), (F(-1), F(0)), (F(-1), F(1))]
    m = affine_map_with_orthogonal_extension(domain, images)
    assert m is not None
    assert all(m(d) == i for d, i in zip(domain, images))
    # (1,1) = (1,0) + (0,1) - (0,0) affinely; break the dependency
    images[3] = (F(5), F(5))
    assert affine_map_with_orthogonal_extension(domain, images) is None
