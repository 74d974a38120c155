"""Geometry tests: state spaces, ranges, radical values, containment."""

from fractions import Fraction as F
import itertools
import math
import operator
import random
import re
import time

import pytest

from wignerlab import _kernels, catalog, exact, geometry
from wignerlab._kernels import integer_rows
from wignerlab.errors import SizeGuardError, UnsupportedGeometryError
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
    int_values,
    interpolant,
    interpolation,
    map_into,
)

from helpers import extremal_to_float, generalized_boxworld, random_fraction, random_polygon
import reference_kernels as ref
from reference_kernels import orthogonal_extension, per_column_affine_map, rank_greedy_subset

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


def test_extremal_values_hash_and_order_as_the_numbers_they_are():
    r = F(3, 7)
    assert hash(ExtremalValue(r)) == hash(r) and hash(ExtremalValue(2)) == hash(2)
    assert {ExtremalValue(r), r} == {r}
    # (1 - sqrt 3)/4 = -0.183..., also written over sqrt 12 = 2 sqrt 3
    v = ExtremalValue(F(1, 4), F(-1, 4), 3)
    assert hash(v) == hash(ExtremalValue(F(1, 4), F(-1, 8), 12))
    assert v >= F(-1, 5) and not v >= F(-1, 6) and v >= v
    others = [F(-1), F(-1, 5), F(-1, 6), 0, r, ExtremalValue(0, -1, 2),
              ExtremalValue(F(1, 4), F(1, 4), 3), v, ExtremalValue(r)]
    for u in (v, ExtremalValue(r), ExtremalValue(0, 1, 2)):
        for w in others:
            assert (u >= w) == (not u < w)


def test_membership_weights_certify():
    x = (F(1, 3), F(2, 3))
    weights = ref.membership_weights(SQUARE, x)
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
    """Stricter than its name: the hull, the irredundancy test, membership
    and containment are read off the facet description and run no LP."""

    def forbidden(lp):
        raise AssertionError("an LP was solved")

    monkeypatch.setattr(exact, "_phase_one", forbidden)
    points = [(0, 0), (1, 0), (0, 1), (1, 1), (F(1, 2), F(1, 3))]
    hull = Polytope.hull_of(points)
    assert hull == Polytope(points[:4])
    assert contains(hull, points[4]) and not contains(hull, (2, 0))
    assert map_into(hull, AffineMap.identity(2), SQUARE).ok
    with pytest.raises(ValueError, match="redundant"):
        Polytope(points)
    with pytest.raises(ValueError, match="mixed dimensions"):
        Polytope.hull_of([(0, 0), (1,)])
    with pytest.raises(ValueError, match="at least one vertex"):
        Polytope.hull_of([])


def _random_point_set(rng, n):
    """Rational points spanning a random affine subspace of Q^n, with
    duplicates and points inside edges and faces mixed in."""
    k = min(n, rng.randint(0, n + 1))
    base = [random_fraction(rng) for _ in range(n)]
    dirs = [[random_fraction(rng) for _ in range(n)] for _ in range(k)]
    points = []
    for _ in range(rng.randint(k + 1, k + 5)):
        c = [random_fraction(rng, -2, 2, 2) for _ in dirs]
        points.append(
            tuple(b + sum(ci * d[j] for ci, d in zip(c, dirs)) for j, b in enumerate(base))
        )
    for _ in range(rng.randint(0, 2)):
        if rng.random() < 0.4:
            points.append(rng.choice(points))
        else:
            a, b = rng.choice(points), rng.choice(points)
            t = F(rng.randint(1, 3), 4)
            points.append(tuple(t * x + (1 - t) * y for x, y in zip(a, b)))
        rng.shuffle(points)
    return points


def _query_points(rng, points, n):
    distinct = list(dict.fromkeys(points))
    center = tuple(sum(v[j] for v in distinct) / len(distinct) for j in range(n))
    queries = [center, rng.choice(distinct)]
    for _ in range(3):
        a, b = rng.choice(distinct), rng.choice(distinct)
        mid = tuple((x + y) / 2 for x, y in zip(a, b))  # on an edge, a face or inside
        step = F(rng.randint(1, 4), 8)
        queries.append(mid)
        queries.append(tuple(m + step * (m - c) for m, c in zip(mid, center)))
    queries.append(tuple(random_fraction(rng) for _ in range(n)))  # mostly off aff(K)
    queries.append(tuple(c + F(1, 7) * (j + 1) for j, c in enumerate(center)))
    return queries


def _no_simplex(*args):
    raise AssertionError("the simplex ran")


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_facets_agree_with_the_hull_lp_oracle(n, monkeypatch):
    """Differential test of the facet description against ``_in_hull``:
    redundancy, ``hull_of``'s vertices and order, the hull equalities
    against the former Fraction rref, ``contains``, and the facet walk
    of ``membership_weights``, which runs no simplex: its weights are
    nonnegative, sum to 1, reproduce x, and at most dim + 1 are positive."""
    rng = random.Random(100 + n)
    seen = {"inside": 0, "outside": 0, "raises": 0, "lower_dim": 0}
    for _ in range(30):
        points = _random_point_set(rng, n)
        pts = [tuple(F(x) for x in p) for p in points]
        redundant = [
            ref._in_hull(p, pts[:i] + pts[i + 1:]) is not None if len(pts) > 1 else False
            for i, p in enumerate(pts)
        ]
        if any(redundant):
            seen["raises"] += 1
            first = pts[redundant.index(True)]
            with pytest.raises(ValueError, match=f"vertex {re.escape(str(tuple(map(str, first))))}"
                               " is redundant"):
                Polytope(points)
        else:
            assert Polytope(points).vertices == tuple(pts)
        distinct = list(dict.fromkeys(pts))
        expected = [
            p for i, p in enumerate(distinct)
            if len(distinct) == 1
            or ref._in_hull(p, distinct[:i] + distinct[i + 1:]) is None
        ]
        hull = Polytope.hull_of(points)
        assert list(hull.vertices) == expected
        facets = hull._facets
        assert facets.equalities == ref.hull_equalities(distinct, facets.scale)
        # each facet is tight on d affinely independent points of the hull
        ys = [[v * facets.scale for v in (p[j] for j in facets.coords)] for p in distinct]
        for a, b in facets.facets:
            tight = [y for y in ys if sum(c * v for c, v in zip(a, y)) == b]
            assert exact.rank([[v - w for v, w in zip(y, tight[0])] for y in tight[1:]]) \
                == len(facets.coords) - 1
        seen["lower_dim"] += dimension(hull) < n
        for x in _query_points(rng, pts, n):
            truth = ref._in_hull(x, hull.vertices) is not None
            seen["inside" if truth else "outside"] += 1
            assert contains(hull, x) == truth
            with monkeypatch.context() as m:
                m.setattr(exact, "_phase_one", _no_simplex)
                weights = ref.membership_weights(hull, x)
            assert (weights is not None) == truth
            if weights is not None:
                assert all(w >= 0 for w in weights) and sum(weights) == 1
                assert tuple(sum(w * v[k] for w, v in zip(weights, hull.vertices))
                             for k in range(n)) == x
                assert sum(w > 0 for w in weights) <= dimension(hull) + 1
    assert all(seen.values()), seen


def test_extremal_values_compare_across_radicands():
    sqrt2, sqrt3, sqrt10 = (ExtremalValue(F(0), F(1), s) for s in (2, 3, 10))
    assert sqrt3.compare(sqrt2) == 1 and sqrt2.compare(sqrt3) == -1
    # (sqrt2 + sqrt3)^2 = 5 + 2 sqrt6 = 9.899 against sqrt 98 = 9.8995
    assert ExtremalValue(F(5), F(2), 6) < ExtremalValue(F(0), F(1), 98)
    assert ExtremalValue(F(5), F(2), 6) > ExtremalValue(F(0), F(1), 97)
    # 1 + sqrt2 = 2.4142 against sqrt5 + 1/10 = 2.3361
    assert ExtremalValue(F(1), F(1), 2) > ExtremalValue(F(1, 10), F(1), 5)
    # opposite signs, and both negative: 1 - sqrt2 < sqrt3 - 2 < 0
    assert ExtremalValue(F(0), F(-1), 2) < sqrt3
    assert ExtremalValue(F(1), F(-1), 2) < ExtremalValue(F(-2), F(1), 3) < 0
    assert ExtremalValue(F(-2), F(1), 3) > ExtremalValue(F(1), F(-1), 2)
    # equal values spelled with different radicands share the normal form
    assert ExtremalValue(F(1), F(1), 8).compare(ExtremalValue(F(1), F(2), 2)) == 0
    assert ExtremalValue(F(0), F(1), F(1, 3)).compare(ExtremalValue(F(0), F(1, 3), 3)) == 0
    # sqrt3 - sqrt2 = 0.31783724...: shifts on either side of it
    for shift, sign in ((F(31783724, 10 ** 8), -1), (F(31783725, 10 ** 8), 1)):
        assert ExtremalValue(shift, F(1), 2).compare(sqrt3) == sign
        assert sqrt3.compare(ExtremalValue(shift, F(1), 2)) == -sign
    assert sqrt10 < ExtremalValue(F(1), F(1), 5)  # 3.1623 < 1 + sqrt5 = 3.2361


def _bounds(v: ExtremalValue, digits: int) -> tuple[F, F]:
    """Rational bounds lo <= v <= hi, 10^-digits apart, from integer square roots."""
    b, s = v.radical_part, v.radicand
    scale = 10 ** digits
    r = math.isqrt(b.numerator ** 2 * int(s) * scale ** 2)
    lo, hi = F(r, b.denominator * scale), F(r + 1, b.denominator * scale)
    if b < 0:
        lo, hi = -hi, -lo
    return v.rational_part + lo, v.rational_part + hi


def test_extremal_value_comparison_matches_integer_square_root_bounds():
    rng = random.Random(17)
    for _ in range(300):
        u, w = (
            ExtremalValue(F(rng.randint(-9, 9), rng.randint(1, 5)),
                          F(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 5)),
                          rng.randint(2, 40))
            for _ in range(2)
        )
        if u.is_rational or w.is_rational or u.radicand == w.radicand:
            continue
        u_lo, u_hi = _bounds(u, 40)
        w_lo, w_hi = _bounds(w, 40)
        assert u_hi < w_lo or w_hi < u_lo  # distinct radicands never tie
        expected = 1 if u_lo > w_hi else -1
        assert u.compare(w) == expected and w.compare(u) == -expected


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
        approx = extremal_to_float(v) - float(t)
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


def _random_map(rng, source, target):
    """A random affine map from ``source`` to ``target``'s ambient space:
    a constant at a convex combination of target vertices, or that
    point plus a random linear part scaled by 1, 1/10 or 1/1000."""
    weights = [rng.randint(0, 3) for _ in target.vertices]
    weights[0] += 1
    point = [sum(F(w, sum(weights)) * v[k] for w, v in zip(weights, target.vertices))
             for k in range(target.ambient_dim)]
    scale = rng.choice([0, 1, F(1, 10), F(1, 1000)])
    rows = [[scale * random_fraction(rng) for _ in range(source.ambient_dim)]
            for _ in point]
    center = source.vertices[0]
    offset = [y - sum(a * c for a, c in zip(row, center)) for y, row in zip(point, rows)]
    return AffineMap.from_rows(rows, offset)


def test_map_into_matches_the_vertex_loop():
    """All vertex images as one integer matrix give the verdict and the
    witness of one ``AffineMap`` call and facet test per vertex, on
    random polygons (points and segments included) as sources and as
    targets, and on the same targets at z = 0 in R^3, a dimension below
    their ambient space, where a map with a z row leaves the hull."""
    rng = random.Random(157)
    counts = {"ok": 0, "inside hull": 0, "off hull": 0}
    for _ in range(150):
        source = random_polygon(rng)
        target = random_polygon(rng)
        if rng.random() < 0.4:
            target = Polytope([v + (F(0),) for v in target.vertices])
        for _ in range(4):
            m = _random_map(rng, source, target)
            got = map_into(source, m, target)
            want = ref.map_into_by_vertices(source, m, target)
            assert (got.ok, got.witness_point, got.witness_image) == (
                want.ok, want.witness_point, want.witness_image)
            if got.ok:
                counts["ok"] += 1
            else:
                hull = target._facets
                q = math.lcm(*(x.denominator for x in got.witness_image))
                xq = [x.numerator * (q // x.denominator) for x in got.witness_image]
                on = all(hull.scale * sum(map(operator.mul, c, xq)) == e * q
                         for c, e in hull.equalities)
                counts["inside hull" if on else "off hull"] += 1
    assert min(counts.values()) >= 40, counts


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
    assert not result.ok and contains(DISK, result.witness_point)
    assert double(result.witness_point) == result.witness_image
    dx = result.witness_image
    assert dx[0] ** 2 + dx[1] ** 2 > 1
    # an off-center shift, certified by the S-lemma
    shift = AffineMap.from_rows([[F(1, 4), 0], [0, F(1, 4)]], [F(1, 2), 0])
    assert map_into(DISK, shift, DISK).ok


SHEAR = AffineMap.from_rows([[1, -1], [0, 0]], [F(-1, 2), 0])
FLAT = AffineMap.from_rows([[F(3, 4), 0], [0, 0]], [0, F(5, 8)])
DAMPING = AffineMap.from_rows(  # amplitude damping at gamma = 3/4
    [[F(1, 2), 0, 0], [0, F(1, 2), 0], [0, 0, F(1, 4)]], [0, 0, F(3, 4)])


@pytest.mark.parametrize("space, m, want", [
    (DISK, SHEAR, ((-1, 0), (F(-3, 2), 0))),
    (DISK, FLAT, None),  # sup |m(x)|^2 = 61/64
    (BLOCH, DAMPING, None),  # tight: m(0, 0, 1) = (0, 0, 1)
], ids=["shear", "flat", "amplitude damping"])
def test_ball_containment_is_decided_exactly(space, m, want):
    result = map_into(space, m, space)
    if want is None:
        assert result == geometry.Containment(True)
    else:
        assert not result.ok
        assert (result.witness_point, result.witness_image) == want


def test_a_tight_ball_map_no_bisection_multiplier_certifies_is_refused():
    """x -> (3x/5, 3y/13 + 48/65) reaches |.|^2 = 1 exactly, at (sqrt(56)/9,
    5/9) with multiplier 9/25, which no bisection step reaches: the map is
    refused with a typed error.  Scaled by 1 -+ 10^-6 it is decided."""
    m = AffineMap.from_rows([[F(3, 5), 0], [0, F(3, 13)]], [0, F(48, 65)])
    assert F(9, 25) * (1 - F(25, 81)) + m((0, F(5, 9)))[1] ** 2 == 1
    with pytest.raises(UnsupportedGeometryError, match="bisection steps"):
        map_into(DISK, m, DISK)
    for k, ok in ((1 - F(1, 10 ** 6), True), (1 + F(1, 10 ** 6), False)):
        scaled = AffineMap.from_rows([[k * x for x in row] for row in m.matrix.entries],
                                     [k * x for x in m.offset])
        assert map_into(DISK, scaled, DISK).ok is ok


def test_squarefree_matches_trial_division_and_guards_large_cofactors():
    """Below the trial bound B = 2^16 the cofactor is 1, p, p^2 or p q;
    at or above B^3 with no prime below B it is refused, not factored."""
    rng = random.Random(307)
    big = [65537, 65539, 65543, 131071]
    cases = [rng.randrange(1, 10 ** rng.randint(1, 8)) * rng.choice([1, rng.randrange(1, 99) ** 2])
             for _ in range(2000)]
    cases += [p * q * c for p in big for q in big for c in (1, 12, 63)]
    for n in cases:
        assert geometry._squarefree(n) == ref.squarefree_by_trial_division(n), n
    square = (1000000007 * 2000000018) ** 2
    assert geometry._squarefree(square) == (1000000007 * 2000000018, 1)
    with pytest.raises(SizeGuardError, match="radicand 563044446765098"):
        geometry._squarefree(2 * 65537 * 65539 * 65543)


def _sphere_points(rng: random.Random, dim: int, count: int) -> list[tuple]:
    """Rational points of the unit sphere in R^dim: the axis points and
    inverse stereographic images (2t, |t|^2 - 1) / (1 + |t|^2) of random
    rational t in R^(dim - 1)."""
    points = [tuple(F(s * (i == k)) for k in range(dim)) for i in range(dim) for s in (1, -1)]
    for _ in range(count):
        t = [random_fraction(rng, -4, 4, 7) for _ in range(dim - 1)]
        n = sum(x * x for x in t)
        points.append(tuple(2 * x / (1 + n) for x in t) + ((n - 1) / (1 + n),))
    return points


def _rotation(rng: random.Random, dim: int) -> list[list[F]]:
    """A rational orthogonal matrix: a product of plane rotations by
    ((1 - t^2) / (1 + t^2), 2t / (1 + t^2)) for random rational t."""
    q = exact.Matrix.identity(dim)
    for i, j in itertools.combinations(range(dim), 2):
        t = random_fraction(rng, -2, 2, 3)
        c, s = (1 - t * t) / (1 + t * t), 2 * t / (1 + t * t)
        g = [[F(int(a == b)) for b in range(dim)] for a in range(dim)]
        g[i][i], g[i][j], g[j][i], g[j][j] = c, -s, s, c
        q = exact.Matrix.from_rows(g).matmul(q)
    return [list(row) for row in q.entries]


def _unit_ball_map(rng: random.Random, shape: str, samples: list[tuple]) -> AffineMap:
    """A map of the unit ball of one of four shapes, scaled to within
    1/16 of leaving it at the sampled points.  Amplitude damping
    (s x, s y, s^2 z + 1 - s^2) is tight as it is, so it is scaled by
    1 - 1/64, 1 or 1 + 1/64."""
    dim = len(samples[0])
    if shape == "damping":
        s = F(rng.randint(1, 8), 8)
        diag = [s] * (dim - 1) + [s * s]
        rows = [[diag[i] * (i == j) for j in range(dim)] for i in range(dim)]
        offset = [F(0)] * (dim - 1) + [1 - s * s]
        scale = rng.choice([1 - F(1, 64), 1, 1 + F(1, 64)])
        return AffineMap.from_rows([[scale * x for x in row] for row in rows], offset)
    if shape == "random":
        rows = [[random_fraction(rng, -1, 1, 5) for _ in range(dim)] for _ in range(dim)]
    else:
        q = _rotation(rng, dim)
        diag = ([random_fraction(rng, 1, 4, 4)] * dim if shape == "isotropic"
                else [random_fraction(rng, -4, 4, 4) for _ in range(dim)])
        rows = [[diag[i] * x for x in row] for i, row in enumerate(q)]
    offset = [random_fraction(rng, -1, 1, 8) for _ in range(dim)]
    m = AffineMap.from_rows(rows, offset)
    top = max(sum(x * x for x in m(p)) for p in samples)
    # about 1 / sqrt(top): the sampled images then reach radius about 1
    scale = F(math.isqrt((top.denominator << 40) // top.numerator), 1 << 20)
    scale *= rng.choice([1 - F(1, 16), 1 - F(1, 1000), 1, 1 + F(1, 1000)])
    return AffineMap.from_rows([[scale * x for x in row] for row in rows],
                               [scale * x for x in offset])


def test_ball_containment_agrees_with_exact_boundary_samples():
    """Seeded maps of isotropic, anisotropic, amplitude-damping and random
    shapes, moved onto random source and target balls: an accepted map
    sends no sampled boundary point outside, a rejected one comes with a
    source point whose image is outside, and a refusal happens only where
    no sample leaves.  Each shape is decided both ways, with few refusals,
    and every witness coordinate is short: at most 80 characters (the
    largest is 23; unrounded witnesses of these maps reached 1191)."""
    rng = random.Random(601)
    counts = {}
    longest = 0
    for shape in ("isotropic", "anisotropic", "damping", "random"):
        for dim in (2, 3):
            samples = _sphere_points(rng, dim, 30)
            for _ in range(30):
                unit_map = _unit_ball_map(rng, shape, samples)
                c1, c2 = ([random_fraction(rng) for _ in range(dim)] for _ in range(2))
                r1, r2 = (random_fraction(rng, 1, 3, 4) for _ in range(2))
                source, target = Ball(c1, r1), Ball(c2, r2)
                # m = (x -> c2 + r2 x) . unit_map . (x -> (x - c1) / r1)
                rows = [[r2 * x / r1 for x in row] for row in unit_map.matrix.entries]
                shift = [c + r2 * o for c, o in zip(c2, unit_map.offset)]
                offset = [s - sum(a * c for a, c in zip(row, c1)) for s, row in zip(shift, rows)]
                m = AffineMap.from_rows(rows, offset)
                leaves = any(not contains(target, m(tuple(c + r1 * x for c, x in zip(c1, p))))
                             for p in samples)
                try:
                    result = map_into(source, m, target)
                except UnsupportedGeometryError:
                    assert not leaves
                    counts[shape, "refused"] = counts.get((shape, "refused"), 0) + 1
                    continue
                if result.ok:
                    assert not leaves
                else:
                    assert contains(source, result.witness_point)
                    assert m(result.witness_point) == result.witness_image
                    assert not contains(target, result.witness_image)
                    longest = max(longest, *(len(str(x)) for x in result.witness_point))
                counts[shape, result.ok] = counts.get((shape, result.ok), 0) + 1
    print(counts, longest)
    assert longest <= 80
    for shape in ("isotropic", "anisotropic", "damping", "random"):
        assert counts.get((shape, True), 0) >= 10 and counts.get((shape, False), 0) >= 10, counts
        assert counts.get((shape, "refused"), 0) <= 2, counts


def _random_symmetric(rng: random.Random, n: int) -> list[list[F]]:
    """A symmetric matrix of one of four shapes: random entries, a Gram
    matrix B^T B of rank below n (PSD and singular), c I - B^T B as
    ``map_into`` builds it, or random entries on a zero diagonal."""
    shape = rng.randrange(4)
    if shape in (1, 2):
        b = [[random_fraction(rng) for _ in range(n)] for _ in range(rng.randint(1, n))]
        s = [[sum(row[i] * row[j] for row in b) for j in range(n)] for i in range(n)]
        if shape == 2:
            c = F(rng.randint(0, 12), rng.randint(1, 3))
            s = [[(c if i == j else 0) - x for j, x in enumerate(r)] for i, r in enumerate(s)]
        return s
    s = [[F(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            s[i][j] = s[j][i] = random_fraction(rng, den=2) if rng.random() < 0.7 else F(0)
        if shape == 3:
            s[i][i] = F(0)
    return s


def test_negative_direction_agrees_with_principal_minors():
    """Symmetric elimination against the 2^n principal minors: the same
    PSD verdict, and an exact direction r with r^T S r < 0 otherwise."""
    rng = random.Random(2024)
    seen = {"psd": 0, "singular_psd": 0, "not_psd": 0}
    for _ in range(3000):
        n = rng.randint(1, 4)
        s = _random_symmetric(rng, n)
        r = geometry._negative_direction(s)
        assert (r is None) == ref.is_psd(s)
        if r is None:
            seen["singular_psd" if exact.rank(s) < n else "psd"] += 1
        else:
            assert sum(r[i] * s[i][j] * r[j] for i in range(n) for j in range(n)) < 0
            seen["not_psd"] += 1
    assert min(seen.values()) >= 100, seen


def test_map_into_unsupported_pair():
    with pytest.raises(UnsupportedGeometryError):
        map_into(SQUARE, AffineMap.identity(2), DISK)


def test_affine_basis():
    basis = affine_basis(CUBE)
    assert len(basis) == 4
    assert affine_basis(DISK) == ((F(0), F(0)), (F(1), F(0)), (F(0), F(1)))


def _assert_integer_form(space):
    """The kept vertex rows are ``scale * v``, row for row, and the basis
    indices pick ``affine_basis(space)`` in order, as the rank greedy does."""
    xs, q = geometry.vertex_ints(space)
    assert q == space._facets.scale > 0
    assert all(type(x) is int for row in xs for x in row)
    assert list(xs) == [tuple(q * x for x in v) for v in space.vertices]
    basis, bq = geometry.basis_ints(space)
    assert bq == q and space._basis == tuple(rank_greedy_subset(space.vertices))
    assert [space.vertices[i] for i in space._basis] == list(affine_basis(space))
    assert list(basis) == [xs[i] for i in space._basis]


def test_polytopes_keep_one_integer_form():
    """Every catalog polytope, every random polytope of the helpers and
    every ``Polytope.hull_of`` result holds its vertices and affine basis
    as ints over its facet scale; a ball's basis is scaled on each call."""
    spaces = [e.theory.state_space for e in map(catalog.load, catalog.CATALOG_NAMES)]
    spaces += [generalized_boxworld(m, n).state_space for m in (2, 3) for n in (2, 3, 4)]
    rng = random.Random(167)
    spaces += [random_polygon(rng) for _ in range(40)]
    spaces += [Polytope.hull_of(_random_point_set(rng, n)) for n in (1, 2, 3, 4) for _ in range(10)]
    polytopes = [s for s in spaces if isinstance(s, Polytope)]
    assert len(polytopes) == 5 + 6 + 40 + 40
    for space in polytopes:
        _assert_integer_form(space)
    for ball in (DISK, BLOCH, Ball((F(1, 2), F(-1, 3)), F(3, 4))):
        basis, q = geometry.basis_ints(ball)
        assert [tuple(F(x, q) for x in row) for row in basis] == list(affine_basis(ball))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_affine_basis_is_the_rank_greedy_choice_and_is_kept(n, monkeypatch):
    """One rref's pivot columns pick the points the rank-per-point greedy
    picks, in order; a polytope keeps its basis, as indices into its
    vertices, after the first call."""
    rng = random.Random(300 + n)
    spaces = []
    for _ in range(30):
        points = _random_point_set(rng, n)
        assert geometry.independent_affine_subset(points) == rank_greedy_subset(points)
        hull = Polytope.hull_of(points)
        expected = tuple(hull.vertices[i] for i in rank_greedy_subset(hull.vertices))
        assert affine_basis(hull) == expected and len(expected) == dimension(hull) + 1
        _assert_integer_form(hull)
        spaces.append(hull)

    def forbidden(*args):
        raise AssertionError("affine basis computed again")

    monkeypatch.setattr(_kernels, "rref", forbidden)
    for hull in spaces:
        assert affine_basis(hull) == affine_basis(hull)
        assert hull._basis == tuple(rank_greedy_subset(hull.vertices))
    assert geometry.independent_affine_subset([]) == []


def _random_interpolation(rng, kind):
    """Domain and image points in Q^src -> Q^tgt: ``square`` has src + 1
    random points, ``under`` fewer, ``over`` more with images of one affine
    map, ``inconsistent`` more with random images or a repeated point."""
    src, tgt = rng.randint(1, 3), rng.randint(1, 3)
    count = {"square": src + 1, "under": rng.randint(1, src),
             "over": src + rng.randint(2, 3), "inconsistent": src + rng.randint(2, 3)}[kind]
    domain = [tuple(random_fraction(rng) for _ in range(src)) for _ in range(count)]
    images = [tuple(random_fraction(rng) for _ in range(tgt)) for _ in range(count)]
    if kind == "over":
        m = AffineMap.from_rows(
            [[random_fraction(rng) for _ in range(src)] for _ in range(tgt)],
            [random_fraction(rng) for _ in range(tgt)],
        )
        images = [m(p) for p in domain]
    if kind == "inconsistent" and rng.random() < 0.5:
        domain[-1] = domain[0]
        images[-1] = tuple(x + 1 for x in images[0])
    return domain, images


@pytest.mark.parametrize("kind", ["square", "under", "over", "inconsistent"])
def test_affine_map_from_points_matches_per_column_solves(kind):
    """``interpolant`` of the one rref ``interpolation`` (the reader
    that replaced ``affine_map_from_points``) gives the map of one
    ``solve_affine`` per coordinate (free unknowns 0), and ``None``
    exactly when one of them is inconsistent."""
    rng = random.Random({"square": 41, "under": 42, "over": 43, "inconsistent": 44}[kind])
    found = 0
    for _ in range(40):
        domain, images = _random_interpolation(rng, kind)
        (xs, q), (ys, r) = integer_rows(domain), integer_rows(images)
        m = interpolant(interpolation(xs, q), list(zip(*ys)), [r] * len(ys[0]))
        assert m == per_column_affine_map(domain, images)
        if m is not None:
            found += 1
            assert all(m(p) == tuple(img) for p, img in zip(domain, images))
    assert found == (0 if kind == "inconsistent" else 40)


def test_orthogonal_extension_interpolates_and_detects_conflicts():
    domain = [(F(0), F(0)), (F(1), F(0)), (F(0), F(1)), (F(1), F(1))]
    images = [(F(0), F(0)), (F(0), F(1)), (F(-1), F(0)), (F(-1), F(1))]
    m = affine_map_with_orthogonal_extension(domain, images)
    assert m is not None
    assert all(m(d) == i for d, i in zip(domain, images))
    # (1,1) = (1,0) + (0,1) - (0,0) affinely; break the dependency
    images[3] = (F(5), F(5))
    assert affine_map_with_orthogonal_extension(domain, images) is None


def _random_extension_case(rng, n1, n2, kind):
    """Domain points in Q^n1 and images in Q^n2: one point, a few
    (lower-dimensional) points, a spanning set, or a set with duplicates
    and affinely dependent points; "broken" perturbs the image of a
    dependent point, so no affine interpolant exists."""
    m = AffineMap.from_rows(
        [[random_fraction(rng) for _ in range(n1)] for _ in range(n2)],
        [random_fraction(rng) for _ in range(n2)],
    )
    count = 1 if kind == "single" else (
        rng.randint(2, n1) if kind == "lower" else n1 + rng.randint(1, 2))
    domain = [tuple(random_fraction(rng) for _ in range(n1)) for _ in range(count)]
    if kind in ("dependent", "broken"):
        for _ in range(rng.randint(1, 3)):
            p, q = rng.choice(domain), rng.choice(domain)
            t = random_fraction(rng)
            domain.append(p if rng.random() < 0.3 else tuple(a + t * (b - a) for a, b in zip(p, q)))
    images = [m(p) for p in domain]
    if kind in ("single", "lower"):
        images = [tuple(random_fraction(rng) for _ in range(n2)) for _ in domain]
    if kind == "broken":
        images[-1] = tuple(x + 1 for x in images[-1])
    return domain, images


@pytest.mark.parametrize("n1", [1, 2, 3, 4])
def test_orthogonal_extension_matches_the_projection_oracle(n1):
    """Extra points p0 + c with images y0 + c (equal dimensions) or y0,
    for c in a basis of the domain's orthogonal complement, give the
    former projection-based map bit for bit, and ``None`` exactly when
    it did."""
    rng = random.Random(500 + n1)
    kinds = ["single", "lower", "spanning", "dependent", "broken"] if n1 > 1 else [
        "single", "spanning", "dependent", "broken"]
    for kind in kinds:
        for n2 in sorted({n1, rng.randint(1, 4), n1 + 1}):
            for _ in range(12):
                domain, images = _random_extension_case(rng, n1, n2, kind)
                m = affine_map_with_orthogonal_extension(domain, images)
                assert m == orthogonal_extension(domain, images)
                assert (m is None) == (kind == "broken")
                if m is not None:
                    assert all(m(p) == img for p, img in zip(domain, images))


def test_orthogonal_extension_solves_no_system_per_point(monkeypatch):
    def boom(*args, **kwargs):
        raise AssertionError("solve_affine called")

    assert not hasattr(geometry, "solve_affine")
    monkeypatch.setattr(exact, "solve_affine", boom)
    domain = [(F(0), F(0), F(0)), (F(1), F(0), F(1)), (F(2), F(0), F(2))]
    images = [(F(1), F(1), F(1)), (F(2), F(1), F(1)), (F(3), F(1), F(1))]
    m = affine_map_with_orthogonal_extension(domain, images)
    assert [m(p) for p in domain] == images
    # identity on the complement, spanned by (0, 1, 0) and (1, 0, -1)
    assert m((F(0), F(1), F(0))) == (F(1), F(2), F(1))
    assert m((F(1), F(0), F(-1))) == (F(2), F(1), F(0))


def test_values_at_matches_per_entry_evaluation():
    """``int_values`` at points scaled by ``integer_rows``: one int matrix
    over one positive denominator, entry for entry the value f(p); for
    int, Fraction and mixed entries, negative and unequal
    denominators, zero functionals, and no points or no functionals."""
    rng = random.Random(151)
    kinds = set()

    def entry(kind):
        if kind == "int" or (kind == "mixed" and rng.random() < 0.5):
            return rng.randint(-9, 9)
        return F(rng.randint(-9, 9), rng.choice((1, 2, 3, -4, 6, -35)))

    for _ in range(2000):
        dim, n_f, n_p = rng.randint(0, 4), rng.randint(0, 4), rng.randint(0, 4)
        kind = rng.choice(("int", "fraction", "mixed"))
        funcs = [AffineFunctional.zero(dim) if rng.random() < 0.2 else
                 AffineFunctional([entry(kind) for _ in range(dim)], entry(kind))
                 for _ in range(n_f)]
        points = [tuple(entry(kind) for _ in range(dim)) for _ in range(n_p)]
        rows, den = int_values(funcs, *integer_rows(points))
        assert type(den) is int and den > 0
        assert all(type(x) is int for row in rows for x in row)
        assert [[F(x, den) for x in row] for row in rows] == ref.values_at(funcs, points)
        kinds.add((kind, bool(n_f), bool(n_p)))
        kinds.update({"zero"} if any(f.is_constant() and not f.constant for f in funcs) else ())
    assert len(kinds) == 13
    with pytest.raises(ValueError):
        int_values([AffineFunctional.zero(2)], *integer_rows([(1, 2, 3)]))


def test_functional_arithmetic_keeps_the_constructor_form():
    """Every operation's result holds Fractions and equals, hash included,
    the functional built from its values by the public constructor;
    floats are still rejected where a value enters from outside."""
    rng = random.Random(157)
    m = AffineMap.from_rows([[1, F(1, 2)], [0, -3], [F(2, 3), 1]], [F(-1, 5), 0, 2])
    for _ in range(200):
        f, g = (AffineFunctional([random_fraction(rng) for _ in range(3)], random_fraction(rng))
                for _ in range(2))
        c = rng.choice((0, 2, F(-3, 7), "5/4"))
        results = [
            (f + g, [a + b for a, b in zip(f.linear, g.linear)], f.constant + g.constant),
            (f - g, [a - b for a, b in zip(f.linear, g.linear)], f.constant - g.constant),
            (-f, [-a for a in f.linear], -f.constant),
            (f.scale(c), [F(c) * a for a in f.linear], F(c) * f.constant),
            (f.shift(c), list(f.linear), f.constant + F(c)),
            (f.compose(m), [sum(f.linear[k] * m.matrix.entries[k][j] for k in range(3))
                            for j in range(2)], f(m.offset)),
        ]
        for got, linear, constant in results:
            assert all(type(x) is F for x in got.coefficients())
            built = AffineFunctional([str(x) for x in linear], str(constant))
            assert got == built and hash(got) == hash(built)
    for bad in (lambda: AffineFunctional((0.5, 1), 0), lambda: AffineFunctional((1, 1), 0.5),
                lambda: f.scale(0.5), lambda: f.shift(0.5)):
        with pytest.raises(TypeError):
            bad()


def _cube(d):
    return list(itertools.product((0, 1), repeat=d))


def _cyclic(d, n):
    """n points on the moment curve (t, t^2, ..., t^d), t = 1..n."""
    return [tuple(t ** k for k in range(1, d + 1)) for t in range(1, n + 1)]


def _integer_cloud(rng, d):
    """Small integer points in Z^d, so that many are coplanar, collinear
    or inside, with duplicates mixed in."""
    points = [tuple(rng.randint(-2, 2) for _ in range(d)) for _ in range(rng.randint(d + 1, 9))]
    points += [rng.choice(points) for _ in range(rng.randint(0, 2))]
    rng.shuffle(points)
    return points


def _embedded(rng, points):
    """The points under an injective affine map into a higher dimension:
    each keeps its coordinates and gains integer combinations of them."""
    d = len(points[0])
    extra = [[rng.randint(-2, 2) for _ in range(d + 1)] for _ in range(rng.randint(1, 2))]
    return [tuple(sum(c * x for c, x in zip(row, (*p, 1))) for row in extra) + p for p in points]


def _hull_families():
    """The point sets on which ``_describe`` is checked against the
    d-subset scan: every catalog polytope, random polygons, generalized
    boxworld from 2x2 to 3x4, the d-cubes with and without their center,
    cyclic polytopes, and integer clouds in d = 2..4 with duplicate,
    interior and coplanar points, alone and embedded in higher dimension."""
    for name in catalog.CATALOG_NAMES:
        space = catalog.load(name).theory.state_space
        if isinstance(space, Polytope):
            yield space.vertices
    rng = random.Random(211)
    for _ in range(300):
        yield random_polygon(rng).vertices
    for m, n in itertools.product((2, 3), (2, 3, 4)):
        yield generalized_boxworld(m, n).state_space.vertices
    for d in range(1, 5):
        yield _cube(d)
        yield _cube(d) + [(F(1, 2),) * d]
        yield [(F(1, 2),) * d] + _cube(d)
    yield _cube(5) + [(F(1, 2),) * 5]
    for d, n in itertools.product((2, 3, 4), (6, 9, 12)):
        yield _cyclic(d, n)
    for _ in range(200):
        points = _integer_cloud(rng, rng.choice((2, 3, 4)))
        yield points
        yield _embedded(rng, points)


def test_the_integer_hull_matches_the_subset_scan():
    """``_describe`` gives the subset scan's facets, in its order, and its
    equalities, int points and vertex flags."""
    count = 0
    for points in _hull_families():
        assert geometry._describe(points) == ref.subset_scan_describe(points)
        count += 1
    assert count >= 700


@pytest.mark.parametrize("points, facets", [
    (_cyclic(3, 200), 396), (_cube(6), 12), (None, 10),
], ids=["cyclic-200-3", "6-cube", "boxworld-5x5"])
def test_the_integer_hull_scales_with_its_facets(points, facets):
    """Sizes whose d-subsets the scan could not try within minutes: the
    cyclic polytope with n = 200 in d = 3 has 2(n - 2) facets, the 6-cube
    12 and 5x5 generalized boxworld 10; each takes under a second."""
    start = time.perf_counter()
    if points is None:
        space = generalized_boxworld(5, 5).state_space
    else:
        space = Polytope(points)
    assert len(space._facets.facets) == facets
    assert time.perf_counter() - start < 1
