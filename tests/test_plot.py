"""SVG rendering: determinism, content markers, refusals, exact geometry."""

from fractions import Fraction as F
import hashlib
import json
import re

import pytest

from wignerlab import catalog
from wignerlab import plot
from wignerlab.cli import main
from wignerlab.exact import rank, vec_dot
from wignerlab.plot import PlotError, render_svg
from wignerlab.theory import Observable
from wignerlab.wigner import WignerRep, evaluate
from wignerlab.geometry import AffineFunctional, Ball, Polytope


def test_boxworld_w0_release_is_deterministic():
    entry = catalog.load("boxworld")
    rep = entry.representations["W_0"]
    first = render_svg(rep)
    assert render_svg(rep) == first
    assert first.count("<circle") >= 8  # 4 reference points + 4 image vertices
    assert "stroke-dasharray" in first  # simplex outline
    assert '<path d="M' in first


def test_positive_rep_draws_inside():
    entry = catalog.load("boxworld")
    svg = render_svg(entry.representations["W_+"])
    assert "<svg" in svg and "</svg>" in svg


def test_disk_rep_draws_ellipse():
    entry = catalog.load("qubit_xz")
    svg = render_svg(entry.representations["W"])
    assert len(_arcs(svg)) == 13  # a closed path of four cubic arcs
    assert render_svg(entry.representations["W"]) == svg


def test_three_dimensional_image_refused():
    entry = catalog.load("qubit_ball")
    with pytest.raises(PlotError, match="two dimensions"):
        render_svg(entry.representations["W"])
    with pytest.raises(PlotError, match="two dimensions"):
        render_svg(catalog.load("cube").representations["W_z"])


def test_single_point_image():
    point = Polytope([(0, 0)])
    one = AffineFunctional.one(2)
    half = AffineFunctional.const(2, "1/2")
    obs = Observable("A", (0, 1), (half, one - half))
    unit = Observable("B", ("*",), (one,))
    rep = WignerRep(point, obs, unit, ((half,), (one - half,)))
    svg = render_svg(rep)
    assert "<svg" in svg and "circle" in svg


# the figures' bytes as drawn with float coordinates, which the exact ones keep
POLYTOPE_DIGESTS = {
    ("cube", "W_0"): "996504adee7d3cfc596e2ab13b10f3924dc5deea15829af432e0423e7d47984c",
    ("trit", "W"): "51510a38ae0a7ea1258d211f83b8870f40d78cb051a6595138d60a70518ad69e",
    ("boxworld", "W_0"): "996504adee7d3cfc596e2ab13b10f3924dc5deea15829af432e0423e7d47984c",
    ("boxworld", "W_1/2"): "180b375bfba0f351f7f1e71da3063b8d601ae44756fa80cc326e3dd785395b36",
    ("boxworld", "W_+"): "33040f485157f94617f216c11365a5190c79860534cb742698e27a06162842c3",
    ("rebit_diamond", "W"): "f2fb2ed5a2dee66b65119135abdcc8be0d994a7f3eec365cc0f51071682e8039",
}


@pytest.mark.parametrize("name, rep", sorted(POLYTOPE_DIGESTS))
def test_polytope_figures_keep_their_bytes(name, rep):
    svg = render_svg(catalog.load(name).representations[rep])
    assert hashlib.sha256(svg.encode()).hexdigest() == POLYTOPE_DIGESTS[name, rep]


def _arcs(svg):
    """The points of the ellipse's path: the start, then three per cubic arc."""
    d = re.search(r'<path d="(M [^"]* C [^"]*) Z"', svg)[1]
    nums = [F(x) for x in re.findall(r"-?\d+\.\d+", d)]
    return list(zip(nums[0::2], nums[1::2]))


def _solve2(m, v):
    (a, b), (c, d) = m
    det = a * d - b * c
    return ((d * v[0] - b * v[1]) / det, (a * v[1] - c * v[0]) / det)


def _on_curve_forms(rep, svg):
    """x^T M^-1 x / r^2 at each on-curve point of the drawn ellipse.

    Plane coordinates are those of the orthogonal projection onto the
    span of two independent coefficient columns of the grid, about the
    image of the center; M = T T^T for the plane coordinates T of all the
    columns.  The view map of the plane is read off the printed
    reference points of the first three phase points."""
    ball = rep.state_space
    cols = [tuple(f.linear[j] for f in rep.functionals()) for j in range(ball.ambient_dim)]
    p = next(c for c in cols if any(c))
    q = next(c for c in cols if rank([p, c]) == 2)
    gram = ((vec_dot(p, p), vec_dot(p, q)), (vec_dot(p, q), vec_dot(q, q)))

    def plane(z):
        return _solve2(gram, (vec_dot(z, p), vec_dot(z, q)))

    center = evaluate(rep, ball.center).flatten()
    n = len(center)
    refs = [(F(x), F(y)) for x, y in re.findall(r'<circle cx="([\d.-]+)" cy="([\d.-]+)" r="5"', svg)]
    t = [plane(tuple(F(int(k == i)) - c for k, c in enumerate(center))) for i in range(n)]
    # view(z) = v0 + H (t(z) - t_0), H from the first three phase points
    dt = [(t[i][0] - t[0][0], t[i][1] - t[0][1]) for i in (1, 2)]
    dv = [(refs[i][0] - refs[0][0], refs[i][1] - refs[0][1]) for i in (1, 2)]
    dt_m = ((dt[0][0], dt[1][0]), (dt[0][1], dt[1][1]))
    dv_m = ((dv[0][0], dv[1][0]), (dv[0][1], dv[1][1]))

    def to_plane(v):  # t_0 + H^-1 (v - v0), with H^-1 = dt dv^-1
        w = _solve2(dv_m, (v[0] - refs[0][0], v[1] - refs[0][1]))
        return tuple(t[0][i] + dt_m[i][0] * w[0] + dt_m[i][1] * w[1] for i in (0, 1))

    tc = [plane(c) for c in cols]
    m = [[sum(a[i] * a[j] for a in tc) for j in (0, 1)] for i in (0, 1)]
    r2 = ball.radius ** 2
    return [vec_dot(x, _solve2(m, x)) / r2 for x in map(to_plane, _arcs(svg)[::3])]


def _ball_rep(dim, radius, linears):
    """A 2 x 2 grid on a ball about the origin: entries 1/4 + the given
    linear parts, which must sum to zero."""
    ball = Ball((0,) * dim, radius)
    one = AffineFunctional.one(dim)
    obs = Observable("A", (0, 1), (one, one - one))
    grid = [[AffineFunctional(lin, F(1, 4)) for lin in row] for row in linears]
    return WignerRep(ball, obs, obs, grid)


ROTATED = [[(F(1, 4), F(1, 8)), (F(-1, 8), F(1, 4))], [(F(1, 8), F(-1, 2)), (F(-1, 4), F(1, 8))]]
# a third coordinate that moves the image along the plane of the first two
PLANAR = [[(a, b, a - 2 * b) for a, b in row] for row in ROTATED]


@pytest.mark.parametrize("rep", [
    catalog.load("qubit_xz").representations["W"],
    _ball_rep(2, F(3, 2), ROTATED),
    _ball_rep(3, F(2, 7), PLANAR),
], ids=["qubit_xz", "rotated", "planar_in_3d"])
def test_the_ellipse_is_the_ball_image_to_the_printed_precision(rep):
    """The four on-curve points of the drawn ellipse lie on the image of
    the ball's sphere: x^T M^-1 x = r^2 within the four printed decimals."""
    forms = _on_curve_forms(rep, render_svg(rep))
    assert len(forms) == 5 and all(abs(f - 1) < F(1, 10**6) for f in forms)


@pytest.mark.parametrize("rep", [
    _ball_rep(2, F(4), ROTATED),
    _ball_rep(2, F(4), [[(b, a) for a, b in row] for row in ROTATED]),
], ids=["wide", "tall"])
def test_a_ball_image_is_framed_by_its_extents(rep):
    """An image that outgrows the simplex fills the padded view along its
    longer extent and stays inside it along the other: sampled along its
    four cubic arcs (which stray from the ellipse by under 0.03%), the
    curve spans 800 * 25/29 on one axis and no more on the other."""
    points = [tuple(map(float, p)) for p in _arcs(render_svg(rep))]
    curve = [tuple((1 - u) ** 3 * a + 3 * (1 - u) ** 2 * u * b + 3 * (1 - u) * u ** 2 * c
                   + u ** 3 * d for a, b, c, d in zip(*points[i:i + 4]))
             for i in (0, 3, 6, 9) for u in (k / 256 for k in range(257))]
    spans = sorted(max(axis) - min(axis) for axis in zip(*curve))
    assert spans[0] < spans[1] - 50 and abs(spans[1] - 800 * 25 / 29) < 0.2


@pytest.mark.parametrize("rep", [
    catalog.load("boxworld").representations["W_1/2"],
    catalog.load("qubit_xz").representations["W"],
    _ball_rep(2, F(3, 2), ROTATED),
], ids=["boxworld_W_1/2", "qubit_xz", "rotated"])
def test_every_printed_coordinate_is_rounded_from_a_rational(monkeypatch, rep):
    """``fmt`` looks ``round`` up as a module global, so a wrapper there
    sees every value the figure prints: each is an exact rational, never
    a float that an int division or a float constant let in."""
    seen = []

    def exact_round(v):
        assert type(v) in (int, F), f"{type(v).__name__} {v!r} printed"
        seen.append(v)
        return round(v)

    monkeypatch.setattr(plot, "round", exact_round, raising=False)
    render_svg(rep)
    assert len(seen) > 20


@pytest.mark.parametrize("radius", [10 ** 300, F(1, 10 ** 60)])
def test_plot_draws_a_scaled_disk_as_the_unit_disk(tmp_path, radius):
    """qubit_xz on a disk of radius R, with its effects and grid read at
    x / R, has the same image W(K), so the same figure; at R = 10^300 the
    squared axis norms are 10^-600, which no float holds."""
    path = tmp_path / "xw.json"
    main(["example", "qubit_xz", "--rep", "W", "--out", str(path)])
    data = json.loads(path.read_text())
    data["state_space"]["radius"] = str(radius)
    for f in [*(e for obs in data["observables"] for e in obs["effects"]),
              *(e for row in data["wigner"]["grid"] for e in row)]:
        f["linear"] = [str(F(c) / radius) for c in f["linear"]]
    path.write_text(json.dumps(data))
    svg = tmp_path / "xw.svg"
    assert main(["plot", str(path), "--out", str(svg)]) == 0
    assert svg.read_text() == render_svg(catalog.load("qubit_xz").representations["W"])


def test_a_rank_one_ball_image_collapses_to_a_segment():
    """A grid that reads one coordinate of a disk has a segment as its
    image: the ellipse's points all lie on one horizontal line, across
    the segment's full width."""
    x = (F(1, 4), F(0))
    rep = _ball_rep(2, F(1), [[x, (-x[0], F(0))], [x, (-x[0], F(0))]])
    svg = render_svg(rep)
    points = _arcs(svg)
    assert len({y for _, y in points}) == 1
    xs = [x for x, _ in points]
    assert max(xs) - min(xs) > 400


def test_a_constant_ball_image_collapses_to_a_point():
    zero = (F(0), F(0))
    points = _arcs(render_svg(_ball_rep(2, F(1), [[zero, zero], [zero, zero]])))
    assert set(points) == {(400, 400)}


def test_a_segment_image_draws_an_open_path():
    segment = Polytope([(0,), (1,)])
    one = AffineFunctional.one(1)
    x = AffineFunctional((1,), 0)
    obs = Observable("A", (0, 1), (x, one - x))
    unit = Observable("B", ("*",), (one,))
    svg = render_svg(WignerRep(segment, obs, unit, ((x,), (one - x,))))
    image = re.search(r'<path d="(M [^"]*)" fill="none" stroke="#4477aa"', svg)[1]
    assert image.startswith("M ") and " L " in image and not image.endswith("Z")
    assert svg.count('r="4"') == 2
