"""Deterministic SVG figures of a representation's image in phase space.

Draws the projected outcome-simplex vertices as labeled reference
points, the simplex outline, and the image W(K): a polygon for polytope
state spaces, an ellipse for balls.  The projection plane is the affine
hull of the image, with axes from exact Gram-Schmidt over the first two
independent directions (the image's edge vectors in lexicographic vertex
order on polytopes, the grid's coefficient columns on balls).

Every coordinate is an exact rational until it is printed.  Points sit
along the unnormalized axes: scaling an axis by a positive constant
keeps the hull and its vertex order, so the outlines come from Andrew's
monotone chain on rationals, and the ratio of the two axis norms enters
only the view transform, rounded by ``geometry._root``.  A ball of
radius r maps onto the unit disk under r L, where L L^T = M is the
Cholesky factor of the image's Gram matrix M along the same axes; it is
drawn as four cubic arcs whose control points r L maps, and framed by its
extents r sqrt(M_00) and r sqrt(M_11).  Each coordinate is rounded to
four decimals when printed, so the output is byte-identical across runs.
"""

from __future__ import annotations

from .errors import WignerlabError
from .exact import QQ, rank, vec_dot, vec_sub
from .geometry import Polytope, _root
from .wigner import WignerRep, evaluate

VIEWPORT = 800
PAD_FRACTION = QQ(2, 25)
BITS = 64  # of each rounded square root, far below the printed 10^-4
# the control points (1, KAPPA), (KAPPA, 1) of a quarter circle's cubic arc
KAPPA = 4 * (_root(QQ(2), BITS, up=False) - 1) / 3


class PlotError(WignerlabError):
    """The image cannot be drawn in the plane."""


def _projection_basis(candidates):
    """Exact Gram-Schmidt over the first two independent directions."""
    u1 = None
    u2 = None
    for d in candidates:
        if not any(d):
            continue
        if u1 is None:
            u1 = d
        elif rank([u1, d]) == 2:
            u2 = d
            break
    if u2 is None:
        return u1, None
    coeff = vec_dot(u2, u1) / vec_dot(u1, u1)
    w2 = tuple(b - coeff * a for a, b in zip(u1, u2))
    return u1, w2


def _convex_hull_2d(points):
    """Andrew monotone chain on rationals; returns hull in CCW order."""
    pts = sorted(set(points))
    if len(pts) <= 2:
        return pts

    def cross(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    lower, upper = [], []
    for p in pts:
        while len(lower) >= 2 and cross(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    for p in reversed(pts):
        while len(upper) >= 2 and cross(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    return lower[:-1] + upper[:-1]


def render_svg(rep: WignerRep) -> str:
    space = rep.state_space
    n_a, n_b = rep.shape
    n = n_a * n_b
    if isinstance(space, Polytope):
        image = sorted(set(evaluate(rep, v).flatten() for v in space.vertices))
        origin = image[0]
        dirs = [vec_sub(p, origin) for p in image[1:]]
    else:
        origin = evaluate(rep, space.center).flatten()
        dirs = [tuple(f.linear[j] for f in rep.functionals())
                for j in range(space.ambient_dim)]
    if dirs and rank(dirs) > 2:
        raise PlotError("the image spans more than two dimensions")
    axes = _projection_basis(dirs)

    def coords(d):
        return tuple(vec_dot(d, u) if u is not None else QQ(0) for u in axes)

    deltas = []
    for a in range(n_a):
        for b in range(n_b):
            flat = tuple(QQ(1) if k == a * n_b + b else QQ(0) for k in range(n))
            label = f"{rep.obs_a.outcomes[a]},{rep.obs_b.outcomes[b]}"
            deltas.append((label, coords(vec_sub(flat, origin))))
    world = [p for _, p in deltas]

    ring = []
    if isinstance(space, Polytope):
        image = [coords(vec_sub(p, origin)) for p in image]
        world += image
    else:
        image = []
        cols = [coords(d) for d in dirs]  # B, the image of the unit directions
        m00 = sum((c[0] * c[0] for c in cols), QQ(0))  # M = B B^T
        m01 = sum((c[0] * c[1] for c in cols), QQ(0))
        m11 = sum((c[1] * c[1] for c in cols), QQ(0))
        r2 = space.radius ** 2
        l00 = _root(r2 * m00, BITS, up=False)
        l10 = l11 = QQ(0)
        if m00:
            l10 = r2 * m01 / l00
            l11 = _root(r2 * (m11 - m01 * m01 / m00), BITS, up=False)
        extent = (l00, _root(r2 * m11, BITS, up=False))
        world += [extent, (-extent[0], -extent[1])]
        arc = [(QQ(1), QQ(0)), (QQ(1), KAPPA), (KAPPA, QQ(1))]
        for _ in range(4):
            ring += [(l00 * x, l10 * x + l11 * y) for x, y in arc]
            arc = [(-y, x) for x, y in arc]
        ring.append(ring[0])

    # the view sees the axes at their norms' ratio, the world padded and centered
    u1, w2 = axes
    ratio = QQ(1) if w2 is None else _root(vec_dot(u1, u1) / vec_dot(w2, w2), BITS, up=False)
    xs, ys = zip(*world)
    mid_x, mid_y = (min(xs) + max(xs)) / 2, (min(ys) + max(ys)) / 2
    span = max(max(xs) - min(xs), (max(ys) - min(ys)) * ratio) or QQ(1)
    scale = VIEWPORT / (span * (1 + 2 * PAD_FRACTION))

    def to_view(p):
        return (VIEWPORT // 2 + (p[0] - mid_x) * scale,
                VIEWPORT // 2 - (p[1] - mid_y) * ratio * scale)

    def fmt(v) -> str:
        n = round(v * 10000)
        return f"{'-' if n < 0 else ''}{abs(n) // 10000}.{abs(n) % 10000:04d}"

    def point(p) -> str:
        return " ".join(map(fmt, to_view(p)))

    def path(points, close=True) -> str:
        cmds = [f"{'M' if i == 0 else 'L'} {fmt(x)} {fmt(y)}"
                for i, (x, y) in enumerate(to_view(p) for p in points)]
        return " ".join(cmds) + (" Z" if close else "")

    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{VIEWPORT}"'
        f' height="{VIEWPORT}" viewBox="0 0 {VIEWPORT} {VIEWPORT}">',
        f'<rect x="0" y="0" width="{VIEWPORT}" height="{VIEWPORT}" fill="#ffffff"/>',
    ]
    simplex_outline = _convex_hull_2d([p for _, p in deltas])
    if len(simplex_outline) >= 2:
        lines.append(
            f'<path d="{path(simplex_outline)}" fill="none" stroke="#888888"'
            ' stroke-width="1.5" stroke-dasharray="8 5"/>'
        )
    image_outline = _convex_hull_2d(image)
    if len(image_outline) >= 3:
        lines.append(
            f'<path d="{path(image_outline)}" fill="#4477aa" fill-opacity="0.25"'
            ' stroke="#4477aa" stroke-width="2"/>'
        )
    elif len(image_outline) == 2:
        lines.append(
            f'<path d="{path(image_outline, close=False)}" fill="none"'
            ' stroke="#4477aa" stroke-width="2"/>'
        )
    for p in sorted(set(image)):
        x, y = to_view(p)
        lines.append(
            f'<circle cx="{fmt(x)}" cy="{fmt(y)}" r="4" fill="#4477aa"/>'
        )
    if ring:
        arcs = [f"C {point(a)} {point(b)} {point(c)}"
                for a, b, c in zip(ring[1::3], ring[2::3], ring[3::3])]
        lines.append(
            f'<path d="M {point(ring[0])} {" ".join(arcs)} Z"'
            ' fill="#4477aa" fill-opacity="0.25" stroke="#4477aa" stroke-width="2"/>'
        )
    for label, p in deltas:
        x, y = to_view(p)
        lines.append(
            f'<circle cx="{fmt(x)}" cy="{fmt(y)}" r="5" fill="#cc3311"/>'
        )
        lines.append(
            f'<text x="{fmt(x + 10)}" y="{fmt(y - 8)}" font-family="monospace"'
            f' font-size="20" fill="#cc3311">{label}</text>'
        )
    lines.append("</svg>")
    return "\n".join(lines) + "\n"
