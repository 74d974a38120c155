"""Seeded exact-rational inputs for the random-symmetry and verify-replay workloads.

Every instance comes from a ``random.Random`` seeded by the caller, so the
same seed gives the same inputs.  Instances are valid by construction:
polygons are convex hulls of their points, effects stay in [0, 1] on the
state space and sum to the unit effect, and similarities send the Bloch
ball onto another ball.
"""

from __future__ import annotations

import random
from fractions import Fraction as F

from wignerlab import catalog
from wignerlab.geometry import AffineFunctional, Ball, Polytope, extremal_range
from wignerlab.theory import Observable, Theory


def rational(rng: random.Random, lo=-3, hi=3, den=4) -> F:
    return F(rng.randint(lo * den, hi * den), den)


def polygon(rng: random.Random, n_vertices: int) -> Polytope:
    """Hull of random rational points with exactly ``n_vertices`` vertices."""
    while True:
        pts = [(rational(rng), rational(rng)) for _ in range(n_vertices)]
        poly = Polytope.hull_of(pts)
        if len(poly.vertices) == n_vertices:
            return poly


def effect_split(rng: random.Random, space, n_outcomes: int) -> tuple:
    """Effects f_1..f_n, each in [0, 1] on ``space``, summing to one."""
    dim = space.ambient_dim
    remaining = AffineFunctional.one(dim)
    effects = []
    for _ in range(n_outcomes - 1):
        budget = extremal_range(space, remaining)[0].as_rational()
        h = AffineFunctional(tuple(rational(rng, -2, 2) for _ in range(dim)), F(0))
        h_lo, h_hi = (v.as_rational() for v in extremal_range(space, h))
        if h_hi == h_lo:
            f = AffineFunctional.const(dim, budget * F(rng.randint(0, 4), 8))
        else:
            unit = (h - AffineFunctional.const(dim, h_lo)).scale(1 / (h_hi - h_lo))
            f = unit.scale(budget * F(rng.randint(1, 8), 8))
        effects.append(f)
        remaining = remaining - f
    effects.append(remaining)
    return tuple(effects)


def polygon_theory(rng: random.Random, n_vertices: int, n_a: int, n_b: int) -> Theory:
    space = polygon(rng, n_vertices)
    obs_a = Observable("A", tuple(range(n_a)), effect_split(rng, space, n_a))
    obs_b = Observable("B", tuple(range(n_b)), effect_split(rng, space, n_b))
    return Theory(space, (obs_a, obs_b))


def free_block(rng: random.Random, theory: Theory) -> dict:
    """Random functionals for the free slots (anchor at the last outcomes)."""
    n_a, n_b = theory.obs_a.n_outcomes, theory.obs_b.n_outcomes
    dim = theory.state_space.ambient_dim
    return {
        (a, b): AffineFunctional(
            tuple(rational(rng, -1, 1) for _ in range(dim)), rational(rng, -1, 1)
        )
        for a in range(n_a - 1)
        for b in range(n_b - 1)
        if rng.random() < 0.8
    }


def _solve3(m, rhs):
    """Exact solution of a nonsingular 3x3 system by Gauss-Jordan."""
    aug = [list(row) + [r] for row, r in zip(m, rhs)]
    for c in range(3):
        p = next(r for r in range(c, 3) if aug[r][c] != 0)
        aug[c], aug[p] = aug[p], aug[c]
        piv = aug[c][c]
        aug[c] = [x / piv for x in aug[c]]
        for r in range(3):
            if r != c and aug[r][c]:
                f = aug[r][c]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[c])]
    return [aug[r][3] for r in range(3)]


def cayley_rotation(rng: random.Random):
    """Rational orthogonal 3x3 matrix Q = (I - S)(I + S)^-1, S skew."""
    a, b, c = (rational(rng, -1, 1, 2) for _ in range(3))
    s = [[F(0), a, b], [-a, F(0), c], [-b, -c, F(0)]]
    i_plus = [[F(int(i == j)) + s[i][j] for j in range(3)] for i in range(3)]
    i_minus = [[F(int(i == j)) - s[i][j] for j in range(3)] for i in range(3)]
    # columns of (I + S)^-1, then Q = (I - S) (I + S)^-1
    inv_cols = [_solve3(i_plus, [F(int(i == j)) for i in range(3)]) for j in range(3)]
    return [
        [sum(i_minus[i][k] * inv_cols[j][k] for k in range(3)) for j in range(3)]
        for i in range(3)
    ]


def ball_image(rng: random.Random, random_rep: bool = False) -> tuple[Theory, dict]:
    """The qubit-ball theory under x -> s Q x + t, with a free block.

    The free block (slot (0, 0)) makes ``construct_family`` rebuild the
    image of the catalog representation W, or with ``random_rep`` a random
    member of the family.
    """
    entry = catalog.load("qubit_ball")
    q = cayley_rotation(rng)
    scale = F(rng.randint(1, 8), 4)
    shift = tuple(rational(rng, -1, 1) for _ in range(3))

    def push(f: AffineFunctional) -> AffineFunctional:
        # f(T^-1 y) with T^-1 y = Q^T (y - t) / s
        lin = tuple(sum(q[i][k] * f.linear[k] for k in range(3)) / scale for i in range(3))
        const = f.constant - sum(lin[i] * shift[i] for i in range(3))
        return AffineFunctional(lin, const)

    theory = entry.theory
    obs = [
        Observable(o.name, o.outcomes, tuple(push(e) for e in o.effects))
        for o in (theory.obs_a, theory.obs_b)
    ]
    image = Theory(Ball(shift, scale), tuple(obs))
    if random_rep:
        free = AffineFunctional(tuple(rational(rng, -1, 1) for _ in range(3)),
                                rational(rng, -1, 1))
    else:
        free = push(entry.representations["W"].grid[0][0])
    return image, {(0, 0): free}
