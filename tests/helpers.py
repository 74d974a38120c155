"""Random exact-rational instances for the property suites.

Everything is generated from a seeded ``random.Random`` so the suites
are reproducible; all outputs are valid by construction (polytopes in
convex position, observables with effects in [0, 1] summing to one).
"""

from fractions import Fraction as F
import math
import random

from wignerlab import catalog
from wignerlab.exact import solve_affine, unit
from wignerlab.geometry import AffineFunctional, Ball, Polytope, extremal_range
from wignerlab.theory import Observable, Theory
from wignerlab.wigner import WignerRep, construct_family


def random_fraction(rng: random.Random, lo=-3, hi=3, den=4) -> F:
    return F(rng.randint(lo * den, hi * den), den)


def random_polygon(rng: random.Random, max_points: int = 5) -> Polytope:
    """Hull of a few random rational points in the plane (dim can degenerate)."""
    k = rng.randint(1, max_points)
    pts = [(random_fraction(rng), random_fraction(rng)) for _ in range(k)]
    return Polytope.hull_of(pts)


def random_effect_split(rng: random.Random, space, n_outcomes: int):
    """Effects f_1..f_n with each f_i in [0, 1] on the space and sum 1."""
    dim = space.ambient_dim
    remaining = AffineFunctional.one(dim)
    effects = []
    for _ in range(n_outcomes - 1):
        lo, _ = extremal_range(space, remaining)
        budget = lo.as_rational()
        h = AffineFunctional(
            tuple(random_fraction(rng, -2, 2) for _ in range(dim)), F(0)
        )
        h_lo, h_hi = extremal_range(space, h)
        h_lo, h_hi = h_lo.as_rational(), h_hi.as_rational()
        if h_hi == h_lo:
            f = AffineFunctional.const(dim, budget * F(rng.randint(0, 4), 8))
        else:
            # normalize h into [0, 1] then scale under the remaining budget
            unit = (h - AffineFunctional.const(dim, h_lo)).scale(1 / (h_hi - h_lo))
            f = unit.scale(budget * F(rng.randint(0, 8), 8))
        effects.append(f)
        remaining = remaining - f
    effects.append(remaining)
    return tuple(effects)


def random_observable(rng: random.Random, space, name: str, n_outcomes: int) -> Observable:
    return Observable(
        name, tuple(range(n_outcomes)), random_effect_split(rng, space, n_outcomes)
    )


def random_theory(
    rng: random.Random,
    max_points: int = 5,
    outcome_choices=(2, 2, 3),
) -> Theory:
    space = random_polygon(rng, max_points)
    obs_a = random_observable(rng, space, "A", rng.choice(outcome_choices))
    obs_b = random_observable(rng, space, "B", rng.choice(outcome_choices))
    return Theory(space, (obs_a, obs_b))


def generalized_boxworld(m: int, n: int) -> Theory:
    """Boxworld's family, the product of simplices Delta_{m-1} x Delta_{n-1}.

    The vertices are (e_a, e_b) in R^{m+n-2}, where e_0 = 0 and e_k is the
    k-th unit vector of its factor.  A (m outcomes) and B (n outcomes) are
    the coordinate observables: A_a = x_a and A_0 = 1 - sum of A's
    coordinates, likewise for B.  At 2 x 2 the state space is boxworld's
    square.
    """
    dim = m + n - 2

    def corner(k: int, at: int) -> tuple:
        return tuple(int(k > 0 and i == at + k - 1) for i in range(dim))

    space = Polytope([
        tuple(x + y for x, y in zip(corner(a, 0), corner(b, m - 1)))
        for a in range(m) for b in range(n)
    ])

    def observable(name: str, size: int, at: int) -> Observable:
        coords = [AffineFunctional.coordinate(dim, at + k) for k in range(size - 1)]
        rest = sum(coords, AffineFunctional.zero(dim))
        return Observable(name, tuple(range(size)), (AffineFunctional.one(dim) - rest, *coords))

    return Theory(space, (observable("A", m, 0), observable("B", n, m - 1)))


def random_free_block(rng: random.Random, space, obs_a, obs_b, anchor=None):
    """Random functionals for the free slots of the family constructor."""
    alpha = obs_a.n_outcomes - 1 if anchor is None else anchor[0]
    beta = obs_b.n_outcomes - 1 if anchor is None else anchor[1]
    dim = space.ambient_dim
    free = {}
    for a in range(obs_a.n_outcomes):
        for b in range(obs_b.n_outcomes):
            if a != alpha and b != beta and rng.random() < 0.8:
                free[(a, b)] = AffineFunctional(
                    tuple(random_fraction(rng, -1, 1) for _ in range(dim)),
                    random_fraction(rng, -1, 1),
                )
    return free


def random_rotation(rng: random.Random):
    """Rational orthogonal 3x3 matrix (I - S)(I + S)^-1 for a random skew S."""
    a, b, c = (random_fraction(rng, -1, 1, 2) for _ in range(3))
    skew = [[F(0), a, b], [-a, F(0), c], [-b, -c, F(0)]]
    plus = [[int(i == j) + skew[i][j] for j in range(3)] for i in range(3)]
    inv_cols = [solve_affine(plus, unit(3, j)).particular for j in range(3)]
    return [
        [sum((int(i == k) - skew[i][k]) * inv_cols[j][k] for k in range(3))
         for j in range(3)]
        for i in range(3)
    ]


def qubit_ball_image(rng: random.Random, random_member: bool = False) -> WignerRep:
    """The catalog qubit-ball representation W under x -> s Q x + t.

    Q is a random rational rotation, s a rational scale and t a rational
    shift; with ``random_member`` the result is instead the family member
    on the image theory with a random functional in the free slot (0, 0).
    """
    entry = catalog.load("qubit_ball")
    q = random_rotation(rng)
    scale = F(rng.randint(1, 8), 4)
    shift = tuple(random_fraction(rng, -1, 1) for _ in range(3))

    def push(f: AffineFunctional) -> AffineFunctional:
        # f(T^-1 y) with T^-1 y = Q^T (y - t) / s
        lin = tuple(sum(q[i][k] * f.linear[k] for k in range(3)) / scale for i in range(3))
        return AffineFunctional(lin, f.constant - sum(x * t for x, t in zip(lin, shift)))

    theory = entry.theory
    space = Ball(shift, scale)
    obs_a, obs_b = (
        Observable(o.name, o.outcomes, tuple(push(e) for e in o.effects))
        for o in (theory.obs_a, theory.obs_b)
    )
    if random_member:
        lin = tuple(random_fraction(rng, -1, 1) for _ in range(3))
        free = AffineFunctional(lin, random_fraction(rng, -1, 1))
        return construct_family(obs_a, obs_b, space, {(0, 0): free})
    grid = tuple(tuple(push(f) for f in row) for row in entry.representations["W"].grid)
    return WignerRep(space, obs_a, obs_b, grid)


def extremal_to_float(v) -> float:
    """An ``ExtremalValue`` a + b sqrt(s) in floating point, to compare
    the exact comparison against."""
    return float(v.rational_part) + float(v.radical_part) * math.sqrt(float(v.radicand))
