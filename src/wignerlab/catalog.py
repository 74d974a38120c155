"""Built-in example theories: the worked examples as data.

Each entry bundles a theory, named representations, channels where the
backend needs them, and named channels and phase-point maps that its
facts refer to.  ``load`` builds an entry afresh.  The facts that check
the engine against each entry (worked-example values, derived values and
bookkeeping identities) are regression tests and live with the test
suite (``tests/catalog_facts.py``).
"""

from __future__ import annotations

from fractions import Fraction as F
from typing import Optional

from ._record import record
from .errors import WignerlabError
from .geometry import AffineFunctional, AffineMap, Ball, Polytope
from .symmetry import PhasePointMap, ProductGroupElement
from .theory import Channel, Observable, Theory
from .wigner import WignerRep, construct_family, degenerate_rep


@record
class CatalogEntry:
    name: str
    theory: Theory
    representations: dict[str, WignerRep]
    channels: Optional[dict[ProductGroupElement, Channel]] = None
    named_channels: Optional[dict[str, Channel]] = None
    named_maps: Optional[dict[str, PhasePointMap]] = None
    notes: str = ""

    def __post_init__(self):
        # None (the default) stores a fresh empty dict: no two entries share one
        for name in ("named_channels", "named_maps"):
            if getattr(self, name) is None:
                object.__setattr__(self, name, {})


CATALOG_NAMES = (
    "cube",
    "trit",
    "boxworld",
    "qubit_ball",
    "qubit_xz",
    "rebit_diamond",
    "deformed_12gon",
)


def _two_outcome(name: str, f: AffineFunctional) -> Observable:
    one = AffineFunctional.one(f.dim)
    return Observable(name, (0, 1), (f, one - f))


def load(name: str) -> CatalogEntry:
    """Build a catalog entry afresh."""
    try:
        builder = _BUILDERS[name]
    except KeyError:
        raise WignerlabError(
            f"unknown catalog entry {name!r}; choose from {', '.join(CATALOG_NAMES)}"
        ) from None
    return builder()


def _build_boxworld() -> CatalogEntry:
    square = Polytope([(0, 0), (0, 1), (1, 0), (1, 1)])
    fx = AffineFunctional((1, 0), 0)
    fy = AffineFunctional((0, 1), 0)
    obs_a = _two_outcome("A", fx)
    obs_b = _two_outcome("B", fy)
    obs_c = _two_outcome("C", fx.scale(F(1, 2)))
    obs_d = _two_outcome("D", fy.scale(F(1, 2)))
    theory = Theory(square, (obs_a, obs_b, obs_c, obs_d), pair=("A", "B"))
    w0 = construct_family(obs_a, obs_b, square, {})
    whalf = construct_family(
        obs_a, obs_b, square, {(0, 0): (fx + fy).scale(F(1, 2))}
    )
    wplus = degenerate_rep(obs_c, obs_d, square)
    return CatalogEntry(
        "boxworld", theory,
        {"W_0": w0, "W_1/2": whalf, "W_+": wplus},
        notes="square state space; A/B read the two coordinates, C/D are"
              " their halved (noisy) versions",
    )


def _build_cube() -> CatalogEntry:
    cube = Polytope([(i, j, k) for i in (0, 1) for j in (0, 1) for k in (0, 1)])
    fx = AffineFunctional((1, 0, 0), 0)
    fy = AffineFunctional((0, 1, 0), 0)
    fz = AffineFunctional((0, 0, 1), 0)
    obs_a = _two_outcome("A", fx)
    obs_b = _two_outcome("B", fy)
    theory = Theory(cube, (obs_a, obs_b))
    w0 = construct_family(obs_a, obs_b, cube, {})
    wz = construct_family(obs_a, obs_b, cube, {(0, 0): fz})
    return CatalogEntry(
        "cube", theory, {"W_0": w0, "W_z": wz},
        notes="unit cube; the free slot filled with the third coordinate"
              " upgrades the representation from lossy to faithful",
    )


def _build_trit() -> CatalogEntry:
    simplex = Polytope([(1, 0), (0, 1), (0, 0)])
    f = AffineFunctional((1, 0), 0)
    one = AffineFunctional.one(2)
    obs_a = _two_outcome("A", f)
    obs_b = Observable("unit", ("*",), (one,))
    theory = Theory(simplex, (obs_a, obs_b))
    rep = WignerRep(simplex, obs_a, obs_b, ((f,), (one - f,)))
    rotation = Channel(
        AffineMap.from_rows([[-1, -1], [1, 0]], [1, 0]), simplex, simplex
    )
    return CatalogEntry(
        "trit", theory, {"W": rep},
        named_channels={"rotation": rotation},
        notes="three-state simplex read through a single two-outcome"
              " observable; states s_1=(0,1) and s_2=(0,0) share one image",
    )


def _qubit_effects(dim_idx: dict[str, int], dim: int):
    def pauli_effect(axis: str) -> AffineFunctional:
        linear = [F(0)] * dim
        linear[dim_idx[axis]] = F(1, 2)
        return AffineFunctional(tuple(linear), F(1, 2))

    return pauli_effect


def _build_qubit_ball() -> CatalogEntry:
    ball = Ball((0, 0, 0), 1)
    eff = _qubit_effects({"x": 0, "y": 1, "z": 2}, 3)
    obs_a = _two_outcome("A", eff("z"))
    obs_b = _two_outcome("B", eff("x"))
    theory = Theory(ball, (obs_a, obs_b))

    def w_op(sx, sy, sz) -> AffineFunctional:
        return AffineFunctional((F(sx, 4), F(sy, 4), F(sz, 4)), F(1, 4))

    rep = WignerRep(
        ball, obs_a, obs_b,
        ((w_op(1, 1, 1), w_op(-1, -1, 1)), (w_op(1, -1, -1), w_op(-1, 1, -1))),
    )
    shape = (2, 2)
    phi01 = PhasePointMap.transposition(shape, (0, 0), (0, 1))
    phi10 = PhasePointMap.transposition(shape, (0, 0), (1, 0))
    phi11 = PhasePointMap.transposition(shape, (0, 0), (1, 1))
    return CatalogEntry(
        "qubit_ball", theory, {"W": rep},
        named_maps={"phi01": phi01, "phi10": phi10, "phi11": phi11},
        notes="Bloch ball in (x, y, z) coordinates; the exact minimum of the"
              " (0,0) grid entry over the ball is (1 - sqrt(3))/4, attained"
              " along the direction -(1,1,1)",
    )


def _xz_observables():
    # coordinates (x, z)
    fz = AffineFunctional((0, F(1, 2)), F(1, 2))
    fx = AffineFunctional((F(1, 2), 0), F(1, 2))
    return _two_outcome("A", fz), _two_outcome("B", fx)


def _xz_wigner_grid(space) -> WignerRep:
    obs_a, obs_b = _xz_observables()

    def q(sx, sz) -> AffineFunctional:
        return AffineFunctional((F(sx, 4), F(sz, 4)), F(1, 4))

    return WignerRep(
        space, obs_a, obs_b, ((q(1, 1), q(-1, 1)), (q(1, -1), q(-1, -1)))
    )


def _reflection_channels(space) -> dict[ProductGroupElement, Channel]:
    """The channels of the two outcome swaps, which generate S_2 x S_2."""
    return {
        ProductGroupElement((1, 0), (0, 1)):
            Channel(AffineMap.from_rows([[1, 0], [0, -1]], [0, 0]), space, space),
        ProductGroupElement((0, 1), (1, 0)):
            Channel(AffineMap.from_rows([[-1, 0], [0, 1]], [0, 0]), space, space),
    }


def _build_qubit_xz() -> CatalogEntry:
    disk = Ball((0, 0), 1)
    obs_a, obs_b = _xz_observables()
    theory = Theory(disk, (obs_a, obs_b))
    rep = _xz_wigner_grid(disk)
    channels = _reflection_channels(disk)
    return CatalogEntry(
        "qubit_xz", theory, {"W": rep}, channels=channels,
        notes="unit disk of real-symmetric qubit states in (x, z) Bloch"
              " coordinates, with the four reflection channels",
    )


def _build_rebit_diamond() -> CatalogEntry:
    diamond = Polytope([(1, 0), (-1, 0), (0, 1), (0, -1)])
    obs_a, obs_b = _xz_observables()
    theory = Theory(diamond, (obs_a, obs_b))
    rep = _xz_wigner_grid(diamond)
    return CatalogEntry(
        "rebit_diamond", theory, {"W": rep},
        notes="cross-polytope instance satisfying every hypothesis of the"
              " covariant uniqueness statement",
    )


def _build_deformed_12gon() -> CatalogEntry:
    gon = Polytope(
        [
            (0, 1), (0, -1), (1, 0), (-1, 0),
            (F(3, 5), F(-4, 5)), (F(-3, 5), F(-4, 5)),
            (F(4, 5), F(-3, 5)), (F(-4, 5), F(-3, 5)),
        ]
    )
    obs_a, obs_b = _xz_observables()
    theory = Theory(gon, (obs_a, obs_b))
    return CatalogEntry(
        "deformed_12gon", theory, {},
        notes="unit-circle polygon whose upper arc beyond the chord"
              " x + z = 1 was removed (rational 3-4-5 vertices keep all"
              " arithmetic exact); outcome-permuting channels cannot exist",
    )


_BUILDERS = {
    "cube": _build_cube,
    "trit": _build_trit,
    "boxworld": _build_boxworld,
    "qubit_ball": _build_qubit_ball,
    "qubit_xz": _build_qubit_xz,
    "rebit_diamond": _build_rebit_diamond,
    "deformed_12gon": _build_deformed_12gon,
}
