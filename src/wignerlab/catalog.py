"""Built-in example theories with replayable expectations.

Each entry bundles a theory, named representations, channels where the
backend needs them, and a list of expected facts tagged by provenance
("worked-example" for values the entry reproduces verbatim, "derived"
for values obtained by independent computation, "trivial" for
bookkeeping identities).  ``replay`` re-runs every expectation through
the engine, which makes the catalog the regression corpus.
"""

from __future__ import annotations

from fractions import Fraction as F
from typing import Optional

from ._record import record
from .errors import WignerlabError
from .exact import verify_certificate
from .geometry import (
    AffineFunctional,
    AffineMap,
    Ball,
    ExtremalValue,
    Polytope,
    contains,
    map_into,
)
from .symmetry import (
    PhasePointMap,
    ProductGroupElement,
    TransportObstruction,
    enumerate_lifted_symmetries,
    find_symmetry_for_channel,
    find_transported_channel,
    induced_action,
    is_g_symmetric,
    is_symmetry,
    lift,
    solve_covariant,
)
from .theory import (
    Channel,
    Compatible,
    Observable,
    Theory,
    are_compatible,
    are_complementary,
    is_surjective,
    jointly_info_complete,
    validate,
)
from .wigner import (
    WignerRep,
    check_marginals,
    construct_family,
    degenerate_rep,
    evaluate,
    faithful_choice_possible,
    grid_rank,
    is_faithful,
    is_positive,
)


@record
class Expectation:
    label: str
    provenance: str  # worked-example | derived | trivial
    kind: str
    payload: dict


@record
class CatalogEntry:
    name: str
    theory: Theory
    representations: dict[str, WignerRep]
    expected: tuple[Expectation, ...]
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


def _grid(rows) -> tuple:
    return tuple(tuple(F(x) for x in row) for row in rows)


def load(name: str) -> CatalogEntry:
    """Build a catalog entry afresh and re-validate its invariants."""
    try:
        builder = _BUILDERS[name]
    except KeyError:
        raise WignerlabError(
            f"unknown catalog entry {name!r}; choose from {', '.join(CATALOG_NAMES)}"
        ) from None
    entry = builder()
    problems = validate(entry.theory)
    if problems:  # pragma: no cover - entries are validated by construction
        raise WignerlabError(f"catalog entry {name} failed validation: {problems}")
    for rep_name, rep in entry.representations.items():
        if not check_marginals(rep).ok:  # pragma: no cover
            raise WignerlabError(f"{name}.{rep_name} violates its marginals")
    return entry


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
    s = {"s00": (0, 0), "s01": (0, 1), "s10": (1, 0), "s11": (1, 1)}
    ex: list[Expectation] = []
    for rep, state, grid in [
        ("W_0", "s00", [[0, 0], [0, 1]]),
        ("W_0", "s01", [[0, 0], [1, 0]]),
        ("W_0", "s10", [[0, 1], [0, 0]]),
        ("W_0", "s11", [[0, 1], [1, -1]]),
        ("W_1/2", "s00", [[0, 0], [0, 1]]),
        ("W_1/2", "s01", [["1/2", "-1/2"], ["1/2", "1/2"]]),
        ("W_1/2", "s10", [["1/2", "1/2"], ["-1/2", "1/2"]]),
        ("W_1/2", "s11", [[1, 0], [0, 0]]),
        ("W_+", "s00", [[0, 0], [0, 1]]),
        ("W_+", "s01", [[0, 0], ["1/2", "1/2"]]),
        ("W_+", "s10", [[0, "1/2"], [0, "1/2"]]),
        ("W_+", "s11", [[0, "1/2"], ["1/2", 0]]),
    ]:
        ex.append(
            Expectation(
                f"{rep}({state})", "worked-example", "evaluate",
                {"rep": rep, "state": s[state], "grid": _grid(grid)},
            )
        )
    ex += [
        Expectation("A,B incompatible", "worked-example", "compatible",
                    {"pair": ("A", "B"), "expect": False}),
        Expectation("C,D compatible", "worked-example", "compatible",
                    {"pair": ("C", "D"), "expect": True}),
        Expectation("A,B jointly info-complete", "worked-example", "info_complete",
                    {"pair": ("A", "B"), "expect": True}),
        Expectation("A,B not complementary", "worked-example", "complementary",
                    {"pair": ("A", "B"), "expect": False}),
        Expectation("A surjective", "trivial", "surjective", {"obs": "A", "expect": True}),
        Expectation("C not surjective", "worked-example", "surjective",
                    {"obs": "C", "expect": False}),
        Expectation("every member faithful: W_0", "worked-example", "faithful",
                    {"rep": "W_0", "expect": True}),
        Expectation("every member faithful: W_1/2", "worked-example", "faithful",
                    {"rep": "W_1/2", "expect": True}),
        Expectation("W_0 not positive", "worked-example", "positive",
                    {"rep": "W_0", "expect": False}),
        Expectation("W_+ positive", "worked-example", "positive",
                    {"rep": "W_+", "expect": True}),
        Expectation(
            "lifted symmetries of W_0", "worked-example", "lifted_symmetries_exact",
            {"rep": "W_0",
             "maps": ({}, {(0, 1): (1, 0), (1, 0): (0, 1)})},
        ),
        Expectation(
            "W_1/2 passes 01<->10", "worked-example", "symmetry_pass",
            {"rep": "W_1/2", "map": {(0, 1): (1, 0), (1, 0): (0, 1)}},
        ),
        Expectation(
            "W_1/2 passes 00<->11", "worked-example", "symmetry_pass",
            {"rep": "W_1/2", "map": {(0, 0): (1, 1), (1, 1): (0, 0)}},
        ),
        Expectation(
            "W_1/2 fails 00<->01", "worked-example", "symmetry_fail",
            {"rep": "W_1/2", "map": {(0, 0): (0, 1), (0, 1): (0, 0)},
             "image": _grid([["-1/2", "1/2"], ["1/2", "1/2"]])},
        ),
        Expectation(
            "covariant representation", "derived", "covariant_unique",
            {"grid00": AffineFunctional((F(1, 2), F(1, 2)), F(-1, 4))},
        ),
        Expectation(
            "faithful choice inequality 1 >= 0", "derived", "faithful_choice",
            {"free_slots": 1, "required": 0, "expect": True},
        ),
    ]
    return CatalogEntry(
        "boxworld", theory,
        {"W_0": w0, "W_1/2": whalf, "W_+": wplus},
        tuple(ex),
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
    ex = [
        Expectation("W_z faithful", "worked-example", "faithful",
                    {"rep": "W_z", "expect": True}),
        Expectation("W_0 not faithful", "worked-example", "faithful",
                    {"rep": "W_0", "expect": False}),
        Expectation("W_z grid rank 4", "worked-example", "grid_rank",
                    {"rep": "W_z", "expect": 4}),
        Expectation("W_0 grid rank 3", "worked-example", "grid_rank",
                    {"rep": "W_0", "expect": 3}),
        Expectation("degenerate rep equals W_0", "trivial", "degenerate_equals",
                    {"rep": "W_0"}),
        Expectation("faithful choice 1 >= 1", "derived", "faithful_choice",
                    {"free_slots": 1, "required": 1, "expect": True}),
    ]
    for i in (0, 1):
        for j in (0, 1):
            ex.append(
                Expectation(
                    f"W_0 collapses s_{i}{j}0 and s_{i}{j}1", "worked-example",
                    "evaluate_equal",
                    {"rep": "W_0", "states": ((i, j, 0), (i, j, 1))},
                )
            )
    return CatalogEntry(
        "cube", theory, {"W_0": w0, "W_z": wz}, tuple(ex),
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
    ex = [
        Expectation("representation is forced", "trivial", "marginals",
                    {"rep": "W"}),
        Expectation("not faithful", "derived", "faithful",
                    {"rep": "W", "expect": False}),
        Expectation(
            "rotation has no transported symmetry", "worked-example",
            "transport_obstruction",
            {"rep": "W", "channel": "rotation",
             "pair": ((0, 1), (0, 0))},
        ),
        Expectation(
            "outcome swap is transported", "derived", "transported_exists",
            {"rep": "W", "map": {(0, 0): (1, 0), (1, 0): (0, 0)}},
        ),
    ]
    return CatalogEntry(
        "trit", theory, {"W": rep}, tuple(ex),
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
    ex = [
        Expectation("marginals", "trivial", "marginals", {"rep": "W"}),
        Expectation("faithful", "worked-example", "faithful",
                    {"rep": "W", "expect": True}),
        Expectation("grid rank 4", "worked-example", "grid_rank",
                    {"rep": "W", "expect": 4}),
        Expectation(
            "coordinate recovery from the grid", "worked-example",
            "functional_identity",
            {"rep": "W",
             "combos": (
                 # x = W00 + W10 - W01 - W11, y = W00 + W11 - W01 - W10,
                 # z = W00 + W01 - W10 - W11 (flat index order 00,01,10,11)
                 ((1, -1, 1, -1), AffineFunctional((1, 0, 0), 0)),
                 ((1, -1, -1, 1), AffineFunctional((0, 1, 0), 0)),
                 ((1, 1, -1, -1), AffineFunctional((0, 0, 1), 0)),
             )},
        ),
        Expectation(
            "not positive; exact ball minimum of entry (0,0)", "derived",
            "negativity_value",
            {"rep": "W", "value": ExtremalValue(F(1, 4), F(-1, 4), 3),
             "phase_point": (0, 0), "direction": (F(-1, 4), F(-1, 4), F(-1, 4))},
        ),
        Expectation(
            "G4-symmetric via the three transposition generators",
            "worked-example", "g_symmetric",
            {"rep": "W", "generators": ("phi01", "phi10", "phi11"),
             "expect": True},
        ),
        Expectation(
            "induced action of phi01", "worked-example", "induced_action",
            {"rep": "W", "map": "phi01",
             "matrix": ((0, -1, 0), (-1, 0, 0), (0, 0, 1))},
        ),
        Expectation(
            "induced action of phi10", "worked-example", "induced_action",
            {"rep": "W", "map": "phi10",
             "matrix": ((1, 0, 0), (0, 0, -1), (0, -1, 0))},
        ),
        Expectation(
            "induced action of phi11", "worked-example", "induced_action",
            {"rep": "W", "map": "phi11",
             "matrix": ((0, 0, -1), (0, 1, 0), (-1, 0, 0))},
        ),
        Expectation("complementary", "worked-example", "complementary",
                    {"pair": ("A", "B"), "expect": True}),
        Expectation("not jointly info-complete", "worked-example", "info_complete",
                    {"pair": ("A", "B"), "expect": False}),
    ]
    return CatalogEntry(
        "qubit_ball", theory, {"W": rep}, tuple(ex),
        named_maps={"phi01": phi01, "phi10": phi10, "phi11": phi11},
        notes="Bloch ball in (x, y, z) coordinates; the exact minimum of the"
              " (0,0) grid entry over the ball is (1 - sqrt(3))/4, attained"
              " along the direction -(1,1,1)",
    )


def _xz_observables(dim: int = 2):
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
    ex = [
        Expectation("marginals", "trivial", "marginals", {"rep": "W"}),
        Expectation("entry (0,0) reads (x + z + 1)/4", "worked-example",
                    "grid_entry",
                    {"rep": "W", "at": (0, 0),
                     "functional": AffineFunctional((F(1, 4), F(1, 4)), F(1, 4))}),
        Expectation("complementary", "worked-example", "complementary",
                    {"pair": ("A", "B"), "expect": True}),
        Expectation("jointly info-complete", "worked-example", "info_complete",
                    {"pair": ("A", "B"), "expect": True}),
        Expectation("surjective A", "derived", "surjective", {"obs": "A", "expect": True}),
        Expectation("surjective B", "derived", "surjective", {"obs": "B", "expect": True}),
        Expectation("unique covariant representation equals W", "worked-example",
                    "covariant_matches_rep", {"rep": "W"}),
    ]
    return CatalogEntry(
        "qubit_xz", theory, {"W": rep}, tuple(ex), channels=channels,
        notes="unit disk of real-symmetric qubit states in (x, z) Bloch"
              " coordinates, with the four reflection channels",
    )


def _build_rebit_diamond() -> CatalogEntry:
    diamond = Polytope([(1, 0), (-1, 0), (0, 1), (0, -1)])
    obs_a, obs_b = _xz_observables()
    theory = Theory(diamond, (obs_a, obs_b))
    rep = _xz_wigner_grid(diamond)
    ex = [
        Expectation("marginals", "trivial", "marginals", {"rep": "W"}),
        Expectation("jointly info-complete", "derived", "info_complete",
                    {"pair": ("A", "B"), "expect": True}),
        Expectation("complementary", "derived", "complementary",
                    {"pair": ("A", "B"), "expect": True}),
        Expectation("surjective A", "derived", "surjective", {"obs": "A", "expect": True}),
        Expectation("surjective B", "derived", "surjective", {"obs": "B", "expect": True}),
        Expectation("unique covariant representation equals W", "derived",
                    "covariant_matches_rep", {"rep": "W"}),
    ]
    return CatalogEntry(
        "rebit_diamond", theory, {"W": rep}, tuple(ex),
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
    ex = [
        Expectation("upper circle points were cut", "derived", "contains",
                    {"point": (F(3, 5), F(4, 5)), "expect": False}),
        Expectation(
            "z-flip leaves the state space", "derived", "map_into_fails",
            {"matrix": ((1, 0), (0, -1)), "offset": (0, 0),
             "witness_point": (F(3, 5), F(-4, 5)),
             "witness_image": (F(3, 5), F(4, 5))},
        ),
        Expectation("jointly info-complete", "derived", "info_complete",
                    {"pair": ("A", "B"), "expect": True}),
        Expectation("complementary", "derived", "complementary",
                    {"pair": ("A", "B"), "expect": True}),
        Expectation("surjective A", "derived", "surjective", {"obs": "A", "expect": True}),
        Expectation("surjective B", "derived", "surjective", {"obs": "B", "expect": True}),
        Expectation(
            "no covariant representation", "derived", "covariant_none",
            {"element": ((1, 0), (0, 1)),
             "witness_point": (F(3, 5), F(-4, 5))},
        ),
    ]
    return CatalogEntry(
        "deformed_12gon", theory, {}, tuple(ex),
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


def replay(entry: CatalogEntry) -> list[tuple[str, bool, str]]:
    """Re-run every expectation; returns (label, passed, provenance)."""
    results = []
    for ex in entry.expected:
        results.append((ex.label, _replay_one(entry, ex), ex.provenance))
    return results


def _phase_map(shape, mapping) -> PhasePointMap:
    return PhasePointMap.from_pairs(shape, mapping)


def _replay_one(entry: CatalogEntry, ex: Expectation) -> bool:
    theory = entry.theory
    space = theory.state_space
    p = ex.payload
    kind = ex.kind
    if kind == "evaluate":
        rep = entry.representations[p["rep"]]
        return evaluate(rep, p["state"]).entries == p["grid"]
    if kind == "evaluate_equal":
        rep = entry.representations[p["rep"]]
        a, b = p["states"]
        return evaluate(rep, a) == evaluate(rep, b)
    if kind == "marginals":
        return check_marginals(entry.representations[p["rep"]]).ok
    if kind == "compatible":
        a, b = (theory.observable(n) for n in p["pair"])
        result = are_compatible(a, b, space)
        return isinstance(result, Compatible) == p["expect"]
    if kind == "info_complete":
        a, b = (theory.observable(n) for n in p["pair"])
        return jointly_info_complete(a, b, space) == p["expect"]
    if kind == "complementary":
        a, b = (theory.observable(n) for n in p["pair"])
        return are_complementary(a, b, space) == p["expect"]
    if kind == "surjective":
        return is_surjective(theory.observable(p["obs"]), space) == p["expect"]
    if kind == "faithful":
        return is_faithful(entry.representations[p["rep"]]) == p["expect"]
    if kind == "grid_rank":
        return grid_rank(entry.representations[p["rep"]]) == p["expect"]
    if kind == "positive":
        return is_positive(entry.representations[p["rep"]]).ok == p["expect"]
    if kind == "negativity_value":
        result = is_positive(entry.representations[p["rep"]])
        if result.ok or result.witness is None:
            return False
        w = result.witness
        return (
            w.value == p["value"]
            and w.phase_point == p["phase_point"]
            and w.direction == p["direction"]
        )
    if kind == "lifted_symmetries_exact":
        rep = entry.representations[p["rep"]]
        expected = {_phase_map(rep.shape, m) for m in p["maps"]}
        return set(enumerate_lifted_symmetries(rep)) == expected
    if kind == "symmetry_pass":
        rep = entry.representations[p["rep"]]
        return is_symmetry(rep, lift(_phase_map(rep.shape, p["map"]))).ok
    if kind == "symmetry_fail":
        rep = entry.representations[p["rep"]]
        check = is_symmetry(rep, lift(_phase_map(rep.shape, p["map"])))
        return (
            not check.ok
            and check.image is not None
            and check.image.entries == p["image"]
        )
    if kind == "covariant_unique":
        result = solve_covariant(theory.obs_a, theory.obs_b, space,
                                 channels=entry.channels)
        return result.kind == "unique" and result.rep.grid[0][0] == p["grid00"]
    if kind == "covariant_matches_rep":
        result = solve_covariant(theory.obs_a, theory.obs_b, space,
                                 channels=entry.channels)
        return (
            result.kind == "unique"
            and result.rep.grid == entry.representations[p["rep"]].grid
            and not result.family_directions
        )
    if kind == "covariant_none":
        result = solve_covariant(theory.obs_a, theory.obs_b, space,
                                 channels=entry.channels)
        if result.kind != "none" or result.obstruction is None:
            return False
        ob = result.obstruction
        return (
            (ob.element.perm_a, ob.element.perm_b) == tuple(map(tuple, p["element"]))
            and ob.detail.witness_point == p["witness_point"]
            and verify_certificate(result.program, result.certificate)
        )
    if kind == "faithful_choice":
        fc = faithful_choice_possible(theory.obs_a, theory.obs_b, space)
        return (
            fc.possible == p["expect"]
            and fc.free_slots == p["free_slots"]
            and fc.required == p["required"]
        )
    if kind == "degenerate_equals":
        rep = entry.representations[p["rep"]]
        return degenerate_rep(theory.obs_a, theory.obs_b, space).grid == rep.grid
    if kind == "transport_obstruction":
        rep = entry.representations[p["rep"]]
        chan = entry.named_channels[p["channel"]]
        result = find_symmetry_for_channel(rep, chan)
        if not isinstance(result, TransportObstruction) or result.pair is None:
            return False
        got = {tuple(map(F, pt)) for pt in result.pair}
        want = {tuple(map(F, pt)) for pt in p["pair"]}
        return got == want
    if kind == "transported_exists":
        rep = entry.representations[p["rep"]]
        result = find_transported_channel(rep, lift(_phase_map(rep.shape, p["map"])))
        return isinstance(result, Channel)
    if kind == "contains":
        return contains(space, p["point"]) == p["expect"]
    if kind == "map_into_fails":
        m = AffineMap.from_rows(p["matrix"], p["offset"])
        result = map_into(space, m, space)
        return (
            not result.ok
            and result.witness_point == tuple(map(F, p["witness_point"]))
            and result.witness_image == tuple(map(F, p["witness_image"]))
        )
    if kind == "g_symmetric":
        rep = entry.representations[p["rep"]]
        gens = [entry.named_maps[n] for n in p["generators"]]
        return is_g_symmetric(rep, gens) == p["expect"]
    if kind == "induced_action":
        rep = entry.representations[p["rep"]]
        phi = entry.named_maps[p["map"]]
        chan = induced_action(rep, phi)
        expected = AffineMap.from_rows(p["matrix"], (0,) * len(p["matrix"]))
        return chan.map.matrix == expected.matrix and chan.map.offset == expected.offset
    if kind == "functional_identity":
        rep = entry.representations[p["rep"]]
        funcs = rep.functionals()
        for coeffs, expected in p["combos"]:
            total = AffineFunctional.zero(space.ambient_dim)
            for c, f in zip(coeffs, funcs):
                total = total + f.scale(c)
            if total != expected:
                return False
        return True
    if kind == "grid_entry":
        rep = entry.representations[p["rep"]]
        a, b = p["at"]
        return rep.grid[a][b] == p["functional"]
    raise WignerlabError(f"unknown expectation kind {kind!r}")  # pragma: no cover
