"""The facts that check the engine against each catalog entry.

``FACTS`` maps each entry name of ``wignerlab.catalog`` to its expected
facts, tagged by provenance ("worked-example" for values the entry
reproduces verbatim, "derived" for values obtained by independent
computation, "trivial" for bookkeeping identities).  ``replay`` re-runs
every fact of an entry from ``catalog.load`` through the engine, which
makes the catalog the regression corpus.  A fact names the entry's
representations, channels and phase-point maps by the names the entry
gives them.
"""

from __future__ import annotations

from fractions import Fraction as F

from wignerlab._record import record
from wignerlab.catalog import CatalogEntry
from wignerlab.errors import WignerlabError
from wignerlab.exact import verify_certificate
from wignerlab.geometry import (
    AffineFunctional,
    AffineMap,
    ExtremalValue,
    contains,
    map_into,
)
from wignerlab.symmetry import (
    PhasePointMap,
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
from wignerlab.theory import (
    Channel,
    Compatible,
    are_compatible,
    are_complementary,
    is_surjective,
    jointly_info_complete,
)
from wignerlab.wigner import (
    check_marginals,
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


def _grid(rows) -> tuple:
    return tuple(tuple(F(x) for x in row) for row in rows)


def _boxworld() -> tuple[Expectation, ...]:
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
    return tuple(ex)


def _cube() -> tuple[Expectation, ...]:
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
    return tuple(ex)


def _trit() -> tuple[Expectation, ...]:
    return (
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
    )


def _qubit_ball() -> tuple[Expectation, ...]:
    return (
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
    )


def _qubit_xz() -> tuple[Expectation, ...]:
    return (
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
    )


def _rebit_diamond() -> tuple[Expectation, ...]:
    return (
        Expectation("marginals", "trivial", "marginals", {"rep": "W"}),
        Expectation("jointly info-complete", "derived", "info_complete",
                    {"pair": ("A", "B"), "expect": True}),
        Expectation("complementary", "derived", "complementary",
                    {"pair": ("A", "B"), "expect": True}),
        Expectation("surjective A", "derived", "surjective", {"obs": "A", "expect": True}),
        Expectation("surjective B", "derived", "surjective", {"obs": "B", "expect": True}),
        Expectation("unique covariant representation equals W", "derived",
                    "covariant_matches_rep", {"rep": "W"}),
    )


def _deformed_12gon() -> tuple[Expectation, ...]:
    return (
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
    )


FACTS: dict[str, tuple[Expectation, ...]] = {
    "cube": _cube(),
    "trit": _trit(),
    "boxworld": _boxworld(),
    "qubit_ball": _qubit_ball(),
    "qubit_xz": _qubit_xz(),
    "rebit_diamond": _rebit_diamond(),
    "deformed_12gon": _deformed_12gon(),
}


def replay(entry: CatalogEntry) -> list[tuple[str, bool, str]]:
    """Re-run every expectation; returns (label, passed, provenance)."""
    results = []
    for ex in FACTS[entry.name]:
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
