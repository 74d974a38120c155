"""Report claims: programs rebuilt from the theory, and their replay.

Reports carry no LP program: each LP claim names the arguments of its
constructor in ``wignerlab.programs`` and ``verify`` rebuilds the
program from the embedded theory.
"""

import collections
import copy
import json
import random
from fractions import Fraction

import pytest

import reference_kernels as ref
from helpers import generalized_boxworld
from wignerlab import catalog, exact, programs
from wignerlab.cli import main
from wignerlab.geometry import AffineFunctional, ExtremalValue, Polytope
from wignerlab.symmetry import (
    PhasePointMap, ProductGroupElement, find_transported_channel, lift, product_group_generators,
    solve_covariant,
)
from wignerlab.theory import Observable, Theory, jointly_info_complete
from wignerlab.theoryfile import dumps, theory_from_dict
from wignerlab.wigner import free_slots, grid_rank
from wignerlab.report import (
    CLAIM_KINDS,
    FORMAT,
    LP_ARGS,
    RECOMPUTE,
    RESULTS,
    _read_claim,
    _verify_claim,
    covariance_claim,
    dump_report,
    load_report,
    lp_claim,
    read_map,
    ser_extremal,
    ser_map,
    transport_id,
    verify_report,
)



def _report(capsys, argv):
    main(argv)
    return load_report(capsys.readouterr().out)


def _catalog_reports(tmp_path, capsys):
    reports = []
    for name in catalog.CATALOG_NAMES:
        path = str(tmp_path / f"{name}.json")
        argv = ["example", name, "--out", path]
        covariant = ["covariant", path]
        if catalog.load(name).channels:
            channels = str(tmp_path / f"{name}.channels.json")
            argv += ["--channels-out", channels]
            covariant += ["--channels", channels]
        main(argv)
        capsys.readouterr()
        reports.append(_report(capsys, ["analyze", path]))
        reports.append(_report(capsys, covariant))
    return reports


def test_parsed_channels_write_back_byte_for_byte(tmp_path, capsys):
    channels = [
        c["channel"] for r in _catalog_reports(tmp_path, capsys) for c in r["claims"]
        if "channel" in c
    ]
    assert len(channels) >= 5
    for channel in channels:
        read = read_map(channel, len(channel["offset"]), "channel.")
        assert json.dumps(ser_map(read)) == json.dumps(channel)


def _boxworld_analyze(tmp_path, capsys):
    path = str(tmp_path / "box.json")
    main(["example", "boxworld", "--out", path])
    capsys.readouterr()
    return _report(capsys, ["analyze", path])


def test_verify_runs_no_lp(tmp_path, capsys, monkeypatch):
    """Every catalog report of analyze, wigner, covariant and symmetries
    verifies with the simplex patched to raise: parsing a theory builds
    its polytope from facets, and LP claims replay by arithmetic."""
    reports = _catalog_reports(tmp_path, capsys)
    for name in catalog.CATALOG_NAMES:
        path = str(tmp_path / f"{name}.json")
        for flag in ("--faithful", "--degenerate"):
            main(["wigner", path, flag])
            out = capsys.readouterr().out
            if out:
                reports.append(load_report(out))
        for rep in catalog.load(name).representations:
            rep_path = str(tmp_path / f"{name}.{rep.replace('/', '_')}.json")
            main(["example", name, "--rep", rep, "--out", rep_path])
            capsys.readouterr()
            reports.append(_report(capsys, ["symmetries", rep_path]))
    commands = {r["command"] for r in reports}
    assert {"analyze", "wigner", "covariant", "symmetries"} <= commands

    def forbidden(lp):
        raise AssertionError("verify solved an LP")

    monkeypatch.setattr(exact, "_phase_one", forbidden)
    rows = [(r["command"], row) for r in reports for row in verify_report(r)]
    assert len(rows) > 100
    assert all(ok for _, (_, ok, _) in rows), [r for r in rows if not r[1][1]]


def _gon_covariant(tmp_path, capsys):
    path = str(tmp_path / "gon.json")
    main(["example", "deformed_12gon", "--out", path])
    capsys.readouterr()
    assert main(["covariant", path]) == 1
    return load_report(capsys.readouterr().out)


@pytest.mark.parametrize("damage", ["gap", "eq_multiplier", "ineq_multiplier"])
def test_tampered_fixed_map_certificate_fails(tmp_path, capsys, damage):
    """The ``no_covariant`` certificate of ``deformed_12gon``, built from
    the violated facet, fails once its gap or one multiplier changes."""
    report = _gon_covariant(tmp_path, capsys)
    assert [(cid, ok) for cid, ok, _ in verify_report(report)] == [("no_covariant", True)]
    cert = report["claims"][0]["certificate"]
    if damage == "gap":
        cert["gap"] = str(Fraction(cert["gap"]) + 1)
    else:
        mults = cert[f"{damage}s"]
        k = next(k for k, m in enumerate(mults) if Fraction(m))
        mults[k] = str(Fraction(mults[k]) + 1)
    assert [(cid, ok) for cid, ok, _ in verify_report(report)] == [("no_covariant", False)]


def test_reports_are_written_one_claim_per_line(tmp_path, capsys):
    """Each top-level key and each claim is one line, the text parses back
    to the report, and an ``indent=2`` copy verifies the same."""
    reports = _catalog_reports(tmp_path, capsys)
    assert sum(len(r["claims"]) for r in reports) > 40
    for report in reports:
        text = dump_report(report)
        assert load_report(text) == report
        lines = text.splitlines()
        claims = report["claims"]
        assert lines[0] == "{" and lines[-1] == "}"
        assert len(lines) == 2 + len(report) + (len(claims) + 1 if claims else 0)
        for claim in claims:
            assert lines.count(json.dumps(claim) + ",") + lines.count(json.dumps(claim)) == 1
        expected = verify_report(report)
        assert all(ok for _, ok, _ in expected)
        assert verify_report(load_report(json.dumps(report, indent=2) + "\n")) == expected


def _failed(report):
    return [cid for cid, ok, _ in verify_report(report) if not ok]


def _example_report(tmp_path, capsys, name, *argv):
    path = str(tmp_path / f"{name}.json")
    main(["example", name, "--out", path])
    capsys.readouterr()
    return _report(capsys, [argv[0], path, *argv[1:]])


@pytest.mark.parametrize("cid", ["compatibility", "info_complete"])
def test_a_flipped_verdict_fails_only_its_claim(tmp_path, capsys, cid):
    """The claim data of ``compatibility`` (an LP witness) and
    ``info_complete`` (a rank against dim(K) + 1 of the report's theory)
    proves one verdict, so flipping the verdict alone fails the claim."""
    report = _example_report(tmp_path, capsys, "trit", "analyze")
    assert _failed(report) == []
    claim = next(c for c in report["claims"] if c["id"] == cid)
    claim["verdict"] = not claim["verdict"]
    assert _failed(report) == [cid]


def test_a_rank_matrix_must_be_the_theory_effects(tmp_path, capsys):
    """On ``trit`` the effect span has rank 2, not dim(K) + 1 = 3.  A rank
    claim names no matrix, so rank 3 with a true verdict fails."""
    report = _example_report(tmp_path, capsys, "trit", "analyze")
    claim = next(c for c in report["claims"] if c["id"] == "info_complete")
    assert claim["rank"] == 2 and claim["verdict"] is False and _failed(report) == []
    assert "matrix" not in claim
    claim["rank"], claim["verdict"] = 3, True
    assert _failed(report) == ["info_complete"]


@pytest.mark.parametrize("kind", ["negative_entry", "ball_entry_min", "ball_max_one"])
def test_verdicts_of_witness_claims_are_bound(tmp_path, capsys, kind):
    """A negativity witness proves a true verdict, and ``ball_max_one``
    the verdict that its ``expect`` states."""
    name, argv = {
        "negative_entry": ("boxworld", ["wigner", "--faithful"]),
        "ball_entry_min": ("qubit_ball", ["wigner", "--degenerate"]),
        "ball_max_one": ("qubit_ball", ["analyze"]),
    }[kind]
    report = _example_report(tmp_path, capsys, name, *argv)
    assert _failed(report) == []
    claim = next(c for c in report["claims"] if c["kind"] == kind)
    claim["verdict"] = not claim["verdict"]
    assert _failed(report) == [claim["id"]]


def test_covariance_claims_are_checked_against_the_theory(tmp_path, capsys):
    """A covariance claim with an empty basis (a key that nothing reads)
    and a channel of 7s fails: the identity is checked at the affine basis
    of the report's K, for a channel that maps K into K."""
    report = _example_report(tmp_path, capsys, "boxworld", "covariant")
    assert _failed(report) == []
    claim = report["claims"][0]
    assert claim["kind"] == "covariance_identity"
    claim["basis"] = []
    chan = claim["channel"]
    chan["matrix"] = [["7"] * len(row) for row in chan["matrix"]]
    chan["offset"] = ["7"] * len(chan["offset"])
    assert _failed(report) == [claim["id"]]
    # the channel alone, with the identity check passing nowhere else
    report = _example_report(tmp_path, capsys, "boxworld", "covariant")
    report["claims"][0]["basis"] = []
    assert _failed(report) == []
    report["claims"][0]["channel"] = report["claims"][1]["channel"]
    assert _failed(report) == [claim["id"]]


@pytest.mark.parametrize("claim", [
    {"kind": "grid_values", "functionals": [{"linear": ["1", "0"], "constant": "0"}],
     "state": ["1", "0"], "expected": ["1"]},
    {"kind": "coeff_identity", "terms": [{"linear": ["1", "0"], "constant": "0"}],
     "target": {"linear": ["1", "0"], "constant": "0"}},
    {"kind": "nonneg_on_vertices", "functionals": [{"linear": ["1", "0"], "constant": "0"}],
     "vertices": [["1", "0"]]},
    {"kind": "recompute", "what": "info_complete", "pair": ["A", "unit"]},
    {"kind": "recompute", "what": "grid_rank", "rep": "W"},
], ids=["grid_values", "coeff_identity", "nonneg_on_vertices", "info_complete", "grid_rank"])
def test_claim_kinds_no_engine_writes_fail(tmp_path, capsys, claim):
    """Claim kinds and recompute targets that no version of the engine
    wrote are unknown to ``verify``: a report carrying one, with data the
    former checks accepted, fails that claim and only that claim."""
    entry = catalog.load("trit")
    w, t = entry.representations["W"], entry.theory
    path = str(tmp_path / "trit.json")
    main(["example", "trit", "--rep", "W", "--out", path])
    capsys.readouterr()
    report = _report(capsys, ["symmetries", path, "--no-transport"])
    assert report["theory"]["wigner"]["name"] == "W" and _failed(report) == []
    verdict = {"grid_rank": grid_rank(w),
               "info_complete": jointly_info_complete(t.obs_a, t.obs_b, t.state_space)}
    claim = {"id": "extra", "statement": "", "verdict": verdict.get(claim.get("what"), True),
             **claim}
    report["claims"].append(claim)
    rows = verify_report(report)
    assert [cid for cid, ok, _ in rows if not ok] == ["extra"]
    assert rows[-1][2].startswith("verification error: unknown")


def test_a_covariance_channel_must_map_k_into_k(tmp_path, capsys):
    """Boxworld at z = 0 in R^3: moving a channel's images to z = 5 keeps
    the identity at the basis points (the grid ignores z) but leaves K,
    so the claim fails."""
    fx, fy = AffineFunctional((1, 0, 0), 0), AffineFunctional((0, 1, 0), 0)
    one = AffineFunctional.one(3)
    square = Polytope([(0, 0, 0), (0, 1, 0), (1, 0, 0), (1, 1, 0)])
    path = tmp_path / "box3.json"
    path.write_text(dumps(Theory(square, (Observable("A", (0, 1), (fx, one - fx)),
                                          Observable("B", (0, 1), (fy, one - fy))))))
    report = _report(capsys, ["covariant", str(path)])
    assert report["result"] == "unique" and _failed(report) == []
    claim = report["claims"][0]
    claim["channel"]["offset"][2] = "5"
    assert _failed(report) == [claim["id"]]


@pytest.mark.parametrize("forgery", ["outside_k", "not_an_entry"])
def test_a_negative_entry_is_a_grid_entry_at_a_state_of_k(tmp_path, capsys, forgery):
    """x0 is entry (0, 1) of boxworld's faithful grid and negative at
    (-5, 0), outside the square; the constant -1 is negative at the vertex
    (1, 1) and no grid entry.  Either witness fails, and only it."""
    report = _example_report(tmp_path, capsys, "boxworld", "wigner", "--faithful")
    assert _failed(report) == []
    claim = next(c for c in report["claims"] if c["kind"] == "negative_entry")
    if forgery == "outside_k":
        claim["functional"] = {"linear": ["1", "0"], "constant": "0"}
        claim["state"], claim["value"] = ["-5", "0"], "-5"
    else:
        claim["functional"] = {"linear": ["0", "0"], "constant": "-1"}
        claim["state"], claim["value"] = ["1", "1"], "-1"
    assert _failed(report) == ["negativity_witness"]


def _ball_min(functional, center, radius):
    """The ``min`` of ``ball_entry_min`` for ``functional`` on that ball."""
    f = AffineFunctional(tuple(map(Fraction, functional["linear"])), Fraction(functional["constant"]))
    center = tuple(map(Fraction, center))
    return ExtremalValue(f(center), -Fraction(radius), sum(x * x for x in f.linear))


@pytest.mark.parametrize("forgery", ["center", "radius", "constant", "all"])
def test_ball_entry_min_is_a_grid_entry_on_the_theory_ball(tmp_path, capsys, forgery):
    """A witness must name the theory's ball and a grid entry.  The
    minimum stays the true one when only the center (9, 9, 9) or the
    radius 7 is swapped in; with the constant -1 its minimum is -1, and
    with all three (the forgery that once verified) it is the minimum of
    -1 over that other ball."""
    report = _example_report(tmp_path, capsys, "qubit_ball", "wigner", "--faithful")
    assert _failed(report) == []
    claim = next(c for c in report["claims"] if c["kind"] == "ball_entry_min")
    if forgery in ("constant", "all"):
        claim["functional"] = {"linear": ["0", "0", "0"], "constant": "-1"}
    if forgery in ("center", "all"):
        claim["center"] = ["9", "9", "9"]
    if forgery in ("radius", "all"):
        claim["radius"] = "7"
    if forgery in ("constant", "all"):
        value = _ball_min(claim["functional"], claim["center"], claim["radius"])
        claim["min"], claim["negative"] = ser_extremal(value), value < 0
    assert _failed(report) == ["negativity_witness"]


@pytest.mark.parametrize("forgery", ["negative_dropped", "negative_false"])
def test_a_ball_negativity_witness_must_be_negative(tmp_path, capsys, forgery):
    """Entry (0, 1) of the qubit ball's degenerate grid is z/2 + 1/2, whose
    true minimum over the ball is 0.  Named with that minimum, the claim
    that the entry dips negative fails, whether ``negative`` is dropped
    or false."""
    report = _example_report(tmp_path, capsys, "qubit_ball", "wigner", "--degenerate")
    assert _failed(report) == []
    claim = next(c for c in report["claims"] if c["kind"] == "ball_entry_min")
    assert claim["negative"] is True
    claim["functional"] = {"linear": ["0", "0", "1/2"], "constant": "1/2"}
    claim["min"] = {"rational": "0", "radical": "0", "radicand": "0"}
    if forgery == "negative_dropped":
        del claim["negative"]
    else:
        claim["negative"] = False
    assert _failed(report) == ["negativity_witness"]


@pytest.mark.parametrize("forgery", ["constant", "center", "radius", "smaller_ball"])
def test_ball_max_one_is_an_effect_on_the_theory_ball(tmp_path, capsys, forgery):
    """The constant 1 reaches 1 on any ball; z/2 + 1/2 reaches 1 on the
    theory's ball, so a claim that names another center or radius with
    the same verdict is about another ball, and on the ball of radius
    1/2 it misses 1.  None of these verifies."""
    report = _example_report(tmp_path, capsys, "qubit_ball", "analyze")
    assert _failed(report) == []
    claim = next(c for c in report["claims"] if c["kind"] == "ball_max_one")
    assert claim["functional"] == {"linear": ["0", "0", "1/2"], "constant": "1/2"}
    if forgery == "constant":
        claim["functional"] = {"linear": ["0", "0", "0"], "constant": "1"}
    elif forgery == "center":
        claim["center"] = ["0", "0", "1/2"]
    else:
        claim["radius"] = "1/2"
        if forgery == "smaller_ball":
            claim["verdict"] = claim["expect"] = False
    assert _failed(report) == [claim["id"]]


SWAP_A = "covariance[(A:(1, 0), B:(0, 1))]"
SWAP_B = "covariance[(A:(0, 1), B:(1, 0))]"


def _both_swap_claim(claims):
    """The claim for the composed element (A:(1, 0), B:(1, 0)) that the
    engine wrote before it reported generators only, with its true
    channel: the composition of the two generator channels."""
    swap_a, swap_b = (read_map(c["channel"], 2, "channel.") for c in claims[:2])
    both = ProductGroupElement((1, 0), (1, 0))
    return covariance_claim(both, swap_a.compose(swap_b), "W_covariant")


@pytest.mark.parametrize("tamper,failing", [
    ("drop", [SWAP_B]), ("swap", [SWAP_B]), ("delete_all", [SWAP_A, SWAP_B]),
])
def test_a_covariant_report_must_cover_every_generator(tmp_path, capsys, tamper, failing):
    """Covariance under the generators is covariance under the group, so
    a covariant report needs a claim for each generator; each missing one
    is a failing row under the id that its claim would have had.  A
    claim for a composed element does not stand in for a generator."""
    report = _example_report(tmp_path, capsys, "boxworld", "covariant")
    claims = report["claims"]
    assert [c["id"] for c in claims] == [SWAP_A, SWAP_B, "marginals"]
    assert _failed(report) == []
    if tamper == "drop":
        del claims[1]
    elif tamper == "swap":
        claims[1] = _both_swap_claim(claims)
    else:
        del claims[:2]
    rows = verify_report(report)
    assert [cid for cid, ok, _ in rows if not ok] == failing
    assert len(rows) == len(report["claims"]) + len(failing)
    assert rows[-1][2] == "no covariance claim for this generator"


def test_a_claim_for_a_composed_element_still_verifies(tmp_path, capsys):
    """Reports of the former engine, which also carried the composed
    element's claim, verify in full."""
    report = _example_report(tmp_path, capsys, "boxworld", "covariant")
    claims = report["claims"]
    claims.insert(2, _both_swap_claim(claims))
    rows = verify_report(report)
    assert [cid for cid, _, _ in rows] == [SWAP_A, SWAP_B, "covariance[(A:(1, 0), B:(1, 0))]",
                                           "marginals"]
    assert all(ok for _, ok, _ in rows)


def test_a_covariance_claim_must_permute_every_outcome(tmp_path, capsys):
    """The identity channel with perm_a = perm_b = [0] would pass the
    identity at entry (0, 0) alone; it names no permutation of the
    outcomes and fails."""
    report = _example_report(tmp_path, capsys, "boxworld", "covariant")
    extra = dict(report["claims"][0], id="extra", perm_a=[0], perm_b=[0],
                 channel={"matrix": [["1", "0"], ["0", "1"]], "offset": ["0", "0"]})
    report["claims"].append(extra)
    assert _failed(report) == ["extra"]


def _claim_of(report, key, value):
    return next(c for c in report["claims"] if c[key] == value)


def _swap_covariance_ids(report):
    first, second = report["claims"][:2]
    first["id"], second["id"] = second["id"], first["id"]


def _bool_permutation(report):
    report["claims"][0]["perm_a"] = [True, False]


def _command_wigner_one_dropped(report):
    report["command"] = "wigner"
    del report["claims"][1]


def _expect_as_string(report):
    claim = _claim_of(report, "kind", "ball_max_one")
    assert claim["expect"] is True
    claim["expect"] = "false"


def _verdict_as_int(report):
    claim = _claim_of(report, "id", "complementary")
    assert claim["verdict"] is True
    claim["verdict"] = 1


def _rank_as_string(report):
    claim = _claim_of(report, "id", "info_complete")
    assert claim["rank"] == 3
    claim["rank"] = "3"


def _positive_as_marginals(report):
    claim = _claim_of(report, "id", "positive")
    assert claim["verdict"] is False
    claim.update(verdict=True, what="marginals")


def _faithful_choice_of_another_pair(report):
    claim = _claim_of(report, "id", "faithful_choice")
    assert (claim["pair"], claim["required"]) == (["A", "B"], 0)
    claim.update(pair=["A", "C"], required=1)


@pytest.mark.parametrize("name, argv, forge, failing", [
    ("boxworld", ["covariant"], _swap_covariance_ids, [SWAP_B, SWAP_A]),
    ("boxworld", ["covariant"], _bool_permutation, [SWAP_A]),
    ("boxworld", ["covariant"], _command_wigner_one_dropped, [SWAP_B]),
    ("qubit_xz", ["analyze"], _expect_as_string, ["surjective[A][0]"]),
    ("qubit_xz", ["analyze"], _verdict_as_int, ["complementary"]),
    ("qubit_xz", ["analyze"], _rank_as_string, ["info_complete"]),
    ("boxworld --rep W_0", ["wigner", "--degenerate"], _positive_as_marginals, ["positive"]),
    ("boxworld", ["analyze"], _faithful_choice_of_another_pair, ["faithful_choice"]),
], ids=["covariance_ids_swapped", "bool_permutation", "command_wigner_one_dropped",
        "expect_as_string", "verdict_as_int", "rank_as_string", "positive_as_marginals",
        "faithful_choice_of_another_pair"])
def test_a_claim_is_bound_to_its_id_types_and_pair(tmp_path, capsys, name, argv, forge, failing):
    """Edits that once verified in full: swapped covariance ids, a
    permutation of booleans (which sorts as [0, 1]), a covariant report
    relabelled ``wigner`` that lacks a generator's claim, a string for a
    boolean or a count, an int for a boolean verdict, a ``positive``
    claim that checks the marginals instead, and a faithful-choice claim
    about boxworld's pair (A, C).  Each fails its own claim, or the
    coverage row of the generator whose claim is gone, and nothing else."""
    entry, *export = name.split()
    path = str(tmp_path / f"{entry}.json")
    main(["example", entry, *export, "--out", path])
    capsys.readouterr()
    report = _report(capsys, [argv[0], path, *argv[1:]])
    assert _failed(report) == []
    forge(report)
    rows = [(cid, detail) for cid, ok, detail in verify_report(report) if not ok]
    assert [cid for cid, _ in rows] == failing
    if forge is _bool_permutation:
        assert rows == [(SWAP_A, "verification error: expected a permutation of 0..1 (at perm_a)")]


@pytest.mark.parametrize("outcome", ["1", True, 2])
def test_an_outcome_is_one_of_its_observable_with_its_type(tmp_path, capsys, outcome):
    """An LP claim's outcome is read against its observable's outcomes,
    type included: the string "1" and true are not boxworld's outcome 1."""
    report = _example_report(tmp_path, capsys, "boxworld", "analyze")
    _claim_of(report, "id", "surjective[A][1]")["outcome"] = outcome
    rows = [(cid, detail) for cid, ok, detail in verify_report(report) if not ok]
    assert rows == [("surjective[A][1]",
                     f"verification error: unknown outcome {outcome!r} (at outcome)")]


def test_a_wigner_report_relabelled_covariant_needs_every_generator(tmp_path, capsys):
    """A representation with no covariance claims, in a report that says
    it is ``covariant``, fails one coverage row per generator, and the
    ``result`` row, since it has no ``result``."""
    report = _example_report(tmp_path, capsys, "boxworld", "wigner", "--faithful")
    assert _failed(report) == []
    report["command"] = "covariant"
    assert _failed(report) == [SWAP_A, SWAP_B, "result"]


def test_an_identity_covariance_channel_fails_its_claim(tmp_path, capsys):
    """The identity keeps boxworld's square in itself, but no grid entry
    is moved onto another by it, so the claim of the first generator
    fails, and only it."""
    report = _example_report(tmp_path, capsys, "boxworld", "covariant")
    claim = report["claims"][0]
    assert claim["kind"] == "covariance_identity"
    claim["channel"] = {"matrix": [["1", "0"], ["0", "1"]], "offset": ["0", "0"]}
    assert _failed(report) == [claim["id"]]


def _covariant_reports(tmp_path, capsys):
    """The ``covariant`` reports that carry covariance claims: those of
    boxworld, rebit_diamond and qubit_xz (with its channels) and of
    generalized boxworld from 2 x 2 to 3 x 3."""
    reports = []
    for name in ("boxworld", "rebit_diamond", "qubit_xz"):
        path = str(tmp_path / f"{name}.json")
        export, covariant = ["example", name, "--out", path], ["covariant", path]
        if catalog.load(name).channels:
            export += ["--channels-out", str(tmp_path / f"{name}.channels.json")]
            covariant += ["--channels", export[-1]]
        main(export)
        capsys.readouterr()
        reports.append(_report(capsys, covariant))
    for m, n in ((2, 2), (2, 3), (3, 2), (3, 3)):
        path = tmp_path / f"box{m}{n}.json"
        path.write_text(dumps(generalized_boxworld(m, n)))
        reports.append(_report(capsys, ["covariant", str(path)]))
    return reports


def test_covariance_replay_agrees_with_the_evaluation_oracle(tmp_path, capsys):
    """``verify`` checks a covariance claim with the transport equations of
    g's phase table; the former check evaluated every grid entry at every
    basis point.  Both give the same verdict on every claim, and on seeded
    copies with one entry of the channel's matrix or offset changed, or
    with the identity or another claim's channel, which keep K in K."""
    rng = random.Random(25)
    verdicts, inside, n_claims = {True: 0, False: 0}, 0, 0
    for report in _covariant_reports(tmp_path, capsys):
        theory, wigner = theory_from_dict(report["theory"])
        reps = dict([wigner])
        claims = [c for c in report["claims"] if c["kind"] == "covariance_identity"]
        n_claims += len(claims)
        dim = theory.state_space.ambient_dim
        identity = {"matrix": [[str(int(i == j)) for j in range(dim)] for i in range(dim)],
                    "offset": ["0"] * dim}
        for claim in claims:
            variants = [claim, dict(claim, channel=identity)]
            variants += [dict(claim, channel=other["channel"]) for other in claims
                         if other is not claim]
            inside += len(variants) - 1
            for _ in range(6):
                bad = copy.deepcopy(claim)
                key = rng.choice(["matrix", "offset"])
                values = bad["channel"][key]
                if key == "matrix":
                    values = values[rng.randrange(len(values))]
                k = rng.randrange(len(values))
                values[k] = str(Fraction(values[k]) + rng.choice([-1, 1]) * Fraction(
                    1, rng.randint(1, 4)))
                variants.append(bad)
            for variant in variants:
                want = ref.covariance_by_evaluation(variant, theory, reps)
                assert _verify_claim(_read_claim(variant, theory, reps), theory, reps) is want
                verdicts[want] += 1
    # only the claims as written verify; 50 of the failures keep K in K
    assert n_claims == verdicts[True] == 18 and verdicts[False] > 150 and inside == 50


def test_verify_lists_the_generators_that_the_engine_solves():
    """``programs.generators``, which ``verify`` and
    ``product_group_generators`` both read: the adjacent transpositions
    of A's outcomes, then of B's, m + n - 2 of them."""
    assert programs.generators(1, 1) == []
    assert programs.generators(3, 2) == [((1, 0, 2), (0, 1)), ((0, 2, 1), (0, 1)),
                                         ((0, 1, 2), (1, 0))]
    for m in range(1, 6):
        for n in range(1, 6):
            moved = []
            for perm_a, perm_b in programs.generators(m, n):
                for side, perm in (("A", perm_a), ("B", perm_b)):
                    swapped = [i for i, t in enumerate(perm) if i != t]
                    if swapped:
                        i, j = swapped
                        assert j == i + 1 and (perm[i], perm[j]) == (j, i)
                        moved.append((side, i))
            assert moved == [("A", i) for i in range(m - 1)] + [("B", j) for j in range(n - 1)]
            assert [(g.perm_a, g.perm_b) for g in product_group_generators(m, n)] == (
                programs.generators(m, n))


def test_generalized_boxworld_4x4_reports_its_six_generators(tmp_path, capsys):
    """S_4 x S_4 has 576 elements; the report claims covariance for its 6
    generators, in ``product_group_generators`` order, and verifies."""
    path = tmp_path / "box44.json"
    path.write_text(dumps(generalized_boxworld(4, 4)))
    report = _report(capsys, ["covariant", str(path)])
    assert report["result"] == "unique"
    ids = [c["id"] for c in report["claims"] if c["kind"] == "covariance_identity"]
    assert ids == [f"covariance[(A:{g.perm_a}, B:{g.perm_b})]"
                   for g in product_group_generators(4, 4)]
    rows = verify_report(report)
    assert len(rows) == 7 and all(ok for _, ok, _ in rows)


def test_format_2_reports_carry_no_program(tmp_path, capsys):
    """No claim carries a program, a rank matrix or a covariance basis."""
    reports = _catalog_reports(tmp_path, capsys)
    claims = [c for r in reports for c in r["claims"]]
    assert {r["format"] for r in reports} == {FORMAT}
    assert not [c["id"] for c in claims if {"program", "matrix", "basis"} & set(c)]
    assert sum(c["kind"].startswith("lp_") for c in claims) >= 20


def test_the_program_swap_forgery_fails_only_compatibility(tmp_path, capsys):
    """The forgery that once verified 7/7, when reports carried their
    programs: ``compatibility`` of ``trit`` turned into an infeasibility
    claim whose one multiplier proves the one-variable program 0 x = 1
    infeasible.  It does not prove the rebuilt compatibility LP
    infeasible."""
    report = _example_report(tmp_path, capsys, "trit", "analyze")
    assert _failed(report) == []
    claim = next(c for c in report["claims"] if c["id"] == "compatibility")
    for key in ("witness", "joint"):
        claim.pop(key)
    claim.update(kind="lp_infeasible", verdict=False,
                 certificate={"eq_multipliers": ["1"], "ineq_multipliers": [], "gap": "1"})
    assert _failed(report) == ["compatibility"]


@pytest.mark.parametrize("key", ["eq_multipliers", "ineq_multipliers"])
def test_multiplier_counts_must_match_the_rebuilt_program(tmp_path, capsys, key):
    """The ``no_covariant`` certificate of ``deformed_12gon`` with one more
    zero multiplier combines the same rows, and fails: the rebuilt
    program has one row fewer."""
    report = _gon_covariant(tmp_path, capsys)
    claim = report["claims"][0]
    assert (claim["perm_a"], claim["perm_b"]) == ([1, 0], [0, 1])
    claim["certificate"][key].append("0")
    assert _failed(report) == ["no_covariant"]


def _unequal_sums_theory(tmp_path):
    """A = (y, 1 - y) and V = x/2 + 1/2 on the segment x = 1: the swap of
    A's outcomes has a channel, (1, y) -> (1, 1 - y), but the effect sums
    1 and x/2 + 1/2 agree on K and not coefficient-wise."""
    segment = Polytope([(1, 0), (1, 1)])
    fy = AffineFunctional((0, 1), 0)
    one = AffineFunctional.one(2)
    obs_a = Observable("A", (0, 1), (fy, one - fy))
    obs_v = Observable("V", (0,), (AffineFunctional((Fraction(1, 2), 0), Fraction(1, 2)),))
    path = tmp_path / "sums.json"
    path.write_text(dumps(Theory(segment, (obs_a, obs_v))))
    channels = tmp_path / "none.json"
    channels.write_text("[]")
    return obs_a, obs_v, segment, ["covariant", str(path), "--channels", str(channels)]


def test_the_effect_sums_certificate_lives_on_the_marginal_system(tmp_path, capsys):
    """Stage 2's "none" program is the marginal system alone: the 9
    marginal rows, without the 4 covariance rows of the swap's channel,
    which ``verify`` could not rebuild.  The claim names no generator,
    its certificate weighs the first coefficient's marginals, and it
    verifies; a weight on a row past the marginals cannot be given."""
    obs_a, obs_v, segment, argv = _unequal_sums_theory(tmp_path)
    result = solve_covariant(obs_a, obs_v, segment, channels={})
    assert result.kind == "none" and result.obstruction is None
    assert result.program == programs.marginal_program(obs_a, obs_v)
    assert result.certificate.eq_multipliers == (-1, 0, 0, -1, 0, 0, 1, 0, 0)
    assert main(argv) == 1
    report = load_report(capsys.readouterr().out)
    claim, = report["claims"]
    assert claim["id"] == "no_covariant" and not set(LP_ARGS) & set(claim)
    assert _failed(report) == []
    claim["certificate"]["eq_multipliers"].append("0")
    assert _failed(report) == ["no_covariant"]


def _with_no_transport(tmp_path, capsys):
    """The symmetries report of boxworld's W_1/2 with a ``no_transport``
    claim for the table (0, 1, 3, 2): a relabelling of phase points that
    is no symmetry, and that no channel realizes."""
    path = str(tmp_path / "box_half.json")
    main(["example", "boxworld", "--rep", "W_1/2", "--out", path])
    capsys.readouterr()
    report = _report(capsys, ["symmetries", path])
    rep = catalog.load("boxworld").representations["W_1/2"]
    phi = PhasePointMap(rep.shape, (0, 1, 3, 2))
    result = find_transported_channel(rep, lift(phi))
    report["claims"].append(lp_claim(transport_id(phi.shape[1], phi.table), "no channel",
                                     result.certificate, rep="W_1/2", table=list(phi.table)))
    return report


def test_a_no_transport_claim_is_rebuilt_from_its_table(tmp_path, capsys):
    """The transport program is rebuilt from the embedded representation
    and the claim's table, whose id is ``transport_id``; another table,
    or another id, fails."""
    report = _with_no_transport(tmp_path, capsys)
    cid = "no_transport[(1, 0)->(1, 1), (1, 1)->(1, 0)]"
    assert report["claims"][-1]["id"] == cid
    assert _failed(report) == []
    for table, id_ in (([0, 2, 3, 1], cid), ([0, 1, 3, 2], "no_transport[id]"),
                       ([0, 1, 3, 3], "no_transport[(1, 1)->(1, 1)]")):
        bad = copy.deepcopy(report)
        bad["claims"][-1].update(table=table, id=id_)
        assert _failed(bad) == [id_]


def test_verify_writes_the_transport_ids_that_the_engine_writes():
    """``transport_id`` names a table over flat indices a * n_b + b by the
    points (a, b) it moves (``programs.moved_points``), in index order, as
    ``PhasePointMap.describe`` does."""
    assert transport_id(2, [0, 1, 3, 2]) == "no_transport[(1, 0)->(1, 1), (1, 1)->(1, 0)]"
    assert transport_id(3, [2, 1, 0, 3, 4, 5]) == "no_transport[(0, 0)->(0, 2), (0, 2)->(0, 0)]"
    assert transport_id(2, [1, 2, 0, 3]) == (
        "no_transport[(0, 0)->(0, 1), (0, 1)->(1, 0), (1, 0)->(0, 0)]")
    assert transport_id(1, [0]) == transport_id(3, range(6)) == "no_transport[id]"
    assert PhasePointMap((3, 2), (1, 0, 2, 3, 4, 5)).describe() == "(0, 0)->(0, 1), (0, 1)->(0, 0)"


def _every_catalog_report(tmp_path, capsys):
    """``(label, report)`` of the catalog commands of
    ``test_catalog_outputs`` (the ``--no-transport`` runs carry no claim),
    of stage 2's "none" and of a ``no_transport`` claim, so that every
    claim kind is there."""
    reports = []
    for name in catalog.CATALOG_NAMES:
        entry = catalog.load(name)
        path = str(tmp_path / f"{name}.json")
        export = ["example", name, "--out", path]
        covariant = ["covariant", path]
        if entry.channels:
            export += ["--channels-out", str(tmp_path / f"{name}.channels.json")]
            covariant += ["--channels", export[-1]]
        main(export)
        commands = {f"{argv[0]} {name} {' '.join(argv[2:3])}".strip(): argv for argv in (
            ["validate", path], ["analyze", path], ["wigner", path, "--faithful"],
            ["wigner", path, "--degenerate"], covariant)}
        if free_slots(entry.theory.obs_a, entry.theory.obs_b)[1]:
            commands[f"wigner {name} --free"] = ["wigner", path, "--free", "1/2 x0"]
        for rep in entry.representations:
            rep_path = str(tmp_path / f"{name}.{rep.replace('/', '_')}.json")
            main(["example", name, "--rep", rep, "--out", rep_path])
            commands[f"symmetries {name} {rep}"] = ["symmetries", rep_path]
        capsys.readouterr()
        for label, argv in commands.items():
            main(argv)
            out = capsys.readouterr().out
            if out.strip():
                reports.append((label, load_report(out)))
    *_, argv = _unequal_sums_theory(tmp_path)
    reports.append(("covariant unequal sums", _report(capsys, argv)))
    reports.append(("symmetries boxworld W_1/2 + no_transport", _with_no_transport(tmp_path, capsys)))
    return reports


# mutations that have nothing to act on, so cannot change what the claim
# asserts: a recompute claim is its verdict, which ``verify`` decides by
# running the check again, with no numbers, lists or ints beyond the pair
# and the faithful-choice counts, and every validate claim is the same; a
# rank claim names no list; the other kinds write rationals as strings;
# rank and negativity witnesses have one id each; trit's
# ``surjective[unit][*]`` and the one ``no_transport`` claim share their
# id with no other claim; a recompute claim carries no proof to replace,
# and a report's only ``no_covariant`` claim has no sibling of its kind
UNMUTABLE = {
    *((f"recompute {what}", m) for what in ("validate", "faithful", "positive", "marginals")
      for m in ("number", "drop", "pair", "bool_for_int")),
    ("recompute complementary", "number"), ("recompute complementary", "bool_for_int"),
    ("recompute validate", "swap"), ("rank", "drop"),
    *((kind, "bool_for_int") for kind in ("lp_feasible", "lp_infeasible", "negative_entry",
                                          "ball_entry_min", "ball_max_one")),
    ("rank", "id"), ("negative_entry", "id"), ("ball_entry_min", "id"),
    ("lp_feasible", "swap"), ("lp_infeasible", "swap"),
    *((f"recompute {what}", "evidence") for what in RECOMPUTE),
    *((kind, "evidence") for kind in ("rank", "negative_entry", "ball_entry_min",
                                      "lp_infeasible")),
}
# mutations (the seeded ones drawn with the test's seed) that replace a witness by another
# witness of the same statement, so cannot change what the claim asserts
REWITNESSED = {
    # a sibling's surjectivity witness is a unit weight on a vertex where
    # the claim's own effect is 1 too: cube's (0, 1, 0) and (1, 0, 0),
    # boxworld's (0, 1) and (1, 0), and any state for trit's unit effect
    *(("analyze cube", f"surjective[{o}][1]", "evidence") for o in "AB"),
    *(("analyze boxworld", f"surjective[{o}][1]", "evidence") for o in "AB"),
    ("analyze trit", "surjective[unit][*]", "evidence"),
    # the donor's witness is the same entry -x/2 - y/2 at the vertex (0, 1),
    # where it is -1/2 as at (1, 0)
    ("wigner rebit_diamond --degenerate", "negativity_witness", "swap"),
}
MUTATIONS = ("verdict", "number", "drop", "swap", "evidence", "id", "what", "pair",
             "bool_for_int", "string_for_bool")
HEAD = ("id", "kind", "statement", "verdict")
COMMANDS = ("validate", "analyze", "wigner", "symmetries", "covariant")
# what each covariant result says the report carries: (a representation,
# a no_covariant claim)
CARRIES = {"unique": (True, False), "family": (True, False), "none": (False, True),
           "hypothesis_failure": (False, False)}


def _top_level_edits(report) -> list:
    """Copies of ``report`` with ``command`` set to every other command,
    with ``result`` set to every other ``RESULTS`` key, to null and to a
    list, and with ``result`` deleted."""
    edits = [dict(report, command=c) for c in COMMANDS if c != report["command"]]
    edits += [dict(report, result=r) for r in (*RESULTS, None, ["none"])
              if r != report.get("result")]
    if "result" in report:
        edits.append({k: v for k, v in report.items() if k != "result"})
    return edits


def _top_level_rows(report) -> list:
    """The rows that a report with honest claims fails.  With a
    representation, and a covariance claim or ``command: "covariant"``,
    each generator without a covariance claim fails its coverage row.
    With a ``result``, or ``command: "covariant"``, the ``result`` row
    fails unless the result names what the report carries: ``unique`` or
    ``family`` a representation, ``none`` a ``no_covariant`` claim,
    ``hypothesis_failure`` neither."""
    wigner = theory_from_dict(report["theory"])[1]
    covariant = report["command"] == "covariant"
    covered = {c["id"] for c in report["claims"] if c["kind"] == "covariance_identity"}
    rows = []
    if wigner is not None and (covered or covariant):
        ids = (f"covariance[(A:{a}, B:{b})]" for a, b in programs.generators(*wigner[1].shape))
        rows += [cid for cid in ids if cid not in covered]
    carried = (wigner is not None, any(c["id"] == "no_covariant" for c in report["claims"]))
    result = report.get("result")
    named = isinstance(result, str) and CARRIES.get(result) == carried
    if ("result" in report or covariant) and not named:
        rows.append("result")
    return rows


def _fields(claim) -> list:
    """The claim's fields after id, kind, statement and verdict, from the
    row of its kind in ``CLAIM_KINDS``."""
    return [k for k in CLAIM_KINDS[claim["kind"]].fields if k in claim]


def _evidence(kind) -> list:
    """The fields that prove a claim of ``kind``: those of its row beyond
    the program arguments ``LP_ARGS``, which say what the claim is about.
    A recompute claim has none, as ``verify`` runs its check again."""
    return [] if kind == "recompute" else [k for k in CLAIM_KINDS[kind].fields
                                           if k not in LP_ARGS]


def _paths(value, keep, path=()):
    """The paths of the parts of ``value`` that ``keep`` accepts, depth
    first."""
    out = [path] if keep(value) else []
    if isinstance(value, list):
        out += [p for i, v in enumerate(value) for p in _paths(v, keep, path + (i,))]
    elif isinstance(value, dict):
        out += [p for k, v in value.items() for p in _paths(v, keep, path + (k,))]
    return out


def _is_number(value) -> bool:
    if isinstance(value, bool) or not isinstance(value, (int, str)):
        return False
    try:
        Fraction(value)
    except ValueError:
        return False
    return True


def _replaced(claim, path, value):
    claim = copy.deepcopy(claim)
    *where, last = path
    parent = claim
    for key in where:
        parent = parent[key]
    parent[last] = value(parent[last])
    return claim


def _mutated(claim, mutation, donors, rng, siblings) -> list:
    """Copies of ``claim`` with ``mutation`` applied: one for a seeded
    mutation, one per target for a typed one or per sibling (a claim of
    the same report) for ``evidence``, none when it has nothing to act on."""
    if mutation == "verdict":
        return [dict(claim, verdict=not claim["verdict"])]
    if mutation in ("swap", "id"):
        # another claim's data under this id, or this data under another id
        fields = CLAIM_KINDS[claim["kind"]].fields
        others = [d for d in donors if d["kind"] == claim["kind"]
                  and (d["id"] == claim["id"]) == (mutation == "swap")
                  and [d.get(k) for k in fields] != [claim.get(k) for k in fields]]
        if not others:
            return []
        donor = rng.choice(others)
        if mutation == "id":
            return [dict(claim, id=donor["id"])]
        kept = {k: v for k, v in claim.items() if k not in fields}
        return [{**kept, **copy.deepcopy({k: donor[k] for k in _fields(donor)})}]
    if mutation == "evidence":
        # the proof of another program or generator of the same report,
        # under this claim's id and arguments
        proof = _evidence(claim["kind"])
        kept = {k: v for k, v in claim.items() if k not in proof}
        return [{**kept, **copy.deepcopy({k: d[k] for k in proof if k in d})} for d in siblings
                if proof and d["kind"] == claim["kind"] and d["id"] != claim["id"]
                and [d.get(k) for k in proof] != [claim.get(k) for k in proof]]
    if mutation == "what":
        return [dict(claim, what=w) for w in RECOMPUTE if w != claim["what"]]
    if mutation == "pair":
        return [dict(claim, pair=claim["pair"][::-1])] if "pair" in claim else []
    if mutation in ("bool_for_int", "string_for_bool"):
        # every int (never a bool) becomes a bool, every bool its JSON text
        wanted = int if mutation == "bool_for_int" else bool
        paths = [p for k in _fields(claim) + ["verdict"]
                 for p in _paths(claim[k], lambda v: type(v) is wanted, (k,))]
        return [_replaced(claim, p, bool if wanted is int else json.dumps) for p in paths]
    keep = _is_number if mutation == "number" else (lambda v: isinstance(v, list) and v)
    paths = [p for k in _fields(claim) for p in _paths(claim[k], keep, (k,))]
    if not paths:
        return []
    path = rng.choice(paths)
    if mutation == "drop":
        def drop(values):
            del values[rng.randrange(len(values))]
            return values

        return [_replaced(claim, path, drop)]
    return [_replaced(claim, path, lambda v: v + 1 if isinstance(v, int)
                      else str(Fraction(v) + 1))]


def test_every_mutation_of_a_catalog_claim_fails_that_claim_alone(tmp_path, capsys):
    """For each claim of each catalog report: flip its verdict, change one
    number, drop one list entry, give it another claim's data under its
    id, another claim's proof under its id and program arguments, or its
    data under another claim's id (of its kind), name another recompute
    target or swap its pair, and write each int as a bool and each bool
    as a string.  Each mutation fails the mutated claim, and no
    other (but for the coverage row of a generator whose claim it moves
    to another id, or the ``result`` row of a ``none`` report whose
    ``no_covariant`` claim it moves), or is one of ``UNMUTABLE``; the claim's fields are those of
    its kind's row in ``CLAIM_KINDS``.  Each report's top-level fields
    are edited too (``_top_level_edits``): every claim still verifies,
    and the report fails exactly the coverage and ``result`` rows of
    ``_top_level_rows``."""
    reports = _every_catalog_report(tmp_path, capsys)
    donors = [c for _, r in reports for c in r["claims"]]
    assert {c["kind"] for c in donors} == set(CLAIM_KINDS)
    rng = random.Random(18)
    escaped, unmutable, applied = [], set(), {m: 0 for m in MUTATIONS}
    top_level = collections.Counter()
    for name, report in reports:
        assert _failed(report) == []
        for k, claim in enumerate(report["claims"]):
            # the builders write the fields of the kind's row, in its order
            assert [key for key in claim if key not in HEAD] == _fields(claim)
            label = claim["kind"] if claim["kind"] != "recompute" else f"recompute {claim['what']}"
            fields = CLAIM_KINDS[claim["kind"]].fields
            for mutation in MUTATIONS:
                if mutation in ("what", "pair") and mutation not in fields:
                    continue
                bads = _mutated(claim, mutation, donors, rng, report["claims"])
                if not bads:
                    unmutable.add((label, mutation))
                for bad in bads:
                    tampered = dict(report, claims=report["claims"][:k] + [bad]
                                    + report["claims"][k + 1:])
                    applied[mutation] += 1
                    failed = set(_failed(tampered))
                    # a generator's claim moved off its id leaves the
                    # generator uncovered (the catalog claims generators
                    # only), and the no_covariant claim moved off its id
                    # leaves the result "none" without it
                    moved = {claim["id"]} if claim["kind"] == "covariance_identity" else set()
                    if claim["id"] == "no_covariant":
                        moved = {"result"}
                    if failed != {bad["id"]} | (moved if mutation == "id" else set()):
                        assert not failed, (name, claim["id"], mutation, bad, failed)
                        escaped.append((name, claim["id"], mutation))
        for tampered in _top_level_edits(report):
            rows = _top_level_rows(tampered)
            assert _failed(tampered) == rows, (name, tampered["command"], tampered.get("result"))
            top_level["coverage" if set(rows) - {"result"} else "result" if rows else "ok"] += 1
    assert set(escaped) == REWITNESSED and len(escaped) == len(REWITNESSED)
    assert unmutable == UNMUTABLE
    assert all(applied.values()) and sum(applied.values()) > 1000
    assert min(top_level.values()) > 10 and len(top_level) == 3, top_level


def test_no_top_level_edit_lifts_the_coverage_check(tmp_path, capsys):
    """A covariance claim of a catalog report, dropped, fails under its id
    whatever the report's ``command`` and ``result`` say: any covariance
    claim calls for one per generator.  A result that denies the
    representation the report carries fails its own row as well."""
    reports = [r for _, r in _every_catalog_report(tmp_path, capsys)
               if any(c["kind"] == "covariance_identity" for c in r["claims"])]
    assert len(reports) == 3
    for report in reports:
        for k, claim in enumerate(report["claims"]):
            if claim["kind"] != "covariance_identity":
                continue
            for command in ("analyze", "wigner", "symmetries", "validate", "covariant"):
                for result in ("unique", "none", "hypothesis_failure"):
                    tampered = dict(report, command=command, result=result,
                                    claims=report["claims"][:k] + report["claims"][k + 1:])
                    denied = ["result"] if result != "unique" else []
                    assert _failed(tampered) == [claim["id"], *denied]


@pytest.mark.parametrize("name, result", [
    ("boxworld", "unique"), ("deformed_12gon", "none"), ("trit", "hypothesis_failure"),
])
def test_a_covariant_result_names_what_the_report_carries(tmp_path, capsys, name, result):
    """A ``covariant`` report's ``result`` is bound to what it carries:
    ``unique`` and ``family`` a representation, ``none`` a
    ``no_covariant`` claim, ``hypothesis_failure`` neither.  Each edit to
    another value fails the ``result`` row and nothing else, but
    ``unique`` and ``family``, which no claim tells apart; a missing or
    non-string result fails too.  ``result: "none"`` on boxworld once
    verified 3/3."""
    report = _example_report(tmp_path, capsys, name, "covariant")
    assert report["result"] == result and _failed(report) == []
    represented = ("unique", "family")
    for other in ("unique", "family", "none", "hypothesis_failure", None, ["none"]):
        unbound = other == result or (other in represented and result in represented)
        assert _failed(dict(report, result=other)) == ([] if unbound else ["result"])
    del report["result"]
    assert [row for row in verify_report(report) if not row[1]] == [
        ("result", False, "the result does not name what the report carries")]


def test_the_result_reads_presence_not_validity(tmp_path, capsys):
    """The ``result`` rule reads only whether the representation and the
    ``no_covariant`` claim are there, so a tampered ``no_covariant``
    certificate fails its own claim and nothing else."""
    report = _gon_covariant(tmp_path, capsys)
    report["claims"][0]["certificate"]["gap"] = "7"
    assert _failed(report) == ["no_covariant"]


def test_an_lp_claim_is_about_what_its_id_names(tmp_path, capsys):
    """A claim's id names its program: the true claim that boxworld's A
    reaches outcome 1, filed under the id of outcome 0, fails, and so
    does the ``no_covariant`` certificate of the swap (1, 0) filed under
    (0, 0), which is no permutation although its equations are the swap's."""
    report = _example_report(tmp_path, capsys, "boxworld", "analyze")
    ids = [c["id"] for c in report["claims"]]
    k = ids.index("surjective[A][1]")
    report["claims"][k]["id"] = "surjective[A][0]"
    del report["claims"][ids.index("surjective[A][0]")]
    assert _failed(report) == ["surjective[A][0]"]
    report = _gon_covariant(tmp_path, capsys)
    report["claims"][0]["perm_a"] = [0, 0]
    assert _failed(report) == ["no_covariant"]


@pytest.mark.parametrize("name, argv, cid, field", [
    ("trit", ["analyze"], "surjective[A][0]", ("witness",)),
    ("boxworld", ["analyze"], "compatibility", ("certificate", "eq_multipliers")),
    ("boxworld", ["wigner", "--faithful"], "negativity_witness", ("state",)),
    ("boxworld", ["wigner", "--faithful"], "negativity_witness", ("functional", "linear")),
    ("qubit_ball", ["analyze"], "surjective[A][0]", ("center",)),
    ("boxworld", ["covariant"], SWAP_A, ("channel", "matrix", 1)),
    ("boxworld", ["covariant"], SWAP_A, ("channel", "offset")),
], ids=["witness", "multipliers", "state", "functional", "center", "matrix_row", "offset"])
def test_a_string_where_a_list_belongs_fails_its_claim(tmp_path, capsys, name, argv, cid, field):
    """The list ["1", "0", "0"] written as the string "100" is no vector,
    although its characters are the same rationals; likewise a channel's
    matrix row or offset, reported at the matrix or the offset."""
    report = _example_report(tmp_path, capsys, name, *argv)
    claim = next(c for c in report["claims"] if c["id"] == cid)
    *where, last = field
    for key in where:
        claim = claim[key]
    claim[last] = "".join(claim[last])
    rows = [(c, detail) for c, ok, detail in verify_report(report) if not ok]
    at = ".".join(k for k in field if isinstance(k, str))
    assert rows == [(cid, f"verification error: expected a list of rationals (at {at})")]
