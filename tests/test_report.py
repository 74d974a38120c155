"""Report claims: LP programs parsed to integer rows, and their replay."""

import copy
import json
from fractions import Fraction

import pytest

from helpers import generalized_boxworld
from wignerlab import catalog, exact
from wignerlab.cli import main
from wignerlab.exact import LinearProgram
from wignerlab.geometry import AffineFunctional, ExtremalValue, Polytope, affine_basis
from wignerlab.symmetry import ProductGroupElement, product_group_generators
from wignerlab.theory import Observable, Theory, jointly_info_complete
from wignerlab.theoryfile import dumps
from wignerlab.wigner import grid_rank
from wignerlab.report import (
    _de_map,
    _de_program,
    _generators,
    covariance_claim,
    dump_report,
    load_report,
    ser_extremal,
    ser_map,
    ser_program,
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


def _programs(report):
    return [c["program"] for c in report["claims"] if "program" in c]


def test_parsed_programs_write_back_byte_for_byte(tmp_path, capsys):
    programs = [p for r in _catalog_reports(tmp_path, capsys) for p in _programs(r)]
    assert len(programs) >= 20
    for program in programs:
        lp = _de_program(program)
        assert json.dumps(ser_program(lp)) == json.dumps(program)
        rational = LinearProgram(lp.n_vars, lp.equalities, lp.inequalities)
        assert rational == lp and hash(rational) == hash(lp)
        assert rational._scaled == lp._scaled
        assert rational.equalities == lp.equalities
        assert rational.inequalities == lp.inequalities


def test_parsed_channels_write_back_byte_for_byte(tmp_path, capsys):
    channels = [
        c["channel"] for r in _catalog_reports(tmp_path, capsys) for c in r["claims"]
        if "channel" in c
    ]
    assert len(channels) >= 5
    for channel in channels:
        assert json.dumps(ser_map(_de_map(channel, "channel."))) == json.dumps(channel)


def test_unreduced_and_json_int_entries_parse_to_the_same_program():
    program = {"n_vars": 2, "equalities": [[["2/4", 3], "-6/8"]],
               "inequalities": [[["0", "10/5"], "1"]]}
    canonical = {"n_vars": 2, "equalities": [[["1/2", "3"], "-3/4"]],
                 "inequalities": [[["0", "2"], "1"]]}
    lp = _de_program(program)
    assert lp == _de_program(canonical)
    assert ser_program(lp) == canonical


def _boxworld_analyze(tmp_path, capsys):
    path = str(tmp_path / "box.json")
    main(["example", "boxworld", "--out", path])
    capsys.readouterr()
    return _report(capsys, ["analyze", path])


@pytest.mark.parametrize("damage", ["malformed_entry", "short_row", "zero_denominator"])
def test_bad_program_fails_only_its_claim(tmp_path, capsys, damage):
    report = _boxworld_analyze(tmp_path, capsys)
    clean = verify_report(report)
    assert all(ok for _, ok, _ in clean)
    lp_claims = [i for i, c in enumerate(report["claims"]) if "program" in c]
    assert len(lp_claims) >= 2
    target = lp_claims[-1]
    bad = copy.deepcopy(report)
    program = bad["claims"][target]["program"]
    rows = program["inequalities"] or program["equalities"]
    if damage == "malformed_entry":
        rows[0][0][0] = "1/2x"
    elif damage == "short_row":
        rows[0][0].pop()
    else:
        rows[0][1] = "3/0"
    checked = verify_report(bad)
    for i, (row, before) in enumerate(zip(checked, clean)):
        if i == target:
            cid, ok, detail = row
            assert cid == before[0] and not ok
            assert detail.startswith("verification error")
        else:
            assert row == before


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
    """On ``trit`` the effect span has rank 2, not dim(K) + 1 = 3.  The
    3x3 identity with rank 3 and a true verdict is a consistent rank
    claim, but not about the report's theory, so ``info_complete`` fails
    and only it; so does a matrix of the same rank with one row doubled."""
    report = _example_report(tmp_path, capsys, "trit", "analyze")
    claim = next(c for c in report["claims"] if c["id"] == "info_complete")
    assert claim["rank"] == 2 and claim["verdict"] is False and _failed(report) == []
    matrix = claim["matrix"]
    assert any(Fraction(x) for x in matrix[0])
    claim["matrix"] = [["1" if i == j else "0" for j in range(3)] for i in range(3)]
    claim["rank"], claim["verdict"] = 3, True
    assert _failed(report) == ["info_complete"]
    claim["matrix"] = [[str(2 * Fraction(x)) for x in matrix[0]]] + matrix[1:]
    claim["rank"], claim["verdict"] = 2, False
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
    """A covariance claim with an empty basis and a channel of 7s fails:
    the identity is checked at the affine basis of the report's K, for a
    channel that maps K into K."""
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
    box = catalog.load("boxworld").theory.state_space
    swap_a, swap_b = (_de_map(c["channel"], "channel.") for c in claims[:2])
    both = ProductGroupElement((1, 0), (1, 0))
    return covariance_claim(both, swap_a.compose(swap_b), "W_covariant", affine_basis(box))


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


def test_verify_lists_the_generators_that_the_engine_solves():
    """``verify`` may not load ``symmetry``, so ``report`` restates
    ``product_group_generators``; both give the same list."""
    for m in range(1, 6):
        for n in range(1, 6):
            assert _generators(m, n) == [(g.perm_a, g.perm_b)
                                         for g in product_group_generators(m, n)]


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
