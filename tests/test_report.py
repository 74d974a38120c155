"""Report claims: LP programs parsed to integer rows, and their replay."""

import copy
import json
from fractions import Fraction

import pytest

from wignerlab import catalog, exact
from wignerlab.cli import main
from wignerlab.exact import LinearProgram
from wignerlab.geometry import AffineFunctional, Polytope
from wignerlab.theory import Observable, Theory, jointly_info_complete
from wignerlab.theoryfile import dumps
from wignerlab.wigner import grid_rank
from wignerlab.report import (
    _de_map,
    _de_program,
    dump_report,
    load_report,
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
