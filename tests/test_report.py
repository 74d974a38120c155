"""Report claims: LP programs parsed to integer rows, and their replay."""

import copy
import json

import pytest

from wignerlab import catalog
from wignerlab.cli import main
from wignerlab.exact import LinearProgram
from wignerlab.report import _de_program, load_report, ser_program, verify_report


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
