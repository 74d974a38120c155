"""End-to-end CLI tests: subcommands, exit codes, verifiable reports."""

import json
from fractions import Fraction

import pytest

from wignerlab.cli import main
from wignerlab.report import load_report, verify_report


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_example_list_and_export(tmp_path, capsys):
    code, out, _ = run(capsys, "example", "--list")
    assert code == 0 and "boxworld" in out
    path = tmp_path / "box.json"
    code, _, _ = run(capsys, "example", "boxworld", "--rep", "W_0", "--out", str(path))
    assert code == 0
    data = json.loads(path.read_text())
    assert data["wigner"]["name"] == "W_0"
    code, _, err = run(capsys, "example", "nope")
    assert code == 1 and "unknown catalog entry" in err


def test_validate_ok_and_violation(tmp_path, capsys):
    path = tmp_path / "box.json"
    run(capsys, "example", "boxworld", "--out", str(path))
    code, out, _ = run(capsys, "validate", str(path))
    assert code == 0
    data = json.loads(path.read_text())
    data["observables"][0]["effects"][0]["constant"] = "2"
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    code, out, _ = run(capsys, "validate", str(bad))
    assert code == 1
    report = json.loads(out)
    assert report["violations"]


def test_parse_error_exit_code(tmp_path, capsys):
    broken = tmp_path / "broken.json"
    broken.write_text("{")
    code, _, err = run(capsys, "validate", str(broken))
    assert code == 2 and "error" in err


def test_analyze_report_verifies(tmp_path, capsys):
    path = tmp_path / "box.json"
    run(capsys, "example", "boxworld", "--out", str(path))
    code, out, _ = run(capsys, "analyze", str(path))
    assert code == 0
    report = load_report(out)
    rows = verify_report(report)
    assert rows and all(ok for _, ok, _ in rows)
    verdicts = {c["id"]: c["verdict"] for c in report["claims"]}
    assert verdicts["compatibility"] is False
    assert verdicts["info_complete"] is True
    assert verdicts["complementary"] is False


def test_verify_subcommand_and_tamper_detection(tmp_path, capsys):
    path = tmp_path / "box.json"
    run(capsys, "example", "boxworld", "--out", str(path))
    _, out, _ = run(capsys, "analyze", str(path))
    report_path = tmp_path / "report.json"
    report_path.write_text(out)
    code, out2, _ = run(capsys, "verify", str(report_path))
    assert code == 0 and "claims verified" in out2
    # tamper with the incompatibility certificate: verification must fail
    data = json.loads(report_path.read_text())
    for claim in data["claims"]:
        if claim["kind"] == "lp_infeasible":
            cert = claim["certificate"]
            cert["gap"] = str(Fraction(cert["gap"]) + 1)
    report_path.write_text(json.dumps(data))
    code, out3, _ = run(capsys, "verify", str(report_path))
    assert code == 1 and "FAIL" in out3


@pytest.mark.parametrize("claims", [[1], {"a": 1}, {}], ids=["int", "object", "empty_object"])
def test_verify_rejects_claims_that_are_not_a_list_of_objects(tmp_path, capsys, claims):
    path = tmp_path / "report.json"
    path.write_text(json.dumps({"format": "wignerlab-report/2", "claims": claims}))
    code, out, err = run(capsys, "verify", str(path))
    assert code == 2 and out == ""
    assert "expected a list of claim objects (at claims)" in err


def test_verify_refuses_a_format_1_report(tmp_path, capsys):
    """A report of any format but ``wignerlab-report/2`` is a parse error
    that names the format it found."""
    path = tmp_path / "trit.json"
    run(capsys, "example", "trit", "--out", str(path))
    _, out, _ = run(capsys, "analyze", str(path))
    report = json.loads(out)
    report["format"] = "wignerlab-report/1"
    report_path = tmp_path / "report.json"
    report_path.write_text(json.dumps(report))
    code, out, err = run(capsys, "verify", str(report_path))
    assert code == 2 and out == ""
    assert "not a wignerlab-report/2 document (found 'wignerlab-report/1')" in err


@pytest.mark.parametrize("edit, where", [
    (lambda r: r.pop("theory"), "theory"),
    (lambda r: r.update(theory=["not", "an", "object"]), "theory"),
    (lambda r: r["claims"][1].pop("id"), "claims[1].id"),
    (lambda r: r["claims"][0].pop("kind"), "claims[0].kind"),
], ids=["no_theory", "theory_not_object", "claim_without_id", "claim_without_kind"])
def test_verify_rejects_malformed_reports(tmp_path, capsys, edit, where):
    """Malformed reports are parse errors (exit 2), not failed claims."""
    path = tmp_path / "trit.json"
    run(capsys, "example", "trit", "--out", str(path))
    _, out, _ = run(capsys, "analyze", str(path))
    report = json.loads(out)
    edit(report)
    report_path = tmp_path / "report.json"
    report_path.write_text(json.dumps(report))
    code, out, err = run(capsys, "verify", str(report_path))
    assert code == 2 and out == ""
    assert f"(at {where})" in err


def _edited_trit(tmp_path, capsys, edit) -> str:
    path = tmp_path / "trit.json"
    run(capsys, "example", "trit", "--out", str(path))
    data = json.loads(path.read_text())
    edit(data)
    path.write_text(json.dumps(data))
    return str(path)


def _one_observable(theory):
    del theory["pair"], theory["observables"][1:]


BAD_PAIRS = {
    "one_observable": (_one_observable, "pair needs two observables, the theory has 1"),
    "unknown_name": (lambda t: t.update(pair=["A", "Z"]),
                     "pair ['A', 'Z'] does not name two of the observables ['A', 'unit']"),
}


@pytest.mark.parametrize("case", BAD_PAIRS)
@pytest.mark.parametrize("argv", [["analyze"], ["covariant"], ["wigner", "--degenerate"]],
                         ids=["analyze", "covariant", "wigner"])
def test_a_theory_without_a_valid_pair_is_a_usage_error(tmp_path, capsys, case, argv):
    edit, message = BAD_PAIRS[case]
    path = _edited_trit(tmp_path, capsys, edit)
    code, out, err = run(capsys, argv[0], path, *argv[1:])
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_validate_needs_no_pair_and_verify_reads_the_embedded_pair(tmp_path, capsys):
    """``validate`` runs on one observable, and its report verifies; a
    report whose theory has no pair fails the claims that read it, and
    one whose pair names an unknown observable is a usage error."""
    path = _edited_trit(tmp_path, capsys, _one_observable)
    code, out, _ = run(capsys, "validate", path)
    assert code == 0 and verify_report(load_report(out)) == [("validate", True, "")]
    _, out, _ = run(capsys, "analyze", _edited_trit(tmp_path, capsys, lambda t: None))
    report = json.loads(out)
    _one_observable(report["theory"])
    failed = {cid: detail for cid, ok, detail in verify_report(report) if not ok}
    assert failed["compatibility"] == "verification error: " + BAD_PAIRS["one_observable"][1]
    report_path = tmp_path / "report.json"
    report["theory"]["pair"] = ["A", "Z"]
    report["theory"]["observables"] = json.loads(out)["theory"]["observables"]
    report_path.write_text(json.dumps(report))
    code, out, err = run(capsys, "verify", str(report_path))
    assert (code, out, err) == (2, "", f"error: {BAD_PAIRS['unknown_name'][1]}\n")


def test_wigner_free_and_degenerate_and_faithful(tmp_path, capsys):
    path = tmp_path / "box.json"
    run(capsys, "example", "boxworld", "--out", str(path))
    out_file = tmp_path / "w0.json"
    code, out, _ = run(capsys, "wigner", str(path), "--free", "0", "--out", str(out_file))
    assert code == 0
    report = json.loads(out)
    verdicts = {c["id"]: c["verdict"] for c in report["claims"]}
    assert verdicts == {
        "marginals": True, "faithful": True, "positive": False,
        "negativity_witness": True,
    }
    grid = json.loads(out_file.read_text())["wigner"]["grid"]
    assert grid[1][1] == {"linear": ["-1", "-1"], "constant": "1"}
    code, out, _ = run(capsys, "wigner", str(path), "--free", "1/2 x0 + 1/2 x1")
    assert code == 0
    report = json.loads(out)
    assert report["theory"]["wigner"]["grid"][0][0] == {
        "linear": ["1/2", "1/2"], "constant": "0",
    }
    code, out, _ = run(capsys, "wigner", str(path), "--degenerate")
    assert code == 0
    rows = verify_report(load_report(out))
    assert all(ok for _, ok, _ in rows)


def test_degenerate_member_of_a_common_sum_has_the_marginals(tmp_path, capsys):
    """On the unit square with A = (x, 2 - x) and B = (y, 2 - y), whose
    effects both sum to 2, ``wigner --degenerate`` gives a member with
    both marginals, and its report verifies."""
    def effects(k):
        return [{"linear": ["1" if i == k else "0" for i in range(2)], "constant": "0"},
                {"linear": ["-1" if i == k else "0" for i in range(2)], "constant": "2"}]

    doc = {
        "state_space": {"type": "polytope",
                        "vertices": [["0", "0"], ["1", "0"], ["0", "1"], ["1", "1"]]},
        "observables": [{"name": "A", "outcomes": [0, 1], "effects": effects(0)},
                        {"name": "B", "outcomes": [0, 1], "effects": effects(1)}],
    }
    path = tmp_path / "sum2.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "wigner", str(path), "--degenerate")
    report = load_report(out)
    verdicts = {c["id"]: c["verdict"] for c in report["claims"]}
    assert code == 0 and verdicts["marginals"] is True
    assert all(ok for _, ok, _ in verify_report(report))


def test_wigner_faithful_failure_exit(tmp_path, capsys):
    # a 4-dimensional hypercube with two binary observables cannot be faithful
    verts = [
        [str(i), str(j), str(k), str(l)]
        for i in (0, 1) for j in (0, 1) for k in (0, 1) for l in (0, 1)
    ]
    doc = {
        "state_space": {"type": "polytope", "vertices": verts},
        "observables": [
            {"name": "A", "outcomes": [0, 1],
             "effects": [
                 {"linear": ["1", "0", "0", "0"], "constant": "0"},
                 {"linear": ["-1", "0", "0", "0"], "constant": "1"},
             ]},
            {"name": "B", "outcomes": [0, 1],
             "effects": [
                 {"linear": ["0", "1", "0", "0"], "constant": "0"},
                 {"linear": ["0", "-1", "0", "0"], "constant": "1"},
             ]},
        ],
    }
    path = tmp_path / "hyper.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "wigner", str(path), "--faithful")
    assert code == 1
    assert "no faithful representation exists" in json.dumps(json.loads(out)["notes"])


def test_symmetries_subcommand(tmp_path, capsys):
    path = tmp_path / "wh.json"
    box = tmp_path / "box.json"
    run(capsys, "example", "boxworld", "--out", str(box))
    run(capsys, "wigner", str(box), "--free", "1/2 x0 + 1/2 x1", "--out", str(path))
    code, out, _ = run(capsys, "symmetries", str(path))
    assert code == 0
    report = json.loads(out)
    assert report["group_order"] == 4
    assert all(row["transported"] for row in report["lifted_symmetries"])


def test_symmetries_channel_query_trit(tmp_path, capsys):
    path = tmp_path / "trit.json"
    run(capsys, "example", "trit", "--rep", "W", "--out", str(path))
    code, out, _ = run(
        capsys, "symmetries", str(path), "--channel-matrix",
        '{"matrix": [["-1","-1"],["1","0"]], "offset": ["1","0"]}',
    )
    assert code == 1
    report = json.loads(out)
    assert sorted(report["obstruction"]["witness_pair"]) == [["0", "0"], ["0", "1"]]


def test_symmetries_channel_matrix_names_the_broken_dependency(tmp_path, capsys):
    """On conv{(0,0), (1,0), (0,1)} with both effects ((x+2y)/2, 1 -
    (x+2y)/2), no two vertex images of the degenerate W collide, and the
    swap (x, y) -> (y, x) breaks their midpoint dependency: the obstruction
    names the affine basis it breaks, not an empty object."""
    t = {"linear": ["1/2", "1"], "constant": "0"}
    rest = {"linear": ["-1/2", "-1"], "constant": "1"}
    theory = {"state_space": {"type": "polytope", "vertices": [["0", "0"], ["1", "0"], ["0", "1"]]},
              "observables": [{"name": name, "outcomes": [0, 1], "effects": [t, rest]}
                              for name in ("A", "B")]}
    path = tmp_path / "skew.json"
    path.write_text(json.dumps(theory))
    rep = tmp_path / "skew.w.json"
    assert run(capsys, "wigner", str(path), "--degenerate", "--out", str(rep))[0] == 0
    code, out, _ = run(capsys, "symmetries", str(rep), "--channel-matrix",
                       '{"matrix": [["0","1"],["1","0"]], "offset": ["0","0"]}')
    assert code == 1
    assert load_report(out)["obstruction"] == {"dependency": [["0", "0"], ["1", "0"], ["0", "1"]]}
    assert _verified(capsys, tmp_path, out) == (0, "0/0 claims verified\n")


def test_channel_maps_parse_errors_name_their_field(tmp_path, capsys):
    path = tmp_path / "trit.json"
    run(capsys, "example", "trit", "--rep", "W", "--out", str(path))
    code, _, err = run(
        capsys, "symmetries", str(path), "--channel-matrix",
        '{"matrix": [["1","x"],["0","1"]], "offset": ["0","0"]}',
    )
    assert code == 2 and "(at matrix)" in err
    code, _, err = run(
        capsys, "symmetries", str(path), "--channel-matrix", '{"matrix": [["1","0"],["0","1"]]}',
    )
    assert code == 2 and "offset length must equal matrix row count" in err
    box = tmp_path / "box.json"
    channels = tmp_path / "channels.json"
    run(capsys, "example", "qubit_xz", "--out", str(box), "--channels-out", str(channels))
    rows = json.loads(channels.read_text())
    rows[1]["offset"][0] = "1/0"
    channels.write_text(json.dumps(rows))
    code, _, err = run(capsys, "covariant", str(box), "--channels", str(channels))
    assert code == 2 and "(at [1].offset)" in err


@pytest.mark.parametrize("matrix, where", [
    ('{"matrix": [["1"]], "offset": ["0"]}', "matrix"),
    ('{"matrix": [["1", "0"]], "offset": ["0", "0"]}', "matrix"),
    ("[1]", "--channel-matrix"),
])
def test_channel_matrix_of_a_wrong_shape_is_a_parse_error(tmp_path, capsys, matrix, where):
    path = tmp_path / "trit.json"
    run(capsys, "example", "trit", "--rep", "W", "--out", str(path))
    code, out, err = run(capsys, "symmetries", str(path), "--channel-matrix", matrix)
    assert code == 2 and out == "" and err.rstrip().endswith(f"(at {where})")


def test_channel_matrix_that_leaves_the_state_space_is_a_usage_error(tmp_path, capsys):
    path = tmp_path / "trit.json"
    run(capsys, "example", "trit", "--rep", "W", "--out", str(path))
    code, out, err = run(
        capsys, "symmetries", str(path), "--channel-matrix",
        '{"matrix": [["2","0"],["0","2"]], "offset": ["0","0"]}',
    )
    assert code == 2 and out == ""
    assert err == ("error: the map leaves the state space: it sends (1, 0) to (2, 0)"
                   " (at --channel-matrix)\n")


def test_channel_matrix_that_leaves_the_disk_is_a_usage_error(tmp_path, capsys):
    path = tmp_path / "xw.json"
    run(capsys, "example", "qubit_xz", "--rep", "W", "--out", str(path))
    code, out, err = run(
        capsys, "symmetries", str(path), "--channel-matrix",
        '{"matrix": [["1","-1"],["0","0"]], "offset": ["-1/2","0"]}',
    )
    assert code == 2 and out == ""
    assert err == ("error: the map leaves the state space: it sends (-1, 0) to (-3/2, 0)"
                   " (at --channel-matrix)\n")


def test_analyze_decides_effects_with_a_large_prime_coefficient(tmp_path, capsys):
    """A's effects 1/2 +- (1000000007/2000000018) x on the unit disk: the
    radicand of their extrema is the square of a 61-bit number, which the
    square-part decomposition takes whole instead of trial-dividing."""
    xz = tmp_path / "xz.json"
    run(capsys, "example", "qubit_xz", "--out", str(xz))
    data = json.loads(xz.read_text())
    b = "1000000007/2000000018"
    data["observables"][0]["effects"] = [
        {"linear": [b, "0"], "constant": "1/2"}, {"linear": ["-" + b, "0"], "constant": "1/2"}]
    xz.write_text(json.dumps(data))
    code, out, _ = run(capsys, "analyze", str(xz))
    assert code == 0
    assert all(ok for _, ok, _ in verify_report(load_report(out)))


@pytest.mark.parametrize("argv", [
    ("example", "trit", "--out", "{out}"),
    ("example", "qubit_xz", "--channels-out", "{out}"),
    ("wigner", "{theory}", "--free", "0", "--out", "{out}"),
    ("plot", "{theory}", "--out", "{out}"),
], ids=["example --out", "example --channels-out", "wigner --out", "plot --out"])
def test_unwritable_output_paths_are_usage_errors(tmp_path, capsys, argv):
    theory = tmp_path / "w0.json"
    run(capsys, "example", "boxworld", "--rep", "W_0", "--out", str(theory))
    out = tmp_path / "missing" / "out"
    code, _, err = run(capsys, *(arg.format(out=out, theory=theory) for arg in argv))
    assert code == 2 and err.startswith("error: ") and err.rstrip().endswith(f"(at {out})")
    assert not out.parent.exists()


@pytest.mark.parametrize("shape, where", [
    ("no matrix", "[0].matrix"),
    ("int perm_a", "[0].perm_a"),
    ("perm_a not a permutation", "[0].perm_a"),
    ("object, not a list", "channels.json"),
    ("ragged matrix", "[1].matrix"),
    ("offset too long", "[1].offset"),
])
def test_bad_channels_files_are_parse_errors(tmp_path, capsys, shape, where):
    box = tmp_path / "box.json"
    channels = tmp_path / "channels.json"
    run(capsys, "example", "qubit_xz", "--out", str(box), "--channels-out", str(channels))
    rows = json.loads(channels.read_text())
    if shape == "no matrix":
        del rows[0]["matrix"]
    elif shape == "int perm_a":
        rows[0]["perm_a"] = 1
    elif shape == "perm_a not a permutation":
        rows[0]["perm_a"] = [0, 0]
    elif shape == "object, not a list":
        rows = {"channels": rows}
    elif shape == "ragged matrix":
        rows[1]["matrix"][0].append("0")
    else:
        rows[1]["offset"].append("0")
    channels.write_text(json.dumps(rows))
    code, _, err = run(capsys, "covariant", str(box), "--channels", str(channels))
    assert code == 2 and err.startswith("error: ") and err.rstrip().endswith(f"{where})")


def test_a_permutation_of_booleans_is_refused_by_one_reader(tmp_path, capsys):
    """[true, false] sorts as [0, 1], but no entry of a permutation is a
    boolean: a ``--channels`` row and a covariance claim that carry it
    fail in the same reader, with the same message."""
    box = tmp_path / "box.json"
    channels = tmp_path / "channels.json"
    run(capsys, "example", "qubit_xz", "--out", str(box), "--channels-out", str(channels))
    rows = json.loads(channels.read_text())
    assert rows[1]["perm_a"] == [1, 0]
    rows[1]["perm_a"] = [True, False]
    channels.write_text(json.dumps(rows))
    code, out, err = run(capsys, "covariant", str(box), "--channels", str(channels))
    assert (code, out) == (2, "")
    assert err == "error: expected a permutation of 0..1 (at [1].perm_a)\n"
    run(capsys, "example", "boxworld", "--out", str(box))
    _, out, _ = run(capsys, "covariant", str(box))
    report = json.loads(out)
    claim = report["claims"][0]
    assert claim["perm_a"] == [1, 0]
    claim["perm_a"] = [True, False]
    forged = tmp_path / "forged.json"
    forged.write_text(json.dumps(report))
    code, out, _ = run(capsys, "verify", str(forged))
    assert code == 1
    assert (f"FAIL  {claim['id']}: verification error: expected a permutation of 0..1"
            " (at perm_a)") in out.splitlines()


def test_covariant_unique_and_none(tmp_path, capsys):
    box = tmp_path / "box.json"
    run(capsys, "example", "boxworld", "--out", str(box))
    code, out, _ = run(capsys, "covariant", str(box))
    assert code == 0
    report = load_report(out)
    assert report["result"] == "unique"
    assert all(ok for _, ok, _ in verify_report(report))
    gon = tmp_path / "gon.json"
    run(capsys, "example", "deformed_12gon", "--out", str(gon))
    code, out, _ = run(capsys, "covariant", str(gon))
    assert code == 1
    report = load_report(out)
    assert report["result"] == "none"
    assert all(ok for _, ok, _ in verify_report(report))


def test_covariant_ball_with_channels(tmp_path, capsys):
    xz = tmp_path / "xz.json"
    ch = tmp_path / "ch.json"
    run(capsys, "example", "qubit_xz", "--rep", "W", "--out", str(xz),
        "--channels-out", str(ch))
    code, out, _ = run(capsys, "covariant", str(xz), "--channels", str(ch))
    assert code == 0
    report = load_report(out)
    assert report["result"] == "unique"
    assert report["theory"]["wigner"]["grid"][0][0] == {
        "linear": ["1/4", "1/4"], "constant": "1/4",
    }
    rows = verify_report(report)
    assert rows and all(ok for _, ok, _ in rows)


def test_plot_subcommand(tmp_path, capsys):
    box = tmp_path / "box.json"
    w0 = tmp_path / "w0.json"
    run(capsys, "example", "boxworld", "--out", str(box))
    run(capsys, "wigner", str(box), "--free", "0", "--out", str(w0))
    svg = tmp_path / "w0.svg"
    code, _, _ = run(capsys, "plot", str(w0), "--out", str(svg))
    assert code == 0
    first = svg.read_text()
    assert first.startswith("<svg") and "</svg>" in first
    run(capsys, "plot", str(w0), "--out", str(svg))
    assert svg.read_text() == first
    qb = tmp_path / "qb.json"
    run(capsys, "example", "qubit_ball", "--rep", "W", "--out", str(qb))
    code, _, err = run(capsys, "plot", str(qb), "--out", str(tmp_path / "qb.svg"))
    assert code == 1 and "two dimensions" in err


@pytest.mark.parametrize("argv, message", [
    (("example", "boxworld", "--rep", "W_9"),
     "boxworld has representations ['W_+', 'W_0', 'W_1/2']"),
    (("example", "boxworld", "--rep", "W_9", "--out", "{written}"),
     "boxworld has representations ['W_+', 'W_0', 'W_1/2']"),
    (("example", "trit", "--channels-out", "{out}"), "trit carries no channels"),
    (("example", "trit", "--out", "{written}", "--channels-out", "{out}"),
     "trit carries no channels"),
    (("symmetries", "{theory}"), "the theory file carries no wigner block"),
    (("plot", "{theory}", "--out", "{out}"), "the theory file carries no wigner block"),
], ids=["example --rep", "example --rep --out", "example --channels-out",
        "example --out --channels-out", "symmetries", "plot"])
def test_usage_errors_exit_2_with_their_message(tmp_path, capsys, argv, message):
    """An unknown representation, channels of an entry that has none, and
    a command that needs a wigner block on a file without one are usage
    errors: exit 2 and one ``error:`` line, with nothing on stdout and no
    file written."""
    theory = tmp_path / "trit.json"
    run(capsys, "example", "trit", "--out", str(theory))
    out, written = tmp_path / "out", tmp_path / "t.json"
    argv = [a.format(theory=theory, out=out, written=written) for a in argv]
    assert run(capsys, *argv) == (2, "", f"error: {message}\n")
    assert not out.exists() and not written.exists()


def test_no_subcommand_prints_the_help(capsys):
    code, out, err = run(capsys)
    assert (code, err) == (2, "") and out.startswith("usage: wignerlab")
    assert "verify              re-check a report's claims" in out


@pytest.mark.parametrize("argv, message", [
    (("wigner", "{box}", "--free", " "), "empty functional expression"),
    (("wigner", "{box}", "--degenerate", "--anchor", "0;1"),
     "anchor must be 'a,b' with integer indices"),
    (("symmetries", "{w0}", "--channel-matrix", "{{"),
     "bad --channel-matrix: Expecting property name enclosed in double quotes:"
     " line 1 column 2 (char 1)"),
    (("covariant", "{box}", "--channels", "{missing}"),
     "cannot read channels file: [Errno 2] No such file or directory: '{missing}'"
     " (at {missing})"),
    (("covariant", "{box}", "--channels", "{rows}"), "expected an object (at [0])"),
    (("verify", "{missing}"), "[Errno 2] No such file or directory: '{missing}' (at {missing})"),
    (("verify", "{text}"), "Expecting value (line 1)"),
], ids=["empty --free", "--anchor", "--channel-matrix", "--channels missing",
        "--channels row", "verify missing", "verify not json"])
def test_malformed_input_exits_2_with_its_message(tmp_path, capsys, argv, message):
    """An empty free functional, a malformed anchor or channel matrix, a
    channels file that cannot be read or has a row that is no object, and
    a report that cannot be read or is not JSON are usage errors."""
    box, w0, rows = tmp_path / "box.json", tmp_path / "w0.json", tmp_path / "rows.json"
    run(capsys, "example", "boxworld", "--out", str(box))
    run(capsys, "example", "boxworld", "--rep", "W_0", "--out", str(w0))
    rows.write_text("[1]")
    text = tmp_path / "report.txt"
    text.write_text("ok    claims verified\n")
    names = {"box": box, "w0": w0, "rows": rows, "missing": tmp_path / "missing.json",
             "text": text}
    argv = [a.format(**names) for a in argv]
    assert run(capsys, *argv) == (2, "", f"error: {message.format(**names)}\n")


def test_an_anchor_moves_the_degenerate_cross(tmp_path, capsys):
    """The free slot of boxworld's degenerate grid, set to zero, is (0, 0)
    with the default anchor (1, 1), and (1, 1) with ``--anchor 0,0``; both
    reports verify."""
    box = tmp_path / "box.json"
    run(capsys, "example", "boxworld", "--out", str(box))
    grids = []
    for extra in ((), ("--anchor", "0,0")):
        code, out, _ = run(capsys, "wigner", str(box), "--degenerate", *extra)
        report = load_report(out)
        assert code == 0 and all(ok for _, ok, _ in verify_report(report))
        grids.append(report["theory"]["wigner"]["grid"])
    zero = {"linear": ["0", "0"], "constant": "0"}
    assert grids[0][0][0] == zero != grids[0][1][1]
    assert grids[1][1][1] == zero != grids[1][0][0]


def test_analyze_ball_notes_a_constant_one_effect(tmp_path, capsys):
    """On a ball, an effect that is 1 everywhere makes the whole ball its
    face, so complementarity is unsupported: ``analyze`` notes it, keeps
    the other claims, and the report verifies."""
    data = {"state_space": {"type": "ball", "center": ["0", "0"], "radius": "1"},
            "observables": [
                {"name": "A", "outcomes": [0, 1], "effects": [
                    {"linear": ["0", "0"], "constant": "1"},
                    {"linear": ["0", "0"], "constant": "0"}]},
                {"name": "B", "outcomes": [0, 1], "effects": [
                    {"linear": ["1/2", "0"], "constant": "1/2"},
                    {"linear": ["-1/2", "0"], "constant": "1/2"}]}]}
    path = tmp_path / "one.json"
    path.write_text(json.dumps(data))
    code, out, _ = run(capsys, "analyze", str(path))
    report = load_report(out)
    assert code == 0 and ("complementarity: unsupported degenerate face: a constant-one"
                          " effect makes the whole ball extremal") in report["notes"]
    assert "complementary" not in {c["id"] for c in report["claims"]}
    assert report["claims"] and all(ok for _, ok, _ in verify_report(report))


def test_analyze_ball_notes_unsupported_compatibility(tmp_path, capsys):
    xz = tmp_path / "xz.json"
    run(capsys, "example", "qubit_xz", "--out", str(xz))
    code, out, _ = run(capsys, "analyze", str(xz))
    assert code == 0
    report = load_report(out)
    assert any("compatibility" in note for note in report["notes"])
    verdicts = {c["id"]: c["verdict"] for c in report["claims"]}
    assert verdicts["complementary"] is True
    assert verdicts["info_complete"] is True
    assert all(ok for _, ok, _ in verify_report(report))


def test_wigner_degenerate_on_cube_is_lossy(tmp_path, capsys):
    cube = tmp_path / "cube.json"
    run(capsys, "example", "cube", "--out", str(cube))
    code, out, _ = run(capsys, "wigner", str(cube), "--degenerate")
    assert code == 0
    verdicts = {c["id"]: c["verdict"] for c in json.loads(out)["claims"]}
    assert verdicts["faithful"] is False and verdicts["marginals"] is True


def test_wigner_flag_errors_are_usage_errors(tmp_path, capsys):
    box = tmp_path / "box.json"
    run(capsys, "example", "boxworld", "--out", str(box))
    code, _, err = run(capsys, "wigner", str(box), "--free", "0;0;0")
    assert code == 2 and "free slots" in err
    code, _, err = run(capsys, "wigner", str(box), "--free", "x9")
    assert code == 2 and "ambient dimension" in err
    # a stray sign, or numbers apart, is no term: it is named, not dropped,
    # read as 0 or glued to its neighbour ('x0 1' is not x01 = x1)
    for text, term in (("x0 - - x1", "-"), ("1/2 x0 +", "+"), ("+", "+"), ("-", "-"),
                       ("x0 1", "x0 1"), ("1 2 x0", "1 2 x0")):
        code, _, err = run(capsys, "wigner", str(box), "--free", text)
        assert code == 2 and f"cannot parse term {term!r}" in err
    code, _, err = run(capsys, "wigner", str(box), "--free", "0", "--anchor", "9,9")
    assert code == 2 and "out of range" in err


def test_symmetries_on_ball_rep_skips_transport(tmp_path, capsys):
    xz = tmp_path / "xz.json"
    run(capsys, "example", "qubit_xz", "--rep", "W", "--out", str(xz))
    code, out, _ = run(capsys, "symmetries", str(xz))
    assert code == 0
    report = json.loads(out)
    assert report["group_order"] == 8
    assert any("transport" in note for note in report["notes"])


def test_symmetries_certify_the_symmetries_that_no_channel_realizes(tmp_path, capsys):
    """K is the tetrahedron conv{(0,0,0), (1,1,0), (1,0,1), (0,1,1)} with
    the apex (1/2, 1/2, 2), and W reads x and y only, so W(K) is a square
    with all 8 of its symmetries.  A channel that completes the square
    of a quarter turn permutes the tetrahedron's vertices, and so sends
    the apex to (1/2, 1/2, -1), outside K: four of the eight symmetries
    get a ``no_transport`` claim, and the report verifies."""
    x, y = ["1", "0", "0"], ["0", "1", "0"]
    theory = _theory_file(
        tmp_path, "apex",
        [["0", "0", "0"], ["1", "1", "0"], ["1", "0", "1"], ["0", "1", "1"], ["1/2", "1/2", "2"]],
        [("A", [(x, "0"), (["-1", "0", "0"], "1")]), ("B", [(y, "0"), (["0", "-1", "0"], "1")])])
    rep = tmp_path / "apex_w.json"
    run(capsys, "wigner", str(theory), "--free", "1/2 x0 + 1/2 x1 - 1/4", "--out", str(rep))
    code, out, _ = run(capsys, "symmetries", str(rep))
    report = load_report(out)
    assert code == 0 and report["group_order"] == 8
    moved = [row["map"] for row in report["lifted_symmetries"] if not row["transported"]]
    assert [c["id"] for c in report["claims"]] == [f"no_transport[{m}]" for m in moved]
    assert len(moved) == 4 and all(c["kind"] == "lp_infeasible" for c in report["claims"])
    assert _verified(capsys, tmp_path, out) == (0, "".join(
        f"ok    no_transport[{m}]\n" for m in moved) + "4/4 claims verified\n")


def test_wigner_requires_block_for_symmetries(tmp_path, capsys):
    box = tmp_path / "box.json"
    run(capsys, "example", "boxworld", "--out", str(box))
    code, _, err = run(capsys, "symmetries", str(box))
    assert code == 2 and "wigner" in err


def _theory_file(tmp_path, name, vertices, observables):
    """A theory file on conv(vertices) with observables given as
    (name, [(linear, constant), ...])."""
    data = {
        "state_space": {"type": "polytope", "vertices": vertices},
        "observables": [
            {"name": obs, "outcomes": list(range(len(effects))),
             "effects": [{"linear": lin, "constant": c} for lin, c in effects]}
            for obs, effects in observables
        ],
    }
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(data))
    return path


def _verified(capsys, tmp_path, out):
    """Exit code and output of ``verify`` on the report text ``out``."""
    report = tmp_path / "report.json"
    report.write_text(out)
    code, text, _ = run(capsys, "verify", str(report))
    return code, text


def test_covariant_family_through_the_cli(tmp_path, capsys):
    cube = tmp_path / "cube.json"
    run(capsys, "example", "cube", "--out", str(cube))
    channels = tmp_path / "swaps.json"
    channels.write_text(json.dumps([
        {"perm_a": [1, 0], "perm_b": [0, 1], "matrix": [["-1", "0", "0"], ["0", "1", "0"],
         ["0", "0", "-1"]], "offset": ["1", "0", "1"]},
        {"perm_a": [0, 1], "perm_b": [1, 0], "matrix": [["1", "0", "0"], ["0", "-1", "0"],
         ["0", "0", "-1"]], "offset": ["0", "1", "1"]},
    ]))
    code, out, _ = run(capsys, "covariant", str(cube), "--channels", str(channels))
    assert code == 0
    report = load_report(out)
    assert report["result"] == "family" and report["family_dimension"] == 1
    assert [c["kind"] for c in report["claims"]] == ["covariance_identity"] * 2 + ["recompute"]
    assert _verified(capsys, tmp_path, out) == (0, "".join(
        f"ok    {c['id']}\n" for c in report["claims"]) + "3/3 claims verified\n")


def test_covariant_none_when_the_effect_sums_differ(tmp_path, capsys):
    """Effects 1 and x/2 + 1/2 agree on K = conv{(1, 0), (1, 1)} but not
    coefficient-wise, so no grid has both marginals."""
    path = _theory_file(tmp_path, "sums", [["1", "0"], ["1", "1"]], [
        ("U", [(["0", "0"], "1")]), ("V", [(["1/2", "0"], "1/2")])])
    channels = tmp_path / "none.json"
    channels.write_text("[]")
    code, out, _ = run(capsys, "covariant", str(path), "--channels", str(channels))
    assert code == 1
    report = load_report(out)
    assert report["result"] == "none" and "offending_element" not in report
    (claim,) = report["claims"]
    assert claim["kind"] == "lp_infeasible" and claim["statement"].startswith(
        "the two observables' effects have different sums")
    assert claim["certificate"] == {"eq_multipliers": ["-1", "0", "0", "1", "0", "0"],
                                    "ineq_multipliers": [], "gap": "1/2"}
    assert _verified(capsys, tmp_path, out) == (0, "ok    no_covariant\n1/1 claims verified\n")


def test_validate_report_verifies(tmp_path, capsys):
    path = _theory_file(tmp_path, "sums", [["1", "0"], ["1", "1"]], [
        ("U", [(["0", "0"], "1")]), ("V", [(["1/2", "0"], "1/2")])])
    code, out, _ = run(capsys, "validate", str(path))
    assert code == 1
    assert [v["kind"] for v in json.loads(out)["violations"]] == ["normalization"]
    assert _verified(capsys, tmp_path, out) == (0, "ok    validate\n1/1 claims verified\n")
    report = json.loads(out)
    report["claims"][0]["verdict"] = True
    code, text = _verified(capsys, tmp_path, json.dumps(report))
    assert code == 1 and text.startswith("FAIL  validate")


def test_analyze_certifies_an_outcome_that_is_never_sharp(tmp_path, capsys):
    """The effect x/2 stays at most 1/2 on the triangle: its surjectivity
    claim is ``lp_infeasible`` with verdict false, and flipping that
    verdict alone fails it."""
    path = _theory_file(tmp_path, "half", [["1", "0"], ["0", "1"], ["0", "0"]], [
        ("A", [(["1/2", "0"], "0"), (["-1/2", "0"], "1")]),
        ("B", [(["0", "1"], "0"), (["0", "-1"], "1")])])
    code, out, _ = run(capsys, "analyze", str(path))
    assert code == 0
    report = load_report(out)
    claim = next(c for c in report["claims"] if c["id"] == "surjective[A][0]")
    assert claim["kind"] == "lp_infeasible" and claim["verdict"] is False
    assert claim["certificate"]["gap"] == "1/2"
    assert all(ok for _, ok, _ in verify_report(report))
    claim["verdict"] = True
    assert [cid for cid, ok, _ in verify_report(report) if not ok] == ["surjective[A][0]"]


@pytest.mark.parametrize("matrix, code", [
    ('{"matrix": [["-1","-1"],["1","0"]], "offset": ["1","0"]}', 1),
    ('{"matrix": [["1","0"],["0","1"]], "offset": ["0","0"]}', 0),
], ids=["rotation", "identity"])
def test_symmetries_channel_matrix_reports_verify(tmp_path, capsys, matrix, code):
    """The rotation of the trit has no transported symmetry of W (an
    obstruction report); the identity transports to the identity."""
    path = tmp_path / "trit.json"
    run(capsys, "example", "trit", "--rep", "W", "--out", str(path))
    got, out, _ = run(capsys, "symmetries", str(path), "--channel-matrix", matrix)
    assert got == code
    report = load_report(out)
    if code:
        assert report["notes"] == ["no transported symmetry exists for the requested channel"]
        assert "obstruction" in report
    else:
        assert report["transported_symmetry"] == {
            "matrix": [["1", "0"], ["0", "1"]], "offset": ["0", "0"]}
    assert _verified(capsys, tmp_path, out) == (0, "0/0 claims verified\n")
