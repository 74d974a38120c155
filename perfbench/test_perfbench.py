"""Tests of the benchmark itself.

    PYTHONPATH=src python -m pytest perfbench -q

They run small slices of the workloads, so they take seconds, not minutes.
"""

from __future__ import annotations

import json
import os
import random
import shutil
import signal
import subprocess
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import wignerlab  # noqa: E402
from wignerlab import exact  # noqa: E402
from wignerlab.report import load_report, verify_report  # noqa: E402

import corpus  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

TIMES = (".self_s", ".self_share", ".share", "overhead_share")


def _ops(workload, labels, tmp_path):
    ops = workload.prepare(1, str(tmp_path))
    picked = [op for op in ops if op.label in labels]
    assert len(picked) == len(labels)
    return picked


def _traced(ops):
    collector = tracer.Tracer()
    collector.install()
    try:
        results = run.run_pass(ops, range(len(ops)), tracer=collector)
    finally:
        collector.uninstall()
    wall = run.pass_seconds(results)
    return collector, results, collector.summary(wall)


def _counters(summary):
    return {k: v for k, v in summary.items() if not k.endswith(TIMES)}


def test_traced_counters_repeat_exactly(tmp_path):
    ops = workloads.RandomSymmetry().prepare(7, str(tmp_path))
    cheap = [op for op in ops if op.label.startswith(("2x2/1v", "2x2/2v", "ball/"))][:8]
    first = _counters(_traced(cheap)[2])
    second = _counters(_traced(cheap)[2])
    assert first["exact.lp.calls"] > 0 and first["symmetry.enumerate.calls"] == 8
    assert first == second


def test_wrappers_are_pass_through(tmp_path):
    labels = ["analyze boxworld", "wigner --degenerate trit",
              "covariant qubit_xz", "symmetries trit W"]
    ops = _ops(workloads.CatalogCli(), labels, tmp_path)
    plain = run.run_pass(ops, range(len(ops)))
    _, traced, summary = _traced(ops)
    for i in range(len(ops)):
        assert plain[i][2] is None and traced[i][2] is None
        assert traced[i][1] == plain[i][1]
    assert summary["cli.calls"] == 4 and summary["report.dump.calls"] == 4
    # uninstall put every original back
    assert wignerlab.lp_feasible is exact.lp_feasible
    assert exact.lp_feasible.__module__ == "wignerlab.exact"
    assert not hasattr(exact.lp_feasible, "__wrapped__")


def test_absent_target_does_not_crash(tmp_path, monkeypatch):
    # a later engine drops the kernel backend switch and a function
    monkeypatch.delattr("wignerlab._kernels.simplex_phase1")
    monkeypatch.setattr(tracer, "TARGETS", tracer.TARGETS + (
        ("gone.module", "wignerlab.no_such_module", "f"),
        ("gone.function", "wignerlab.exact", "no_such_function"),
    ))
    ops = _ops(workloads.CatalogCli(), ["analyze boxworld"], tmp_path)
    collector, results, summary = _traced(ops)
    assert results[0][2] is None
    assert set(collector.absent) == {
        "wignerlab._kernels.simplex_phase1",
        "wignerlab.no_such_module.f",
        "wignerlab.exact.no_such_function",
    }
    assert summary.get("kernels.simplex.calls", 0) == 0
    assert summary["exact.lp.calls"] > 0


def test_known_answers_catch_a_wrong_verdict(tmp_path):
    workload = workloads.CatalogCli()
    (op,) = _ops(workload, ["covariant qubit_xz"], tmp_path)
    code, text = op.run()
    assert workload.check(op, (code, text)) == []
    assert workload.check(op, (1, text)) != []
    report = json.loads(text)
    report["theory"]["wigner"]["grid"][0][0]["constant"] = "1/3"
    assert workload.check(op, (code, json.dumps(report))) != []


def test_random_symmetry_checks(tmp_path):
    workload = workloads.RandomSymmetry()
    ops = workload.prepare(3, str(tmp_path))
    op = next(op for op in ops if op.label.startswith("ball/"))
    found, transports = op.run()
    assert len(found) == 24 and workload.check(op, (found, transports)) == []
    assert workload.check(op, (found[1:], transports)) != []


def test_tampered_claim_fails_verification():
    code, text = workloads.run_cli(["analyze", _catalog_theory("boxworld")])
    report = json.loads(text)
    assert all(ok for _, ok, _ in verify_report(report))
    for seed in range(5):
        copy = json.loads(text)
        cid = corpus.tamper(copy, random.Random(seed))
        rows = verify_report(load_report(json.dumps(copy)))
        assert [c for c, ok, _ in rows if not ok] == [cid]


def _catalog_theory(name):
    path = os.path.join(ROOT, ".perfbench", f"test-{name}.json")
    os.makedirs(os.path.dirname(path), exist_ok=True)
    assert workloads.run_cli(["example", name, "--out", path])[0] == 0
    return path


def test_failed_operations_are_counted(monkeypatch):
    monkeypatch.setattr(run, "OP_LIMIT_S", 0.05)
    previous = signal.signal(signal.SIGALRM, run._on_alarm)
    ops = [workloads.Op("slow", lambda: time.sleep(1)),
           workloads.Op("raises", lambda: 1 / 0),
           workloads.Op("usage", lambda: (2, "")),
           workloads.Op("ok", lambda: (0, "{}"))]
    try:
        results = run.run_pass(ops, range(len(ops)))
    finally:
        signal.signal(signal.SIGALRM, previous)
    assert results[0][2].startswith("exceeded") and "ZeroDivisionError" in results[1][2]

    class Stub:
        failed = staticmethod(workloads.cli_failed)

        @staticmethod
        def check(op, outcome):
            return []

    assert run.check_outcomes(Stub, ops, [results]) == ([], 3, 4)


@pytest.mark.parametrize("n, index, pct", [(5, 4, 100.0), (11, 0, 100 / 11), (100, 89, 90.0)])
def test_tail_has_ten_samples_beyond(n, index, pct):
    values = list(range(n))
    assert run.tail(values) == (index, pytest.approx(pct))


def test_benchmark_json_matches_the_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "catalog-cli",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert out.returncode != 0 and out.stdout == ""
