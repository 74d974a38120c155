"""Benchmark of the wignerlab engine.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Workloads: catalog-cli, random-symmetry,
verify-replay (see workloads.py).  One client issues one operation at a time
(closed loop).  The run builds its inputs from the seed, measures set-up in
fresh child processes, then times passes over the operations until S
seconds have passed: the first pass runs whole, a later one stops where
the time runs out.  A pass runs each operation ``op.copies`` times, in an
order shuffled by the seed.  Each operation's time is the median of all
its runs in the run.  Every outcome is checked against a known answer.

With ``--trace 0`` the last line of stdout is a JSON object holding the
end-to-end metrics.  With ``--trace 1`` the run makes one untraced and one
traced pass over the same operations and reports the per-layer metrics,
including the tracing overhead; the spans are written to
``.perfbench/trace-<workload>-<seed>.jsonl``.  A ``detail`` line before the
result holds what does not fit a metric: wrong verdicts, the failed share
with its base, the tail percentile and its sample count, and the
environment.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import random
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench")

SETUP_PROBES = 9
OP_LIMIT_S = 120  # an operation running longer counts as failed

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "verdict_ms.p50": "ms",
    "verdict_ms.tail": "ms",
    "report_kb": "kB",
    "peak_rss_mb": "MB",
}

# layers, named after the engine's modules; each reports its outermost
# calls and its self time as a share of the traced pass
LAYERS = (
    "kernels.simplex", "kernels.rref", "kernels.bareiss",
    "exact.lp", "exact.certcheck", "exact.rank", "exact.solve_affine",
    "geometry.polytope_init", "geometry.contains", "geometry.map_into",
    "geometry.affine_basis",
    "theory.find_channel", "theory.compatible", "theory.complementary",
    "theory.surjectivity", "theory.info_complete",
    "wigner.evaluate", "wigner.construct", "wigner.is_positive",
    "wigner.is_faithful", "wigner.faithful_member",
    "symmetry.enumerate", "symmetry.is_symmetry", "symmetry.transport",
    "symmetry.covariant", "symmetry.perm_channels",
    "report.dump", "report.verify", "theoryfile.load", "cli",
)
_COMMANDS = ("analyze", "wigner", "symmetries", "covariant", "verify")
PER_LAYER = {
    **{f"{layer}.calls": "count" for layer in LAYERS},
    **{f"{layer}.self_share": "share" for layer in LAYERS},
    **{f"kernels.simplex.{k}": "count" for k in ("pivots", "cells", "cell_pivots")},
    "kernels.simplex.max_bits": "bits",
    "kernels.rref.cells": "count",
    "kernels.bareiss.cells": "count",
    **{f"exact.lp.{k}": "count" for k in ("rows", "cols", "unit_rows", "infeasible")},
    "exact.lp.unit_row_share": "share",
    "geometry.polytope_init.lp_calls": "count",
    **{f"geometry.map_into.{k}": "count" for k in ("poly_calls", "ball_calls", "inexact")},
    "geometry.affine_basis.repeat_share": "share",
    **{f"theory.find_channel.{k}": "count" for k in ("infeasible", "lp_vars", "lp_calls")},
    **{f"symmetry.enumerate.{k}": "count" for k in ("perms_tried", "found", "lp_calls")},
    "symmetry.enumerate.hit_share": "share",
    "symmetry.transport.infeasible": "count",
    "report.dump.bytes": "B",
    "report.verify.claims": "count",
    "report.verify.lp_calls": "count",
    "theoryfile.load.lp_calls": "count",
    **{f"cli.{c}.calls": "count" for c in _COMMANDS},
    **{f"cli.{c}.share": "share" for c in _COMMANDS},
    "src.loc": "lines",
    "trace.overhead_share": "share",
}


class OpTimeout(BaseException):
    """Raised in an operation that exceeds OP_LIMIT_S.

    A BaseException, so that the engine's own ``except Exception`` blocks
    cannot swallow it.
    """


def _on_alarm(signum, frame):
    raise OpTimeout()


def measure_setup(entries) -> list[float]:
    """Wall time of fresh processes that import wignerlab and load the
    catalog entries the workload needs."""
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); import wignerlab\n"
        "for name in sys.argv[2:]: wignerlab.catalog.load(name)\n"
    )
    times = []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", code, SRC, *entries], check=True)
        times.append(time.perf_counter() - start)
    return times


def time_op(op):
    """(seconds, outcome, error) of one call, under the per-operation limit."""
    gc.collect()
    signal.setitimer(signal.ITIMER_REAL, OP_LIMIT_S)
    start = time.perf_counter()
    try:
        outcome = op.run()
        return time.perf_counter() - start, outcome, None
    except OpTimeout:
        return time.perf_counter() - start, None, f"exceeded {OP_LIMIT_S} s"
    except Exception as exc:  # noqa: BLE001 - a failed operation is counted, not fatal
        return time.perf_counter() - start, None, repr(exc)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)


def run_pass(ops, order, tracer=None, deadline=None) -> dict:
    """One pass; op index -> (list of seconds, outcome, error).

    ``order`` may list an operation more than once; a later listing runs it
    again unless it failed.  A repeat that disagrees with the first outcome
    is recorded as an error.  No operation starts after ``deadline``.
    """
    results = {}
    for i in order:
        if deadline is not None and time.perf_counter() >= deadline:
            break
        if i not in results:
            if tracer is not None:
                tracer.begin_op(i)
            seconds, outcome, error = time_op(ops[i])
            results[i] = ([seconds], outcome, error)
            continue
        samples, outcome, error = results[i]
        if error is None:
            seconds, again, error = time_op(ops[i])
            samples.append(seconds)
            if error is None and again != outcome:
                error = "repeated run gave another outcome"
            results[i] = (samples, outcome, error)
    return results


def pass_seconds(results) -> float:
    return sum(sum(samples) for samples, _, _ in results.values())


def tail(values: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with ten samples beyond it."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def src_loc() -> int:
    total = 0
    for root, _, files in os.walk(SRC):
        for name in files:
            if name.endswith((".py", ".pyx")):
                with open(os.path.join(root, name), "rb") as handle:
                    total += sum(1 for _ in handle)
    return total


def commit() -> str | None:
    head = os.path.join(ROOT, ".git", "HEAD")
    if not os.path.isfile(head):
        return None
    with open(head, encoding="utf-8") as handle:
        ref = handle.read().strip()
    if not ref.startswith("ref: "):
        return ref
    path = os.path.join(ROOT, ".git", *ref[5:].split("/"))
    if os.path.isfile(path):
        with open(path, encoding="utf-8") as handle:
            return handle.read().strip()
    return None


def check_outcomes(workload, ops, passes) -> tuple[list[str], int, int]:
    """(wrong verdicts, failed operations, attempted operations)."""
    wrong, failed, attempted = [], 0, 0
    first = passes[0]
    for results in passes:
        for i, (_, outcome, error) in results.items():
            attempted += 1
            if error is not None or workload.failed(outcome):
                failed += 1
            elif results is not first and first[i][2] is None \
                    and outcome != first[i][1]:
                wrong.append(f"{ops[i].label}: outcome changed between passes")
    for i, (_, outcome, error) in first.items():
        if error is None and not workload.failed(outcome):
            wrong += [f"{ops[i].label}: {w}" for w in workload.check(ops[i], outcome)]
    return wrong, failed, attempted


def run(workload_name: str, seed: int, seconds: float, trace: bool) -> dict:
    import tracer as tracing
    import wignerlab
    from workloads import WORKLOADS

    workload = WORKLOADS[workload_name]()
    setup = measure_setup(workload.setup_entries)
    workdir = os.path.join(OUT, f"{workload_name}-{seed}")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    ops = workload.prepare(seed, workdir)
    signal.signal(signal.SIGALRM, _on_alarm)

    detail = {
        "workload": workload_name, "seed": seed, "operations": len(ops),
        "env": {
            "python": platform.python_version(),
            "kernel_backend": getattr(wignerlab, "kernel_backend", None),
            "nproc": os.cpu_count(), "commit": commit(),
        },
        "setup_s": setup,
    }
    if trace:
        order = list(range(len(ops)))
        random.Random(seed).shuffle(order)
        untraced = run_pass(ops, order)
        collector = tracing.Tracer()
        collector.install()
        try:
            traced = run_pass(ops, order, tracer=collector)
        finally:
            collector.uninstall()
        passes = [untraced, traced]
        traced_wall = pass_seconds(traced)
        summary = collector.summary(traced_wall)
        summary["src.loc"] = src_loc()
        summary["trace.overhead_share"] = traced_wall / pass_seconds(untraced) - 1
        metrics = {name: summary.get(name, 0) for name in PER_LAYER}
        collector.write(os.path.join(OUT, f"trace-{workload_name}-{seed}.jsonl"))
        detail["absent"] = collector.absent
        detail["self_s"] = {k: v for k, v in sorted(summary.items()) if k.endswith(".self_s")}
    else:
        passes = []
        deadline = time.perf_counter() + seconds
        while not passes or time.perf_counter() < deadline:
            order = [i for i, op in enumerate(ops) for _ in range(op.copies)]
            random.Random(seed * 1000 + len(passes)).shuffle(order)
            passes.append(run_pass(ops, order, deadline=deadline if passes else None))
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        times = [statistics.median(t for results in passes if i in results
                                   for t in results[i][0])
                 for i in range(len(ops))]
        tail_ms, tail_pct = tail(times)
        metrics = {
            "setup_s": statistics.median(setup),
            "wall_s": sum(times),
            "verdict_ms.p50": 1000 * statistics.median(times),
            "verdict_ms.tail": 1000 * tail_ms,
            "report_kb": workload.report_bytes(
                ops, [passes[0][i][1] for i in range(len(ops))]) / 1000,
            "peak_rss_mb": peak_rss_mb,
        }
        detail["passes"] = len(passes)
        detail["ops_ms"] = {op.label: round(1000 * t, 2) for op, t in zip(ops, times)}
        detail["verdict_ms"] = {
            "tail_percentile": tail_pct, "n": len(times),
            "runs": sum(len(results[i][0]) for results in passes for i in results),
        }

    wrong, failed, attempted = check_outcomes(workload, ops, passes)
    shutil.rmtree(workdir, ignore_errors=True)
    detail["wrong_verdicts"] = len(wrong)
    detail["wrong"] = wrong[:20]
    detail["failed_share"] = {"failed": failed, "attempted": attempted,
                              "value": failed / attempted}
    units = PER_LAYER if trace else END_TO_END
    return {
        "detail": detail,
        "result": {
            "correct": not wrong,
            "attempted": attempted,
            "failed": failed,
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("catalog-cli", "random-symmetry", "verify-replay"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "wignerlab", "__init__.py")):
        print(f"error: no wignerlab sources under {SRC}; run from a checkout",
              file=sys.stderr)
        return 2
    sys.path[:0] = [SRC, HERE]
    out = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print("detail " + json.dumps(out["detail"]))
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
