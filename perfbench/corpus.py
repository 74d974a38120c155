"""Build the report corpus of the verify-replay workload.

    python3 perfbench/corpus.py OUT_DIR

Runs ``analyze``, ``wigner``, ``covariant`` and ``symmetries`` on catalog
entries and on random polygon theories drawn from a fixed generator seed,
and writes each JSON report and ``index.json``, the list of reports, to
OUT_DIR.  The corpus depends only on the engine's source, so the workload
builds it once per source digest.  ``tampered_copy`` then copies it for one
run and tampers with one claim of a share of the reports chosen by the
run's seed.
"""

from __future__ import annotations

import json
import os
import random
import shutil
import sys
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

from wignerlab import catalog  # noqa: E402
from wignerlab.theoryfile import dumps  # noqa: E402

import gen  # noqa: E402
from workloads import run_cli  # noqa: E402

# (command, entry, extra arguments); "@rep" names a representation file
CATALOG_REPORTS = (
    [("analyze", name, []) for name in catalog.CATALOG_NAMES]
    + [("covariant", name, []) for name in ("boxworld", "rebit_diamond", "deformed_12gon")]
    + [("covariant", "qubit_xz", ["--channels", "@channels"])]
    + [("wigner", name, ["--degenerate"]) for name in ("boxworld", "qubit_ball", "rebit_diamond")]
    + [("symmetries", "boxworld", ["@W_1/2"]), ("symmetries", "rebit_diamond", ["@W"]),
       ("symmetries", "qubit_ball", ["@W"])]
)

# random polygon theories: (outcomes of A, outcomes of B, vertices), drawn
# from a fixed seed so that every run replays the same reports
CORPUS_SEED = 1
RANDOM_THEORIES = ((2, 2, 3), (2, 2, 4), (2, 2, 5), (2, 3, 3), (2, 3, 4), (3, 3, 3))

TAMPER_SHARE = 0.3
BOOLEAN_RECOMPUTE = {"complementary", "faithful", "positive", "marginals",
                     "faithful_choice", "info_complete", "validate"}


def _write(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)


def _report(out_dir: str, stem: str, argv: list[str], reports: list[str]) -> None:
    code, text = run_cli(argv)
    if code in (0, 1) and text.strip():
        _write(os.path.join(out_dir, f"{stem}.json"), text)
        reports.append(f"{stem}.json")


def catalog_reports(out_dir: str) -> list[str]:
    work = os.path.join(out_dir, "catalog-inputs")
    os.makedirs(work)
    reports: list[str] = []
    for k, (command, name, extra) in enumerate(CATALOG_REPORTS):
        entry = catalog.load(name)
        theory_path = os.path.join(work, f"{name}.json")
        args = ["example", name, "--out", theory_path]
        if entry.channels:
            args += ["--channels-out", os.path.join(work, f"{name}.channels.json")]
        run_cli(args)
        argv = [command, theory_path]
        for arg in extra:
            if arg == "@channels":
                argv.append(os.path.join(work, f"{name}.channels.json"))
            elif arg.startswith("@"):
                rep = arg[1:]
                rep_path = os.path.join(work, f"{name}.{rep.replace('/', '_')}.json")
                run_cli(["example", name, "--rep", rep, "--out", rep_path])
                argv[1] = rep_path
            else:
                argv.append(arg)
        _report(out_dir, f"catalog{k:02d}-{command}-{name}", argv, reports)
    shutil.rmtree(work)
    return reports


def random_reports(out_dir: str) -> list[str]:
    rng = random.Random(CORPUS_SEED)
    reports: list[str] = []
    for k, (n_a, n_b, n_vertices) in enumerate(RANDOM_THEORIES):
        theory = gen.polygon_theory(rng, n_vertices, n_a, n_b)
        path = os.path.join(out_dir, f"theory{k}.json")
        _write(path, dumps(theory))
        stem = f"random{k}"
        _report(out_dir, f"{stem}-analyze", ["analyze", path], reports)
        _report(out_dir, f"{stem}-wigner", ["wigner", path, "--degenerate"], reports)
        if n_vertices > 4:
            # covariant and symmetries on five vertices take 7 s to build
            continue
        _report(out_dir, f"{stem}-covariant", ["covariant", path], reports)
        if n_a * n_b <= 4:
            rep_path = os.path.join(out_dir, f"theory{k}.rep.json")
            if run_cli(["wigner", path, "--faithful", "--out", rep_path])[0] == 0:
                _report(out_dir, f"{stem}-symmetries", ["symmetries", rep_path], reports)
    return reports


def tamper(report: dict, rng: random.Random):
    """Change one field whose change must fail re-verification.

    Returns the id of the changed claim, or None when no claim qualifies.
    """
    candidates = [
        c for c in report.get("claims", [])
        if c["kind"] in ("lp_infeasible", "rank")
        or (c["kind"] == "recompute" and c["what"] in BOOLEAN_RECOMPUTE)
    ]
    if not candidates:
        return None
    claim = rng.choice(candidates)
    if claim["kind"] == "lp_infeasible":
        # the certificate's combined right-hand side no longer matches
        gap = claim["certificate"]["gap"]
        claim["certificate"]["gap"] = str(Fraction(gap) + 1)
    elif claim["kind"] == "rank":
        claim["rank"] = int(claim["rank"]) + 1
    else:
        claim["verdict"] = not claim["verdict"]
    return claim["id"]


def build(out_dir: str) -> None:
    tmp = out_dir + f".tmp{os.getpid()}"
    os.makedirs(tmp)
    files = catalog_reports(tmp) + random_reports(tmp)
    for name in os.listdir(tmp):
        if name.startswith("theory"):
            os.remove(os.path.join(tmp, name))
    _write(os.path.join(tmp, "index.json"), json.dumps(files, indent=1) + "\n")
    os.replace(tmp, out_dir)


def tampered_copy(source: str, out_dir: str, seed: int) -> list[dict]:
    """Copy the corpus, tampering with a seeded share of the reports.

    Returns one item per report: its file and the id of its tampered claim
    (None when untampered).
    """
    with open(os.path.join(source, "index.json"), encoding="utf-8") as handle:
        files = json.load(handle)
    os.makedirs(out_dir)
    rng = random.Random(seed)
    index = []
    for name in files:
        path = os.path.join(out_dir, name)
        shutil.copyfile(os.path.join(source, name), path)
        item = {"file": name, "tampered": None}
        if rng.random() < TAMPER_SHARE:
            with open(path, encoding="utf-8") as handle:
                report = json.load(handle)
            item["tampered"] = tamper(report, rng)
            if item["tampered"] is not None:
                _write(path, json.dumps(report, indent=2) + "\n")
        index.append(item)
    return index


if __name__ == "__main__":
    build(os.path.abspath(sys.argv[1]))
