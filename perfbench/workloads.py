"""The three benchmark workloads.

Each workload builds its inputs from the seed (untimed), hands the runner a
list of operations, and afterwards checks every outcome against a known
answer.  Operations call wignerlab only through its public entry points
(``cli.main`` and the library functions), looked up at call time so that
the tracer's wrappers are seen.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import random
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from typing import Callable

import wignerlab as wl
from wignerlab import catalog, cli
from wignerlab.geometry import Polytope
from wignerlab.report import load_report, verify_report
from wignerlab.theoryfile import rational_to_str

import gen
import known

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")


def src_digest() -> str:
    """Digest of the engine's Python sources, to key cached inputs."""
    digest = hashlib.sha256()
    for root, dirs, files in os.walk(SRC):
        dirs.sort()
        for name in sorted(files):
            if name.endswith((".py", ".pyx")):
                path = os.path.join(root, name)
                digest.update(os.path.relpath(path, SRC).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return digest.hexdigest()[:16]


@dataclass
class Op:
    label: str
    run: Callable[[], object]
    # runs of the operation in one pass; its time is their median
    copies: int = 1


def run_cli(argv: list[str]) -> tuple[int, str]:
    """One CLI command in-process; returns (exit code, stdout)."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue()


def cli_failed(outcome) -> bool:
    """Exit code 2 is a usage or parse error: the operation failed."""
    return outcome[0] == 2


class CatalogCli:
    """The five ROADMAP commands on every catalog entry, through ``cli.main``."""

    name = "catalog-cli"
    setup_entries = catalog.CATALOG_NAMES
    failed = staticmethod(cli_failed)
    # One pass fills a run.  These commands take about a second or more and
    # run once in it; every other command runs COPIES times, spread over the
    # pass by the shuffle.
    LONG = frozenset({
        "analyze cube", "analyze deformed_12gon", "covariant boxworld",
        "covariant deformed_12gon", "covariant rebit_diamond",
        "symmetries boxworld W_+", "symmetries boxworld W_0",
        "symmetries boxworld W_1/2", "symmetries rebit_diamond W",
    })
    COPIES = 5

    def prepare(self, seed: int, workdir: str) -> list[Op]:
        ops = []
        for name in catalog.CATALOG_NAMES:
            entry = catalog.load(name)
            path = os.path.join(workdir, f"{name}.json")
            argv = ["example", name, "--out", path]
            channels = None
            if entry.channels:
                channels = os.path.join(workdir, f"{name}.channels.json")
                argv += ["--channels-out", channels]
            _must(run_cli(argv))
            ops.append(self._op(f"analyze {name}", ["analyze", path]))
            for flag in ("--faithful", "--degenerate"):
                ops.append(self._op(f"wigner {flag} {name}", ["wigner", path, flag]))
            cov = ["covariant", path] + (["--channels", channels] if channels else [])
            ops.append(self._op(f"covariant {name}", cov))
            for rep in entry.representations:
                rep_path = os.path.join(workdir, f"{name}.{rep.replace('/', '_')}.json")
                _must(run_cli(["example", name, "--rep", rep, "--out", rep_path]))
                argv = ["symmetries", rep_path]
                if name == "cube":
                    # transport on the cube solves 140 x 381 LPs for 54 s,
                    # more than one run may take
                    argv.append("--no-transport")
                ops.append(self._op(f"symmetries {name} {rep}", argv))
        assert self.LONG <= {op.label for op in ops}
        return ops

    def _op(self, label, argv) -> Op:
        copies = 1 if label in self.LONG else self.COPIES
        return Op(label, lambda: run_cli(argv), copies)

    def check(self, op: Op, outcome) -> list[str]:
        code, text = outcome
        want_code, checks = known.EXPECTED[op.label]
        wrong = []
        if code != want_code:
            wrong.append(f"exit code {code}, expected {want_code}")
        try:
            report = json.loads(text)
        except json.JSONDecodeError:
            return wrong + ["no JSON report"]
        for check in checks:
            if not check(report):
                wrong.append(getattr(check, "label", "check"))
        for cid, ok, detail in verify_report(load_report(text)):
            if not ok:
                wrong.append(f"claim {cid} does not re-verify: {detail}")
        return wrong

    def report_bytes(self, ops: list[Op], outcomes: list) -> int:
        """Bytes of the reports the commands wrote (None: the command failed)."""
        return sum(len(o[1].encode("utf-8")) for o in outcomes if o is not None)


# The instances come from this generator seed, so that every run does the
# same work; a run's --seed orders them.  Drawn from --seed, the work of a
# pass differed by up to 30% between seeds, more than the timing bounds.
# With this seed two ball containments of a pass take the float fallback
# (geometry.map_into.inexact), a known defect the trace must keep showing;
# seeds 1, 2, 4, 5 and 7 give none.
POOL_SEED = 3

# instance kinds of one random-symmetry pass: (kind, vertices, count).
# "ball" is an image of the qubit-ball representation W, "ball-random" a
# random family member on such an image.  Sorted by cost the groups run 1v,
# 2v, ball, ball-random, 3v, 2x3, so the median (operation 19 of 37) falls
# in the middle of the ten ball instances and the tail (ten operations
# beyond it) among the twelve 3-vertex instances, away from group edges
# where an operation's noise would move the quantile from one group to the
# next.  A pass takes 6-9 s, so a run makes two or three.
SYMMETRY_MIX = (
    ("2x2", 1, 6),
    ("2x2", 2, 6),
    ("ball", 0, 10),
    ("2x2", 3, 12),
    ("ball-random", 0, 2),
    ("2x3", 2, 1),
)


def symmetry_pipeline(theory, free):
    """construct_family -> faithful_member -> enumerate -> transport."""
    a, b, space = theory.obs_a, theory.obs_b, theory.state_space
    rep = wl.construct_family(a, b, space, free)
    if not wl.is_faithful(rep):
        rep = wl.faithful_member(a, b, space)
    found = wl.enumerate_lifted_symmetries(rep)
    transports = []
    if isinstance(space, Polytope):
        transports = [wl.find_transported_channel(rep, wl.lift(phi)) for phi in found]
    return found, transports


def _summary(outcome) -> list:
    """Symmetry tables and transported channels in report serialization."""
    found, transports = outcome
    rows = []
    for i, phi in enumerate(found):
        row = {"table": list(phi.table)}
        if transports:
            chan = transports[i]
            if isinstance(chan, wl.Channel):
                row["channel"] = {
                    "matrix": [[rational_to_str(x) for x in r]
                               for r in chan.map.matrix.entries],
                    "offset": [rational_to_str(x) for x in chan.map.offset],
                }
            else:
                row["channel"] = None
        rows.append(row)
    return rows


class RandomSymmetry:
    """Seeded random instances through the library API."""

    name = "random-symmetry"
    setup_entries = ("qubit_ball",)

    @staticmethod
    def failed(outcome) -> bool:
        return False

    def prepare(self, seed: int, workdir: str) -> list[Op]:
        """The instances of POOL_SEED; the runner orders them by ``seed``."""
        rng = random.Random(POOL_SEED)
        ops = []
        for kind, n_vertices, count in SYMMETRY_MIX:
            for k in range(count):
                theory, free = self._instance(rng, kind, n_vertices)
                ops.append(Op(f"{kind}/{n_vertices}v#{k}",
                              lambda t=theory, f=free: symmetry_pipeline(t, f)))
        return ops

    @staticmethod
    def _instance(rng, kind, n_vertices):
        if kind.startswith("ball"):
            while True:
                theory, free = gen.ball_image(rng, random_rep=kind == "ball-random")
                a, b, space = theory.obs_a, theory.obs_b, theory.state_space
                if wl.is_faithful(wl.construct_family(a, b, space, free)):
                    return theory, free
        shape = (2, 2) if kind == "2x2" else (2, 3)
        while True:
            theory = gen.polygon_theory(rng, n_vertices, *shape)
            free = gen.free_block(rng, theory)
            a, b, space = theory.obs_a, theory.obs_b, theory.state_space
            rep = wl.construct_family(a, b, space, free)
            if wl.is_faithful(rep) or wl.faithful_member(a, b, space) is not None:
                return theory, free

    def check(self, op: Op, outcome) -> list[str]:
        found, transports = outcome
        wrong = []
        tables = {phi.table for phi in found}
        n = len(found[0].table) if found else 0
        if tuple(range(n)) not in tables:
            wrong.append("identity not found")
        if any(tuple(p[t] for t in q) not in tables for p in tables for q in tables):
            wrong.append("symmetries not closed under composition")
        if op.label.startswith("ball/"):
            if len(found) != 24:
                wrong.append(f"{len(found)} ball symmetries, expected all 24")
        elif not all(isinstance(t, wl.Channel) for t in transports):
            wrong.append("a symmetry of a faithful representation did not transport")
        return wrong

    def report_bytes(self, ops: list[Op], outcomes: list) -> int:
        """Bytes of the symmetry tables and transported channels returned."""
        return sum(len(json.dumps(_summary(o), indent=2).encode("utf-8"))
                   for o in outcomes if o is not None)


class VerifyReplay:
    """``verify`` on a corpus of reports, a seeded share of them tampered."""

    name = "verify-replay"
    setup_entries = ()
    failed = staticmethod(cli_failed)

    def prepare(self, seed: int, workdir: str) -> list[Op]:
        source = os.path.join(os.path.dirname(workdir), f"corpus-{src_digest()}")
        if not os.path.isdir(source):
            # a child process writes the corpus, so its memory and time stay
            # out of this process
            subprocess.run(
                [sys.executable, os.path.join(HERE, "corpus.py"), source],
                check=True, stdout=subprocess.DEVNULL,
            )
        from corpus import tampered_copy  # corpus.py imports this module

        corpus = os.path.join(workdir, "corpus")
        index = tampered_copy(source, corpus, seed)
        self.tampered = {}
        ops = []
        for item in index:
            path = os.path.join(corpus, item["file"])
            self.tampered[item["file"]] = item.get("tampered")
            ops.append(Op(item["file"], lambda p=path: run_cli(["verify", p])))
        self.sizes = {
            item["file"]: os.path.getsize(os.path.join(corpus, item["file"]))
            for item in index
        }
        return ops

    def check(self, op: Op, outcome) -> list[str]:
        code, text = outcome
        lines = text.splitlines()
        failed = [ln[len("FAIL  "):].split(": ", 1)[0] for ln in lines if ln.startswith("FAIL")]
        tampered = self.tampered[op.label]
        if tampered is None:
            if code != 0 or failed:
                return [f"untampered report fails: exit {code}, {failed}"]
            return []
        if code != 1 or failed != [tampered]:
            return [f"tampered claim {tampered} not caught: exit {code}, {failed}"]
        return []

    def report_bytes(self, ops: list[Op], outcomes: list) -> int:
        """Bytes of the reports replayed."""
        return sum(self.sizes[op.label] for op in ops)


WORKLOADS = {w.name: w for w in (CatalogCli, RandomSymmetry, VerifyReplay)}


def _must(outcome) -> None:
    if outcome[0] != 0:
        raise RuntimeError(f"input export failed with exit code {outcome[0]}")
