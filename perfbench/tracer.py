"""Per-layer tracing of wignerlab from outside the package.

``Tracer.install`` wraps the public functions of each engine module by
replacing every binding of the function object across the ``wignerlab.*``
module namespaces (``from .exact import lp_feasible`` copies the name into
each importing module), and wraps methods on their class.  Each wrapped call
records a span (name, start, end, parent, operation) in memory; counts such
as pivots, tableau shape and bit length are read at the wrapper.  Nothing
under ``src/`` changes, and ``uninstall`` puts every original back.

A target that a later version of the engine no longer has is reported as
absent instead of failing the run.
"""

from __future__ import annotations

import functools
import importlib
import json
import math
import sys
import time
from collections import defaultdict
from fractions import Fraction

# (layer name, module, attribute); "Class.method" wraps a method on its class
TARGETS = (
    ("kernels.simplex", "wignerlab._kernels", "simplex_phase1"),
    ("kernels.rref", "wignerlab._kernels", "rref"),
    ("kernels.bareiss", "wignerlab._kernels", "bareiss_rank"),
    ("exact.lp", "wignerlab.exact", "lp_feasible"),
    ("exact.certcheck", "wignerlab.exact", "verify_certificate"),
    ("exact.certcheck", "wignerlab.exact", "LinearProgram.check"),
    ("exact.rank", "wignerlab.exact", "rank"),
    ("exact.solve_affine", "wignerlab.exact", "solve_affine"),
    ("geometry.polytope_init", "wignerlab.geometry", "Polytope.__post_init__"),
    ("geometry.contains", "wignerlab.geometry", "contains"),
    ("geometry.map_into", "wignerlab.geometry", "map_into"),
    ("geometry.affine_basis", "wignerlab.geometry", "affine_basis"),
    ("theory.find_channel", "wignerlab.theory", "find_channel"),
    ("theory.compatible", "wignerlab.theory", "are_compatible"),
    ("theory.complementary", "wignerlab.theory", "are_complementary"),
    ("theory.surjectivity", "wignerlab.theory", "surjectivity_details"),
    ("theory.surjectivity", "wignerlab.theory", "is_surjective"),
    ("theory.info_complete", "wignerlab.theory", "jointly_info_complete"),
    ("wigner.evaluate", "wignerlab.wigner", "evaluate"),
    ("wigner.construct", "wignerlab.wigner", "construct_family"),
    ("wigner.is_positive", "wignerlab.wigner", "is_positive"),
    ("wigner.is_faithful", "wignerlab.wigner", "is_faithful"),
    ("wigner.faithful_member", "wignerlab.wigner", "faithful_member"),
    ("symmetry.enumerate", "wignerlab.symmetry", "enumerate_lifted_symmetries"),
    ("symmetry.is_symmetry", "wignerlab.symmetry", "is_symmetry"),
    ("symmetry.transport", "wignerlab.symmetry", "find_transported_channel"),
    ("symmetry.covariant", "wignerlab.symmetry", "solve_covariant"),
    ("symmetry.perm_channels", "wignerlab.symmetry", "find_permutation_channels"),
    ("report.dump", "wignerlab.report", "dump_report"),
    ("report.verify", "wignerlab.report", "verify_report"),
    ("theoryfile.load", "wignerlab.theoryfile", "theory_from_dict"),
    ("cli", "wignerlab.cli", "main"),
)

# spans below these layers count the LPs they cause
LP_PARENTS = (
    "geometry.polytope_init",
    "report.verify",
    "theoryfile.load",
    "symmetry.enumerate",
    "theory.find_channel",
)

CLI_COMMANDS = ("analyze", "wigner", "symmetries", "covariant", "verify")


def _bits(x) -> int:
    if isinstance(x, Fraction):
        return max(x.numerator.bit_length(), x.denominator.bit_length())
    return int(x).bit_length()


def _resolve(module_name: str, attr: str):
    """(owner, attribute, original) or None when the target is gone."""
    try:
        module = importlib.import_module(module_name)
    except ImportError:
        return None
    owner = module
    parts = attr.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    original = owner.__dict__.get(parts[-1]) if isinstance(owner, type) else getattr(
        owner, parts[-1], None)
    if original is None:
        return None
    return owner, parts[-1], original


class Tracer:
    """Spans and counters for one traced stretch of operations."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, op, attrs]
        self.counters: dict[str, float] = defaultdict(float)
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._op = -1
        self._seen_spaces: set = set()
        self._patches: list[tuple] = []

    # -- installation ---------------------------------------------------

    def install(self) -> None:
        for name, module_name, attr in TARGETS:
            found = _resolve(module_name, attr)
            if found is None:
                self.absent.append(f"{module_name}.{attr}")
                continue
            owner, key, original = found
            wrapper = self._wrap(name, original, _HOOKS.get((name, attr)))
            if isinstance(owner, type):
                self._patch(owner, key, wrapper)
                continue
            for mod_name, mod in list(sys.modules.items()):
                if mod is None or not mod_name.startswith("wignerlab"):
                    continue
                for binding, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, binding, wrapper)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches.clear()

    def _patch(self, owner, key, wrapper) -> None:
        self._patches.append((owner, key, getattr(owner, key)))
        setattr(owner, key, wrapper)

    def _wrap(self, name, fn, hook):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(sid)
            if hook is not None:
                hook(tracer, tracer.spans[sid][5], args, result)
            return result

        return wrapper

    # -- spans ----------------------------------------------------------

    def begin_op(self, op: int) -> None:
        """Start a new operation: spans get its index, caches reset."""
        self._op = op
        self._seen_spaces = set()

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self._op, {}])
        sid = len(self.spans) - 1
        self._stack.append(sid)
        return sid

    def _close(self, sid: int) -> None:
        self.spans[sid][2] = time.perf_counter()
        self._stack.pop()

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for name, start, end, parent, op, attrs in self.spans:
                handle.write(json.dumps(
                    {"name": name, "start": start, "end": end,
                     "parent": parent, "op": op, **attrs}) + "\n")

    # -- aggregation ----------------------------------------------------

    def summary(self, wall: float) -> dict[str, float]:
        """Per-layer calls, self time and counters, by metric name.

        ``wall`` is the traced wall time; each layer's self time is also
        given as a share of it (``.self_share``), and each CLI command's
        inclusive time as ``cli.<command>.share``.
        """
        out: dict[str, float] = defaultdict(float)
        out.update(self.counters)
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        for sid, (name, start, end, parent, _, attrs) in enumerate(self.spans):
            out[f"{name}.self_s"] += (end - start) - child_time[sid]
            if "cmd" in attrs:
                out[f"cli.{attrs['cmd']}.share"] += (end - start) / wall
            ancestors = self._ancestor_names(parent)
            if name not in ancestors:
                out[f"{name}.calls"] += 1
            if name == "exact.lp":
                for anc in set(ancestors) & set(LP_PARENTS):
                    out[f"{anc}.lp_calls"] += 1
                    if anc == "theory.find_channel":
                        out[f"{anc}.lp_vars"] += attrs["cols"]
        lp_ineq = out.pop("exact.lp.ineq_rows", 0)
        out["exact.lp.unit_row_share"] = out["exact.lp.unit_rows"] / lp_ineq if lp_ineq else 0.0
        tried = out["symmetry.enumerate.perms_tried"]
        out["symmetry.enumerate.hit_share"] = (
            out["symmetry.enumerate.found"] / tried if tried else 0.0)
        basis_calls = out["geometry.affine_basis.calls"]
        out["geometry.affine_basis.repeat_share"] = (
            out.pop("geometry.affine_basis.repeats", 0) / basis_calls if basis_calls else 0.0)
        for key in [k for k in out if k.endswith(".self_s")]:
            out[key[:-len("self_s")] + "self_share"] = out[key] / wall
        return out

    def _ancestor_names(self, parent: int) -> list[str]:
        names = []
        while parent >= 0:
            names.append(self.spans[parent][0])
            parent = self.spans[parent][3]
        return names


# -- counters read at the wrapper -------------------------------------------

def _simplex(tr, attrs, args, pivots):
    tab, obj = args[0], args[1]
    cells = len(tab) * len(obj)
    bits = max((_bits(x) for row in tab for x in row), default=0)
    bits = max(bits, max((_bits(x) for x in obj), default=0))
    c = tr.counters
    c["kernels.simplex.pivots"] += pivots
    c["kernels.simplex.cells"] += cells
    c["kernels.simplex.cell_pivots"] += cells * pivots
    c["kernels.simplex.max_bits"] = max(c["kernels.simplex.max_bits"], bits)


def _rref(tr, attrs, args, result):
    tr.counters["kernels.rref.cells"] += sum(len(r) for r in args[0])


def _bareiss(tr, attrs, args, result):
    tr.counters["kernels.bareiss.cells"] += sum(len(r) for r in args[0])


def _lp(tr, attrs, args, result):
    lp = args[0]
    c = tr.counters
    c["exact.lp.rows"] += len(lp.equalities) + len(lp.inequalities)
    c["exact.lp.cols"] += lp.n_vars
    c["exact.lp.ineq_rows"] += len(lp.inequalities)
    c["exact.lp.unit_rows"] += sum(
        1 for row, rhs in lp.inequalities
        if rhs == 0 and sorted(x for x in row if x) == [1])
    attrs["cols"] = lp.n_vars
    if not hasattr(result, "witness"):
        c["exact.lp.infeasible"] += 1


def _map_into(tr, attrs, args, result):
    kind = "poly" if type(args[0]).__name__ == "Polytope" else "ball"
    tr.counters[f"geometry.map_into.{kind}_calls"] += 1
    if getattr(result, "exact", True) is False:
        tr.counters["geometry.map_into.inexact"] += 1


def _affine_basis(tr, attrs, args, result):
    key = repr(args[0])
    if key in tr._seen_spaces:
        tr.counters["geometry.affine_basis.repeats"] += 1
    tr._seen_spaces.add(key)


def _channel_result(prefix):
    def hook(tr, attrs, args, result):
        if type(result).__name__ != "Channel":
            tr.counters[f"{prefix}.infeasible"] += 1
    return hook


def _enumerate(tr, attrs, args, result):
    n_a, n_b = args[0].shape
    tr.counters["symmetry.enumerate.perms_tried"] += math.factorial(n_a * n_b)
    tr.counters["symmetry.enumerate.found"] += len(result)


def _dump(tr, attrs, args, result):
    tr.counters["report.dump.bytes"] += len(result.encode("utf-8"))


def _verify(tr, attrs, args, result):
    tr.counters["report.verify.claims"] += len(result)


def _cli(tr, attrs, args, result):
    argv = args[0] if args else []
    if argv and argv[0] in CLI_COMMANDS:
        tr.counters[f"cli.{argv[0]}.calls"] += 1
        attrs["cmd"] = argv[0]


_HOOKS = {
    ("kernels.simplex", "simplex_phase1"): _simplex,
    ("kernels.rref", "rref"): _rref,
    ("kernels.bareiss", "bareiss_rank"): _bareiss,
    ("exact.lp", "lp_feasible"): _lp,
    ("geometry.map_into", "map_into"): _map_into,
    ("geometry.affine_basis", "affine_basis"): _affine_basis,
    ("theory.find_channel", "find_channel"): _channel_result("theory.find_channel"),
    ("symmetry.transport", "find_transported_channel"): _channel_result("symmetry.transport"),
    ("symmetry.enumerate", "enumerate_lifted_symmetries"): _enumerate,
    ("report.dump", "dump_report"): _dump,
    ("report.verify", "verify_report"): _verify,
    ("cli", "main"): _cli,
}
