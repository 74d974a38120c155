"""Known answers for the catalog-cli workload.

Written by hand from the ``Expectation`` entries of ``wignerlab.catalog``
and from the acceptance criteria, never from engine output.  Each command
label maps to the expected exit code and a list of checks on the JSON
report the command prints.  Facts the catalog does not state are left
unchecked here; every report is still re-verified with ``verify_report``.
"""

from __future__ import annotations


def _q(*xs) -> list:
    return [str(x) for x in xs]


def _f(linear, constant) -> dict:
    return {"linear": _q(*linear), "constant": str(constant)}


# the qubit_xz / rebit_diamond representation W, entry (a, b) = (sx x + sz z + 1)/4
_XZ_GRID = [
    [_f(("1/4", "1/4"), "1/4"), _f(("-1/4", "1/4"), "1/4")],
    [_f(("1/4", "-1/4"), "1/4"), _f(("-1/4", "-1/4"), "1/4")],
]


def claim(cid: str, verdict: bool):
    """The report has claim ``cid`` with this verdict."""
    def check(report):
        return any(c.get("id") == cid and c.get("verdict") is verdict
                   for c in report.get("claims", []))
    check.label = f"{cid} is {verdict}"
    return check


def field(key: str, value):
    def check(report):
        return report.get(key) == value
    check.label = f"{key} == {value!r}"
    return check


def grid(expected):
    def check(report):
        return (report.get("theory") or {}).get("wigner", {}).get("grid") == expected
    check.label = "wigner grid matches"
    return check


def grid_entry(a: int, b: int, expected: dict):
    def check(report):
        g = (report.get("theory") or {}).get("wigner", {}).get("grid")
        return g is not None and g[a][b] == expected
    check.label = f"grid[{a}][{b}] matches"
    return check


def has_maps(*tables, exact=False):
    """The symmetries report lists these permutation tables (and only them)."""
    want = {tuple(t) for t in tables}

    def check(report):
        got = {tuple(e["table"]) for e in report.get("lifted_symmetries", [])}
        return got == want if exact else want <= got
    check.label = f"symmetries {'==' if exact else '>='} {sorted(want)}"
    return check


def lacks_map(table):
    def check(report):
        return tuple(table) not in {
            tuple(e["table"]) for e in report.get("lifted_symmetries", [])}
    check.label = f"no symmetry {table}"
    return check


def all_transported(report):
    """Acceptance 7c: on a faithful polytope representation every lifted
    symmetry transports to a channel."""
    rows = report.get("lifted_symmetries", [])
    return bool(rows) and all(r.get("transported") is True for r in rows)


all_transported.label = "every symmetry transported"


def group_closed(report):
    """The lifted symmetries contain the identity and are closed under composition."""
    tables = {tuple(e["table"]) for e in report.get("lifted_symmetries", [])}
    if not tables:
        return False
    n = len(next(iter(tables)))
    if tuple(range(n)) not in tables:
        return False
    return all(tuple(p[t] for t in q) in tables for p in tables for q in tables)


group_closed.label = "identity present, closed under composition"


def surjective(obs: str, n: int):
    checks = [claim(f"surjective[{obs}][{k}]", True) for k in range(n)]

    def check(report):
        return all(c(report) for c in checks)
    check.label = f"{obs} surjective"
    return check


# flat phase-point tables on a 2x2 grid, index = 2 a + b
_ID = (0, 1, 2, 3)
_SWAP_01_10 = (0, 2, 1, 3)
_SWAP_00_11 = (3, 1, 2, 0)
_SWAP_00_01 = (1, 0, 2, 3)
# trit has a 2x1 grid: index = a
_TRIT_SWAP = (1, 0)

# label -> (exit code, checks)
EXPECTED: dict[str, tuple[int, list]] = {
    # analyze: compatibility, info-completeness, complementarity,
    # surjectivity and the faithful-choice inequality
    "analyze boxworld": (0, [
        claim("compatibility", False), claim("info_complete", True),
        claim("complementary", False), surjective("A", 2),
        claim("faithful_choice", True)]),
    "analyze cube": (0, [claim("faithful_choice", True)]),
    "analyze trit": (0, [claim("faithful_choice", False)]),
    "analyze qubit_ball": (0, [
        claim("complementary", True), claim("info_complete", False)]),
    "analyze qubit_xz": (0, [
        claim("complementary", True), claim("info_complete", True),
        surjective("A", 2), surjective("B", 2)]),
    "analyze rebit_diamond": (0, [
        claim("complementary", True), claim("info_complete", True),
        surjective("A", 2), surjective("B", 2)]),
    "analyze deformed_12gon": (0, [
        claim("complementary", True), claim("info_complete", True),
        surjective("A", 2), surjective("B", 2)]),
    # wigner --faithful: exists iff free slots cover the dimension gap
    "wigner --faithful boxworld": (0, [claim("faithful", True), claim("marginals", True)]),
    "wigner --faithful cube": (0, [claim("faithful", True), claim("marginals", True)]),
    "wigner --faithful trit": (1, []),
    "wigner --faithful qubit_ball": (0, [claim("faithful", True), claim("marginals", True)]),
    "wigner --faithful qubit_xz": (0, [claim("faithful", True), claim("marginals", True)]),
    "wigner --faithful rebit_diamond": (0, [claim("faithful", True), claim("marginals", True)]),
    "wigner --faithful deformed_12gon": (0, [claim("faithful", True), claim("marginals", True)]),
    # wigner --degenerate: faithful iff jointly info-complete (acceptance 7b);
    # on the cube it equals W_0, which is not faithful
    "wigner --degenerate boxworld": (0, [claim("faithful", True), claim("marginals", True)]),
    "wigner --degenerate cube": (0, [claim("faithful", False), claim("marginals", True)]),
    "wigner --degenerate trit": (0, [claim("faithful", False), claim("marginals", True)]),
    "wigner --degenerate qubit_ball": (0, [claim("faithful", False), claim("marginals", True)]),
    "wigner --degenerate qubit_xz": (0, [claim("faithful", True), claim("marginals", True)]),
    "wigner --degenerate rebit_diamond": (0, [claim("faithful", True), claim("marginals", True)]),
    "wigner --degenerate deformed_12gon": (0, [claim("faithful", True), claim("marginals", True)]),
    # covariant: unique on boxworld, qubit_xz and rebit_diamond (acceptance 5),
    # none on deformed_12gon, hypothesis failure without info-completeness
    "covariant boxworld": (0, [
        field("result", "unique"),
        grid_entry(0, 0, _f(("1/2", "1/2"), "-1/4"))]),
    "covariant cube": (1, [field("result", "hypothesis_failure")]),
    "covariant trit": (1, [field("result", "hypothesis_failure")]),
    "covariant qubit_ball": (1, [field("result", "hypothesis_failure")]),
    "covariant qubit_xz": (0, [field("result", "unique"), grid(_XZ_GRID)]),
    "covariant rebit_diamond": (0, [field("result", "unique"), grid(_XZ_GRID)]),
    "covariant deformed_12gon": (1, [
        field("result", "none"),
        field("offending_element", {"perm_a": [1, 0], "perm_b": [0, 1]}),
        lambda r: (r.get("witness") or {}).get("point") == ["3/5", "-4/5"],
        claim("no_covariant", False)]),
    # symmetries of every named representation
    "symmetries boxworld W_0": (0, [
        has_maps(_ID, _SWAP_01_10, exact=True), all_transported]),
    "symmetries boxworld W_1/2": (0, [
        has_maps(_ID, _SWAP_01_10, _SWAP_00_11), lacks_map(_SWAP_00_01),
        all_transported]),
    "symmetries boxworld W_+": (0, []),
    "symmetries cube W_0": (0, []),
    "symmetries cube W_z": (0, []),
    "symmetries trit W": (0, [
        lambda r: any(tuple(e["table"]) == _TRIT_SWAP and e.get("transported") is True
                      for e in r.get("lifted_symmetries", []))]),
    "symmetries qubit_ball W": (0, [field("group_order", 24)]),
    "symmetries qubit_xz W": (0, []),
    "symmetries rebit_diamond W": (0, [all_transported]),
}

for _label, (_, _checks) in EXPECTED.items():
    if _label.startswith("symmetries"):
        _checks.append(group_closed)
