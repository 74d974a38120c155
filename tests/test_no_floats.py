"""No decision of the engine goes through floating point.

Every engine module but ``plot.py`` (drawing only) is scanned for calls
of ``float(...)``, ``math.sqrt``, ``.limit_denominator`` and
``Fraction.from_float``, and for float literals, with no exemption;
``isinstance(x, float)`` names the type without calling it.
"""

import ast
from pathlib import Path

import wignerlab

SRC = Path(wignerlab.__file__).parent


def _float_uses(path: Path) -> list[tuple[str, int, str]]:
    found = []

    def visit(node):
        what = None
        if isinstance(node, ast.Constant) and isinstance(node.value, float):
            what = f"float literal {node.value!r}"
        elif isinstance(node, ast.Call):
            f = node.func
            if isinstance(f, ast.Name) and f.id == "float":
                what = "float(...)"
            elif isinstance(f, ast.Attribute) and (
                    f.attr in ("limit_denominator", "from_float")
                    or (f.attr == "sqrt" and isinstance(f.value, ast.Name)
                        and f.value.id == "math")):
                what = f".{f.attr}(...)"
        if what is not None:
            found.append((path.name, node.lineno, what))
        for child in ast.iter_child_nodes(node):
            visit(child)

    visit(ast.parse(path.read_text(encoding="utf-8")))
    return found


def test_no_engine_module_decides_with_floats():
    modules = sorted(p for p in SRC.glob("*.py") if p.name != "plot.py")
    assert len(modules) > 10
    assert [use for path in modules for use in _float_uses(path)] == []


def test_the_scan_sees_each_kind_of_float_use(tmp_path):
    path = tmp_path / "sample.py"
    path.write_text(
        "import math\nfrom fractions import Fraction\n"
        "def f(x):\n"
        "    isinstance(x, float)\n"
        "    return float(x) + math.sqrt(x) + 0.5 + x.limit_denominator(9)"
        " + Fraction.from_float(x)\n"
    )
    assert [what for _, _, what in _float_uses(path)] == [
        "float(...)", ".sqrt(...)", "float literal 0.5", ".limit_denominator(...)",
        ".from_float(...)",
    ]
