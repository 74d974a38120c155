"""No decision of the engine goes through floating point.

Every module of the package, the plotter included, is scanned for calls
of ``float(...)``, ``.limit_denominator`` and ``Fraction.from_float``,
for calls of ``math`` functions other than the integer ones
(``MATH_INTS``), and for float literals, with no exemption;
``isinstance(x, float)`` names the type without calling it.
"""

import ast
from pathlib import Path

import wignerlab

SRC = Path(wignerlab.__file__).parent
MATH_INTS = {"gcd", "lcm", "isqrt", "trunc"}


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
                    or (f.attr not in MATH_INTS and isinstance(f.value, ast.Name)
                        and f.value.id == "math")):
                what = f".{f.attr}(...)"
        if what is not None:
            found.append((path.name, node.lineno, what))
        for child in ast.iter_child_nodes(node):
            visit(child)

    visit(ast.parse(path.read_text(encoding="utf-8")))
    return found


def test_no_engine_module_decides_with_floats():
    modules = sorted(SRC.glob("*.py"))
    assert len(modules) > 10
    assert [use for path in modules for use in _float_uses(path)] == []


def test_the_scan_sees_each_kind_of_float_use(tmp_path):
    path = tmp_path / "sample.py"
    path.write_text(
        "import math\nfrom fractions import Fraction\n"
        "def f(x):\n"
        "    isinstance(x, float)\n"
        "    math.atan2(x, 1) + math.degrees(x) + math.isqrt(9) + math.gcd(4, 6)\n"
        "    return float(x) + math.sqrt(x) + 0.5 + x.limit_denominator(9)"
        " + Fraction.from_float(x)\n"
    )
    assert [what for _, _, what in _float_uses(path)] == [
        ".atan2(...)", ".degrees(...)",
        "float(...)", ".sqrt(...)", "float literal 0.5", ".limit_denominator(...)",
        ".from_float(...)",
    ]
