"""Cold start: the package root loads nothing, each command loads what it uses.

Every check runs in a fresh interpreter, since this test process has
long since imported the whole engine.
"""

import os
import subprocess
import sys
from pathlib import Path

from wignerlab.cli import main

SRC = Path(__file__).resolve().parents[1] / "src"

# every public name the package root has exported, by defining module
EXPORTED = {
    "exact": [
        "Feasible", "Infeasible", "LinearProgram", "Matrix", "QQ",
        "lp_feasible", "rank", "solve_affine", "verify_certificate",
    ],
    "geometry": [
        "AffineFunctional", "AffineMap", "Ball", "ExtremalValue", "Polytope",
        "affine_basis", "contains", "dimension", "extremal_range", "map_into",
    ],
    "theory": [
        "Channel", "Compatible", "Distribution", "Incompatible", "Observable",
        "Theory", "are_compatible", "are_complementary", "find_channel",
        "is_surjective", "jointly_info_complete", "measure", "validate",
    ],
    "wigner": [
        "SignedGrid", "WignerRep", "check_marginals", "construct_family",
        "degenerate_rep", "evaluate", "faithful_choice_possible",
        "faithful_member", "is_faithful", "is_positive", "isomorphism",
        "perturb", "positive_member",
    ],
    "symmetry": [
        "LiftedMap", "PhasePointMap", "ProductGroupElement",
        "enumerate_lifted_symmetries", "find_permutation_channels",
        "find_symmetry_for_channel", "find_transported_channel",
        "induced_action", "is_g_symmetric", "is_symmetry", "lift",
        "solve_covariant",
    ],
}


def _python(*args, cwd=None):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.run(
        [sys.executable, *args], env=env, cwd=cwd,
        capture_output=True, text=True, timeout=120,
    )


def _loaded(code):
    """The ``wignerlab`` submodules in ``sys.modules`` after running ``code``."""
    done = _python("-c", code + "\nimport sys\n"
                   "print(' '.join(m for m in sys.modules if m.startswith('wignerlab.')))")
    assert done.returncode == 0, done.stderr
    return set(done.stdout.split())


def _imported(*argv):
    """The completed process ``python -X importtime -m wignerlab *argv`` and
    every module it imported."""
    done = _python("-X", "importtime", "-m", "wignerlab", *argv)
    return done, {
        line.rsplit("|", 1)[1].strip()
        for line in done.stderr.splitlines() if line.startswith("import time:")
    }


def test_bare_import_loads_no_submodule():
    assert _loaded("import wignerlab") == set()


def test_module_entry_point_verify_skips_search_catalog_and_plot(tmp_path, capsys):
    theory, report = tmp_path / "t.json", tmp_path / "r.json"
    assert main(["example", "trit", "--out", str(theory)]) == 0
    capsys.readouterr()
    assert main(["analyze", str(theory)]) == 0
    report.write_text(capsys.readouterr().out)
    done, loaded = _imported("verify", str(report))
    assert done.returncode == 0, done.stderr
    assert "claims verified" in done.stdout
    assert {"wignerlab.report", "wignerlab.theoryfile"} <= loaded
    assert not loaded & {"wignerlab.symmetry", "wignerlab.catalog", "wignerlab.plot"}


def test_engine_loads_without_dataclasses_or_inspect(tmp_path):
    # the engine's records are built without generated code; dataclasses
    # would also load inspect, ast, dis and tokenize
    done = _python("-c", (
        "import sys\n"
        "import wignerlab.catalog as catalog\n"
        "for name in catalog.CATALOG_NAMES:\n"
        "    catalog.load(name)\n"
        "print(' '.join(m for m in ('dataclasses', 'inspect') if m in sys.modules))\n"
    ))
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == []
    theory = tmp_path / "t.json"
    assert main(["example", "trit", "--out", str(theory)]) == 0
    done, loaded = _imported("analyze", str(theory))
    assert done.returncode == 0, done.stderr
    assert "wignerlab.wigner" in loaded
    assert not loaded & {"dataclasses", "inspect"}


def test_every_exported_name_is_its_defining_modules_object():
    pairs = [(module, name) for module, names in EXPORTED.items() for name in names]
    done = _python("-c", (
        "import importlib, sys, wignerlab\n"
        "for pair in sys.argv[1:]:\n"
        "    module, name = pair.split('.')\n"
        "    home = importlib.import_module('wignerlab.' + module)\n"
        "    assert getattr(wignerlab, name) is getattr(home, name), pair\n"
        "    assert name in wignerlab.__all__, pair\n"
        "# read on every access: a patch in the defining module shows, and so\n"
        "# does putting the original back\n"
        "exact, original = wignerlab.exact, wignerlab.lp_feasible\n"
        "exact.lp_feasible = patched = object()\n"
        "assert wignerlab.lp_feasible is patched\n"
        "exact.lp_feasible = original\n"
        "assert wignerlab.lp_feasible is exact.lp_feasible\n"
    ), *(f"{module}.{name}" for module, name in pairs))
    assert done.returncode == 0, done.stderr


def test_dir_lists_all_and_unknown_names_raise():
    done = _python("-c", (
        "import wignerlab\n"
        "assert set(wignerlab.__all__) <= set(dir(wignerlab))\n"
        "assert 'catalog' in wignerlab.__all__\n"
        "try:\n"
        "    wignerlab.no_such_name\n"
        "except AttributeError:\n"
        "    pass\n"
        "else:\n"
        "    raise SystemExit('no AttributeError')\n"
        "assert getattr(wignerlab, 'kernel_backend', None) is None\n"
    ))
    assert done.returncode == 0, done.stderr


def test_catalog_loads_after_a_bare_import():
    loaded = _loaded("import wignerlab\nwignerlab.catalog.load('trit')")
    assert "wignerlab.catalog" in loaded
