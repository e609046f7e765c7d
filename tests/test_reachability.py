"""The package ships only what a command runs.

Every golden case of ``test_golden_reports.CASES`` runs once, in a fresh
interpreter under ``sys.setprofile``, and every function and method defined
in ``src/localsmith`` must have been called, unless ``ALLOWED`` names it
with its reason. A reference formula that only the tests call belongs in
``tests/reference.py``. The fresh interpreter counts the calls made while
the package is imported, and no cache filled by an earlier test
(``Mat.zeros``, ``Mat.identity``, ``cli.build_parser``) can hide a call.
"""

import ast
import json
import subprocess
import sys
from pathlib import Path

import pytest

import localsmith

PACKAGE = Path(localsmith.__file__).resolve().parent
TESTS = Path(__file__).resolve().parent

# Module stem and qualified name -> why no golden case calls it.
ALLOWED = {
    "matrix.Mat.__hash__": "dunder: hashing a matrix",
    "matrix.Mat.__repr__": "dunder: printing a matrix",
    "matrix.Mat.__setattr__": "dunder: refuses assignment to an immutable matrix",
    "series.MatLaurent.__hash__": "dunder: hashing a series",
    "series.MatLaurent.__repr__": "dunder: printing a series",
    "series.MatLaurent.__setattr__": "dunder: refuses assignment to an immutable series",
    "subspaces.Subspace.__eq__": "dunder: comparing subspaces",
    "subspaces.Subspace.__hash__": "dunder: hashing a subspace",
    "subspaces.Subspace.__repr__": "dunder: printing a subspace",
    "subspaces.Subspace.__setattr__": "dunder: refuses assignment to an immutable subspace",
    "cli._Parser.error": "error path: a usage error exits 1",
    "matrix._echo": "error path: quotes a refused entry",
    "matrix.Mat.det": "in UNREACHED of test_benchmark_tracer.py: the tracer wraps it",
    "oracles.resolvent_recurrence_check": "in UNREACHED of test_benchmark_tracer.py",
    "oracles.toeplitz_nullspace": "in UNREACHED of test_benchmark_tracer.py",
    "subspaces.choose_complement": "in UNREACHED of test_benchmark_tracer.py",
    "subspaces.projection_matrix": "in UNREACHED of test_benchmark_tracer.py",
    "subspaces.restricted_inverse": "in UNREACHED of test_benchmark_tracer.py",
    "family_io.family_from_series": "README's library API",
    "family_io.serialize_family": "README's library API",
    "matrix.Mat.entries": "README's library API",
    "series.MatLaurent.__add__": "README's library API: series +",
    "series.MatLaurent.__sub__": "README's library API: series -",
    "series.MatLaurent.__neg__": "README's library API: series -",
    "series.MatLaurent._aligned": "README's library API: aligns the poles for series + and -",
}

# Runs in a fresh interpreter; prints the (module stem, first line) of the
# code object of every package function called.
PROBE = """
import json, os, sys
package, tests = sys.argv[1:3]
sys.path[:0] = [os.path.dirname(package), tests]
called = set()

def profile(frame, event, arg):
    code = frame.f_code
    if event == "call" and os.path.dirname(code.co_filename) == package:
        called.add((os.path.basename(code.co_filename)[:-3], code.co_firstlineno))

import hypothesis, pytest  # the test module's own imports, not profiled
sys.setprofile(profile)
import test_golden_reports
for argv in test_golden_reports.CASES.values():
    test_golden_reports.run(argv)
sys.setprofile(None)
print(json.dumps(sorted(called)))
"""


def defined() -> dict[tuple[str, int], str]:
    """Every function and method of the package, nested ones too, keyed as
    the probe keys its code object: a decorated function starts at its
    first decorator."""
    names = {}

    def visit(node, module: str, prefix: str):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, module, f"{prefix}{child.name}.")
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                names[module, first] = f"{module}.{prefix}{child.name}"
                visit(child, module, f"{prefix}{child.name}.<locals>.")
            else:
                visit(child, module, prefix)

    for path in sorted(PACKAGE.glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8"), str(path)), path.stem, "")
    return names


@pytest.fixture(scope="module")
def unreached() -> set[str]:
    probe = subprocess.run(
        [sys.executable, "-c", PROBE, str(PACKAGE), str(TESTS)],
        capture_output=True, text=True, check=True,
    )
    called = {tuple(key) for key in json.loads(probe.stdout.splitlines()[-1])}
    return {name for key, name in defined().items() if key not in called}


def test_every_function_runs_under_a_golden_case(unreached):
    never = sorted(unreached - ALLOWED.keys())
    assert not never, f"never called: {', '.join(never)}"


def test_every_allowed_name_is_defined_and_unreached(unreached):
    stale = sorted(ALLOWED.keys() - unreached)
    assert not stale, f"allowed but called or not defined: {', '.join(stale)}"
