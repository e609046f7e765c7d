"""The package needs only the standard library at runtime.

Every import statement in ``src/localsmith/*.py`` must name a standard
library module or the package itself; a third-party import would break the
README's install promise, and the test-only dependencies (pytest,
hypothesis, sympy) must stay in the tests.
"""

import ast
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "localsmith"


def imported_modules(path: Path) -> list[str]:
    """The top-level module of every absolute import in the file."""
    names = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
        if isinstance(node, ast.Import):
            names += [alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.append(node.module.split(".")[0])
    return names


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_imports_are_standard_library_or_the_package(path):
    foreign = [
        name for name in imported_modules(path)
        if name != "localsmith" and name not in sys.stdlib_module_names
    ]
    assert foreign == []


def test_a_third_party_import_is_caught(tmp_path):
    module = tmp_path / "probe.py"
    module.write_text("import os\nfrom . import matrix\nfrom sympy import Matrix\n")
    assert [name for name in imported_modules(module) if name not in sys.stdlib_module_names] == [
        "sympy"
    ]
