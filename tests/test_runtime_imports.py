"""The package needs only the standard library at runtime.

Every import statement in ``src/localsmith/*.py`` must name a standard
library module or the package itself; a third-party import would break the
README's install promise, and the test-only dependencies (pytest,
hypothesis, sympy) must stay in the tests.

Every call of the CLI pays the package's import, so the import generates no
code: the records are ``NamedTuple``s and plain classes, not dataclasses,
and importing ``localsmith.cli`` loads neither ``dataclasses`` nor
``inspect``.
"""

import ast
import subprocess
import sys
from pathlib import Path

import pytest

from localsmith import Subspace, diagonalize, linearize_polynomial, parse_family

from conftest import example1_family

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
    names = imported_modules(path)
    foreign = [
        name for name in names if name != "localsmith" and name not in sys.stdlib_module_names
    ]
    assert foreign == []
    assert "dataclasses" not in names


def test_a_third_party_import_is_caught(tmp_path):
    module = tmp_path / "probe.py"
    module.write_text("import os\nfrom . import matrix\nfrom sympy import Matrix\n")
    assert [name for name in imported_modules(module) if name not in sys.stdlib_module_names] == [
        "sympy"
    ]


def test_importing_the_cli_loads_no_code_generation():
    probe = (
        "import sys; sys.path.insert(0, sys.argv[1]); import localsmith.cli; "
        "print(*(name for name in ('dataclasses', 'inspect') if name in sys.modules))"
    )
    child = subprocess.run(
        [sys.executable, "-S", "-c", probe, str(PACKAGE.parent)],
        capture_output=True, text=True, check=True,
    )
    assert child.stdout.split() == []


EXAMPLE1 = Path(__file__).resolve().parent / "data" / "example1.json"
RECORDS = {
    "Stage": lambda: diagonalize(example1_family()).stages[0],
    "FamilySpec": lambda: parse_family(EXAMPLE1.read_text(encoding="utf-8")),
    "AugmentedPencil": lambda: linearize_polynomial(example1_family()),
    "Subspace": lambda: Subspace.full(3),
}


@pytest.mark.parametrize("build", RECORDS.values(), ids=list(RECORDS))
def test_records_refuse_assignment(build):
    record = build()
    for field in getattr(record, "_fields", ("ambient_dim", "basis")):
        with pytest.raises(AttributeError):
            setattr(record, field, None)
