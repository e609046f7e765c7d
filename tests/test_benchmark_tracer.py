"""The names the benchmark's tracer patches by string must exist in the package.

``perfbench/tracing.py`` wraps package functions and methods by name for
``perfbench/run.py --trace 1``. A rename in ``src/`` that it does not follow
breaks traced runs, and the benchmark's own suite is not part of this one, so
this test installs and uninstalls a tracer here. The tracer module is read
from its file and not imported as a package, so nothing under
``perfbench/`` is written.
"""

import sys
import types
from pathlib import Path

import pytest

import localsmith.cli  # noqa: F401 -- the tracer patches every loaded package module

# Package names are read from sys.modules when a test runs, not bound here:
# perfbench/run.py's fresh_import loads the package anew, and the tracer
# patches the modules loaded then.

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
CUBIC = Path(__file__).resolve().parent / "data" / "example1.json"


@pytest.fixture(scope="module")
def tracing():
    module = types.ModuleType("benchmark_tracing")
    module.__file__ = str(TRACING)
    exec(compile(TRACING.read_text(encoding="utf-8"), str(TRACING), "exec"), module.__dict__)
    return module


def bindings(tracing) -> dict[tuple[object, str], object]:
    """Every name of the package's modules and traced classes, by owner."""
    owners = [m for k, m in sys.modules.items() if k == "localsmith" or k.startswith("localsmith.")]
    owners += [getattr(sys.modules[m], cls) for m, cls, _, _ in tracing.METHODS]
    return {(owner, key): value for owner in owners for key, value in vars(owner).items()}


def test_install_wraps_every_name_and_uninstall_restores_it(tracing):
    before = bindings(tracing)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for module, attr, _ in tracing.FUNCTIONS:
            home = sys.modules[module]
            assert getattr(home, attr) is not before[(home, attr)], f"{module}.{attr}"
        for module, cls_name, attr, _ in tracing.METHODS:
            cls = getattr(sys.modules[module], cls_name)
            assert cls.__dict__[attr] is not before[(cls, attr)], f"{cls_name}.{attr}"
        # diagonalize.residual_s reads the spans of power-series products.
        root = tracer.begin_call("analyze")
        package = sys.modules["localsmith"]
        package.MatSeries.identity(2) @ package.MatSeries.constant(package.Mat.identity(2))
        tracer.end_call(root)
        assert [tracer.names[i] for i in tracer.name] == ["cli.main", "series.matseries_matmul"]
    finally:
        tracer.uninstall()
    after = bindings(tracing)
    assert after.keys() == before.keys()
    for key, value in before.items():
        assert after[key] is value, key


def traced_spans(tracing, command: str) -> list[str]:
    """The names of the spans one traced call of ``command`` on the golden
    cubic opens, in order."""
    tracer = tracing.Tracer()
    tracer.install()
    try:
        root = tracer.begin_call(command)
        assert sys.modules["localsmith.cli"].main([command, str(CUBIC)]) == 0
        tracer.end_call(root)
    finally:
        tracer.uninstall()
    return [tracer.names[i] for i in tracer.name]


@pytest.mark.parametrize(
    "command, spans",
    # analyze runs the shared proof helper through analyze(), which is not
    # wrapped; the other commands call diagonalize() once.
    [("analyze", 0), ("diagonalize", 1), ("invert", 1), ("smith", 1), ("verify", 1)],
)
def test_commands_call_the_wrapped_diagonalize(tracing, command, spans, capsys):
    assert traced_spans(tracing, command).count("diagonalize") == spans


def test_every_stage_opens_one_e_and_one_m_column_span(tracing, capsys):
    # The per-layer E/M metrics cover the column of every stage run.
    names = traced_spans(tracing, "invert")
    stages = names.count("recursion.run_stage")
    assert stages > 0
    assert names.count("recursion.e_column") == stages
    assert names.count("recursion.m_column") == stages
