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
        package.MatSeries.constant(package.Mat.identity(2)) @ package.MatSeries.constant(package.Mat.identity(2))
        tracer.end_call(root)
        assert [tracer.names[i] for i in tracer.name] == ["cli.main", "series.matseries_matmul"]
    finally:
        tracer.uninstall()
    after = bindings(tracing)
    assert after.keys() == before.keys()
    for key, value in before.items():
        assert after[key] is value, key


def traced_spans(tracing, *argv: str) -> list[str]:
    """The names of the spans one traced call of the CLI on ``argv``
    opens, in order."""
    tracer = tracing.Tracer()
    tracer.install()
    try:
        root = tracer.begin_call(argv[0])
        assert sys.modules["localsmith.cli"].main(list(argv)) == 0
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
    assert traced_spans(tracing, command, str(CUBIC)).count("diagonalize") == spans


def test_every_stage_opens_one_m_column_span(tracing, capsys):
    # The per-layer M metric covers the column of every stage run; no stage
    # builds an E column, which only verify reads.
    names = traced_spans(tracing, "invert", str(CUBIC))
    stages = names.count("recursion.run_stage")
    assert stages > 0
    assert names.count("recursion.m_column") == stages
    assert names.count("recursion.e_column") == 0


# The targets no command reaches on the golden cubic: the stage step reads
# calP off the running projector and one rref, and the oracles
# that verify no longer runs stay for the library and the tests.
UNREACHED = {
    "choose_complement", "projection_matrix", "restricted_inverse",
    "toeplitz_nullspace", "resolvent_recurrence_check", "Mat.det",
}


def test_every_wrapped_target_is_reached_but_the_known_ones(tracing, monkeypatch, capsys):
    """Traced calls of the seven commands on the golden cubic reach every
    target of FUNCTIONS and METHODS but UNREACHED, so a target that the
    package stops calling, whose per-layer metric would then read 0, fails
    here. A call is recorded beneath the tracer's wrapper."""
    called = set()

    def recorder(name, fn):
        def recording(*args, **kwargs):
            called.add(name)
            return fn(*args, **kwargs)

        return recording

    package = [m for k, m in sys.modules.items() if k == "localsmith" or k.startswith("localsmith.")]
    for module, attr, _ in tracing.FUNCTIONS:
        original = getattr(sys.modules[module], attr)
        recording = recorder(attr, original)
        for mod in package:
            for key, value in list(vars(mod).items()):
                if value is original:
                    monkeypatch.setattr(mod, key, recording)
    for module, cls_name, attr, _ in tracing.METHODS:
        cls = getattr(sys.modules[module], cls_name)
        monkeypatch.setattr(cls, attr, recorder(f"{cls_name}.{attr}", cls.__dict__[attr]))
    for command in ("analyze", "diagonalize", "invert", "smith", "linearize", "verify"):
        traced_spans(tracing, command, str(CUBIC))
    traced_spans(tracing, "jordan", str(CUBIC), "--length", "3")
    targets = {attr for _, attr, _ in tracing.FUNCTIONS}
    targets |= {f"{cls_name}.{attr}" for _, cls_name, attr, _ in tracing.METHODS}
    assert targets - called == UNREACHED
