"""Tests of the benchmark itself: run with ``python3 -m pytest perfbench``."""

from __future__ import annotations

import json
import sys

import pytest

import corpus
import gate
import run
import speed
import tracing


@pytest.fixture(scope="module")
def cli():
    return run.fresh_import()


@pytest.fixture(scope="module")
def golden(tmp_path_factory):
    family = corpus.build("verify-oracles", 0, 0)[0]
    path = tmp_path_factory.mktemp("corpus") / "golden.json"
    path.write_text(family.text, encoding="utf-8")
    return family, path


class FakeCli:
    """Runs the real CLI, then rewrites its report or exit code."""

    def __init__(self, real, edit=None, code=None):
        self.real, self.edit, self.code = real, edit, code

    def main(self, argv):
        code = run.call(self.real, argv)
        if code[0] == 0 and self.edit:
            report = json.loads(code[1])
            self.edit(report)
            print(json.dumps(report, indent=2))
        else:
            print(code[1], end="")
        return code[0] if self.code is None else self.code


def _pass(cli, family, path, tracer=None):
    result = run.Pass()
    run.run_family(cli, 0, family, path, result, tracer)
    return result


def test_golden_family_passes_the_gate(cli, golden):
    result = _pass(cli, *golden)
    assert result.attempted == 2
    assert result.failed == 0, result.problems


def test_tampered_report_counts_as_failed(cli, golden):
    def tamper(report):
        if report["command"] == "verify":
            report["checks"][0]["status"] = "fail"
            report["all_passed"] = False

    result = _pass(FakeCli(cli, edit=tamper), *golden)
    assert result.failed == 1
    assert "verify" in result.problems[0]


def test_wrong_exit_code_counts_as_failed(cli, golden):
    result = _pass(FakeCli(cli, code=3), *golden)
    assert result.failed == 2


def test_cross_command_disagreement_fails_every_call_of_the_family():
    reports = {
        "analyze": {"smith_exponents": [0, 1, 3], "stabilization_index": 3},
        "smith": {"exponents": [0, 1, 2], "stabilization_index": 3},
    }
    assert "disagree" in gate.check_family(reports, None)
    reports["smith"]["exponents"] = [0, 1, 3]
    assert gate.check_family(reports, None) is None
    assert "constructed" in gate.check_family(reports, [0, 2, 3])
    reports["smith"]["stabilization_index"] = 2
    assert "stabilization index" in gate.check_family(reports, None)


def test_expected_refusal_passes_and_unexpected_success_fails():
    assert gate.check_call("linearize", 1, 1, "") == (None, None)
    assert gate.check_call("linearize", 0, 1, "{}")[0] == "exit code 0, expected 1"


def test_corpus_is_a_function_of_the_seed():
    for workload in corpus.WORKLOADS:
        first = [f.text for f in corpus.build(workload, 7, 1)]
        again = [f.text for f in corpus.build(workload, 7, 1)]
        other = [f.text for f in corpus.build(workload, 8, 1)]
        assert first == again
        assert first != other


def test_smith_families_carry_their_exponents():
    for family in corpus.build("deep-smith", 3, 0):
        assert 5 <= max(family.exponents) <= 8
        assert family.calls[-1][0] == ["jordan", "--length", str(max(family.exponents) + 1)]


def test_tracer_wraps_every_from_import_binding(cli):
    originals = {
        (module, attr): getattr(sys.modules[module], attr)
        for module, attr, _ in tracing.FUNCTIONS
    }
    bound = [
        ("localsmith.cli", "diagonalize", "localsmith.diagonalize"),
        ("localsmith.cli", "toeplitz_nullspace", "localsmith.oracles"),
        ("localsmith.recursion", "choose_complement", "localsmith.subspaces"),
        ("localsmith", "series_inverse", "localsmith.series"),
        ("localsmith.series", "rat", "localsmith.matrix"),
    ]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for module, attr, home in bound:
            assert getattr(sys.modules[module], attr) is not originals[(home, attr)]
        for mod in [m for k, m in sys.modules.items() if k.startswith("localsmith")]:
            for value in vars(mod).values():
                assert not any(value is fn for fn in originals.values())
    finally:
        tracer.uninstall()
    for module, attr, home in bound:
        assert getattr(sys.modules[module], attr) is originals[(home, attr)]


def test_traced_counts_repeat_and_verify_checks_are_timed(cli, golden):
    summaries = []
    for _ in range(2):
        tracer = tracing.Tracer()
        tracer.install()
        try:
            result = _pass(cli, *golden, tracer)
        finally:
            tracer.uninstall()
        assert result.failed == 0, result.problems
        summaries.append(tracer.summary())
    for metric in tracing.EXACT:
        assert summaries[0]["all"][metric] == summaries[1]["all"][metric], metric
    verify = summaries[0]["verify"]
    for check in tracing.VERIFY_CHECKS:
        if check != "resolvent-recurrences":  # not applicable to a cubic
            assert verify[f"cli.verify.{check}.s"] > 0, check
    assert verify["oracles.pencil_stabilize_s"] > 0
    assert summaries[0]["linearize"]["recursion.stage_use_ratio"] == 1.0


def test_self_time_subtracts_direct_children():
    tracer = tracing.Tracer()
    root = tracer.begin_call("analyze")
    outer = tracer._open("recursion.run_stage")
    inner = tracer._open("matrix.matmul")
    tracer._close(inner)
    tracer._close(outer)
    tracer.end_call(root)
    tracer.start[outer], tracer.end[outer] = 0.0, 5.0
    tracer.start[inner], tracer.end[inner] = 1.0, 3.0
    summary = tracer.summary()["analyze"]
    assert summary["recursion.run_stage.self_s"] == pytest.approx(3.0)
    assert summary["matrix.matmul.self_s"] == pytest.approx(2.0)
    assert summary["matrix.matmul.calls"] == 1


def test_tail_keeps_ten_samples_above():
    values = list(range(40))
    assert run.tail(values) == (29, 75.0, 40)
    assert run.tail([3, 1, 2]) == (3, 100.0, 3)


def test_speed_scales_by_the_reference_units_around_each_interval(monkeypatch):
    units = iter([2 * speed.REFERENCE_S, 2 * speed.REFERENCE_S, speed.REFERENCE_S])
    monkeypatch.setattr(speed, "time_unit", lambda: next(units))
    clock = speed.Speed()
    # A host at half the nominal speed takes twice as long: 1 s scales to 0.5 s.
    assert clock.scale(1.0) == pytest.approx(0.5)
    # The next interval sits between a slow and a nominal unit.
    assert clock.scale(1.5) == pytest.approx(1.5 / 1.5)
    assert clock.units == [2 * speed.REFERENCE_S, 2 * speed.REFERENCE_S, speed.REFERENCE_S]


def test_reference_unit_is_exact_rational_work():
    inverse = speed._inverse(speed._MATRICES[0])
    product = [
        [sum(a * b for a, b in zip(row, col)) for col in zip(*inverse)]
        for row in speed._MATRICES[0]
    ]
    assert product == [[int(i == j) for j in range(5)] for i in range(5)]
