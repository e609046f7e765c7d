"""Recorded CLI reports that must stay byte-identical.

Each case runs ``localsmith.cli.main`` in-process and compares its exit code
and stdout with ``tests/data/reports/<case>.out``, whose first line is
``exit: <code>`` and whose remainder is the stdout of the recorded call.

    PYTHONPATH=src python tests/test_golden_reports.py --record

writes the report of every case whose file is missing and leaves every
existing file alone, so adding a case never re-records the others. A change
that is meant to alter a report deletes that report's file, records it again
with the command above and says so; any other difference is a regression.
"""

from __future__ import annotations

import contextlib
import io
import os
import sys

import pytest

from localsmith.cli import main

DATA = os.path.join(os.path.dirname(__file__), "data")
REPORTS = os.path.join(DATA, "reports")
CUBIC = os.path.join(DATA, "example1.json")
TRUNC = os.path.join(REPORTS, "trunc2x2.json")
RECT = os.path.join(REPORTS, "rect2x3.json")
PLAN = os.path.join(REPORTS, "plan_stage1.json")
SMITH = os.path.join(REPORTS, "smith4x4.json")
SMITH_K8 = os.path.join(REPORTS, "smith4x4k8.json")
DENSE = os.path.join(REPORTS, "dense6x6.json")
TALL = os.path.join(REPORTS, "rect3x2.json")
LATE_PLAN = os.path.join(REPORTS, "plan_late.json")
LATE_PLAN_BAD = os.path.join(REPORTS, "plan_late_bad.json")

CASES = {
    "cubic-analyze": ["analyze", CUBIC],
    "cubic-diagonalize": ["diagonalize", CUBIC],
    "cubic-invert": ["invert", CUBIC],
    "cubic-jordan": ["jordan", CUBIC, "--length", "3"],
    "cubic-smith": ["smith", CUBIC],
    "cubic-linearize": ["linearize", CUBIC],
    "cubic-verify": ["verify", CUBIC],
    "cubic-diagonalize-text": ["diagonalize", CUBIC, "--format", "text"],
    "cubic-verify-text": ["verify", CUBIC, "--format", "text"],
    "cubic-pole2-analyze": ["analyze", CUBIC, "--pole", "2"],
    "cubic-pole2-invert": ["invert", CUBIC, "--pole", "2"],
    "cubic-given-analyze": ["analyze", CUBIC, "--complement", f"given:{PLAN}"],
    "cubic-given-invert": ["invert", CUBIC, "--complement", f"given:{PLAN}"],
    "cubic-given-verify": ["verify", CUBIC, "--complement", f"given:{PLAN}"],
    "trunc-analyze": ["analyze", TRUNC],
    "trunc-diagonalize": ["diagonalize", TRUNC],
    "trunc-linearize": ["linearize", TRUNC],
    "trunc-verify": ["verify", TRUNC],
    "rect-analyze": ["analyze", RECT],
    "rect-diagonalize": ["diagonalize", RECT],
    "rect-invert": ["invert", RECT],
    "rect-verify": ["verify", RECT],
    "smith-analyze": ["analyze", SMITH],
    "smith-diagonalize": ["diagonalize", SMITH],
    "smith-invert": ["invert", SMITH],
    "smith-smith": ["smith", SMITH],
    "smith-jordan": ["jordan", SMITH, "--length", "8"],
    "smith-verify": ["verify", SMITH],
    "smithk8-analyze": ["analyze", SMITH_K8],
    "smithk8-diagonalize": ["diagonalize", SMITH_K8],
    "smithk8-invert": ["invert", SMITH_K8],
    "smithk8-verify": ["verify", SMITH_K8],
    "dense-analyze": ["analyze", DENSE],
    "dense-diagonalize": ["diagonalize", DENSE],
    "dense-invert": ["invert", DENSE],
    "tall-given-late-analyze": ["analyze", TALL, "--complement", f"given:{LATE_PLAN}"],
    "tall-given-late-bad-analyze": ["analyze", TALL, "--complement", f"given:{LATE_PLAN_BAD}"],
}


def run(argv: list[str]) -> str:
    """The recording of one call: its exit code line, then its stdout."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    return f"exit: {code}\n{out.getvalue()}"


def recorded(case: str) -> str:
    with open(os.path.join(REPORTS, f"{case}.out"), "r", encoding="utf-8") as handle:
        return handle.read()


@pytest.mark.parametrize("case", sorted(CASES))
def test_report_unchanged(case):
    assert run(CASES[case]) == recorded(case)


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: test_golden_reports.py --record")
    for case, argv in CASES.items():
        path = os.path.join(REPORTS, f"{case}.out")
        if os.path.exists(path):
            continue
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(run(argv))
        print(f"recorded {case}")
