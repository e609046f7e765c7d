"""Recorded CLI reports that must stay byte-identical.

Each case runs ``localsmith.cli.main`` in-process and compares its exit code
and stdout with ``tests/data/reports/<case>.out``, whose first line is
``exit: <code>`` and whose remainder is the stdout of the recorded call.
After the first pass, every case runs a second time, in reverse order and in
the same process, and must give the same bytes.

    PYTHONPATH=src python tests/test_golden_reports.py --record

writes the report of every case whose file is missing and leaves every
existing file alone, so adding a case never re-records the others. A change
that is meant to alter a report deletes that report's file, records it again
with the command above and says so; any other difference is a regression.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from localsmith.cli import main
from localsmith.family_io import ReportEncoder

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
    "cubic-jordan-text": ["jordan", CUBIC, "--length", "3", "--format", "text"],
    "cubic-smith": ["smith", CUBIC],
    "cubic-smith-text": ["smith", CUBIC, "--format", "text"],
    "cubic-linearize": ["linearize", CUBIC],
    "cubic-verify": ["verify", CUBIC],
    "cubic-diagonalize-text": ["diagonalize", CUBIC, "--format", "text"],
    "cubic-verify-text": ["verify", CUBIC, "--format", "text"],
    "cubic-pole2-analyze": ["analyze", CUBIC, "--pole", "2"],
    "cubic-pole2-invert": ["invert", CUBIC, "--pole", "2"],
    "cubic-pole2-smith": ["smith", CUBIC, "--pole", "2"],
    "cubic-pole2-diagonalize": ["diagonalize", CUBIC, "--pole", "2"],
    "cubic-given-analyze": ["analyze", CUBIC, "--complement", f"given:{PLAN}"],
    "cubic-given-invert": ["invert", CUBIC, "--complement", f"given:{PLAN}"],
    "cubic-given-verify": ["verify", CUBIC, "--complement", f"given:{PLAN}"],
    "trunc-analyze": ["analyze", TRUNC],
    "trunc-analyze-text": ["analyze", TRUNC, "--format", "text"],
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
    "smithk8-diagonalize-order40": ["diagonalize", SMITH_K8, "--order", "40"],
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


# Every case again, in reverse order, in the same process, as the benchmark
# calls the CLI: shared matrices (one zero and one identity per shape) and
# their caches must carry nothing from one call into the next.
@pytest.mark.parametrize("case", sorted(CASES, reverse=True))
def test_report_unchanged_on_a_second_pass(case):
    assert run(CASES[case]) == recorded(case)


def render(value) -> str:
    return json.dumps(value, indent=2, cls=ReportEncoder)


# The cases that print a JSON report; a case not yet recorded has no report
# to read, and test_report_unchanged fails for it.
JSON_CASES = sorted(
    case
    for case, argv in CASES.items()
    if "--format" not in argv
    and os.path.exists(os.path.join(REPORTS, f"{case}.out"))
    and recorded(case).count("\n") > 1
)


@pytest.mark.parametrize("case", JSON_CASES)
def test_report_encoder_renders_golden_reports(case):
    text = recorded(case).split("\n", 1)[1]
    value = json.loads(text)
    assert render(value) + "\n" == text
    assert render(value) == json.dumps(value, indent=2)


# Quotes, backslashes, control characters, DEL, non-ASCII, the JSON-unsafe
# line separator and an astral character, besides any other.
SPECIAL = '"\\\x00\n\t\x1f\x7f\u00e9\u2028\U0001f600'
TEXT = st.text(st.one_of(st.sampled_from(SPECIAL), st.characters()))
VALUES = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(), TEXT, st.lists(TEXT, max_size=4)),
    lambda inner: st.one_of(
        st.lists(inner, max_size=4), st.dictionaries(TEXT, inner, max_size=4)
    ),
    max_leaves=24,
)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(VALUES)
@example({"a": [], "b": {}, "c": [True, 1, False, 0, None], "d": [["1/2", "-3"], []]})
@example([[], {}, [[]], [{}], "", True, 1])
@example({'q"\\': ['"', "\\", "\x00\x1f", "\u00e9\u2028\U0001f600"]})
def test_report_encoder_is_json_dumps(value):
    assert render(value) == json.dumps(value, indent=2)


@pytest.mark.parametrize("value", [1.5, (1, 2), {1: "a"}, {"a": [{"b": set()}]}, b"x"])
def test_report_encoder_refuses_other_types(value):
    with pytest.raises(TypeError):
        render(value)


def test_report_encoder_refuses_other_layouts():
    for kwargs in (
        {},
        {"indent": 4},
        {"indent": 2, "sort_keys": True},
        {"indent": 2, "ensure_ascii": False},
        {"indent": 2, "separators": (",", ":")},
    ):
        with pytest.raises(ValueError):
            json.dumps({"a": 1}, cls=ReportEncoder, **kwargs)


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
