"""Recorded CLI reports that must stay byte-identical.

Each case runs ``localsmith.cli.main`` in-process and compares its exit code
and stdout with ``tests/data/reports/<case>.out``, whose first line is
``exit: <code>`` and whose remainder is the stdout of the recorded call.
After the first pass, every case runs a second time, in reverse order and in
the same process, and must give the same bytes. ``LARGE_CASES`` run on
families of n = 16 and 20, and on long runs of stages, and compare the
sha256 of the same recording with a recorded digest.

    PYTHONPATH=src python tests/test_golden_reports.py --record

writes the report of every case whose file is missing and leaves every
existing file alone, so adding a case never re-records the others. A change
that is meant to alter a report deletes that report's file, records it again
with the command above and says so; any other difference is a regression.
"""

from __future__ import annotations

import contextlib
import hashlib
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
# L(eps) = [[eps, 1], [0, eps]]: exponents 0 and 2, with a gap stage, so an
# M column reads a shared block past its packed rows.
SHIFT = os.path.join(REPORTS, "shift2x2.json")

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
    "cubic-pole2-verify": ["verify", CUBIC, "--pole", "2"],
    "cubic-given-analyze": ["analyze", CUBIC, "--complement", f"given:{PLAN}"],
    "cubic-given-invert": ["invert", CUBIC, "--complement", f"given:{PLAN}"],
    "cubic-given-verify": ["verify", CUBIC, "--complement", f"given:{PLAN}"],
    "trunc-analyze": ["analyze", TRUNC],
    "trunc-analyze-text": ["analyze", TRUNC, "--format", "text"],
    "trunc-diagonalize": ["diagonalize", TRUNC],
    "trunc-linearize": ["linearize", TRUNC],
    "trunc-verify": ["verify", TRUNC],
    "trunc-smith": ["smith", TRUNC],
    "rect-analyze": ["analyze", RECT],
    "rect-diagonalize": ["diagonalize", RECT],
    "rect-invert": ["invert", RECT],
    "rect-verify": ["verify", RECT],
    "rect-smith": ["smith", RECT],
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
    "tall-smith": ["smith", TALL],
    "tall-given-late-analyze": ["analyze", TALL, "--complement", f"given:{LATE_PLAN}"],
    "tall-given-late-bad-analyze": ["analyze", TALL, "--complement", f"given:{LATE_PLAN_BAD}"],
    "shift-analyze": ["analyze", SHIFT],
    "shift-verify": ["verify", SHIFT],
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


# Two 16 x 16 families, from perfbench/corpus.py:
# dense16 = _body(dense_coeffs(Random(5), 16, 16, 2, 8)) and
# smith7k16 = _body(smith_coeffs(Random(9), [0, 1, 2, 4, 8, 12, 16])).
# Their reports run to 0.7 MB, so each case records the sha256 of its
# exit line and stdout, as ``run`` gives them, not the text.
DENSE16 = os.path.join(DATA, "dense16.json")
SMITH7K16 = os.path.join(DATA, "smith7k16.json")
# Where the packed layer and the rank sampling take their long paths, also
# from perfbench/corpus.py: dense20 = _body(dense_coeffs(Random(6), 20, 20,
# 3, 6)), with wide packed slots in ``invert``; deficient20 = _body of
# A(eps) B(eps), A 20 x 15 of degree 1 and B 15 x 20 of degree 2, whose
# coefficients are _random_matrix(Random(3), ., ., density=0.6) drawn A
# first: degree 3, generic rank 15, k = 0, so every command samples the rank
# and ``--pole 10`` samples it at every added stage; and smith4x4k8 under
# ``--pole 300``, a run of 300 leading degenerate stages.
DEFICIENT20 = os.path.join(DATA, "deficient20.json")
DENSE20 = os.path.join(DATA, "dense20.json")
LARGE_CASES = {
    "dense16-analyze": (
        ["analyze", DENSE16],
        "381aea600bb989b17aa7f4d07d3ae3198afe73d29a01c77c817ae6494ea52caf",
    ),
    "dense16-diagonalize": (
        ["diagonalize", DENSE16],
        "f3b1f243f8619463b7779adec609fd579fcd4f835727a2484fc373a561ccc834",
    ),
    "dense16-invert": (
        ["invert", DENSE16],
        "de0a325cf3a4da92077d754908ae7348011c0e463840812d9dfe1de9c3ccb7a5",
    ),
    "dense16-smith": (
        ["smith", DENSE16],
        "485de8a0d41d2a2e161f944feafe25789057f5505f4012b5c76e96e5c8c49e1c",
    ),
    "dense16-verify": (
        ["verify", DENSE16],
        "263e87bf0c9bf04d329916af3d9d939d86acb17c3129bd99ed3c734073b9ac54",
    ),
    "dense16-jordan-1": (
        ["jordan", DENSE16, "--length", "1"],
        "580fe6b9e6f0fc333389ce09227220c44db107b5831d8bea328a8754d2e2356c",
    ),
    "dense16-linearize": (
        ["linearize", DENSE16],
        "9d29973d824aa6cb648003dda92be9da305df0323db0d443cc1fc9ddebddc016",
    ),
    "smith7k16-analyze": (
        ["analyze", SMITH7K16],
        "de1842dbf5d2842ab92e28486aff9e70e1e4e1a7b423ee7ab03e4482ec77cdc1",
    ),
    "smith7k16-diagonalize": (
        ["diagonalize", SMITH7K16],
        "62bb99a5726367fe6ea5d75f32a23ee594c6449561c7cf065ffc124c68c3fef8",
    ),
    "smith7k16-invert": (
        ["invert", SMITH7K16],
        "348eff1c9d4747a2fde470125519d39da456a93d7d1dd935c724acbddeb4c26e",
    ),
    "smith7k16-smith": (
        ["smith", SMITH7K16],
        "70bfe314fa04acf61c8688431a2e652de169231bbb220f819eaa6c6421b8dacb",
    ),
    "smith7k16-verify": (
        ["verify", SMITH7K16],
        "a83615f648f97051f2301fa99ca7921ed35f67cbbfb55e5a577f98ad2d29a78d",
    ),
    "smith7k16-linearize": (
        ["linearize", SMITH7K16],
        "3b5476eb0e742f7ccc4fc274f2751b3f77966dc9dcb5c04b1d38181ad4389906",
    ),
    "smith7k16-jordan-9": (
        ["jordan", SMITH7K16, "--length", "9"],
        "0333bad86b43959ddfccaeef3b526abea8314122e426dba12a650e792e2b4273",
    ),
    "smith7k16-jordan-16": (
        ["jordan", SMITH7K16, "--length", "16"],
        "7858f2f5c54eb0472253681c83ada147714615b306c1a9b68aa0de31b915cf54",
    ),
    "deficient20-analyze": (
        ["analyze", DEFICIENT20],
        "291c1bcd5707ae1fe7a9ddf7f310879d7bf899108cd114ed21c321deebe295c2",
    ),
    "deficient20-diagonalize": (
        ["diagonalize", DEFICIENT20],
        "243afa22adf5643c695092c4ae165053af811311fe7b328308658bf411f072cf",
    ),
    "deficient20-smith": (
        ["smith", DEFICIENT20],
        "c90068eeb62edfc366e53c0ad027734496dd207a67fcfc19c47063463e052828",
    ),
    "deficient20-verify": (
        ["verify", DEFICIENT20],
        "0644217a32c9549cec77767348ed7497f5ea2975656f7235b1b54dfb7c363b9d",
    ),
    "deficient20-linearize": (
        ["linearize", DEFICIENT20],
        "e75569289a3a54fe6cdd8ca1f4fa5086e03619a2a3c1d321b7f95a047e29b741",
    ),
    "deficient20-pole10-analyze": (
        ["analyze", DEFICIENT20, "--pole", "10"],
        "e904423a2528432907f2f1bf7756469adb15362e620c0b386d2ab88a050383b1",
    ),
    "deficient20-jordan-3": (
        ["jordan", DEFICIENT20, "--length", "3"],
        "c3eb48005da1052101d20170b53acdb968c39c249d44b825a007307fb6799ae1",
    ),
    "dense20-invert": (
        ["invert", DENSE20],
        "64f7bd4440629f011968fb3f163a4152e5f8d1b22538746497951e65a72eaccd",
    ),
    "smithk8-pole300-analyze": (
        ["analyze", SMITH_K8, "--pole", "300"],
        "200d7ebc099d169d2e40d0316767561a23b29e076d111ac0803cd3dd52ff8d4a",
    ),
}


@pytest.mark.parametrize("case", sorted(LARGE_CASES))
def test_large_report_digest_unchanged(case):
    argv, digest = LARGE_CASES[case]
    assert hashlib.sha256(run(argv).encode("utf-8")).hexdigest() == digest


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
@example([["1"], []])
@example([[]])
@example([["1", 2]])
@example([["a"], "b"])
@example([[["1"]]])
def test_report_encoder_is_json_dumps(value):
    assert render(value) == json.dumps(value, indent=2)


@pytest.mark.parametrize(
    "value", [1.5, (1, 2), {1: "a"}, {"a": [{"b": set()}]}, b"x", [["1", set()]]]
)
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
