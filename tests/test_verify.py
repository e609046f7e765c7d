"""The verify checks run from the library give the records of the CLI reports."""

import json
import os
from functools import partial

import pytest

from localsmith import diagonalize, parse_family, spec_to_series
from localsmith.verify import CHECKS, run_check

DATA = os.path.join(os.path.dirname(__file__), "data")
REPORTS = os.path.join(DATA, "reports")

# Golden verify report -> the family it was recorded on, with default flags.
FAMILIES = {
    "cubic-verify": os.path.join(DATA, "example1.json"),
    "rect-verify": os.path.join(REPORTS, "rect2x3.json"),
    "trunc-verify": os.path.join(REPORTS, "trunc2x2.json"),
    "smith-verify": os.path.join(REPORTS, "smith4x4.json"),
}


@pytest.mark.parametrize("case", sorted(FAMILIES))
def test_records_equal_golden_checks(case):
    with open(FAMILIES[case], "r", encoding="utf-8") as handle:
        result = diagonalize(spec_to_series(parse_family(handle.read())))
    records = [run_check(name, partial(check, result)) for name, check in CHECKS]
    with open(os.path.join(REPORTS, f"{case}.out"), "r", encoding="utf-8") as handle:
        handle.readline()  # the exit-code line
        assert records == json.load(handle)["checks"]

