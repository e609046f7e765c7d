"""analyze: proven through order k by default, so it runs stages only
through 2k+1; its report equals the one proven at the working order, and
its exponents equal those of an independent Smith form over Q[eps]."""

import contextlib
import io
import os
import random
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from localsmith import (
    RecursionState,
    analyze,
    family_from_series,
    parse_family,
    serialize_family,
    spec_to_series,
)
from localsmith.cli import main

from conftest import random_family, smith_families

DATA = os.path.join(os.path.dirname(__file__), "data")
REPORTS = os.path.join(DATA, "reports")
CUBIC = os.path.join(DATA, "example1.json")
TALL = os.path.join(REPORTS, "rect3x2.json")
LATE_PLAN = os.path.join(REPORTS, "plan_late.json")


def run(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    return code, out.getvalue()


def load(path: str):
    with open(path, "r", encoding="utf-8") as handle:
        return spec_to_series(parse_family(handle.read()))


@st.composite
def dense_families(draw):
    """Dense families of degree 1-2 whose lead may drop rank."""
    rows, cols_ = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    rng = random.Random(draw(st.integers(0, 2**16)))
    deficit = draw(st.integers(0, min(rows, cols_)))
    return random_family(rng, rows, cols_, draw(st.integers(1, 2)), deficit=deficit)


class TestDefaultOrder:
    def test_proven_through_k(self):
        result = analyze(load(CUBIC))
        assert (result.k, result.order, result.residual_ok) == (3, 3, True)

    @staticmethod
    def assert_report_equals_working_order_report(family):
        k = analyze(family).k
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "family.json")
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(serialize_family(family_from_series(family)))
            code, report = run(["analyze", path])
            assert code == 0
            assert run(["analyze", path, "--order", str(max(2 * k + 4, 12))]) == (0, report)

    @settings(max_examples=25, deadline=None, derandomize=True, database=None)
    @given(smith_families())
    def test_unit_diag_unit_families(self, family):
        self.assert_report_equals_working_order_report(family)

    @settings(max_examples=25, deadline=None, derandomize=True, database=None)
    @given(dense_families())
    def test_dense_families(self, family):
        self.assert_report_equals_working_order_report(family)

    @pytest.mark.parametrize(
        "argv, stages",
        [
            # k = 3: stages through 2k+1 (k+1+12 = 16 at the working order).
            (["analyze", CUBIC], 7),
            # k = 1, but the plan names stage 4, which must still be validated.
            (["analyze", TALL, "--complement", f"given:{LATE_PLAN}"], 4),
            # An explicit order is honoured: k+1+order stages.
            (["analyze", CUBIC, "--order", "12"], 16),
        ],
        ids=["cubic", "tall-late-plan", "cubic-order-12"],
    )
    def test_stages_run(self, argv, stages, monkeypatch):
        counted = []
        original = RecursionState.run_stage

        def run_stage(state):
            counted.append(state.stage_count + 1)
            return original(state)

        monkeypatch.setattr(RecursionState, "run_stage", run_stage)
        assert run(argv)[0] == 0
        assert counted == list(range(1, stages + 1))


@pytest.mark.parametrize(
    "path",
    [CUBIC]
    + [
        os.path.join(REPORTS, name)
        for name in (
            "smith4x4.json",
            "smith4x4k8.json",
            "dense6x6.json",
            "rect2x3.json",
            "rect3x2.json",
        )
    ],
    ids=os.path.basename,
)
def test_exponents_match_sympy_invariant_factors(path):
    """The exponents are the eps-adic valuations of the nonzero invariant
    factors of L over Q[eps], computed by sympy with no code shared."""
    sympy = pytest.importorskip("sympy")
    from sympy.matrices.normalforms import invariant_factors

    family = load(path)
    assert family.exact
    e = sympy.symbols("e")

    def entry(i, j):
        return sum(
            sympy.Rational(x.numerator, x.denominator) * e**p
            for p in range(family.degree + 1)
            for x in [family.coefficient(p).entries[i][j]]
        )

    matrix = sympy.Matrix(family.rows, family.cols, entry)
    factors = invariant_factors(matrix, domain=sympy.QQ[e])
    valuations = sorted(
        sympy.Poly(f, e).monoms()[-1][0] for f in factors if f != 0
    )
    assert list(analyze(family).smith_exponents()) == valuations
