"""JSON family parsing, the command-line driver, and report determinism."""

import collections
import contextlib
import gc
import io
import json
import os
import subprocess
import sys
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from localsmith import (
    FamilySpec,
    InputError,
    Mat,
    MatSeries,
    RecursionState,
    diagonalize,
    family_from_series,
    parse_complement_plan,
    parse_family,
    serialize_family,
    spec_to_series,
)
from localsmith.cli import main

from conftest import SMALL_FAMILIES
from reference import chain_vectors


DATA = os.path.join(os.path.dirname(__file__), "data", "example1.json")
REPORTS = os.path.join(os.path.dirname(__file__), "data", "reports")
COMMANDS = ("analyze", "diagonalize", "invert", "smith", "jordan", "linearize", "verify")
# Each command on the cubic, and invert under a given complement plan.
GARBAGE_RUNS = {
    **{name: [name, DATA] for name in COMMANDS},
    "jordan": ["jordan", DATA, "--length", "3"],
    "invert-given": [
        "invert", DATA, "--complement", f"given:{os.path.join(REPORTS, 'plan_stage1.json')}"
    ],
}
# Each integer flag with its smallest allowed value.
INT_FLAGS = {"--order": 0, "--max-stages": 1, "--pole": 0, "--length": 1}
# Zero of some Unicode decimal digit blocks other than ASCII: Arabic-Indic,
# extended Arabic-Indic, Devanagari and fullwidth.
DIGIT_ZEROS = (0x660, 0x6F0, 0x966, 0xFF10)


def bad_integers(low: int):
    """Flag values that must be refused: below ``low`` (negatives included),
    non-ASCII digits, underscores between digits, and floats."""
    below = st.integers(max_value=low - 1).map(str)
    foreign = st.builds(
        lambda v, zero: str(v).translate({48 + d: zero + d for d in range(10)}),
        st.integers(low, 30),
        st.sampled_from(DIGIT_ZEROS),
    )
    underscored = st.integers(10, 300).map(lambda v: f"{str(v)[0]}_{str(v)[1:]}")
    floats = st.floats(allow_nan=False, allow_infinity=False).map(str)
    return st.one_of(below, foreign, underscored, floats)


def golden_text() -> str:
    with open(DATA, "r", encoding="utf-8") as handle:
        return handle.read()


def one_by_one(**fields) -> str:
    """The 1x1 family 1 + eps, with the given fields replaced."""
    obj = {
        "rows": 1, "cols": 1, "kind": "polynomial", "trunc_or_degree": 1,
        "coefficients": {"0": [["1"]], "1": [["1"]]},
    }
    obj.update(fields)
    return json.dumps(obj)


# Input files that must be refused with exit code 1, by placeholder name.
# JSON true is a Python bool and so an int; each true below would otherwise
# read as 1 and run.
BAD_FILES = {
    # Stated degree 1, but the degree-1 coefficient is zero.
    "<degree-0 family>": (
        '{"rows": 2, "cols": 2, "kind": "polynomial", "trunc_or_degree": 1,'
        ' "coefficients": {"0": [["1","0"],["0","0"]], "1": [["0","0"],["0","0"]]}}'
    ),
    "<rows true>": one_by_one(rows=True),
    "<cols true>": one_by_one(cols=True),
    "<trunc true>": one_by_one(trunc_or_degree=True),
    "<pole true>": one_by_one(declared_pole=True),
    # Two spellings of one power, which parsing would otherwise sum.
    "<power twice>": one_by_one(coefficients={"0": [["1"]], "1": [["1"]], "+1": [["1"]]}),
    # Power keys that Python's int() reads as 10 and as 1.
    "<key 1_0>": one_by_one(trunc_or_degree=10, coefficients={"0": [["1"]], "1_0": [["1"]]}),
    "<key arabic digit>": one_by_one(coefficients={"0": [["1"]], " \u0661 ": [["1"]]}),
    "<stages 5>": '{"stages": 5}',
    "<stages null>": '{"stages": null}',
    "<stage true>": json.dumps(
        {"stages": [{"stage": True, "domain_complement": [["1"], ["1"], ["0"]]}]}
    ),
}


def child_env() -> dict:
    """The environment of a child interpreter that imports this checkout."""
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    path = [src, os.environ.get("PYTHONPATH")]
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))


# The CLI in a child that caps its own address space at 1 GiB.
CAPPED_CLI = (
    "import resource, sys\n"
    "from localsmith.cli import main\n"
    "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
    "sys.exit(main(sys.argv[1:]))\n"
)


ROUND_TRIP = settings(max_examples=40, deadline=None, derandomize=True, database=None)


@st.composite
def family_specs(draw, kind, pole, rows, cols):
    """A valid spec: distinct powers in [-pole, top], each with a nonzero
    coefficient (serialization leaves zero ones out), and -pole among them."""
    top = draw(st.integers(0, 3))
    powers = draw(st.sets(st.integers(-pole, top), max_size=4)) | ({-pole} if pole else set())
    entry = st.fractions(min_value=-9, max_value=9, max_denominator=5)
    grid = st.lists(st.lists(entry, min_size=cols, max_size=cols), min_size=rows, max_size=rows)
    coefficients = tuple(
        (power, Mat(draw(grid.filter(lambda g: any(x for row in g for x in row)))))
        for power in sorted(powers)
    )
    return FamilySpec(rows, cols, kind, top, pole, coefficients)


SPEC_SHAPES = pytest.mark.parametrize(
    "kind, pole, rows, cols",
    [
        ("polynomial", 0, 2, 2),
        ("truncated_series", 0, 1, 3),
        ("polynomial", 2, 3, 2),
        ("truncated_series", 1, 2, 3),
    ],
)


def listed_series(spec: FamilySpec):
    """The normalized family built block by block: every power from 0
    through trunc_or_degree + declared_pole, zero where none is given."""
    coeffs = [Mat.zeros(spec.rows, spec.cols)] * (spec.trunc_or_degree + spec.declared_pole + 1)
    for power, m in spec.coefficients:
        coeffs[power + spec.declared_pole] = m
    return MatSeries(coeffs, exact=spec.kind == "polynomial")


class TestParseFamily:
    @SPEC_SHAPES
    @ROUND_TRIP
    @given(data=st.data())
    def test_round_trip_property(self, kind, pole, rows, cols, data):
        spec = data.draw(family_specs(kind, pole, rows, cols))
        assert parse_family(serialize_family(spec)) == spec

    @SPEC_SHAPES
    @ROUND_TRIP
    @given(data=st.data())
    def test_spec_to_series_property(self, kind, pole, rows, cols, data):
        # A truncation keeps its trailing zero blocks through its order.
        spec = data.draw(family_specs(kind, pole, rows, cols))
        family = spec_to_series(spec)
        assert type(family) is MatSeries
        assert family == listed_series(spec)

    def test_golden_file(self):
        spec = parse_family(golden_text())
        assert (spec.rows, spec.cols) == (3, 3)
        assert spec.kind == "polynomial"
        assert spec.trunc_or_degree == 3
        family = spec_to_series(spec)
        assert family.exact
        assert family.degree == 3
        assert family.coefficient(0).entries[0][0] == 1

    def test_round_trip_canonical(self):
        spec = parse_family(golden_text())
        text = serialize_family(spec)
        again = parse_family(text)
        assert again == spec
        assert serialize_family(again) == text

    def test_series_to_spec_round_trip(self):
        spec = parse_family(golden_text())
        series = spec_to_series(spec)
        rebuilt = family_from_series(series)
        assert rebuilt == spec
        assert spec_to_series(rebuilt) == series

    def test_malformed_rational(self):
        bad = golden_text().replace('"1", "0", "0"', '"2/0", "0", "0"', 1)
        with pytest.raises(InputError, match="malformed rational"):
            parse_family(bad)

    def test_duplicate_power(self):
        # A raw string is the only way to smuggle a duplicated JSON key in.
        raw = (
            '{"rows": 2, "cols": 2, "kind": "polynomial", "trunc_or_degree": 1,'
            ' "coefficients": {"0": [["1","0"],["0","1"]], "0": [["1","0"],["0","1"]]}}'
        )
        with pytest.raises(InputError, match="duplicate"):
            parse_family(raw)

    def test_unknown_field_rejected(self):
        obj = json.loads(golden_text())
        obj["comment"] = "hi"
        with pytest.raises(InputError, match="unknown fields"):
            parse_family(json.dumps(obj))

    def test_negative_power_without_pole(self):
        raw = (
            '{"rows": 1, "cols": 1, "kind": "polynomial", "trunc_or_degree": 1,'
            ' "coefficients": {"-1": [["1"]]}}'
        )
        with pytest.raises(InputError, match="negative power"):
            parse_family(raw)

    def test_declared_pole_allows_negative_powers(self):
        raw = (
            '{"rows": 1, "cols": 1, "kind": "polynomial", "trunc_or_degree": 1,'
            ' "declared_pole": 1, "coefficients": {"-1": [["1"]]}}'
        )
        spec = parse_family(raw)
        family = spec_to_series(spec)
        # eps^1 * (eps^-1) = the constant family.
        assert family.coefficient(0).entries[0][0] == 1

    def test_shape_mismatch(self):
        raw = (
            '{"rows": 2, "cols": 2, "kind": "polynomial", "trunc_or_degree": 0,'
            ' "coefficients": {"0": [["1","0"]]}}'
        )
        with pytest.raises(InputError, match="expected 2 rows"):
            parse_family(raw)

    def test_float_entry_rejected(self):
        raw = (
            '{"rows": 1, "cols": 1, "kind": "polynomial", "trunc_or_degree": 0,'
            ' "coefficients": {"0": [[0.5]]}}'
        )
        with pytest.raises(InputError, match="float"):
            parse_family(raw)

    def test_power_outside_range(self):
        raw = (
            '{"rows": 1, "cols": 1, "kind": "polynomial", "trunc_or_degree": 1,'
            ' "coefficients": {"5": [["1"]]}}'
        )
        with pytest.raises(InputError, match="outside the allowed range"):
            parse_family(raw)


FAMILY_FILES = [os.path.join(os.path.dirname(DATA), name) for name in SMALL_FAMILIES]

# Entry spellings outside the grammar [+-]?digits or [+-]?digits/digits,
# as raw JSON text: each replaces the constant entry of 1 + eps.
REFUSED_ENTRIES = {
    "decimal": '"1.5"',
    "exponent": '"1e3"',
    "huge-exponent": '"1e400000"',
    "underscore": '"3_000"',
    "whitespace": '" 3 "',
    "non-ascii-digit": json.dumps("\u0663"),
    "zero-denominator": '"1/0"',
    "negative-denominator": '"1/-2"',
    "long-string": '"' + "9" * 5000 + '"',
    "long-number": "9" * 5000,
}

# Each refused family or complement file: its bytes (None: no file at the
# path) and the first stderr line, with {path} the path, {file} "" or
# "complement file " and {is_} "" or "is ". The last three apply to
# complement files only.
REFUSED_FILES = {
    "missing": (
        None, "error: cannot read {file}{path}: [Errno 2] No such file or directory: '{path}'"
    ),
    "non-utf8": (
        b"\xff\xfe{}",
        "error: cannot read {file}{path}: 'utf-8' codec can't decode byte 0xff"
        " in position 0: invalid start byte",
    ),
    "malformed": (
        b'{"rows": 1,',
        "error: {file}{is_}not valid JSON: Expecting property name enclosed in"
        " double quotes: line 1 column 12 (char 11)",
    ),
    "list": (b"[]", 'error: complement file must be {{"stages": [...]}}'),
    "stages-number": (b'{"stages": 5}', 'error: complement file must be {{"stages": [...]}}'),
    "extra-key": (
        b'{"stages": [], "extra": 1}', 'error: complement file must be {{"stages": [...]}}'
    ),
}


class TestEntryGrammar:
    @pytest.mark.parametrize("path", FAMILY_FILES, ids=os.path.basename)
    def test_data_files_round_trip(self, path):
        with open(path, "r", encoding="utf-8") as handle:
            spec = parse_family(handle.read())
        assert parse_family(serialize_family(spec)) == spec

    @pytest.mark.parametrize("pole", [0, 3])
    @pytest.mark.parametrize("path", FAMILY_FILES, ids=os.path.basename)
    def test_data_files_series(self, path, pole):
        with open(path, "r", encoding="utf-8") as handle:
            spec = parse_family(handle.read())
        spec = replace(spec, declared_pole=spec.declared_pole + pole)
        assert spec_to_series(spec) == listed_series(spec)

    @pytest.mark.parametrize("entry", REFUSED_ENTRIES.values(), ids=list(REFUSED_ENTRIES))
    def test_refused_entry_is_exit_one(self, entry, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(one_by_one().replace('"0": [["1"]]', f'"0": [[{entry}]]'))
        assert main(["analyze", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "Traceback" not in err
        if entry.startswith('"'):
            assert "malformed rational" in err
        # A long entry is echoed as a prefix and its length.
        assert len(err.splitlines()[0]) < 200

    def test_long_number_in_complement_file_is_exit_one(self, tmp_path, capsys):
        path = tmp_path / "plan.json"
        path.write_text('{"stages": [{"stage": 1, "domain_complement": [[' + "9" * 5000 + "]]}]}")
        assert main(["analyze", DATA, "--complement", f"given:{path}"]) == 1
        assert capsys.readouterr().err.startswith("error: complement file is not valid JSON")

    # Nesting far past the interpreter's recursion limit.
    DEEP = {"array": "[" * 100_000, "object": '{"a": ' * 100_000}

    @pytest.mark.parametrize("text", DEEP.values(), ids=list(DEEP))
    def test_deep_nesting_is_an_input_error(self, text):
        with pytest.raises(InputError, match="not valid JSON"):
            parse_family(text)
        with pytest.raises(InputError, match="not valid JSON"):
            parse_complement_plan(text)

    @pytest.mark.parametrize("file", ["family", "complement"])
    @pytest.mark.parametrize(
        "content, first",
        [(b"\xff\xfe{}", "error: cannot read "), (DEEP["array"].encode(), "error: ")],
        ids=["non-utf8", "deep"],
    )
    def test_unparsable_file_is_exit_one(self, file, content, first, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_bytes(content)
        argv = ["analyze", str(path)]
        if file == "complement":
            argv = ["analyze", DATA, "--complement", f"given:{path}"]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.splitlines()[0].startswith(first)
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "file, case",
        [("family", case) for case in ("missing", "non-utf8", "malformed")]
        + [("complement", case) for case in REFUSED_FILES],
    )
    def test_refused_file_first_stderr_line(self, file, case, tmp_path, capsys):
        content, first = REFUSED_FILES[case]
        path = tmp_path / "bad.json"
        if content is not None:
            path.write_bytes(content)
        argv = ["analyze", str(path)]
        if file == "complement":
            argv = ["analyze", DATA, "--complement", f"given:{path}"]
        assert main(argv) == 1
        name, is_ = ("complement file ", "is ") if file == "complement" else ("", "")
        expected = first.format(path=path, file=name, is_=is_)
        assert capsys.readouterr().err.splitlines()[0] == expected

    def test_result_past_the_int_string_limit_is_rendered_in_full(self, tmp_path, capsys):
        """The inverse of a + eps, a = 10^400 - 1, has eps^12 coefficient
        1/a^13, whose denominator has 5,200 digits."""
        a = 10**400 - 1
        path = tmp_path / "big.json"
        path.write_text(one_by_one(coefficients={"0": [[str(a)]], "1": [["1"]]}))
        limit = sys.get_int_max_str_digits()
        for command in ("diagonalize", "invert", "smith"):
            for fmt in ("json", "text"):
                assert main([command, str(path), "--format", fmt]) == 0
        capsys.readouterr()
        code, out = run_cli(capsys, "invert", str(path))
        assert code == 0
        top = json.loads(out)["coefficients"][-1]
        assert top["power"] == 12
        num, den = top["matrix"][0][0].split("/")
        assert num == "1" and len(den) == 5200
        # Read the digits back in chunks under the interpreter's limit.
        value = 0
        for start in range(0, len(den), 1000):
            chunk = den[start : start + 1000]
            value = value * 10 ** len(chunk) + int(chunk)
        assert value == a**13
        assert sys.get_int_max_str_digits() == limit

    def test_no_fraction_per_entry_in_parse_and_render(self, monkeypatch, capsys):
        """Parsing the golden cubic and rendering its diagonalize report
        build no Fraction; the engine runs before the count starts."""
        from fractions import Fraction

        with open(DATA, "r", encoding="utf-8") as handle:
            result = diagonalize(spec_to_series(parse_family(handle.read())))
        _ = result.phi_inv, result.psi_inv  # built before the count starts
        monkeypatch.setattr("localsmith.cli.diagonalize", lambda family, **kwargs: result)
        made, new = [], Fraction.__new__

        def counted(cls, *args, **kwargs):
            made.append(args)
            return new(cls, *args, **kwargs)

        monkeypatch.setattr(Fraction, "__new__", counted)
        code, out = run_cli(capsys, "diagonalize", DATA)
        monkeypatch.undo()
        assert code == 0
        assert made == []
        with open(os.path.join(REPORTS, "cubic-diagonalize.out"), "r", encoding="utf-8") as handle:
            assert handle.read() == f"exit: {code}\n{out}"


def nonzero_terms(listing: list[dict]) -> list[dict]:
    """The terms of a report's (power, matrix) listing with a nonzero matrix."""
    return [item for item in listing if any(x != "0" for row in item["matrix"] for x in row)]


def run_cli(capsys, *argv) -> tuple[int, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


class TestCommands:
    def test_analyze_golden(self, capsys):
        code, out = run_cli(capsys, "analyze", DATA)
        assert code == 0
        report = json.loads(out)
        assert report["stabilization_index"] == 3
        assert report["generic_rank"] == 3
        dims = [(st["dim_complement"], st["dim_range"]) for st in report["stages"]]
        assert dims == [(1, 1), (1, 1), (0, 0), (1, 1)]
        assert report["smith_exponents"] == [0, 1, 3]
        assert report["tail"]["kernel"]["dim"] == 0

    def test_diagonalize_golden(self, capsys):
        code, out = run_cli(capsys, "diagonalize", DATA, "--order", "12")
        assert code == 0
        report = json.loads(out)
        assert report["verification"]["exact"] is True
        assert report["verification"]["checked_through_order"] == 12
        delta = {item["power"]: item["matrix"] for item in report["delta"]}
        assert delta[0] == [["1", "0", "0"], ["0", "0", "0"], ["0", "0", "0"]]
        assert delta[1] == [["0", "0", "0"], ["0", "0", "1"], ["0", "0", "0"]]
        assert delta[3] == [["0", "0", "0"], ["0", "0", "0"], ["0", "-1", "0"]]
        psi1 = report["psi"][1]["matrix"]
        assert psi1 == [["0", "0", "0"], ["0", "0", "0"], ["0", "1", "0"]]

    def test_invert_golden(self, capsys):
        code, out = run_cli(capsys, "invert", DATA)
        assert code == 0
        report = json.loads(out)
        assert report["pole_order"] == 3
        leading = report["coefficients"][0]
        assert leading["power"] == -3
        assert leading["matrix"][1][2] == "-1"
        assert report["verification"]["exact"] is True

    def test_jordan_golden(self, capsys):
        code, out = run_cli(capsys, "jordan", DATA, "--length", "3")
        assert code == 0
        report = json.loads(out)
        assert report["stage_kernel_dims"] == [2, 1, 1]
        assert report["nullspace_dim"] == 4
        assert len(report["chains"]) == 1
        assert report["chains"][0]["root"] == ["0", "1", "0"]
        with open(DATA, encoding="utf-8") as handle:
            family = spec_to_series(parse_family(handle.read()))
        chains = RecursionState(family).jordan_chains(3)
        reported = [chain["vectors"] for chain in report["chains"]]
        assert reported == chain_vectors(chains, 3)

    def test_smith_golden(self, capsys):
        code, out = run_cli(capsys, "smith", DATA)
        assert code == 0
        report = json.loads(out)
        assert report["exponents"] == [0, 1, 3]
        assert report["verification"]["exact"] is True
        smith = {item["power"]: item["matrix"] for item in report["smith_form"]}
        assert smith[0] == [["1", "0", "0"], ["0", "0", "0"], ["0", "0", "0"]]
        assert smith[3] == [["0", "0", "0"], ["0", "1", "0"], ["0", "0", "0"]]

    def test_linearize_golden(self, capsys):
        code, out = run_cli(capsys, "linearize", DATA)
        assert code == 0
        report = json.loads(out)
        assert report["degree"] == 3
        assert report["k"] == 3
        assert report["k_pencil"] == 1
        assert report["bound_holds"] is True

    def test_verify_golden(self, capsys):
        code, out = run_cli(capsys, "verify", DATA)
        assert code == 0
        report = json.loads(out)
        assert report["all_passed"] is True
        statuses = {check["name"]: check["status"] for check in report["checks"]}
        assert statuses["laurent-oracle"] == "pass"
        assert statuses["toeplitz-kernel-dims"] == "pass"
        assert "resolvent-recurrences" not in statuses

    def test_verify_failure_is_exit_three(self, capsys, monkeypatch):
        import localsmith.verify as verify_module

        def bogus_dims(family, length):
            return [0] * length

        monkeypatch.setattr(verify_module, "toeplitz_kernel_dims", bogus_dims)
        code = main(["verify", DATA])
        report = json.loads(capsys.readouterr().out)
        assert code == 3
        assert report["all_passed"] is False
        statuses = {check["name"]: check["status"] for check in report["checks"]}
        assert statuses["toeplitz-kernel-dims"] == "fail"

    def test_smith_failure_is_exit_three(self, capsys, monkeypatch):
        from localsmith import DiagonalizationResult, Mat

        factorization = DiagonalizationResult.smith_factorization

        def p_is_identity(result):
            # P(eps) = I in place of the ledger's P_1 + eps P_2 + eps^3 P_4.
            s_p, _ = factorization(result)
            return s_p, ((0, Mat.identity(3)),)

        monkeypatch.setattr(DiagonalizationResult, "smith_factorization", p_is_identity)
        code = main(["smith", DATA])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out == ""
        assert "S_P * P(eps) differs from delta" in captured.err

    def test_text_format(self, capsys):
        code, out = run_cli(capsys, "diagonalize", DATA, "--format", "text", "--order", "4")
        assert code == 0
        assert "smith exponents: [0, 1, 3]" in out
        assert "-eps^3" in out

    def test_deterministic_output(self, capsys):
        _, first = run_cli(capsys, "diagonalize", DATA, "--order", "8")
        _, second = run_cli(capsys, "diagonalize", DATA, "--order", "8")
        assert first == second

    @pytest.mark.parametrize("name", GARBAGE_RUNS)
    def test_no_command_leaves_cyclic_garbage(self, name, capsys):
        """Reference counting alone frees what a command builds: after a
        warm-up call, a call with the collector off leaves no object of the
        package for a collection to find unreachable."""
        argv = GARBAGE_RUNS[name]
        assert run_cli(capsys, *argv)[0] == 0
        gc.collect()
        gc.disable()
        try:
            run_cli(capsys, *argv)
            gc.set_debug(gc.DEBUG_SAVEALL)
            gc.collect()
            ours = collections.Counter(
                type(obj).__qualname__
                for obj in gc.garbage
                if type(obj).__module__.startswith("localsmith")
            )
        finally:
            gc.set_debug(0)
            gc.garbage.clear()
            gc.enable()
        assert not ours


class TestExitCodes:
    def test_missing_file(self, capsys):
        code = main(["analyze", "/nonexistent/family.json"])
        assert code == 1

    def test_bad_json(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert main(["analyze", str(path)]) == 1

    def test_budget_exceeded_is_exit_two(self, capsys):
        code = main(["analyze", DATA, "--max-stages", "2"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: stage budget exceeded: no stabilization certificate")

    def test_range_past_stabilization_is_exit_three(self, capsys, monkeypatch):
        from localsmith import RecursionState

        stabilize = RecursionState.run_until_stabilized

        def lowered(state):
            k = stabilize(state)
            state.generic_rank -= 1
            return k

        monkeypatch.setattr(RecursionState, "run_until_stabilized", lowered)
        code = main(["analyze", DATA])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out == ""
        assert "exceeds generic rank 2" in captured.err

    def test_jordan_length_past_budget_is_exit_two(self, capsys):
        code = main(["jordan", DATA, "--length", "4", "--max-stages", "1"])
        err = capsys.readouterr().err
        assert code == 2
        assert any(line.startswith("error: ") for line in err.splitlines())
        assert err.startswith("error: stage budget exceeded: chains of length 4")
        assert "stabilization" not in err

    PLAN_COMMANDS = [
        ["analyze"], ["diagonalize"], ["invert"], ["smith"], ["verify"], ["linearize"],
        ["jordan", "--length", "2"],
    ]

    @pytest.mark.parametrize("command", PLAN_COMMANDS, ids=lambda c: c[0])
    def test_late_plan_stage_is_validated_by_every_command(self, command, capsys):
        # plan_late_bad.json names stage 4 of rect3x2.json, past k + 1 and
        # past the two stages jordan --length 2 reads.
        plan = "given:" + os.path.join(REPORTS, "plan_late_bad.json")
        code = main([command[0], os.path.join(REPORTS, "rect3x2.json"), *command[1:],
                     "--complement", plan])
        assert code == 1
        assert capsys.readouterr().err.startswith("error: stage 4 ")

    @pytest.mark.parametrize("command", PLAN_COMMANDS, ids=lambda c: c[0])
    def test_plan_stage_past_budget_is_exit_two(self, command, tmp_path, capsys):
        path = tmp_path / "plan100.json"
        path.write_text('{"stages": [{"stage": 100, "codomain_complement": [["1"], ["0"], ["0"]]}]}')
        code = main([command[0], os.path.join(REPORTS, "rect3x2.json"), *command[1:],
                     "--complement", f"given:{path}"])
        assert code == 2
        assert capsys.readouterr().err.startswith(
            "error: stage budget exceeded: the complement plan names stage 100"
        )

    def test_truncation_limit_is_input_error(self, tmp_path, capsys):
        obj = json.loads(golden_text())
        obj["kind"] = "truncated_series"
        obj["trunc_or_degree"] = 2
        del obj["coefficients"]["3"]
        path = tmp_path / "trunc.json"
        path.write_text(json.dumps(obj))
        code = main(["diagonalize", str(path), "--order", "12"])
        captured = capsys.readouterr()
        assert code == 1
        assert "undetermined at this truncation" in captured.err

    def test_zero_family_rejected(self, tmp_path, capsys):
        raw = (
            '{"rows": 2, "cols": 2, "kind": "polynomial", "trunc_or_degree": 0,'
            ' "coefficients": {}}'
        )
        path = tmp_path / "zero.json"
        path.write_text(raw)
        assert main(["diagonalize", str(path)]) == 1

    @pytest.mark.parametrize(
        "argv",
        [
            ["analyze", DATA, "--order", "-1"],
            ["invert", DATA, "--order", "-2"],
            ["analyze", DATA, "--max-stages", "-5"],
            ["jordan", DATA, "--length", "2", "--max-stages", "-1"],
            ["analyze", DATA, "--format", "xml"],
            ["jordan", DATA],
            ["linearize", "<degree-0 family>"],
            ["analyze", "<rows true>"],
            ["analyze", "<cols true>"],
            ["analyze", "<trunc true>"],
            ["analyze", "<pole true>"],
            ["analyze", "<power twice>"],
            ["analyze", "<key 1_0>"],
            ["analyze", "<key arabic digit>"],
            ["analyze", DATA, "--complement", "given:<stages 5>"],
            ["analyze", DATA, "--complement", "given:<stages null>"],
            ["analyze", DATA, "--complement", "given:<stage true>"],
            ["analyze", DATA, "--order", "1_0"],
            ["analyze", DATA, "--order", "\u0663"],
            ["analyze", DATA, "--max-stages", "\u0661"],
            ["smith", DATA, "--pole", "\u0661"],
            ["jordan", DATA, "--length", "\u0662"],
            ["linearize", DATA, "--complement", "bogus"],
            ["linearize", DATA, "--complement", "given:" + os.path.join(REPORTS, "missing.json")],
            ["jordan", DATA, "--length", "2", "--order", "5"],
            ["linearize", DATA, "--order", "5"],
        ],
        ids=[
            "negative-order",
            "invert-negative-order",
            "negative-max-stages",
            "jordan-negative-max-stages",
            "unknown-format",
            "jordan-without-length",
            "linearize-degree-0",
            "rows-true",
            "cols-true",
            "trunc-true",
            "pole-true",
            "power-twice",
            "power-key-underscore",
            "power-key-non-ascii",
            "complement-stages-int",
            "complement-stages-null",
            "complement-stage-true",
            "order-underscore",
            "order-non-ascii",
            "max-stages-non-ascii",
            "pole-non-ascii",
            "length-non-ascii",
            "linearize-unknown-complement",
            "linearize-missing-complement-file",
            "jordan-order",
            "linearize-order",
        ],
    )
    def test_bad_input_is_exit_one(self, argv, tmp_path, capsys):
        for i, (name, text) in enumerate(BAD_FILES.items()):
            path = tmp_path / f"bad{i}.json"
            path.write_text(text)
            argv = [a.replace(name, str(path)) for a in argv]
        code = main(argv)
        err = capsys.readouterr().err
        assert code == 1
        assert any(line.startswith("error: ") for line in err.splitlines())

    @pytest.mark.parametrize(
        "path, order",
        [
            (DATA, "2"),
            (os.path.join(REPORTS, "dense6x6.json"), "0"),
            (os.path.join(REPORTS, "rect2x3.json"), "0"),
            (os.path.join(REPORTS, "trunc2x2.json"), "1"),
        ],
        ids=["example1-order-2", "dense6x6-order-0", "rect2x3-order-0", "trunc2x2-order-1"],
    )
    def test_verify_at_shallow_order_passes(self, path, order, capsys):
        # Each order leaves a truncated product whose stored blocks are all
        # zero; smith-identities must not read a coefficient past it. The
        # blow-up product has pole k and is valid only through order - k, so
        # at these orders (all below k) its eps^0 coefficient S_P is never
        # compared, and the detail must not claim it.
        code, out = run_cli(capsys, "verify", path, "--order", order)
        assert code == 0
        report = json.loads(out)
        assert report["all_passed"] is True
        check = {c["name"]: c for c in report["checks"]}["smith-identities"]
        assert check["detail"] == (
            "factorization identities exact; "
            f"blow-up identity not reached at order {order}"
        )

    @pytest.mark.parametrize(
        "command, flag",
        [(c, f) for c in COMMANDS for f in INT_FLAGS if f != "--length" or c == "jordan"],
    )
    @settings(max_examples=25, deadline=None, derandomize=True, database=None)
    @given(data=st.data())
    def test_bad_integer_flag_property(self, command, flag, data):
        value = data.draw(bad_integers(INT_FLAGS[flag]))
        argv = [command, DATA, f"{flag}={value}"]
        if command == "jordan" and flag != "--length":
            argv += ["--length", "1"]
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(argv)
        assert code == 1
        assert any(line.startswith("error: ") for line in err.getvalue().splitlines())

    @pytest.mark.parametrize("command", ["analyze", "diagonalize"])
    def test_closed_stdout_is_exit_one_without_traceback(self, command):
        # The reader's end of the pipe is closed before the CLI starts, so
        # its first write of the report fails, as under ``| head -c 100``.
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "localsmith.cli", command,
                 os.path.join(REPORTS, "smith4x4k8.json")],
                stdout=write_end, stderr=subprocess.PIPE, env=child_env(), timeout=120,
            )
        finally:
            os.close(write_end)
        assert proc.returncode == 1
        assert proc.stderr == b""

    @pytest.mark.parametrize("frame", ["pole", "truncation"])
    def test_frame_too_large_is_exit_one_without_traceback(self, frame, tmp_path):
        # eps^p L with p = 10^9, and a 1x1 truncation through order 10^9:
        # each asks for 10^9 coefficient blocks, past the child's 1 GiB cap.
        if frame == "pole":
            argv = ["analyze", os.path.join(REPORTS, "smith4x4k8.json"), "--pole", str(10**9)]
        else:
            path = tmp_path / "huge.json"
            path.write_text(one_by_one(kind="truncated_series", trunc_or_degree=10**9))
            argv = ["analyze", str(path)]
        proc = subprocess.run(
            [sys.executable, "-c", CAPPED_CLI, *argv],
            capture_output=True, env=child_env(), timeout=120,
        )
        assert proc.returncode == 1
        assert proc.stdout == b""
        err = proc.stderr.decode()
        assert err.startswith("error: out of memory")
        assert len(err.splitlines()) == 1 and "Traceback" not in err


# The 2x2 family eps^-1 I, with its declared pole.
EPS_INVERSE_IDENTITY = (
    '{"rows": 2, "cols": 2, "kind": "polynomial", "trunc_or_degree": 0,'
    ' "declared_pole": 1,'
    ' "coefficients": {"-1": [["1","0"],["0","1"]]}}'
)


class TestMeromorphicNormalization:
    def test_declared_pole_folds_into_inverse(self, tmp_path, capsys):
        path = tmp_path / "mero.json"
        path.write_text(EPS_INVERSE_IDENTITY)
        code, out = run_cli(capsys, "invert", str(path))
        assert code == 0
        report = json.loads(out)
        # M = eps^-1 I, so the inverse is eps I: no pole, linear coefficient I.
        assert report["pole_order"] == 0
        by_power = {item["power"]: item["matrix"] for item in report["coefficients"]}
        assert by_power[1] == [["1", "0"], ["0", "1"]]

    def test_declared_pole_folds_into_exponents(self, tmp_path, capsys):
        path = tmp_path / "mero.json"
        path.write_text(EPS_INVERSE_IDENTITY)
        # M = eps^-1 I: the recursion runs on I, with k = 0.
        for command, key in (("analyze", "smith_exponents"), ("smith", "exponents")):
            code, out = run_cli(capsys, command, str(path))
            assert code == 0
            report = json.loads(out)
            assert report["stabilization_index"] == 0
            assert report[key] == [-1, -1]
        code, out = run_cli(capsys, "diagonalize", str(path))
        assert [item["power"] for item in json.loads(out)["delta"]] == [-1]

    def test_pole_flag_override(self, tmp_path, capsys):
        raw = (
            '{"rows": 1, "cols": 1, "kind": "polynomial", "trunc_or_degree": 1,'
            ' "coefficients": {"1": [["1"]]}}'
        )
        path = tmp_path / "plain.json"
        path.write_text(raw)
        code, out = run_cli(capsys, "invert", str(path), "--pole", "0")
        assert code == 0
        assert json.loads(out)["pole_order"] == 1

    def test_pole_flag_below_a_negative_power_is_input_error(self, tmp_path, capsys):
        path = tmp_path / "mero.json"
        path.write_text(EPS_INVERSE_IDENTITY)
        assert main(["analyze", str(path), "--pole", "0"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "power -1 below the overridden pole 0" in captured.err

    @pytest.mark.parametrize(
        "path", [DATA, os.path.join(REPORTS, "smith4x4.json")], ids=["example1", "smith4x4"]
    )
    def test_pole_flag_keeps_the_frame_of_the_input(self, path, capsys):
        # With no negative powers, --pole p names the same family L; the
        # recursion runs on eps^p L, and every reported exponent and pole
        # order is that of L.
        def read(*argv):
            code, out = run_cli(capsys, *argv)
            assert code == 0
            return json.loads(out)

        exponents = read("analyze", path)["smith_exponents"]
        smith = read("smith", path)
        pole_order = read("invert", path)["pole_order"]
        for pole in range(4):
            flags = ["--pole", str(pole)]
            assert read("analyze", path, *flags)["smith_exponents"] == exponents
            shifted = read("smith", path, *flags)
            assert shifted["exponents"] == smith["exponents"] == exponents
            assert nonzero_terms(shifted["smith_form"]) == nonzero_terms(smith["smith_form"])
            inverse = read("invert", path, *flags)
            assert inverse["pole_order"] == pole_order
            # The checked orders are L's too: invert's is its last listed
            # power, and diagonalize --order T, which proves eps^p L through
            # T, proves L through T - p.
            last = inverse["coefficients"][-1]["power"]
            assert inverse["verification"]["checked_through_order"] == last
            proven = read("diagonalize", path, "--order", "9", *flags)["verification"]
            assert proven["checked_through_order"] == 9 - pole

    def test_pole_flag_keeps_the_inverse_of_a_truncation(self, capsys):
        # trunc2x2 is cut at order 6 with k = 2. Under --pole p the recursion
        # runs on eps^p L, cut at 6 + p with k = 2 + p, so its default cap
        # 6 + p - 2(2 + p) = 2 - p falls below zero from p = 3 on, yet it
        # stays at or above -(2 + p): L^+ is determined from eps^-2 through
        # eps^2 at every pole.
        path = os.path.join(REPORTS, "trunc2x2.json")
        listed = []
        for pole in range(7):
            code, out = run_cli(capsys, "invert", path, "--pole", str(pole))
            assert code == 0, pole
            report = json.loads(out)
            listed.append((report["pole_order"], report["coefficients"]))
        assert listed[0][0] == 2
        assert [item["power"] for item in listed[0][1]] == [-2, -1, 0, 1, 2]
        assert listed == [listed[0]] * 7


class TestGivenComplements:
    def test_complement_file_round(self, tmp_path, capsys):
        plan = {
            "stages": [
                {
                    "stage": 1,
                    "domain_complement": [["1"], ["1"], ["0"]],
                    "codomain_complement": [["1", "0"], ["1", "0"], ["0", "1"]],
                }
            ]
        }
        path = tmp_path / "plan.json"
        path.write_text(json.dumps(plan))
        code, out = run_cli(capsys, "analyze", DATA, "--complement", f"given:{path}")
        assert code == 0
        report = json.loads(out)
        assert report["stabilization_index"] == 3
        assert report["smith_exponents"] == [0, 1, 3]
        assert report["stages"][0]["complement"]["basis"] == [["1"], ["1"], ["0"]]

    @pytest.mark.parametrize(
        "stages, message",
        [
            # Both bases complement N_1; a second entry must not replace the first.
            (
                [
                    {"stage": 1, "domain_complement": [["1"], ["0"], ["0"]]},
                    {"stage": 1, "domain_complement": [["1"], ["0"], ["1"]]},
                ],
                "error: duplicate stage 1",
            ),
            # An entry that names no basis is not kept, but it still names its stage.
            (
                [{"stage": 1}, {"stage": 1, "domain_complement": [["1"], ["0"], ["0"]]}],
                "error: duplicate stage 1",
            ),
            (
                [{"stage": 1, "domain_complement": ["1", "0", "0"]}],
                "error: stage 1 domain_complement: row 0 is not a list",
            ),
        ],
        ids=["stage-twice", "stage-twice-first-unnamed", "row-not-a-list"],
    )
    def test_malformed_plan_is_exit_one(self, stages, message, tmp_path, capsys):
        path = tmp_path / "plan.json"
        path.write_text(json.dumps({"stages": stages}))
        assert main(["analyze", DATA, "--complement", f"given:{path}"]) == 1
        assert capsys.readouterr().err.splitlines() == [message]

    def test_bad_strategy_string(self, capsys):
        assert main(["analyze", DATA, "--complement", "sideways"]) == 1

    def test_invalid_complement_basis_is_input_error(self, tmp_path, capsys):
        # sp(e2) is inside the stage-1 kernel, so it cannot complement it.
        plan = {"stages": [{"stage": 1, "domain_complement": [["0"], ["1"], ["0"]]}]}
        path = tmp_path / "bad_plan.json"
        path.write_text(json.dumps(plan))
        code = main(["analyze", DATA, "--complement", f"given:{path}"])
        captured = capsys.readouterr()
        assert code == 1
        assert "stage 1" in captured.err

    def test_given_complement_outside_the_kernel_chain_is_input_error(self, tmp_path, capsys):
        # sp(e1 + e3) at stage 2 has dim R_2 = 1 and S_2 maps it to a nonzero
        # vector, but e1 + e3 leaves N_1, so it cannot complement N_2 in N_1.
        basis = Mat([[1], [0], [1]])
        with open(DATA, "r", encoding="utf-8") as handle:
            state = RecursionState(spec_to_series(parse_family(handle.read())))
        state.ensure_stages(2)
        stage = state.stage(2)
        assert stage.r.dim == 1 and not (stage.s @ basis).is_zero()
        assert not state.kernel_chain(1).contains(basis)
        plan = {"stages": [{"stage": 2, "domain_complement": [["1"], ["0"], ["1"]]}]}
        path = tmp_path / "bad_plan.json"
        path.write_text(json.dumps(plan))
        code = main(["analyze", DATA, "--complement", f"given:{path}"])
        assert code == 1
        assert "stage 2" in capsys.readouterr().err
