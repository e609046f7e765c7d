"""The verify checks run from the library give the records of the CLI reports."""

import json
import os
from functools import partial

import pytest
from hypothesis import given, settings

from localsmith import (
    Mat,
    RecursionState,
    diagonalize,
    parse_complement_plan,
    parse_family,
    spec_to_series,
)
from localsmith import cli
from localsmith.cli import main
from localsmith.oracles import direct_laurent_inverse
from localsmith.verify import CHECKS, run_check

from conftest import DIGEST_FAMILIES, SMALL_FAMILIES, smith_families
from reference import identity_series

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


def test_late_m_block_is_seen_only_by_post_stabilization_structure():
    """Rows of M past the family's degree + 1 meet a zero L coefficient in
    the coefficient identity; only the recomputing check sees them."""
    with open(FAMILIES["smith-verify"], "r", encoding="utf-8") as handle:
        result = diagonalize(spec_to_series(parse_family(handle.read())))
    assert (result.k, result.state.input_family.degree) == (7, 9)
    state = result.state
    block = state.m_block(12, 13)
    assert not block.is_zero()
    state.M_cols[12].blocks[11] = block * 2
    checks = {name: check for name, check in CHECKS}
    passed, detail = checks["post-stabilization-structure"](result)
    assert not passed
    assert detail == "M block (12,13) differs from the recurrence"
    assert checks["coefficient-identity"](result)[0]


@pytest.mark.parametrize("field", ["p", "calp"])
def test_wrong_projection_fails_projector_families(field):
    """P_1 or calP_1 less e1 e1^T keeps both projector families idempotent,
    so only L * left == L == right * L can see it."""
    with open(FAMILIES["cubic-verify"], "r", encoding="utf-8") as handle:
        result = diagonalize(spec_to_series(parse_family(handle.read())))
    stages = result.state.stages
    unit = Mat([[1, 0, 0], [0, 0, 0], [0, 0, 0]])
    if field == "p":
        result.projections[0] = result.projections[0] - unit
    else:
        stages[0] = stages[0]._replace(calp=stages[0].calp - unit)
    left, right = result.projector_families(result.order)
    assert (left @ left).eq_through(left, result.order)
    assert (right @ right).eq_through(right, result.order)
    passed, _ = dict(CHECKS)["projector-families"](result)
    assert not passed


def test_one_direct_inverse_per_verify(tmp_path, monkeypatch, capsys):
    """laurent-oracle builds one direct Laurent inverse of a square pencil
    of full generic rank, through the working order."""
    tails = []

    def counted(family, *args, **kwargs):
        tails.append(kwargs.get("tail"))
        return direct_laurent_inverse(family, *args, **kwargs)

    monkeypatch.setattr("localsmith.verify.direct_laurent_inverse", counted)
    # L(eps) = [[1, eps, 0], [0, eps, 0], [eps, 0, 1]], det L = eps.
    pencil = {
        "rows": 3, "cols": 3, "kind": "polynomial", "trunc_or_degree": 1,
        "coefficients": {
            "0": [["1", "0", "0"], ["0", "0", "0"], ["0", "0", "1"]],
            "1": [["0", "1", "0"], ["0", "1", "0"], ["1", "0", "0"]],
        },
    }
    path = tmp_path / "pencil.json"
    path.write_text(json.dumps(pencil))
    order = diagonalize(spec_to_series(parse_family(path.read_text()))).order
    assert main(["verify", str(path)]) == 0
    statuses = {c["name"]: c["status"] for c in json.loads(capsys.readouterr().out)["checks"]}
    assert statuses["laurent-oracle"] == "pass"
    assert tails == [order]


@pytest.mark.parametrize("case", sorted(FAMILIES))
def test_verify_forms_each_e_column_once(case, monkeypatch, capsys):
    """verify solves the E columns of the state it checks, each once,
    under the ledger's S_i^+, and only in post-stabilization-structure:
    triangular-system proves S_i^+ calP_i == S_i^+ and solves nothing. No
    other state, the linearization pencil's included, solves any."""
    formed, build = [], RecursionState._build_e_column
    check = dict(CHECKS)["post-stabilization-structure"]

    def building(self, j):
        formed.append((self, j, checking))
        return build(self, j)

    def structure(result):
        nonlocal checking
        checking = True
        try:
            return check(result)
        finally:
            checking = False

    checking = False
    monkeypatch.setattr(RecursionState, "_build_e_column", building)
    monkeypatch.setattr(
        cli,
        "CHECKS",
        [
            (name, structure if name == "post-stabilization-structure" else fn)
            for name, fn in CHECKS
        ],
    )
    assert main(["verify", FAMILIES[case]]) == 0
    assert json.loads(capsys.readouterr().out)["all_passed"]
    assert formed and all(inside for _, _, inside in formed)
    states = {id(state) for state, _, _ in formed}
    assert len(states) == 1
    # Later checks may run further stages; those columns are never read.
    columns = sorted(j for _, j, _ in formed)
    assert columns == list(range(1, len(columns) + 1))
    assert len(columns) <= formed[0][0].stage_count


@pytest.mark.parametrize(
    "path, limit",
    [(FAMILIES["cubic-verify"], 13), (os.path.join(REPORTS, "smith4x4k8.json"), 15)],
    ids=["example1", "smith4x4k8"],
)
def test_verify_eliminations(path, limit, monkeypatch, capsys):
    """toeplitz-kernel-dims reads every length's rank off one rref, the
    Jordan chains need no rank test and laurent-oracle eliminates without
    rref, so verify eliminates at most ``limit`` matrices (a cached rref is
    not counted)."""
    rref, fresh = Mat.rref, []

    def counted(self):
        if self._rref is None:
            fresh.append(self)
        return rref(self)

    monkeypatch.setattr(Mat, "rref", counted)
    assert main(["verify", path]) == 0
    assert json.loads(capsys.readouterr().out)["all_passed"] is True
    assert len(fresh) <= limit


@pytest.mark.parametrize("name", ["smith4x4k8", "dense6x6", "rect2x3"])
def test_triangular_system_products(name, monkeypatch):
    """triangular-system forms one product S_i^+ calP_i per stage, to prove
    it equal to S_i^+, and no other; smith4x4k8 has 29 stages. Every E
    column is formed before the count, so that it counts the check's own
    products only."""
    with open(os.path.join(REPORTS, f"{name}.json"), "r", encoding="utf-8") as handle:
        result = diagonalize(spec_to_series(parse_family(handle.read())))
    state = result.state
    count = state.stage_count
    if name == "smith4x4k8":
        assert count == 29
    for j in range(1, count + 1):
        state.e_block(j, j)
    sums, calls = Mat.sum_of_products, []

    def counted(pairs, rows, cols):
        calls.append(rows)
        return sums(pairs, rows, cols)

    monkeypatch.setattr(Mat, "sum_of_products", staticmethod(counted))
    assert dict(CHECKS)["triangular-system"](result)[0]
    assert len(calls) <= count


def assert_one_e_triangle(result):
    """S_i^+ calP_i == S_i^+ at every stage, so the bottom-up solve under
    S_i^+ is the system's, and the ledger's E blocks are that solve's
    blocks, zero where it has none. triangular-system rests on the
    identity, and post-stabilization-structure reads the ledger's blocks."""
    state = result.state
    for st in state.stages:
        assert st.splus @ st.calp == st.splus, st.index
    zero = Mat.zeros(state.domain_dim, state.domain_dim)
    for j in range(1, state.stage_count + 1):
        column = state._build_e_column(j)
        blocks = [column.get(i, zero) for i in range(1, j + 1)]
        assert [state.e_block(i, j) for i in range(1, j + 1)] == blocks


FAMILY_FILES = sorted(os.path.join(DATA, name) for name in SMALL_FAMILIES + DIGEST_FAMILIES)


@pytest.mark.parametrize("path", FAMILY_FILES, ids=os.path.basename)
def test_one_e_triangle_on_data_families(path):
    with open(path, "r", encoding="utf-8") as handle:
        assert_one_e_triangle(diagonalize(spec_to_series(parse_family(handle.read()))))


def test_one_e_triangle_with_given_complements():
    with open(FAMILIES["cubic-verify"], "r", encoding="utf-8") as handle:
        family = spec_to_series(parse_family(handle.read()))
    with open(os.path.join(REPORTS, "plan_stage1.json"), "r", encoding="utf-8") as handle:
        plan = parse_complement_plan(handle.read())
    assert_one_e_triangle(diagonalize(family, complements=plan))


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(smith_families())
def test_one_e_triangle_on_smith_families(family):
    assert_one_e_triangle(diagonalize(family))


# Each series of the result's store -> the checks that fail on example1 when
# I is added to its eps^1 coefficient.
CORRUPTION_FAILS = {
    "phi": {"projector-families"},
    "psi": {"diagonalization-residual", "projector-families"},
    "phi_inv": {"projector-families"},
    "psi_inv": {"smith-identities", "projector-families"},
    "l_phi": {"diagonalization-residual", "smith-identities"},
    "l_plus": {"generalized-inverse-axioms", "laurent-oracle"},
    "direct_inverse": {"laurent-oracle"},
}


@pytest.mark.parametrize("name, failing", sorted(CORRUPTION_FAILS.items()))
def test_corrupted_stored_series_fails_its_checks(name, failing):
    """Every series verify reads from the result's store is read by some
    check: I added to its eps^1 coefficient fails exactly these checks. The
    corruption comes after one full pass, which builds every series at the
    deepest order a check reads, so no later request rebuilds it."""
    with open(FAMILIES["cubic-verify"], "r", encoding="utf-8") as handle:
        result = diagonalize(spec_to_series(parse_family(handle.read())))

    def failed():
        records = [run_check(check, partial(fn, result)) for check, fn in CHECKS]
        return {r["name"] for r in records if r["status"] == "fail"}

    assert failed() == set()
    assert result._store.keys() == CORRUPTION_FAILS.keys()
    stored = result._store[name]
    result._store[name] = stored + identity_series(3).shift(1)
    assert failed() == failing


UNIT = Mat([[1, 0, 0], [0, 0, 0], [0, 0, 0]])


def _stage_fault(field):
    def fault(result):
        state = result.state
        stage = state.stages[1]
        state.stages[1] = stage._replace(**{field: getattr(stage, field) + UNIT})

    return fault


def _projection_fault(j):
    """P_j is the result's, formed with Delta before diagonalize's proof."""

    def fault(result):
        result.projections[j - 1] = result.projections[j - 1] + UNIT

    return fault


def _block_fault(blocks, i, j):
    def fault(result):
        column = getattr(result.state, blocks)[j - 1]
        column.blocks[i - 1] = column[i - 1] + UNIT

    return fault


def _e_block_fault(i, j):
    """E column j is solved on its first read and kept as its nonzero
    blocks by row: solve it, then fault the kept block."""

    def fault(result):
        state = result.state
        block = state.e_block(i, j)
        state.E_cols[j][i] = block + UNIT

    return fault


def _chain_fault(length):
    """Adds 1 to the first entry of the first chain of the given length."""

    def fault(result):
        state = result.state
        jordan_chains = state.jordan_chains

        def faulty(wanted):
            chains = jordan_chains(wanted)
            if wanted == length:
                bump = [[0] * chains.cols for _ in range(chains.rows)]
                bump[0][0] = 1
                chains = chains + Mat(bump)
            return chains

        state.jordan_chains = faulty

    return fault


# Each fault in the ledger of example1 (k = 3) -> the checks it fails: e1 e1^T
# added to a value of stage 2, to the result's P_2, or to one E or M block,
# or 1 to an entry of one Jordan chain of length 2. triangular-system sees a fault only where
# some S_i^+ calP_i differs from S_i^+ (splus2); post-stabilization-structure
# sees a faulted E block through the M recurrence, and E_{1,2} through
# M_{1,2} = E_{1,2}.
# Stage 3 does not invert, so E_{3,4} is a zero block made nonzero.
LEDGER_FAULTS = {
    "p2": (_projection_fault(2), {"smith-identities", "projector-families"}),
    "calp2": (_stage_fault("calp"), {"projector-families"}),
    "splus2": (
        _stage_fault("splus"),
        {
            "diagonalization-residual", "triangular-system", "post-stabilization-structure",
            "generalized-inverse-axioms", "laurent-oracle", "smith-identities",
        },
    ),
    "e12": (_e_block_fault(1, 2), {"post-stabilization-structure"}),
    "e34": (_e_block_fault(3, 4), {"post-stabilization-structure"}),
    "m12": (
        _block_fault("M_cols", 1, 2),
        {"coefficient-identity", "post-stabilization-structure"},
    ),
    "m23": (_block_fault("M_cols", 2, 3), {"post-stabilization-structure"}),
    "m56": (_block_fault("M_cols", 5, 6), {"post-stabilization-structure"}),
    "chain2": (_chain_fault(2), {"chain-membership"}),
}
# Faults that no check sees, each a strict xfail. L_1 e1 = L_2 e1 = 0 on
# example1, so M_{2,3} + e1 e1^T leaves every product of L with M unchanged;
# post-stabilization-structure sees it by recomputing every M block past
# row 1.
UNSEEN_FAULTS: set[str] = set()


@pytest.mark.parametrize(
    "name",
    [
        pytest.param(name, marks=pytest.mark.xfail(strict=True, reason="no check sees it"))
        if name in UNSEEN_FAULTS
        else name
        for name in sorted(LEDGER_FAULTS)
    ],
)
def test_ledger_fault_fails_verify(name, monkeypatch, capsys):
    """A wrong ledger value put in after diagonalize's own proof, with the
    result's store and the formed psi coefficients dropped, so that every
    series verify builds reads the faulty ledger."""
    fault, failing = LEDGER_FAULTS[name]
    run = cli._run

    def faulty(pipeline, family, args):
        result = run(pipeline, family, args)
        fault(result)
        result._store.clear()
        result.state._psi.clear()
        return result

    monkeypatch.setattr(cli, "_run", faulty)
    code = main(["verify", FAMILIES["cubic-verify"]])
    report = json.loads(capsys.readouterr().out)
    assert code == 3
    assert {c["name"] for c in report["checks"] if c["status"] == "fail"} == failing


E22 = Mat([[0, 0, 0], [0, 1, 0], [0, 0, 0]])


def _fault_rect2x3_projection(j, monkeypatch):
    """e_{2,2} added to P_j of rect2x3 after the command's diagonalize, with
    the result's store and the formed psi coefficients dropped."""
    run = cli._run

    def faulty(pipeline, family, args):
        result = run(pipeline, family, args)
        result.projections[j - 1] = result.projections[j - 1] + E22
        result._store.clear()
        result.state._psi.clear()
        return result

    monkeypatch.setattr(cli, "_run", faulty)


@pytest.mark.parametrize("j", [1, 2])
def test_projection_fault_on_rect2x3_fails_verify(j, monkeypatch, capsys):
    """The fault changes the smith report and leaves every other identity
    verify proves true; smith-identities sees it by re-forming P_j as
    S_j^+ S_j Q_{j-1} from the ledger."""
    _fault_rect2x3_projection(j, monkeypatch)
    assert main(["verify", FAMILIES["rect-verify"]]) == 3


@pytest.mark.parametrize("j", [1, 2])
def test_projection_fault_on_rect2x3_fails_smith(j, monkeypatch, capsys):
    """``smith`` prints P(eps), and its proof re-forms each P_j from the
    ledger before it proves S_P P == Delta, so the fault fails it too."""
    _fault_rect2x3_projection(j, monkeypatch)
    assert main(["smith", FAMILIES["rect-verify"]]) == 3
    assert capsys.readouterr().err == (
        f"internal consistency failure: P_{j} != S_{j}^+ S_{j} Q_{j - 1}\n"
    )


def count_e_solves(monkeypatch, fault=None):
    """The E columns verify solves, one (state, j) entry per solve, for
    example1 with ``fault`` applied to its ledger after diagonalize."""
    solves, run, build = [], cli._run, RecursionState._build_e_column

    def counted(state, j):
        solves.append((state, j))
        return build(state, j)

    def faulty(pipeline, family, args):
        result = run(pipeline, family, args)
        if fault is not None:
            fault(result)
            result._store.clear()
            result.state._psi.clear()
        return result

    monkeypatch.setattr(RecursionState, "_build_e_column", counted)
    monkeypatch.setattr(cli, "_run", faulty)
    return solves


@pytest.mark.parametrize("case", sorted(FAMILIES))
def test_one_e_solve_per_verify(case, monkeypatch, capsys):
    """triangular-system and post-stabilization-structure read one E solve:
    each column is solved once, under the ledger's S_i^+, on one state."""
    solves = count_e_solves(monkeypatch)
    assert main(["verify", FAMILIES[case]]) == 0
    assert json.loads(capsys.readouterr().out)["all_passed"]
    [state] = {state for state, _ in solves}
    columns = [j for _, j in solves]
    assert sorted(columns) == list(range(1, len(columns) + 1))


def _calp1_fault(result):
    state = result.state
    stage = state.stages[0]
    state.stages[0] = stage._replace(calp=stage.calp + UNIT)


@pytest.mark.parametrize(
    "fault, stage, failing",
    [
        # S_2^+ = e3 e2^T has a zero first column, so S_2^+ calP_2 keeps
        # its value under the calp2 fault.
        (LEDGER_FAULTS["calp2"][0], None, LEDGER_FAULTS["calp2"][1]),
        # S_1^+ = calP_1 = e1 e1^T: S_1^+ (calP_1 + e1 e1^T) = 2 S_1^+.
        (_calp1_fault, 1, {"projector-families", "triangular-system"}),
        # (S_2^+ + e1 e1^T) calP_2 drops the added e1 e1^T.
        (LEDGER_FAULTS["splus2"][0], 2, LEDGER_FAULTS["splus2"][1]),
    ],
    ids=["calp2", "calp1", "splus2"],
)
def test_triangular_system_names_the_first_failing_stage(
    fault, stage, failing, monkeypatch, capsys
):
    """triangular-system fails at the first stage where S_i^+ calP_i
    differs from S_i^+, and passes where none does (``stage`` None). It
    solves no E column, so even on a faulty ledger verify solves each
    column once, on one state."""
    entries = count_e_solves(monkeypatch, fault)
    assert main(["verify", FAMILIES["cubic-verify"]]) == 3
    report = json.loads(capsys.readouterr().out)
    assert {c["name"] for c in report["checks"] if c["status"] == "fail"} == failing
    [record] = [c for c in report["checks"] if c["name"] == "triangular-system"]
    if stage is None:
        assert record["status"] == "pass"
    else:
        assert record["detail"] == f"S_i^+ calP_i != S_i^+ at stage {stage}"
    assert len({id(state) for state, _ in entries}) == 1
    assert len(set(entries)) == len(entries)


def test_shift_fault_fails_through_the_recurrence():
    """Past row k+1 in columns past k+2 no E block enters the M recurrence,
    so it is the Toeplitz shift: a fault in M_{5,6} of example1 (k = 3)
    fails at that block's recurrence row."""
    with open(FAMILIES["cubic-verify"], "r", encoding="utf-8") as handle:
        result = diagonalize(spec_to_series(parse_family(handle.read())))
    LEDGER_FAULTS["m56"][0](result)
    check = dict(CHECKS)["post-stabilization-structure"]
    assert check(result) == (False, "M block (5,6) differs from the recurrence")
