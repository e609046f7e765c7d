"""The stage engine: golden stage data, E/M columns, stabilization,
Jordan chains, and the coefficient identities."""

import contextlib
import io
import json
import math
import os
import random
import tempfile
from types import SimpleNamespace

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from localsmith import (
    DiagonalizationResult,
    InternalConsistencyError,
    Mat,
    MatLaurent,
    MatSeries,
    RecursionState,
    Stage,
    StageBudgetError,
    Subspace,
    TruncationError,
    analyze,
    diagonalize,
    family_from_series,
    generic_rank,
    image,
    linearize_polynomial,
    parse_complement_plan,
    parse_family,
    phi_series,
    psi_series,
    serialize_family,
    spec_to_series,
)
from localsmith.cli import main
from localsmith.matrix import PackedRows
from localsmith.verify import CHECKS, linearization
from localsmith.oracles import toeplitz_kernel_dims, toeplitz_nullspace
from localsmith.subspaces import (
    choose_complement,
    complement_coordinates,
    projection_matrix,
    restricted_inverse,
)

from conftest import (
    DIGEST_FAMILIES,
    SMALL_FAMILIES,
    ZERO3,
    cols,
    e,
    example1_family,
    random_family,
    random_invertible,
    random_matrix,
    smith_families,
    unit_diag_unit,
)
from reference import (
    chain_from,
    chain_vectors,
    identity_series,
    partial_triangularize,
    rank_of_root,
    same_space,
    spanned_by,
    stacked_nullspace_basis,
    transpose,
)


REPORTS = os.path.join(os.path.dirname(__file__), "data", "reports")


def load_family(name: str) -> MatSeries:
    with open(os.path.join(REPORTS, name), "r", encoding="utf-8") as handle:
        return spec_to_series(parse_family(handle.read()))


def load_plan(name: str):
    with open(os.path.join(REPORTS, name), "r", encoding="utf-8") as handle:
        return parse_complement_plan(handle.read())


def eps_identity(n: int) -> MatSeries:
    return MatSeries.polynomial([Mat.zeros(n, n), Mat.identity(n)])


def max_chain_length_from_root(family: MatSeries, b0: Mat, upto: int) -> int:
    """Oracle: the largest l <= upto so that b0 extends to a length-l chain.

    Fixes b0 and asks the stacked linear system for b_1..b_{l-1}: solvable
    iff augmenting the right side keeps the rank.
    """
    best = 0
    n = family.cols
    for l in range(1, upto + 1):
        # Conditions sum_{i+j=s} L_i b_j = 0 for s = 0..l-1, b_0 fixed.
        rows = []
        rhs_rows = []
        for s in range(l):
            row_blocks = [
                family.coefficient(s - j) if 0 <= s - j <= family.degree else Mat.zeros(family.rows, n)
                for j in range(1, l)
            ]
            block = Mat.hstack(row_blocks) if row_blocks else Mat.zeros(family.rows, 0)
            rows.append(block)
            rhs_rows.append(-(family.coefficient(s) @ b0))
        system = Mat.vstack(rows)
        rhs = Mat.vstack(rhs_rows)
        if system.cols == 0:
            solvable = rhs.is_zero()
        else:
            solvable = system.rank() == Mat.hstack([system, rhs]).rank()
        if solvable:
            best = l
        else:
            break
    return best


class TestGenericRank:
    def test_golden_family(self, example1):
        # det = eps^4 - eps^8, nonzero, so the generic rank is full.
        for t in range(2, 6):
            assert example1.evaluate(t).det() == t**4 - t**8
        assert generic_rank(example1) == 3

    def test_zero_family(self):
        assert generic_rank(MatSeries.polynomial([Mat.zeros(2, 3)])) == 0

    def test_eps_identity(self):
        assert generic_rank(eps_identity(2)) == 2

    @pytest.mark.parametrize(
        "seed, rows, inner, cols_, deg_a, deg_b",
        [(1, 4, 2, 4, 1, 1), (2, 5, 3, 6, 1, 2), (3, 3, 2, 3, 0, 2), (4, 6, 1, 4, 2, 1)],
    )
    def test_deficient_product_sample_count(
        self, monkeypatch, seed, rows, inner, cols_, deg_a, deg_b
    ):
        # A(eps) B(eps) through an inner dimension below min(rows, cols).
        rng = random.Random(seed)
        a = MatSeries.polynomial([random_matrix(rng, rows, inner) for _ in range(deg_a + 1)])
        b = MatSeries.polynomial([random_matrix(rng, inner, cols_) for _ in range(deg_b + 1)])
        family = a @ b
        d, limit = family.degree, min(rows, cols_)
        full = max(family.evaluate(t).rank() for t in range(1, d * limit + 2))
        assert 0 < full < limit
        points, evaluate = [], MatLaurent.evaluate
        monkeypatch.setattr(
            MatLaurent, "evaluate", lambda self, t: points.append(t) or evaluate(self, t)
        )
        assert generic_rank(family) == full
        # Every (full + 1)-minor vanishes at d * (full + 1) + 1 points.
        assert points == list(range(1, d * (full + 1) + 2))


class TestStages:
    def test_golden_stage_ledger(self, example1):
        state = RecursionState(example1)
        assert state.run_until_stabilized() == 3
        dims = [(st.nc.dim, st.r.dim) for st in state.stages]
        assert dims == [(1, 1), (1, 1), (0, 0), (1, 1)]
        s2 = state.stage(2)
        assert s2.sbar == cols(ZERO3, ZERO3, e(2))
        assert s2.s == cols(ZERO3, ZERO3, e(2))
        s4 = state.stage(4)
        assert s4.sbar == cols(e(3), [0, 0, -1], (1, 1, 0))
        assert s4.s == cols(e(3), [0, 0, -1], ZERO3)
        assert s4.n.dim == 0
        assert same_space(s4.r, spanned_by([e(3)], 3))
        assert s4.rc.dim == 0
        assert state.stage(1).splus == cols(e(1), ZERO3, ZERO3)
        assert diagonalize(example1).projections[1] == cols(ZERO3, ZERO3, e(3))
        assert state.stage(2).calp == cols(ZERO3, e(2), ZERO3)

    def test_invertible_leading_coefficient(self):
        rng = random.Random(41)
        lead = random_matrix(rng, 3, 3)
        while lead.det() == 0:
            lead = random_matrix(rng, 3, 3)
        state = RecursionState(MatSeries.polynomial([lead]))
        state.run_stage()
        assert state.stage(1).n.dim == 0
        assert same_space(state.stage(1).r, Subspace.full(3))
        assert state.stabilization_k == 0

    def test_splus_absorbs_projection(self, example1):
        # The restricted inverse kills everything outside its range part, so
        # composing with the range projection changes nothing.
        state = RecursionState(example1)
        state.run_until_stabilized()
        for st in state.stages:
            assert st.splus @ st.calp == st.splus

    def test_projections_partition_identity(self):
        rng = random.Random(48)
        for _ in range(5):
            fam = random_family(rng, 3, 4, 2, deficit=1)
            result = analyze(fam)
            stages, ps = result.stages, result.projections
            for a in stages:
                for b in stages:
                    if a.index != b.index:
                        assert (ps[a.index - 1] @ ps[b.index - 1]).is_zero()
                        assert (a.calp @ b.calp).is_zero()
            p_total = Mat.zeros(result.state.domain_dim, result.state.domain_dim)
            for p in ps:
                p_total = p_total + p
            tail = stages[-1].n
            # The leftover of the partition is the projection onto the tail
            # kernel, so the sum acts as the identity on every complement and
            # annihilates the tail.
            for st in stages:
                assert p_total @ st.nc.basis == st.nc.basis
            assert (p_total @ tail.basis).is_zero()

    def test_projection_refinement_consistency(self, example1):
        # Later splits only refine the codomain remainder, so recomputing an
        # early range projection against the final decomposition changes nothing.
        state = RecursionState(example1)
        state.run_until_stabilized()
        final_parts = [st.r for st in state.stages] + [state.stages[-1].rc]
        for idx, st in enumerate(state.stages):
            recomputed = projection_matrix(final_parts, idx)
            assert recomputed == st.calp


class TestEMColumns:
    def test_golden_columns(self, example1):
        state = RecursionState(example1)
        state.ensure_stages(5)
        identity = Mat.identity(3)
        assert state.e_block(1, 2).is_zero()
        assert state.e_block(2, 2) == identity
        assert state.e_block(1, 3).is_zero()
        assert state.e_block(2, 3) == cols(ZERO3, [0, 0, -1], ZERO3)
        assert state.e_block(3, 3) == identity
        assert state.e_block(1, 4) == cols(ZERO3, ZERO3, [-1, 0, 0])
        assert state.e_block(2, 4) == cols(ZERO3, ZERO3, [0, 0, -1])
        assert state.e_block(3, 4).is_zero()
        assert state.m_block(1, 4) == cols(ZERO3, ZERO3, [-1, 0, 0])
        assert state.m_block(2, 4) == cols(ZERO3, ZERO3, [0, 0, -1])
        assert state.m_block(3, 4) == cols(ZERO3, [0, 0, -1], ZERO3)
        assert state.m_block(4, 4) == identity
        assert state.m_block(1, 5) == cols(ZERO3, e(1), ZERO3)
        assert state.m_block(2, 5) == cols(ZERO3, e(3), [-1, 0, 0])
        assert state.m_block(3, 5).is_zero()
        assert state.m_block(4, 5) == cols(ZERO3, [0, 0, -1], [0, -1, 0])
        assert state.m_block(5, 5) == identity

    def test_golden_fifth_column(self, example1):
        state = RecursionState(example1)
        state.ensure_stages(5)
        assert state.e_block(1, 5) == cols(ZERO3, e(1), ZERO3)
        assert state.e_block(2, 5) == cols(ZERO3, e(3), ZERO3)
        assert state.e_block(3, 5).is_zero()
        assert state.e_block(4, 5) == cols(ZERO3, ZERO3, [0, -1, 0])
        assert state.e_block(5, 5) == Mat.identity(3)

    def test_triangular_system_direct_substitution(self, example1):
        # Assembling the block-triangular system and applying it to the E
        # column must reproduce (0, ..., 0, I).
        state = RecursionState(example1)
        state.ensure_stages(6)
        n = state.domain_dim
        for j in range(1, 7):
            for i in range(1, j + 1):
                acc = Mat.zeros(n, n)
                for v in range(i + 1, j + 1):
                    entry = state.stage(i).splus @ (state.stage(i).calp @ state.stage(v).sbar)
                    acc = acc + entry @ state.e_block(v, j)
                lhs = state.e_block(i, j) + acc
                assert lhs == (Mat.identity(n) if i == j else Mat.zeros(n, n))

    def closed_form_e_block(self, state, i, j):
        """Independent product form: the bottom-up solve telescopes into
        -Splus_i (I - B_{i+1}) ... (I - B_{j-1}) Sbar_j with B_v = Sbar_v Splus_v."""
        identity = Mat.identity(state.codomain_dim)
        acc = state.stage(j).sbar
        for v in range(j - 1, i, -1):
            b_v = state.stage(v).sbar @ state.stage(v).splus
            acc = (identity - b_v) @ acc
        return -(state.stage(i).splus @ acc)

    def test_e_blocks_match_product_form(self, example1):
        state = RecursionState(example1)
        state.ensure_stages(6)
        for j in range(2, 7):
            for i in range(1, j):
                assert state.e_block(i, j) == self.closed_form_e_block(state, i, j)

    def test_e_blocks_match_product_form_random(self):
        rng = random.Random(49)
        for _ in range(4):
            fam = random_family(rng, 3, 4, 2, deficit=1)
            state = RecursionState(fam)
            k = state.run_until_stabilized()
            state.ensure_stages(k + 4)
            for j in range(2, state.stage_count + 1):
                for i in range(1, j):
                    assert state.e_block(i, j) == self.closed_form_e_block(state, i, j)

    def test_coefficient_identity_every_stage(self):
        rng = random.Random(42)
        for _ in range(6):
            fam = random_family(rng, 3, 3, 2, deficit=1)
            state = RecursionState(fam)
            state.run_until_stabilized()
            state.ensure_stages(state.stabilization_k + 4)
            passed, detail = dict(CHECKS)["coefficient-identity"](SimpleNamespace(state=state))
            assert passed, detail
            assert detail.endswith(f"for all {state.stage_count} stages")

    def test_post_stabilization_patterns(self):
        rng = random.Random(43)
        for _ in range(6):
            fam = random_family(rng, 4, 4, 2, deficit=2)
            state = RecursionState(fam)
            k = state.run_until_stabilized()
            state.ensure_stages(k + 6)
            for j in range(k + 2, state.stage_count + 1):
                for i in range(k + 2, j):
                    assert state.e_block(i, j).is_zero()
                length = j - (k + 1)
                for offset in range(1, length):
                    assert state.m_block(k + 1 + offset, j) == state.m_block(k + offset, j - 1)
                assert state.m_block(j, j).is_identity()


def generic_em_triangles(state: RecursionState) -> tuple[dict, dict]:
    """Every E and M block from the recurrences of the module docstring,
    walking every row and summing every term."""
    n = state.domain_dim
    e_blocks, m_blocks = {}, {}
    for j in range(1, state.stage_count + 1):
        e_blocks[j, j] = Mat.identity(n)
        for i in range(j - 1, 0, -1):
            acc = Mat.zeros(state.codomain_dim, n)
            for v in range(i + 1, j + 1):
                acc = acc + state.stage(v).sbar @ e_blocks[v, j]
            e_blocks[i, j] = -(state.stage(i).splus @ acc)
        m_blocks[1, j] = e_blocks[1, j]
        for row in range(2, j + 1):
            acc = Mat.zeros(n, n)
            for c in range(row - 1, j):
                acc = acc + m_blocks[row - 1, c] @ e_blocks[c + 1, j]
            m_blocks[row, j] = acc
    return e_blocks, m_blocks


DATA = os.path.dirname(REPORTS)
DATA_FAMILIES = sorted(SMALL_FAMILIES + DIGEST_FAMILIES)


class TestLazyEColumns:
    """A stage records no E column; ``e_block`` solves a column, once, only
    when a block of it is read. Only verify reads E blocks, so no other
    command builds a column."""

    @staticmethod
    def watch(monkeypatch) -> tuple[list, list]:
        """The states that run stages from here on, and the E columns built,
        as (state, j)."""
        states, formed = [], []
        build_m, build_e = RecursionState._build_m_column, RecursionState._build_e_column

        def m_column(self, j, sbar):
            if j == 1:
                states.append(self)
            return build_m(self, j, sbar)

        def e_column(self, j):
            formed.append((self, j))
            return build_e(self, j)

        monkeypatch.setattr(RecursionState, "_build_m_column", m_column)
        monkeypatch.setattr(RecursionState, "_build_e_column", e_column)
        return states, formed

    @staticmethod
    def assert_e_blocks_solve(state: RecursionState) -> None:
        e_blocks, _ = generic_em_triangles(state)
        for (i, j), block in e_blocks.items():
            assert state.e_block(i, j) == block, (i, j)

    @pytest.mark.parametrize("name", DATA_FAMILIES)
    def test_commands_form_no_e_column(self, name, monkeypatch):
        states, formed = self.watch(monkeypatch)
        path = os.path.join(DATA, name)
        for argv in (
            ["analyze", path],
            ["diagonalize", path],
            ["invert", path],
            ["smith", path],
            ["jordan", path, "--length", "3"],
        ):
            with contextlib.redirect_stdout(io.StringIO()):
                assert main(argv) == 0, argv
            assert states and formed == [], argv
            assert all(state.E_cols == {} for state in states), argv
        # The deepest state, of invert or smith, read after the run.
        state = max(states, key=lambda st: st.stage_count)
        self.assert_e_blocks_solve(state)
        assert sorted(state.E_cols) == list(range(1, state.stage_count + 1))

    @settings(max_examples=15, deadline=None, derandomize=True, database=None)
    @given(smith_families())
    def test_unit_diag_unit_families(self, family):
        result = diagonalize(family)
        assert result.state.E_cols == {}
        self.assert_e_blocks_solve(result.state)

    def test_a_column_is_formed_once(self, example1, monkeypatch):
        state = RecursionState(example1)
        state.ensure_stages(6)
        _, formed = self.watch(monkeypatch)
        first = state.e_block(2, 5)
        assert [j for _, j in formed] == [5]
        assert state.e_block(2, 5) is first
        assert state.e_block(4, 5) == cols(ZERO3, ZERO3, [0, -1, 0])
        assert [j for _, j in formed] == [5]

    @pytest.mark.parametrize(
        "family",
        [example1_family(), unit_diag_unit(7, 4, 4, [0, 1, 2, 4])],
        ids=["example1", "unit-diag-unit"],
    )
    def test_first_e_block_is_the_m_block(self, family):
        """The solve's E_{1,j} equals M_{1,j}, which the coupling gives, at
        every stage: before and after stabilization, zero or not."""
        state = RecursionState(family)
        k = state.run_until_stabilized()
        state.ensure_stages(2 * k + 4)
        assert any(not state.m_block(1, j).is_zero() for j in range(2, state.stage_count + 1))
        for j in range(1, state.stage_count + 1):
            assert state.e_block(1, j) == state.m_block(1, j), j


def assert_ledger_matches_references(result: DiagonalizationResult) -> None:
    """Every stage's split, calP and S^+, and the result's P through stage
    k+1, against the reference formulas, applied to the decompositions the
    ledger holds at that stage: the kernel and pivot-column image of
    S_j basis(N_{j-1}), the complements choose_complement picks or
    validates, projection_matrix over the domain and codomain parts, and
    the solve in restricted_inverse."""
    state, plan = result.state, result.state.complements
    for st in state.stages:
        j = st.index
        prev_n = state.kernel_chain(j - 1)
        prev_rc = Subspace.full(state.codomain_dim) if j == 1 else state.stage(j - 1).rc
        mapped = st.s @ prev_n.basis
        assert st.n.basis == prev_n.basis @ mapped.nullspace(), j
        assert st.r.basis == image(mapped).basis, j
        given_nc, given_rc = plan.get(j, (None, None))
        assert st.nc.basis == choose_complement(prev_n, st.n, given_nc).basis, j
        assert st.rc.basis == choose_complement(prev_rc, st.r, given_rc).basis, j
        domain = [a.nc for a in state.stages[:j]] + [st.n]
        codomain = [a.r for a in state.stages[:j]] + [st.rc]
        calp = projection_matrix(codomain, j - 1)
        if j <= result.k + 1:
            assert result.projections[j - 1] == projection_matrix(domain, j - 1), j
        assert st.calp == calp, j
        assert st.splus == restricted_inverse(st.s, st.nc, calp), j


class TestFinishOnRead:
    """run_stage splits N_{j-1} under S_j and runs the rank guard and the
    certificate, which read only dim R_j. The rest of the stage, its
    complement, calP, S^+, record and M column, waits until the next stage
    starts or a reader asks. P_j belongs to the diagonalization result. So
    the companion pencil, of which linearize reads only k, pays for neither
    its last stage's complement nor any P."""

    @staticmethod
    def watch(monkeypatch) -> tuple[list, list, list]:
        """The states stabilized from here on, the complement_coordinates
        calls, and the P_j formed by a product with S_j^+, as (result, j):
        one whose left factor is a stage's S_j^+ and whose factors are both
        nonzero, so a zero S_j^+ forms nothing."""
        states, complements, formed = [], [], []
        run, form = RecursionState.run_until_stabilized, DiagonalizationResult.__init__
        coordinates, product = complement_coordinates, Mat.__matmul__

        def running(self):
            states.append(self)
            return run(self)

        def forming(self, state, order):
            inverses = {id(st.splus): st.index for st in state.stages[: state.stabilization_k + 1]}

            def multiplying(a, b):
                if id(a) in inverses and not (a.is_zero() or b.is_zero()):
                    formed.append((self, inverses[id(a)]))
                return product(a, b)

            with monkeypatch.context() as inside:
                inside.setattr(Mat, "__matmul__", multiplying)
                form(self, state, order)

        def complementing(*args):
            complements.append(args)
            return coordinates(*args)

        monkeypatch.setattr(RecursionState, "run_until_stabilized", running)
        monkeypatch.setattr(DiagonalizationResult, "__init__", forming)
        monkeypatch.setattr("localsmith.recursion.complement_coordinates", complementing)
        return states, complements, formed

    @pytest.mark.parametrize("name", DATA_FAMILIES)
    def test_ledger_read_after_stabilization(self, name):
        with open(os.path.join(DATA, name), "r", encoding="utf-8") as handle:
            family = spec_to_series(parse_family(handle.read()))
        read = RecursionState(family)
        k = read.run_until_stabilized()
        assert read.stage_count == k + 1
        stages = read.stages
        ensured = RecursionState(family)
        ensured.run_until_stabilized()
        ensured.ensure_stages(k + 1)
        assert len(stages) == len(ensured.stages) == k + 1
        for got, want in zip(stages, ensured.stages):
            for field in Stage._fields:
                assert getattr(got, field) == getattr(want, field), (got.index, field)
        for j in range(1, k + 2):
            for i in range(1, j + 1):
                assert read.m_block(i, j) == ensured.m_block(i, j), (i, j)

    @pytest.mark.parametrize("caller", ["linearization", "linearize"])
    def test_the_last_stage_of_each_run_stays_pending(self, caller, monkeypatch):
        states, complements, formed = self.watch(monkeypatch)
        if caller == "linearization":
            _, kbar, (passed, _) = linearization(example1_family(), 3)
            assert passed and kbar == 1
        else:
            with contextlib.redirect_stdout(io.StringIO()):
                assert main(["linearize", os.path.join(DATA, "example1.json")]) == 0
        # linearize stabilizes the cubic and its pencil; linearization only
        # the pencil.
        assert len(states) == {"linearization": 1, "linearize": 2}[caller]
        finished = 0
        for state in states:
            assert len(state._stages) == state.stage_count - 1
            finished += sum(1 for stage in state._stages if stage.r.dim)
        assert len(complements) == finished
        assert formed == []

    def test_jordan_forms_no_projection(self, monkeypatch):
        # The cubic's k is 3; analyze forms P_1 .. P_4 for Delta, and S_3^+
        # is zero, so P_3 costs no dot product.
        _, _, formed = self.watch(monkeypatch)
        cubic = os.path.join(DATA, "example1.json")
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["jordan", cubic, "--length", "4"]) == 0
            assert formed == []
            assert main(["analyze", cubic]) == 0
        assert {j for _, j in formed} == {1, 2, 4}


class TestDegenerateStages:
    """Stages whose product S_j basis(N_{j-1}) is zero skip the elimination;
    their ledger entries and E/M blocks, and those of every other stage, must
    be what the reference formulas and the recurrences give."""

    @pytest.mark.parametrize(
        "family, plan, gap_stages",
        [
            (example1_family(), None, [3]),
            (load_family("rect2x3.json"), None, []),
            (load_family("trunc2x2.json"), None, [2]),
            (load_family("smith4x4.json"), None, [3, 5, 6, 7]),
            (linearize_polynomial(example1_family()).pencil(), None, []),
            (linearize_polynomial(load_family("smith4x4.json")).pencil(), None, []),
            (example1_family(), "plan_stage1.json", [3]),
            (load_family("rect3x2.json"), "plan_late.json", []),
        ],
        ids=[
            "cubic", "rect2x3", "trunc2x2", "smith-0-1-3-7", "cubic-pencil",
            "smith-pencil", "cubic-plan-stage1", "rect3x2-plan-late",
        ],
    )
    def test_matches_general_step(self, family, plan, gap_stages):
        result = diagonalize(family, complements=load_plan(plan) if plan else None)
        state = result.state
        k = state.stabilization_k
        degenerate = [
            j for j in range(2, state.stage_count + 1)
            if (state.stage(j).s @ state.stage(j - 1).n.basis).is_zero()
        ]
        assert [j for j in degenerate if j <= k + 1] == gap_stages
        assert degenerate[len(gap_stages):] == list(range(k + 2, state.stage_count + 1))
        assert_ledger_matches_references(result)
        e_blocks, m_blocks = generic_em_triangles(state)
        for (i, j), block in e_blocks.items():
            assert state.e_block(i, j) == block, (i, j)
        for (i, j), block in m_blocks.items():
            assert state.m_block(i, j) == block, (i, j)

    @settings(max_examples=20, deadline=None, derandomize=True, database=None)
    @given(smith_families())
    def test_unit_diag_unit_ledgers(self, family):
        # Through the stages invert reaches at the default working order: the
        # ledger matches the references, and verify's two proofs that read
        # every M block, against L and against the generic recurrence, hold.
        result = analyze(family)
        state, k = result.state, result.k
        state.ensure_stages(2 * k + 1 + max(2 * k + 4, 12))
        assert_ledger_matches_references(result)
        checks = dict(CHECKS)
        for name in ("coefficient-identity", "post-stabilization-structure"):
            assert checks[name](result)[0], name

    def test_given_complement_with_its_own_range_basis(self):
        # Nc_1 given as the pivot complement times an invertible T plus
        # kernel vectors: S_1 basis(Nc_1) spans R_1 but is not the pivot
        # basis of R_1, and S_1^+ must still map it back to basis(Nc_1).
        family = load_family("dense6x6.json")
        first = RecursionState(family)
        first.run_stage()
        pivot = first.stage(1)
        t = Mat([[1, 1, 0], [0, 2, 1], [1, 0, 1]])
        u = Mat([[1, 0, -1], [0, 0, 2], [0, 1, 0]])
        given = pivot.nc.basis @ t + pivot.n.basis @ u
        result = diagonalize(family, complements={1: (given, None)})
        st = result.state.stage(1)
        assert st.nc.basis == given and st.s @ given != st.r.basis
        assert st.splus @ st.s @ given == given
        assert_ledger_matches_references(result)

    @settings(max_examples=20, deadline=None, derandomize=True, database=None)
    @given(smith_families(), st.integers(0, 2**16), st.data())
    def test_given_complements_at_a_splitting_stage(self, family, seed, data):
        # Nc_j and Rc_j given at a splitting stage j <= k+1 as the pivot
        # complements times an invertible map plus vectors of N_j and R_j:
        # valid, but not the pivot bases, so calP_j and S_j^+ are read
        # against non-unit coordinates of Qc_{j-1}.
        pivot = RecursionState(family)
        k = pivot.run_until_stabilized()
        j = data.draw(st.sampled_from([a.index for a in pivot.stages[: k + 1] if a.r.dim]))
        rng, at = random.Random(seed), pivot.stage(j)

        def mixed(comp: Subspace, sub: Subspace) -> Mat:
            return comp.basis @ random_invertible(rng, comp.dim) + sub.basis @ random_matrix(
                rng, sub.dim, comp.dim
            )

        given_nc, given_rc = mixed(at.nc, at.n), mixed(at.rc, at.r)
        result = analyze(family, complements={j: (given_nc, given_rc)})
        state = result.state
        assert result.k == k
        state.ensure_stages(2 * k + 3)
        assert state.stage(j).nc.basis == given_nc and state.stage(j).rc.basis == given_rc
        assert_ledger_matches_references(result)

    def test_one_product_and_elimination_per_stage(self, monkeypatch):
        # Exponents 0, 1, 4 and 8: stages 1, 2, 5 and 9 split, the gap stages
        # and the stages past k + 1 = 9 are degenerate. A splitting stage
        # forms S_j basis(N_{j-1}) once and runs two eliminations:
        # restrict_and_split's and the one that picks Rc_j and reads W. Every
        # Subspace a stage builds has a basis independent by construction, so
        # its check reads the shape and tests no rank: six at stage 1, four at
        # the later splitting stages and two, both zero-dimensional, at a
        # degenerate stage. A degenerate stage forms the product and runs no
        # rref. No stage solves a system, inverts a basis or runs the
        # reference choose_complement. Reading stage j finishes it.
        state = RecursionState(load_family("smith4x4k8.json"))
        products, fresh, checked, ranked, checks = [], [], [], [], []
        sums, rref, check, rank = Mat.sum_of_products, Mat.rref, Subspace.__post_init__, Mat.rank

        def summed(pairs, rows, cols_):
            pairs = list(pairs)
            products.append(pairs)
            return sums(pairs, rows, cols_)

        def reduced(m):
            if m._rref is None:
                fresh.append(bool(checked))
            return rref(m)

        def basis_check(sub, *args):
            checked.append(sub)
            try:
                check(sub, *args)
            finally:
                checked.pop()
            checks.append(sub.dim)

        def ranked_in_check(m):
            if checked:
                ranked.append(m)
            return rank(m)

        def forbidden(what):
            def raises(*args, **kwargs):
                raise AssertionError(f"the stage step {what}")
            return raises

        monkeypatch.setattr(Mat, "sum_of_products", staticmethod(summed))
        monkeypatch.setattr(Mat, "rref", reduced)
        monkeypatch.setattr(Subspace, "__post_init__", basis_check)
        monkeypatch.setattr(Mat, "rank", ranked_in_check)
        monkeypatch.setattr(Mat, "solve", forbidden("solves no system"))
        monkeypatch.setattr(Mat, "inverse", forbidden("inverts no basis"))
        monkeypatch.setattr(
            "localsmith.subspaces.choose_complement", forbidden("runs no rank-test complement")
        )
        splitting, checks_per_stage = {}, {}
        for j in range(1, 13):
            prev_n = state.kernel_chain(j - 1)
            products.clear()
            fresh.clear()
            ranked.clear()
            checks.clear()
            state.run_stage()
            s = state.stage(j).s
            formed = [p for p in products if p == [(s, prev_n.basis)]]
            assert len(formed) == 1, j
            if state.stage(j).r.dim:
                splitting[j] = len(fresh)
                assert fresh.count(False) == 2, j
            else:
                assert fresh == [], j
            checks_per_stage[j] = len(checks)
            assert ranked == [], j
        assert splitting == {1: 2, 2: 2, 5: 2, 9: 2}
        degenerate = {j: 2 for j in range(1, 13)}
        assert checks_per_stage == {**degenerate, 1: 6, 2: 4, 5: 4, 9: 4}

    def test_stage_work_past_stabilization(self, monkeypatch):
        # Degree 9, k = 8, inverting stages 1, 2, 5 and 9. Stages 11 to 29,
        # the ones smith runs past stage k + 2, each form one packed Sbar_j
        # sum, [L_1 .. L_9] times the previous column's packed rows, one
        # packed head update, the coupling times Sbar_j plus the previous
        # rows, and two products: S_j = Qc_{j-1} Sbar_j and the degeneracy
        # product S_j basis(N_{j-1}). The only blocks read back are Sbar_j
        # and the top block M_{9,j}; rows 1..8 stay packed, and the rows
        # past 9 are the previous column's blocks. E_{j,j} is the shared
        # identity.
        state = RecursionState(load_family("smith4x4k8.json"))
        assert state.L.degree == 9
        state.ensure_stages(10)
        assert state.stabilization_k == 8
        assert [st.index for st in state.stages if not st.splus.is_zero()] == [1, 2, 5, 9]
        sums, packs, reads = [], [], []
        summed, products, blocks = Mat.sum_of_products, PackedRows.products_plus, PackedRows.blocks

        def counted(pairs, rows, cols_):
            pairs = list(pairs)
            sums.append(pairs)
            return summed(pairs, rows, cols_)

        def packing(left, right, plus=None, at=0):
            result = products(left, right, plus, at)
            packs.append((left, right, plus, result))
            return result

        def reading(rows, height, start, stop):
            reads.append((rows, height, start, stop))
            return blocks(rows, height, start, stop)

        monkeypatch.setattr(Mat, "sum_of_products", staticmethod(counted))
        monkeypatch.setattr(PackedRows, "products_plus", staticmethod(packing))
        monkeypatch.setattr(PackedRows, "blocks", reading)
        for j in range(11, 30):
            sums.clear()
            packs.clear()
            reads.clear()
            prev = state.M_cols[-1]
            state.run_stage()
            sbar, column = state.stage(j).sbar, state.M_cols[-1]
            [(leads, rows, none, sums_row), (coupling, right, shifted, head)] = packs
            assert leads is state._leads and rows is prev.head and none is None, j
            assert coupling is state._coupling and right is sbar and head is column.head, j
            assert [pairs[0][1] for pairs in sums] == [sbar, state.stage(j - 1).n.basis], j
            assert reads == [(sums_row, 4, 0, 4), (head, 4, 32, 36)], j
            assert column.blocks[:8] == [None] * 8 and column.blocks[8] is column[8], j
            assert all(a is b for a, b in zip(column.blocks[9:], prev.blocks[8:], strict=True)), j
        for j in range(11, 30):
            assert state.e_block(j, j) is Mat.identity(4), j


class TestSharedIdentityBlocks:
    """Qc_{j-1} is the shared identity up to the first inverting stage, and
    the fold of identity factors returns S_j = Qc_{j-1} Sbar_j as Sbar_j
    itself; every diagonal E and M block, and phi_0 = M_{k+1,k+1}, is the
    one identity of its shape."""

    @pytest.mark.parametrize(
        "family",
        [example1_family(), load_family("smith4x4k8.json"), load_family("rect2x3.json")],
        ids=["example1", "smith4x4k8", "rect2x3"],
    )
    def test_identity_blocks_are_shared(self, family):
        state = RecursionState(family)
        state.run_until_stabilized()
        first = next(st.index for st in state.stages if not st.splus.is_zero())
        for st in state.stages[:first]:
            assert st.s is st.sbar, st.index
        identity = Mat.identity(state.domain_dim)
        for j in range(1, state.stage_count + 1):
            assert state.e_block(j, j) is identity, j
            assert state.m_block(j, j) is identity, j
        assert state.phi_coefficients(0)[0] is identity


class TestCoupledColumns:
    """Every E/M column comes from the coupling of the inverting stages below
    it; every block must be what the recurrences give."""

    @staticmethod
    def assert_matches_recurrences(state: RecursionState) -> None:
        e_blocks, m_blocks = generic_em_triangles(state)
        for (i, j), block in e_blocks.items():
            assert state.e_block(i, j) == block, ("E", i, j)
        for (i, j), block in m_blocks.items():
            assert state.m_block(i, j) == block, ("M", i, j)

    @settings(max_examples=20, deadline=None, derandomize=True, database=None)
    @given(smith_families())
    def test_unit_diag_unit_families(self, family):
        state = RecursionState(family)
        k = state.run_until_stabilized()
        # The stages invert reaches at the default working order.
        state.ensure_stages(k + 1 + max(2 * k + 4, 12) + k)
        self.assert_matches_recurrences(state)

    def test_plan_named_stage_past_stabilization(self):
        state = RecursionState(load_family("rect3x2.json"), load_plan("plan_late.json"))
        k = state.run_until_stabilized()
        state.ensure_stages(k + 1 + max(2 * k + 4, 12) + k)
        assert k + 1 < 4 and state.complements[4][1] is not None
        self.assert_matches_recurrences(state)

    @pytest.mark.parametrize(
        "family, plan",
        [
            (linearize_polynomial(example1_family()).pencil(), None),
            (linearize_polynomial(load_family("smith4x4.json")).pencil(), None),
            (load_family("dense6x6.json"), None),
            (load_family("rect2x3.json"), None),
            (example1_family(), "plan_stage1.json"),
        ],
        ids=["cubic-pencil", "smith-pencil", "dense6x6", "rect2x3", "cubic-plan-stage1"],
    )
    def test_runs_that_end_at_k_plus_one(self, family, plan):
        state = RecursionState(family, load_plan(plan) if plan else None)
        k = state.run_until_stabilized()
        assert state.stage_count == k + 1
        self.assert_matches_recurrences(state)

    @staticmethod
    def count_sums(monkeypatch) -> list:
        """Record every Mat.sum_of_products call from here on; each product
        and fused sum goes through it."""
        calls = []
        original = Mat.sum_of_products

        def counted(pairs, rows, cols_):
            calls.append(rows)
            return original(pairs, rows, cols_)

        monkeypatch.setattr(Mat, "sum_of_products", staticmethod(counted))
        return calls

    @pytest.mark.parametrize("gap", [4, 7, 8])
    def test_gap_stages_reuse_the_coupling(self, gap, monkeypatch):
        # Exponents 0, 1, 4 and 8 make stages 1, 2, 5 and 9 the inverting
        # ones. A gap stage after the first column past an inverting stage
        # forms S_j and the degeneracy test S_j N_{j-1}, packs Sbar_j and
        # the coupling's product with it in PackedRows.products_plus, and
        # stacks no coupling.
        state = RecursionState(load_family("smith4x4k8.json"))
        state.ensure_stages(gap - 1)
        inverting = [st.index for st in state.stages if not st.splus.is_zero()]
        assert inverting == [i for i in (1, 2, 5) if i < gap]
        calls = self.count_sums(monkeypatch)
        state.run_stage()
        assert state.stage(gap).splus.is_zero()
        assert len(calls) <= 2

    @pytest.mark.parametrize(
        "n, size, exponents",
        [(3, 3, (0, 0, 3)), (5, 5, (0, 0, 0, 0, 5)), (3, 4, (0, 0, 1, 3))],
        ids=["jordan3", "jordan5", "jordan3-in-4x4"],
    )
    def test_inverting_stage_past_a_gap(self, n, size, exponents, monkeypatch):
        # N + eps I, with N the ones at (r, r + 1) for r < n - 1: a nilpotent
        # Jordan block of size n, then zeros. A stage that inverts more than
        # deg L + 1 stages after the previous inverting one needs rows of
        # column j-1 past its packed head, so MColumn.rows packs the shared
        # blocks with PackedRows.extended.
        lead = Mat([[int(c == r + 1 < n) for c in range(size)] for r in range(size)])
        running, seen = [], []
        run_stage, extended = RecursionState.run_stage, PackedRows.extended

        def staged(state):
            running.append(state)
            try:
                run_stage(state)
            finally:
                running.pop()

        def spied(rows, mats):
            seen.append(bool(running))
            return extended(rows, mats)

        monkeypatch.setattr(RecursionState, "run_stage", staged)
        monkeypatch.setattr(PackedRows, "extended", spied)
        result = diagonalize(MatSeries.polynomial([lead, Mat.identity(size)]))
        assert seen and all(seen)
        assert result.smith_exponents() == exponents
        outcomes = {name: check(result) for name, check in CHECKS}
        # A pencil is its own linearization, so that check does not apply.
        assert outcomes.pop("linearization-bound") is None
        assert all(passed for passed, _ in outcomes.values()), outcomes

    def test_one_product_per_stage_past_stabilization(self, monkeypatch):
        # Past k+1 a stage forms S_j and the degeneracy test S_j N_{j-1}:
        # two products, and no E block; Sbar_j and the M column are
        # one PackedRows.products_plus call each. Stage k+2 also forms the
        # coupling, once.
        state = RecursionState(load_family("smith4x4.json"))
        k = state.run_until_stabilized()
        state.ensure_stages(k + 2)
        calls = self.count_sums(monkeypatch)
        later = max(2 * k + 4, 12) - 1
        state.ensure_stages(k + 2 + later)
        assert len(calls) <= 2 * later


class TestStabilization:
    def test_golden_index(self, example1):
        state = RecursionState(example1)
        assert state.run_until_stabilized() == 3

    def test_eps_identity_index(self):
        state = RecursionState(eps_identity(2))
        assert state.run_until_stabilized() == 1
        assert state.stage(1).r.dim == 0
        assert state.stage(2).r.dim == 2

    def test_certificate_matches_complement_deaths(self):
        rng = random.Random(44)
        for _ in range(8):
            fam = random_family(rng, 3, 4, 2, deficit=1)
            state = RecursionState(fam)
            k = state.run_until_stabilized()
            state.ensure_stages(k + 4)
            assert state.stage(k + 1).nc.dim > 0 or k == 0
            for later in range(k + 2, state.stage_count + 1):
                assert state.stage(later).nc.dim == 0
                assert state.stage(later).r.dim == 0

    def test_high_degree_scalar_within_default_budget(self):
        # eps^5 on K^1 stabilizes at 5 and needs six stages; the default
        # budget accounts for the degree so this must not error.
        coeffs = [Mat.zeros(1, 1)] * 5 + [Mat.identity(1)]
        state = RecursionState(MatSeries.polynomial(coeffs))
        assert state.run_until_stabilized() == 5

    def test_budget_exceeded_raises(self, example1):
        state = RecursionState(example1, max_stages=2)
        with pytest.raises(StageBudgetError):
            state.run_until_stabilized()

    def test_chain_length_past_budget_raises(self, example1):
        state = RecursionState(example1, max_stages=2)
        with pytest.raises(StageBudgetError):
            state.jordan_chains(3)
        assert state.stage_count == 0
        assert state.jordan_chains(2).rows == 2 * state.domain_dim

    def test_rank_bound_checked_after_stabilization(self, example1):
        state = RecursionState(example1)
        k = state.run_until_stabilized()
        state.generic_rank -= 1
        with pytest.raises(InternalConsistencyError, match="exceeds generic rank"):
            state.ensure_stages(k + 2)

    def test_truncated_input_stage_ceiling(self, example1):
        blunt = example1.truncate(2)
        state = RecursionState(blunt)
        with pytest.raises(TruncationError):
            state.ensure_stages(4)

    def test_negative_budget_is_refused(self, example1):
        with pytest.raises(ValueError, match=r"the stage budget must be >= 0, got -1$"):
            RecursionState(example1, max_stages=-1)

    def test_plan_is_blamed_only_when_it_names_a_stage(self, example1):
        # With no plan, a budget of 0 fails only when a stage is needed.
        state = RecursionState(example1, max_stages=0)
        with pytest.raises(StageBudgetError, match="no stabilization certificate within 0"):
            state.run_until_stabilized()
        plan = {3: (None, cols(e(3)))}
        with pytest.raises(StageBudgetError, match="plan names stage 3, past the budget of 2"):
            RecursionState(example1, plan, max_stages=2)

    def test_entry_naming_no_basis_runs_no_stage(self, example1):
        # Stage 30 is past the cubic's budget of 11; an entry with no basis
        # is not kept, so it neither runs that stage nor exceeds the budget.
        plan = parse_complement_plan(
            '{"stages": [{"stage": 30}, {"stage": 2, "codomain_complement": null}]}'
        )
        assert plan == {}
        state = RecursionState(example1, plan)
        assert state.run_until_stabilized() == 3 and state.stage_count == 4

    @pytest.mark.parametrize(
        "stage, entry",
        [
            pytest.param(6, (None, None), id="6"),
            pytest.param(30, (None, None), id="30"),
            pytest.param(30, [None, None], id="30-list"),
        ],
    )
    def test_library_entry_naming_no_basis_runs_no_stage(self, example1, stage, entry):
        # A plan built in code may hold an entry with no basis, as a tuple
        # or a list; like one parse_complement_plan drops, it neither runs
        # its stage nor meets the budget of 11 stages, which stage 30 is
        # past.
        state = RecursionState(example1, {stage: entry})
        assert state.complements == {}
        assert state.run_until_stabilized() == 3 and state.stage_count == 4


class TestLedgerIndices:
    """Every accessor of the ledger refuses an index outside it, rather
    than reading the ledger from its end: on the golden cubic's 16 stages,
    stage(0) once read stage 16 and m_block(0, 5) read M_{5,5}."""

    @pytest.fixture
    def state(self, example1):
        state = diagonalize(example1).state
        assert state.stage_count == 16
        return state

    def test_stage(self, state):
        assert state.stage(16).index == 16
        for i in (0, -1, 17):
            with pytest.raises(IndexError, match=rf"^stage {i} is outside the ledger of 16"):
                state.stage(i)

    def test_kernel_chain(self, state):
        assert state.kernel_chain(0).dim == 3 and state.kernel_chain(16) == state.stage(16).n
        for i in (-1, 17):
            with pytest.raises(IndexError, match=rf"^stage {i} is outside the ledger"):
                state.kernel_chain(i)

    @pytest.mark.parametrize("block", ["m_block", "e_block"])
    def test_blocks(self, state, block):
        read = getattr(state, block)
        assert read(5, 5).is_identity()
        name = block[0].upper()
        for i, j in ((0, 5), (-1, 5), (6, 5), (1, 17), (0, 0)):
            with pytest.raises(IndexError) as info:
                read(i, j)
            assert str(info.value) == f"{name}_{{{i},{j}}} is outside the ledger of 16 stages"

    @pytest.mark.parametrize("name", ["phi", "psi"])
    def test_transformation_coefficients(self, state, name):
        read = getattr(state, f"{name}_coefficients")
        [first] = read(0)
        assert first.is_identity()
        series = {"phi": phi_series, "psi": psi_series}[name]
        for depth in (-1, -3):
            with pytest.raises(ValueError, match=rf"^{name} has no coefficient of order {depth}$"):
                read(depth)
            with pytest.raises(ValueError, match=rf"^{name} has no coefficient of order {depth}$"):
                series(state, depth)

    def test_jordan_chains(self, state):
        assert state.jordan_chains(1).cols == state.stage(1).n.dim
        for length in (0, -1):
            with pytest.raises(ValueError, match=rf"^a chain has length >= 1, got {length}$"):
                state.jordan_chains(length)


@st.composite
def rational_families(draw) -> MatSeries:
    """A nonzero polynomial family, 1-3 x 1-3 of degree 0-2, whose entries
    are rationals of denominator at most 5."""
    rows, cols_ = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    entry = st.fractions(min_value=-3, max_value=3, max_denominator=5)
    grid = st.lists(st.lists(entry, min_size=cols_, max_size=cols_), min_size=rows, max_size=rows)
    coeffs = draw(st.lists(grid, min_size=1, max_size=3))
    family = MatSeries.polynomial([Mat(g) for g in coeffs])
    assume(not family.is_zero())
    return family


class TestJordanChains:
    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(st.one_of(smith_families(), rational_families()), st.integers(1, 4))
    @example(MatSeries.constant(Mat.identity(2)), 3)
    def test_report_chains_are_the_columns_read_one_by_one(self, family, length):
        """The ``chains`` of the jordan report, sliced from one string grid,
        are each column of ``jordan_chains`` read on its own, whatever the
        grid's common denominator. The identity family has no chains."""
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "family.json")
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(serialize_family(family_from_series(family)))
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                assert main(["jordan", path, "--length", str(length)]) == 0
        chains = RecursionState(family).jordan_chains(length)
        reported = [chain["vectors"] for chain in json.loads(out.getvalue())["chains"]]
        assert reported == chain_vectors(chains, length)

    def test_golden_length_three_shape(self, example1):
        state = RecursionState(example1)
        state.ensure_stages(3)
        n1 = Mat([[0], [2], [3]])
        n2 = Mat([[0], [5], [0]])
        n3 = Mat([[0], [7], [0]])
        chain = chain_from(state, 3, [n1, n2, n3])
        assert [x for (x,) in chain.entries] == [0, 2, 3, 0, 5, -7, 0, 7, 0]

    def test_length_one_is_leading_kernel(self, example1):
        state = RecursionState(example1)
        chains = state.jordan_chains(1)
        roots = [transpose(chains.submatrix_columns([j])).entries[-1] for j in range(chains.cols)]
        assert roots == [(0, 1, 0), (0, 0, 1)]

    def test_stacked_dimension_matches_toeplitz_oracle(self, example1):
        state = RecursionState(example1)
        assert state.jordan_chains(4).rows == 12
        assert sum(stage.n.dim for stage in state.stages[:4]) == 4
        oracle = toeplitz_nullspace(example1, 4)
        assert oracle.dim == 4
        stacked = stacked_nullspace_basis(state, 4)
        assert stacked.rank() == 4
        for j in range(stacked.cols):
            assert oracle.contains(stacked.submatrix_columns([j]))

    def test_random_dims_match_oracle(self):
        rng = random.Random(45)
        for _ in range(6):
            fam = random_family(rng, 3, 3, 2, deficit=1)
            state = RecursionState(fam)
            k = state.run_until_stabilized()
            for length in range(1, k + 2):
                dim = sum(stage.n.dim for stage in state.stages[:length])
                assert toeplitz_nullspace(fam, length).dim == dim


    @settings(max_examples=20, deadline=None, derandomize=True, database=None)
    @given(smith_families(), st.data())
    def test_chains_are_row_sums_of_m_blocks(self, family, data):
        """Component i of the chain of (n_1, .., n_l) is the row sum
        sum_{c >= i} M_{i,c} n_c, and the one-rref Toeplitz kernel dimension
        of every length l <= k+1 is that of the length-l nullspace."""
        state = RecursionState(family)
        k = state.run_until_stabilized()
        n = state.domain_dim
        zero = Mat.zeros(n, 1)

        def row_sums(components, length):
            return [
                sum((state.m_block(i, c) @ components[c - 1] for c in range(i, length + 1)), zero)
                for i in range(1, length + 1)
            ]

        def assert_chain(chain, blocks):
            assert chain == Mat.vstack(blocks)
            parts = [chain.submatrix_rows(range(i * n, i * n + n)) for i in range(len(blocks))]
            assert parts == blocks

        oracle_dims = toeplitz_kernel_dims(family, k + 1)
        for length in range(1, k + 2):
            chains = state.jordan_chains(length)
            kernels = [stage.n for stage in state.stages[:length]]
            deepest = kernels[-1].basis
            assert chains.cols == deepest.cols
            for j in range(chains.cols):
                chain = chains.submatrix_columns([j])
                last = deepest.submatrix_columns([j])
                assert_chain(chain, row_sums([zero] * (length - 1) + [last], length))
            generators = []
            for c, ker in enumerate(kernels, start=1):
                for j in range(ker.dim):
                    alone = [zero] * length
                    alone[c - 1] = ker.basis.submatrix_columns([j])
                    generators.append(Mat.vstack(row_sums(alone, length)))
            assert stacked_nullspace_basis(state, length) == Mat.hstack(
                [Mat.zeros(n * length, 0)] + generators
            )
            components = [
                ker.basis @ Mat([[data.draw(st.integers(-3, 3))] for _ in range(ker.dim)], cols=1)
                for ker in kernels
            ]
            assert_chain(chain_from(state, length, components), row_sums(components, length))
            assert oracle_dims[length - 1] == toeplitz_nullspace(family, length).dim
            assert oracle_dims[length - 1] == sum(ker.dim for ker in kernels)


class TestRankOfRoot:
    def test_golden_ranks(self, example1):
        state = RecursionState(example1)
        state.run_until_stabilized()
        assert rank_of_root(state, Mat([[0], [1], [0]])) == 3
        assert rank_of_root(state, Mat([[1], [0], [0]])) == 0
        assert rank_of_root(state, Mat([[0], [0], [1]])) == 1

    def test_zero_vector_rejected(self, example1):
        state = RecursionState(example1)
        state.run_until_stabilized()
        with pytest.raises(ValueError):
            rank_of_root(state, Mat.zeros(3, 1))

    def test_infinite_rank_in_singular_family(self):
        # Generic rank 1 on a 2x2 family: the kernel direction never dies.
        fam = MatSeries.polynomial([Mat([[1, 0], [0, 0]]), Mat([[0, 0], [1, 0]])])
        state = RecursionState(fam)
        state.run_until_stabilized()
        assert rank_of_root(state, Mat([[0], [1]])) == math.inf

    def test_random_roots_match_chain_oracle(self):
        rng = random.Random(46)
        checked = 0
        while checked < 6:
            fam = random_family(rng, 3, 3, 2, deficit=1)
            state = RecursionState(fam)
            k = state.run_until_stabilized()
            kernel = state.stage(1).n
            if kernel.dim == 0:
                continue
            b0 = kernel.basis.submatrix_columns([0])
            got = rank_of_root(state, b0)
            oracle = max_chain_length_from_root(fam, b0, k + 2)
            if got == math.inf:
                assert oracle >= k + 1
            else:
                assert got == oracle
            checked += 1


class TestPartialTriangularize:
    def test_golden_leading_coefficients(self, example1):
        state = RecursionState(example1)
        state.run_until_stabilized()
        p3, transformed = partial_triangularize(state, 3)
        assert p3.coefficient(0) == Mat.identity(3)
        expected = [
            cols(e(1), ZERO3, ZERO3),
            cols(ZERO3, ZERO3, e(2)),
            cols(ZERO3, ZERO3, e(3)),
            cols(e(3), [0, 0, -1], ZERO3),
        ]
        for i, s_i in enumerate(expected):
            assert transformed.coefficient(i) == s_i

    def test_degree_zero_is_identity(self, example1):
        state = RecursionState(example1)
        state.ensure_stages(1)
        p0, transformed = partial_triangularize(state, 0)
        assert p0 == identity_series(3)
        assert transformed == example1

    def test_leading_coefficient_mapping_properties(self):
        rng = random.Random(47)
        for _ in range(6):
            fam = random_family(rng, 3, 3, 2, deficit=1)
            state = RecursionState(fam)
            k = state.run_until_stabilized()
            _, transformed = partial_triangularize(state, k)
            for i in range(1, k + 2):
                st = state.stage(i)
                s_i = transformed.coefficient(i - 1)
                assert s_i == st.s
                assert (s_i @ st.n.basis).is_zero()
                if st.nc.dim:
                    from localsmith import image

                    assert same_space(image(s_i @ st.nc.basis), st.r)
                # Earlier complements land in the previous codomain remainder.
                prev_rc = (
                    Subspace.full(state.codomain_dim)
                    if i == 1
                    else state.stage(i - 1).rc
                )
                for earlier in range(1, i):
                    mapped = s_i @ state.stage(earlier).nc.basis
                    for col in range(mapped.cols):
                        assert prev_rc.contains(mapped.submatrix_columns([col]))
