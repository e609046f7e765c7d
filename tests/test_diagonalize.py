"""End-to-end diagonalization, transformations, generalized inverse,
kernel/range continuation, projector families, Smith factorization."""

import os
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings

from localsmith import (
    InputError,
    InternalConsistencyError,
    Mat,
    MatLaurent,
    MatSeries,
    RecursionState,
    analyze,
    diagonalize,
    direct_laurent_inverse,
    parse_complement_plan,
    parse_family,
    phi_series,
    psi_series,
    spec_to_series,
)
from localsmith.cli import main

from conftest import (
    DIGEST_FAMILIES,
    SMALL_FAMILIES,
    ZERO3,
    cols,
    e,
    example1_family,
    random_family,
    random_matrix,
    smith_families,
    smith_structured_family,
)
from reference import from_columns, identity_series, kernel_range_families

DATA = os.path.join(os.path.dirname(__file__), "data")
REPORTS = os.path.join(DATA, "reports")


def geometric(period: int, upto: int) -> list[int]:
    """Coefficients of 1/(1 - eps^period) through the requested order."""
    return [1 if i % period == 0 else 0 for i in range(upto + 1)]


def golden_phi_coefficient(i: int) -> Mat:
    """Entry-wise expansion of the golden family's closed-form phi:
    [[1, e^4/(1-e^4), -e^3/(1-e^4)],
     [0, 1/(1-e^2),   -e/(1-e^2)],
     [0, -e/(1-e^4),   1/(1-e^4)]]."""
    upto = i
    g4 = geometric(4, upto + 4)
    g2 = geometric(2, upto + 2)
    grid = [[Fraction(0)] * 3 for _ in range(3)]
    grid[0][0] = Fraction(1 if i == 0 else 0)
    grid[0][1] = Fraction(g4[i - 4]) if i >= 4 else Fraction(0)
    grid[0][2] = Fraction(-g4[i - 3]) if i >= 3 else Fraction(0)
    grid[1][1] = Fraction(g2[i])
    grid[1][2] = Fraction(-g2[i - 1]) if i >= 1 else Fraction(0)
    grid[2][1] = Fraction(-g4[i - 1]) if i >= 1 else Fraction(0)
    grid[2][2] = Fraction(g4[i])
    return Mat(grid)


def golden_inverse_coefficient(exponent: int) -> Mat:
    """Entry-wise expansion of the golden family's inverse:
    [[1/(1-e^4), 0, -e/(1-e^4)],
     [1/(1-e^2), e^-2, -e^-3/(1-e^2)],
     [-e/(1-e^4), 0, e^-2/(1-e^4)]]."""
    grid = [[Fraction(0)] * 3 for _ in range(3)]

    def g(period, shift):
        idx = exponent - shift
        return Fraction(1) if idx >= 0 and idx % period == 0 else Fraction(0)

    grid[0][0] = g(4, 0)
    grid[0][2] = -g(4, 1)
    grid[1][0] = g(2, 0)
    grid[1][1] = Fraction(1) if exponent == -2 else Fraction(0)
    grid[1][2] = -g(2, -3)
    grid[2][0] = -g(4, 1)
    grid[2][2] = g(4, -2)
    return Mat(grid)


def golden_complements_plan() -> dict:
    """The golden family's complement choices, injected explicitly."""
    return {
        1: (from_columns([e(1)]), from_columns([e(2), e(3)])),
        2: (from_columns([e(3)]), from_columns([e(3)])),
        4: (from_columns([e(2)]), None),
    }


def singular_wide_pencil() -> MatSeries:
    """2x3 pencil [[1,0,0],[0,eps,0]]: full generic rank, 1-dim tail kernel."""
    return MatSeries.polynomial(
        [Mat([[1, 0, 0], [0, 0, 0]]), Mat([[0, 0, 0], [0, 1, 0]])]
    )


class TestTransformations:
    def test_golden_phi_against_closed_form(self, example1):
        result = diagonalize(example1)
        assert result.phi.coefficient(0) == Mat.identity(3)
        assert result.phi.coefficient(1) == cols(ZERO3, [0, 0, -1], [0, -1, 0])
        for i in range(9):
            assert result.phi.coefficient(i) == golden_phi_coefficient(i)

    def test_golden_psi_is_cubic_polynomial(self, example1):
        result = diagonalize(example1)
        assert result.psi.coefficient(0) == Mat.identity(3)
        assert result.psi.coefficient(1) == cols(ZERO3, e(3), ZERO3)
        assert result.psi.coefficient(2).is_zero()
        assert result.psi.coefficient(3) == cols(e(3), ZERO3, ZERO3)
        for i in range(4, 9):
            assert result.psi.coefficient(i).is_zero()

    def test_golden_psi_inverse_printed_form(self, example1):
        result = diagonalize(example1)
        assert result.psi_inv.coefficient(1) == cols(ZERO3, [0, 0, -1], ZERO3)
        assert result.psi_inv.coefficient(3) == cols([0, 0, -1], ZERO3, ZERO3)
        for i in (2, 4, 5, 6):
            assert result.psi_inv.coefficient(i).is_zero()

    def test_series_functions_match_result(self, example1):
        state = RecursionState(example1)
        state.run_until_stabilized()
        phi = phi_series(state, 6)
        psi = psi_series(state, 6)
        result = diagonalize(example1)
        assert phi.eq_through(result.phi, 6)
        assert psi.eq_through(result.psi, 6)


def assert_psi_past_k_in_tail_cokernel(result) -> int:
    """For i > k, psi_i = Qc_{k+1} sum_j Sbar_{i+j} S_j^+ over j = 1..k+1,
    through the working order: (calP_1 + ... + calP_{k+1}) psi_i = 0, and
    psi_i = 0 when Rc_{k+1} is zero. Returns the count of nonzero psi_i
    past k."""
    state, k, m = result.state, result.k, result.state.codomain_dim
    ranges = sum((st.calp for st in result.stages), Mat.zeros(m, m))
    tail = Mat.identity(m) - ranges
    nonzero = 0
    for i in range(k + 1, result.order + 1):
        psi = result.psi.coefficient(i)
        pairs = ((state.stage(i + j).sbar, state.stage(j).splus) for j in range(1, k + 2))
        assert psi == tail @ Mat.sum_of_products(pairs, m, m), i
        assert (ranges @ psi).is_zero(), i
        if result.stages[-1].rc.dim == 0:
            assert psi.is_zero(), i
        nonzero += not psi.is_zero()
    return nonzero


PSI_FAMILIES = sorted(
    (os.path.join(DATA, name), None) for name in SMALL_FAMILIES + DIGEST_FAMILIES
) + [
    (os.path.join(DATA, "example1.json"), "plan_stage1.json"),
    (os.path.join(REPORTS, "rect3x2.json"), "plan_late.json"),
]


class TestPsiPastK:
    """Past stage k+1 no stage inverts, so S_j = Qc_{k+1} Sbar_j for
    j >= k+2, and psi_i = sum_j S_{i+j} S_j^+ lies in Rc_{k+1} for i > k."""

    @pytest.mark.parametrize(
        "path, plan",
        PSI_FAMILIES,
        ids=[f"{os.path.basename(path)}-{plan or 'pivot'}" for path, plan in PSI_FAMILIES],
    )
    def test_on_data_families(self, path, plan):
        with open(path, "r", encoding="utf-8") as handle:
            family = spec_to_series(parse_family(handle.read()))
        complements = None
        if plan is not None:
            with open(os.path.join(REPORTS, plan), "r", encoding="utf-8") as handle:
                complements = parse_complement_plan(handle.read())
        nonzero = assert_psi_past_k_in_tail_cokernel(diagonalize(family, complements=complements))
        # The tall rect3x2 and the rank-deficient deficient20 are the
        # families with a nonzero tail cokernel: psi_i is nonzero at every
        # order 2..12 past k = 1, and 1..12 past k = 0.
        tails = {"rect3x2.json": 11, "deficient20.json": 12}
        assert nonzero == tails.get(os.path.basename(path), 0)

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(smith_families())
    def test_on_smith_families(self, family):
        assert_psi_past_k_in_tail_cokernel(diagonalize(family))


class TestDelta:
    def test_golden_delta(self, example1):
        result = diagonalize(example1)
        delta = result.delta_series()
        assert delta.coefficient(0) == cols(e(1), ZERO3, ZERO3)
        assert delta.coefficient(1) == cols(ZERO3, ZERO3, e(2))
        assert delta.coefficient(2).is_zero()
        assert delta.coefficient(3) == cols(ZERO3, [0, 0, -1], ZERO3)
        assert delta.degree == 3

    def test_invertible_constant_gives_itself(self):
        rng = random.Random(51)
        lead = random_matrix(rng, 3, 3)
        while lead.det() == 0:
            lead = random_matrix(rng, 3, 3)
        result = diagonalize(MatSeries.polynomial([lead]))
        assert result.k == 0
        assert result.delta_series() == MatSeries.constant(lead)
        assert result.phi.eq_through(identity_series(3), result.order)
        assert result.psi.eq_through(identity_series(3), result.order)

    def test_delta_annihilates_tail_kernel(self):
        result = diagonalize(singular_wide_pencil())
        tail = result.stages[-1].n
        assert tail.dim == 1
        for _, term in result.delta:
            assert (term @ tail.basis).is_zero()


class TestDiagonalizeEndToEnd:
    @pytest.mark.parametrize("pipeline", [diagonalize, analyze])
    @pytest.mark.parametrize("order", [-1, -4])
    def test_negative_order_is_refused(self, example1, pipeline, order):
        with pytest.raises(ValueError, match=f"order must be >= 0, got {order}$"):
            pipeline(example1, order=order)

    def test_golden_run(self, example1):
        result = diagonalize(example1, order=12)
        assert result.k == 3
        assert result.residual_order() is None
        lhs = result.psi_inv @ (example1 @ result.phi)
        assert lhs.eq_through(result.delta_series(), 12)

    def test_triangularization_identity(self, example1):
        # L * phi must reproduce the stage operators as its coefficients,
        # with post-stabilization coefficients confined to the dead corner.
        result = diagonalize(example1, order=10)
        state = result.state
        product = example1 @ result.phi
        for i in range(11):
            assert product.coefficient(i) == state.stage(i + 1).s
        tail_n = result.stages[-1].n
        rc = result.stages[-1].rc
        for i in range(result.k + 1, 11):
            s_i = product.coefficient(i)
            assert (s_i @ tail_n.basis).is_zero()
            for j in range(s_i.cols):
                col = s_i.submatrix_columns([j])
                if not col.is_zero():
                    assert rc.contains(col)

    def test_zero_family_rejected(self):
        with pytest.raises(InputError):
            diagonalize(MatSeries.polynomial([Mat.zeros(2, 2)]))

    def test_random_square_against_oracle(self):
        rng = random.Random(52)
        for _ in range(5):
            fam = random_family(rng, 4, 4, 2, deficit=1)
            result = diagonalize(fam, order=12)
            if result.state.generic_rank != 4:
                continue
            linv = result.generalized_inverse(12)
            oracle = direct_laurent_inverse(fam, tail=12)
            assert oracle.pole == linv.pole
            for exponent in range(-linv.pole, 13):
                assert oracle.coefficient(exponent) == linv.coefficient(exponent)

    def test_complement_choice_invariants(self, example1):
        # Pivot versus an off-axis but valid complement at stage 1: the
        # stabilization index, stage dimensions, and exponents must agree.
        skew = {1: (from_columns([(1, 1, 0)]), from_columns([(1, 1, 0), e(3)]))}
        default = diagonalize(example1, order=8)
        skewed = diagonalize(example1, order=8, complements=skew)
        assert skewed.k == default.k
        assert [(s.nc.dim, s.r.dim) for s in skewed.stages] == [
            (s.nc.dim, s.r.dim) for s in default.stages
        ]
        assert skewed.smith_exponents() == default.smith_exponents()
        assert skewed.residual_order() is None

    def test_given_complements_reproduce_golden_output(self, example1):
        result = diagonalize(example1, order=8, complements=golden_complements_plan())
        assert result.psi.coefficient(1) == cols(ZERO3, e(3), ZERO3)
        assert result.psi.coefficient(3) == cols(e(3), ZERO3, ZERO3)
        for i in range(9):
            assert result.phi.coefficient(i) == golden_phi_coefficient(i)


DATA = os.path.join(os.path.dirname(__file__), "data", "example1.json")
# The module, not the function of the same name that the package binds.
DIAGONALIZE_MODULE = sys.modules["localsmith.diagonalize"]
VERIFY_MODULE = sys.modules["localsmith.verify"]


class TestInverseFreeProof:
    """The identity is proven as L * phi == psi * Delta; phi^-1 and psi^-1
    are built only for the commands that read them."""

    @pytest.mark.parametrize(
        "command, depths",
        # The golden cubic: k = 3, working order 12. Each traced name maps to
        # the depths it is called at, in call order.
        [
            ("analyze", {"phi_series": [3], "psi_series": [3]}),
            ("smith", {"phi_series": [12], "psi_series": [12]}),
            # L^+ through 12 reads phi and psi^-1 through order + k = 15.
            (
                "invert",
                {"phi_series": [12, 15], "psi_series": [12, 15], "series_inverse": [15]},
            ),
            (
                "diagonalize",
                {"phi_series": [12], "psi_series": [12], "series_inverse": [12, 12]},
            ),
            # psi^-1 through order + k for L^+, then phi^-1 through the working
            # order; one direct inverse for laurent-oracle.
            (
                "verify",
                {
                    "phi_series": [12, 15],
                    "psi_series": [12, 15],
                    "series_inverse": [15, 12],
                    "direct_laurent_inverse": [12],
                },
            ),
        ],
    )
    def test_series_inverse_calls_per_command(self, command, depths, monkeypatch, capsys):
        seen = {}

        def count(module, name, depth_of):
            original = getattr(module, name)

            def counted(*args, **kwargs):
                seen.setdefault(name, []).append(depth_of(*args, **kwargs))
                return original(*args, **kwargs)

            monkeypatch.setattr(module, name, counted)

        count(DIAGONALIZE_MODULE, "phi_series", lambda state, t: t)
        count(DIAGONALIZE_MODULE, "psi_series", lambda state, t: t)
        count(DIAGONALIZE_MODULE, "series_inverse", lambda a, t: t)
        count(VERIFY_MODULE, "direct_laurent_inverse", lambda family, tail: tail)
        assert main([command, DATA]) == 0
        assert seen == depths

    @pytest.mark.parametrize("name", ["phi_series", "psi_series"])
    @pytest.mark.parametrize("at", [1, 12])
    def test_perturbed_transformation_fails_the_proof(
        self, example1, name, at, monkeypatch, capsys
    ):
        # Order 1 and the working order 12.
        original = getattr(DIAGONALIZE_MODULE, name)

        def perturbed(state, t):
            coeffs = list(original(state, t).coeffs)
            # L_0 and Delta_0 of the golden cubic are nonzero, so adding I
            # moves L * phi or psi * Delta at this order.
            coeffs[at] = coeffs[at] + Mat.identity(3)
            return MatSeries(coeffs, exact=False)

        monkeypatch.setattr(DIAGONALIZE_MODULE, name, perturbed)
        with pytest.raises(InternalConsistencyError, match=f"nonzero at order {at}$"):
            diagonalize(example1, order=12)
        assert main(["diagonalize", DATA, "--order", "12"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"residual is nonzero at order {at}" in captured.err


class TestCoefficientsFormedOnce:
    def test_each_psi_coefficient_formed_once(self, monkeypatch, capsys):
        # invert on the golden cubic reads psi through order + k = 15, after
        # diagonalize() read it through the working order 12. psi_0 = I, and
        # each later coefficient is one sum of products, formed on the first
        # read that reaches it; the second read returns the ones formed.
        seen, read, add = [], RecursionState.psi_coefficients, Mat.sum_of_products

        def counted(state, t):
            sums = []
            with monkeypatch.context() as patch:
                patch.setattr(Mat, "sum_of_products", lambda *args: sums.append(t) or add(*args))
                coeffs = read(state, t)
            seen.append((coeffs, len(sums)))
            return coeffs

        monkeypatch.setattr(RecursionState, "psi_coefficients", counted)
        assert main(["invert", DATA]) == 0
        assert [(len(coeffs), sums) for coeffs, sums in seen] == [(13, 12), (16, 3)]
        assert all(a is b for a, b in zip(seen[0][0], seen[1][0]))

    @pytest.mark.parametrize("series", [phi_series, psi_series])
    def test_one_stage_run_per_build(self, example1, series, monkeypatch):
        # Through order 12 on the golden cubic (k = 3): one call runs the
        # stages through k + 1 + 12 = 16.
        state = RecursionState(example1)
        state.run_until_stabilized()
        calls, ensure = [], RecursionState.ensure_stages

        def counted(state, count):
            calls.append(count)
            return ensure(state, count)

        monkeypatch.setattr(RecursionState, "ensure_stages", counted)
        assert series(state, 12).degree == 12
        assert calls == [16]


class TestGeneralizedInverse:
    def test_golden_expansion_and_pole(self, example1):
        result = diagonalize(example1)
        linv = result.generalized_inverse(6)
        assert linv.pole == 3
        for exponent in range(-3, 7):
            assert linv.coefficient(exponent) == golden_inverse_coefficient(exponent)

    def test_invertible_constant(self):
        rng = random.Random(53)
        lead = random_matrix(rng, 2, 2)
        while lead.det() == 0:
            lead = random_matrix(rng, 2, 2)
        result = diagonalize(MatSeries.polynomial([lead]))
        linv = result.generalized_inverse(4)
        assert linv.pole == 0
        assert linv.coefficient(0) == lead.inverse()
        for exponent in range(1, 5):
            assert linv.coefficient(exponent).is_zero()

    def test_axioms_on_rectangular_families(self):
        rng = random.Random(54)
        for _ in range(5):
            fam = random_family(rng, 3, 4, 2, deficit=1)
            result = diagonalize(fam, order=10)
            linv = result.generalized_inverse(10)
            lau = fam
            lxl = lau @ linv @ lau
            for exponent in range(-lxl.pole, lxl.tail_order + 1):
                assert lxl.coefficient(exponent) == lau.coefficient(exponent)
            xlx = linv @ lau @ linv
            for exponent in range(-xlx.pole, xlx.tail_order + 1):
                assert xlx.coefficient(exponent) == linv.coefficient(exponent)

    def test_eps_identity(self):
        fam = MatSeries.polynomial([Mat.zeros(2, 2), Mat.identity(2)])
        result = diagonalize(fam)
        assert result.k == 1
        assert result.delta_series() == fam
        linv = result.generalized_inverse(5)
        assert linv.pole == 1
        assert linv.coefficient(-1) == Mat.identity(2)
        for exponent in range(0, 6):
            assert linv.coefficient(exponent).is_zero()

    def test_orders_below_the_pole_bound_are_refused(self, example1):
        # L^+ has pole at most k: t = -k keeps the eps^-k coefficient, and a
        # lower t is refused whether the stored L^+ is deeper or not built.
        for deeper_first in (False, True):
            result = diagonalize(example1)
            if deeper_first:
                result.generalized_inverse()
            linv = result.generalized_inverse(-3)
            assert (linv.pole, linv.tail_order) == (3, -3)
            assert linv.coefficient(-3) == golden_inverse_coefficient(-3)
            for t in (-4, -5, -6):
                with pytest.raises(ValueError, match=f"t = {t} "):
                    result.generalized_inverse(t)

    def test_truncated_input_caps_inverse_depth(self, example1):
        blunt = example1.truncate(8)
        result = diagonalize(blunt)
        # Order is capped at 8 - k = 5 and the default inverse at 8 - 2k = 2:
        # deeper coefficients would consume terms the truncation never had.
        assert result.order == 5
        linv = result.generalized_inverse()
        assert linv.tail_order == 2
        for exponent in range(-3, 3):
            assert linv.coefficient(exponent) == golden_inverse_coefficient(exponent)
        with pytest.raises(Exception, match="truncated|order"):
            result.generalized_inverse(6)

    @pytest.mark.parametrize("cut", [2, 3])
    def test_truncation_below_twice_k_caps_inverse_below_zero(self, cut):
        # trunc2x2 has k = 2. A cut at order T >= k runs stage k+1, so the
        # default cap T - 2k is negative here, yet at least -k, and the
        # coefficients from eps^-k through eps^(T-2k) are those of the
        # polynomial closure of the cut.
        with open(os.path.join(REPORTS, "trunc2x2.json"), encoding="utf-8") as handle:
            family = spec_to_series(parse_family(handle.read())).truncate(cut)
        result = diagonalize(family)
        assert result.k == 2
        linv = result.generalized_inverse()
        assert linv.tail_order == cut - 4
        closure = diagonalize(MatSeries.polynomial(family.coeffs)).generalized_inverse(cut - 4)
        for exponent in range(-2, cut - 3):
            assert linv.coefficient(exponent) == closure.coefficient(exponent), exponent


class TestKernelRangeFamilies:
    def test_golden_has_empty_kernel_family(self, example1):
        result = diagonalize(example1)
        n_fam, r_fam = kernel_range_families(result, 6)
        assert n_fam.cols == 0
        assert r_fam.cols == 3
        assert r_fam.coefficient(0).rank() == 3

    def test_eps_identity_range_is_left_transform(self):
        fam = MatSeries.polynomial([Mat.zeros(2, 2), Mat.identity(2)])
        result = diagonalize(fam)
        n_fam, r_fam = kernel_range_families(result, 5)
        assert n_fam.cols == 0
        assert r_fam.eq_through(result.psi, 5)

    def test_singular_pencil_pointwise_annihilation(self):
        result = diagonalize(singular_wide_pencil())
        n_fam, r_fam = kernel_range_families(result, 10)
        assert n_fam.cols == 1
        fam = singular_wide_pencil()
        for point in (Fraction(1, 2), Fraction(1, 3)):
            value = fam.evaluate(point) @ n_fam.evaluate(point)
            assert value.is_zero()
            range_val = r_fam.evaluate(point)
            assert range_val.rank() == 2


class TestProjectorFamilies:
    def test_golden_families_are_identity(self, example1):
        result = diagonalize(example1)
        left, right = result.projector_families(8)
        assert left.eq_through(identity_series(3), 8)
        assert right.eq_through(identity_series(3), 8)

    def test_constant_terms_are_projection_sums(self):
        result = diagonalize(singular_wide_pencil())
        left, right = result.projector_families(6)
        p_sum = Mat.zeros(3, 3)
        calp_sum = Mat.zeros(2, 2)
        for st, p in zip(result.stages, result.projections):
            p_sum = p_sum + p
            calp_sum = calp_sum + st.calp
        assert left.coefficient(0) == p_sum
        assert right.coefficient(0) == calp_sum

    def test_idempotent_on_singular_pencil(self):
        result = diagonalize(singular_wide_pencil())
        left, right = result.projector_families(8)
        assert (left @ left).eq_through(left, 8)
        assert (right @ right).eq_through(right, 8)


def p_series(p_terms, n: int) -> MatSeries:
    """P(eps) = sum eps^e P from its (e, P) terms."""
    return MatLaurent.from_terms(p_terms, n, n)


class TestSmithFactorization:
    def test_golden_form_and_exponents(self, example1):
        result = diagonalize(example1)
        _, p_terms = result.smith_factorization()
        assert result.smith_exponents() == (0, 1, 3)
        p_poly = p_series(p_terms, 3)
        assert p_poly.coefficient(0) == cols(e(1), ZERO3, ZERO3)
        assert p_poly.coefficient(1) == cols(ZERO3, ZERO3, e(3))
        assert p_poly.coefficient(3) == cols(ZERO3, e(2), ZERO3)

    def test_factorization_identity_exact(self, example1):
        result = diagonalize(example1)
        s_p, p_terms = result.smith_factorization()
        assert MatSeries.constant(s_p) @ p_series(p_terms, 3) == result.delta_series()

    def test_full_factorization_on_random_families(self):
        rng = random.Random(55)
        for _ in range(5):
            fam = random_family(rng, 3, 3, 2, deficit=1)
            result = diagonalize(fam, order=10)
            s_p, p_terms = result.smith_factorization()
            lhs = fam @ result.phi
            rhs = result.psi @ MatSeries.constant(s_p) @ p_series(p_terms, 3)
            assert lhs.eq_through(rhs, 10)

    def test_blow_up_identity(self, example1):
        result = diagonalize(example1, order=10)
        s_p, p_terms = result.smith_factorization()
        # P^{-1}(eps) = eps^{-k} P_{k+1} + ... + P_1.
        p_inverse = MatLaurent.from_terms(((-power, p) for power, p in p_terms), 3, 3)
        blow = result.psi_inv @ (example1 @ result.phi) @ p_inverse
        for exponent in range(-blow.pole, blow.tail_order + 1):
            expected = s_p if exponent == 0 else Mat.zeros(3, 3)
            assert blow.coefficient(exponent) == expected

    def test_structured_exponents_recovered(self):
        rng = random.Random(56)
        for exponents in ([0, 2], [0, 1, 1], [1, 3, 0]):
            fam = smith_structured_family(rng, exponents, unimodular_degree=1)
            result = diagonalize(fam, order=12)
            assert result.smith_exponents() == tuple(sorted(exponents))
            assert result.k == max(exponents)
