"""Acceptance criteria for the whole artifact.

One test per criterion; every comparison is exact rational equality and each
test prints its own pass line (run with -s to see them live). The random
property corpus is built once per module and shared by the criteria that
quantify over it.
"""

import random
import time
from fractions import Fraction

import pytest

from localsmith import (
    Mat,
    MatSeries,
    RecursionState,
    diagonalize,
    direct_laurent_inverse,
    linearize_polynomial,
    resolvent_recurrence_check,
)
from localsmith.oracles import toeplitz_nullspace

from conftest import (
    ZERO3,
    cols,
    e,
    example1_family,
    random_family,
    random_invertible,
    random_matrix,
    rank_deficient,
    smith_structured_family,
)
from reference import identity_series, same_space, spanned_by
from test_diagonalize import golden_inverse_coefficient, golden_phi_coefficient

SUITE_SEED = 20250808
SUITE_SIZE = 200


def _passed(line: str) -> None:
    print(f"ACCEPTANCE PASS: {line}")


def _spiced_matrix(rng, rows, cols_, density=0.5) -> Mat:
    """Small integer entries with occasional small denominators."""
    grid = []
    for _ in range(rows):
        row = []
        for _ in range(cols_):
            if rng.random() >= density:
                row.append(Fraction(0))
            elif rng.random() < 0.15:
                row.append(Fraction(rng.choice([-1, 1]), rng.choice([2, 3])))
            else:
                row.append(Fraction(rng.randint(-2, 2)))
        grid.append(row)
    return Mat(grid, cols=cols_)


_SHAPES = (
    [(1, 1)] * 3
    + [(2, 2)] * 30
    + [(3, 3)] * 38
    + [(4, 4)] * 22
    + [(5, 5)] * 8
    + [(6, 6)] * 6
    + [(2, 3), (3, 2)] * 10
    + [(2, 4), (4, 2)] * 7
    + [(3, 4), (4, 3)] * 7
    + [(3, 5), (5, 3)] * 3
    + [(2, 6), (6, 2)] * 2
    + [(3, 6), (6, 3)] * 2
    + [(4, 6), (6, 4)] * 3
    + [(4, 5), (5, 4)] * 3
)


def _random_polynomial(rng) -> MatSeries:
    rows, cols_ = rng.choice(_SHAPES)
    degree = rng.choice([1, 1, 2, 2, 2, 3, 3, 4])
    deficit_pool = [0, 1, 1, 1, 1, 2, 2, min(rows, cols_)]
    deficit = min(rng.choice(deficit_pool), min(rows, cols_))
    lead_rank = min(rows, cols_) - deficit
    while True:
        lead = (
            _spiced_matrix(rng, rows, cols_, density=0.65)
            if deficit == 0
            else rank_deficient(rng, rows, cols_, lead_rank)
        )
        coeffs = [lead] + [_spiced_matrix(rng, rows, cols_) for _ in range(degree)]
        fam = MatSeries.polynomial(coeffs)
        if not fam.is_zero():
            return fam


def _build_corpus(rng) -> list[MatSeries]:
    corpus = []
    while len(corpus) < SUITE_SIZE - 40:
        corpus.append(_random_polynomial(rng))
    for _ in range(20):
        n = rng.randint(2, 4)
        exponents = [rng.randint(0, 2) for _ in range(n)]
        corpus.append(smith_structured_family(rng, exponents, unimodular_degree=1))
    for _ in range(20):
        n = rng.randint(2, 4)
        exponents = [rng.randint(0, 3) for _ in range(n)]
        corpus.append(smith_structured_family(rng, exponents, unimodular_degree=0))
    return corpus


@pytest.fixture(scope="module")
def property_suite():
    rng = random.Random(SUITE_SEED)
    corpus = _build_corpus(rng)
    assert len(corpus) >= SUITE_SIZE
    started = time.perf_counter()
    records = []
    for fam in corpus:
        result = diagonalize(fam, order=12)
        inverse = result.generalized_inverse(12)
        records.append((fam, result, inverse))
    elapsed = time.perf_counter() - started
    return records, elapsed


def test_criterion_1_golden_run(example1):
    started = time.perf_counter()
    result = diagonalize(example1, order=12)
    assert result.k == 3
    dims = [(st.nc.dim, st.r.dim) for st in result.stages]
    assert dims == [(1, 1), (1, 1), (0, 0), (1, 1)]
    assert result.tail_kernel.dim == 0
    assert result.tail_cokernel.dim == 0
    # Subspaces compared as sets: the pivot strategy picks the coordinate
    # complements sp(e1), sp(e3), {0}, sp(e2) and ranges sp(e1), sp(e2), {0}, sp(e3).
    from localsmith import Subspace

    expected_nc = [[e(1)], [e(3)], [], [e(2)]]
    expected_r = [[e(1)], [e(2)], [], [e(3)]]
    for st, nc_cols, r_cols in zip(result.stages, expected_nc, expected_r):
        nc_space = spanned_by(nc_cols, 3) if nc_cols else Subspace.zero(3)
        r_space = spanned_by(r_cols, 3) if r_cols else Subspace.zero(3)
        assert same_space(st.nc, nc_space)
        assert same_space(st.r, r_space)
    delta = result.delta_series()
    assert delta.coefficient(0) == cols(e(1), ZERO3, ZERO3)
    assert delta.coefficient(1) == cols(ZERO3, ZERO3, e(2))
    assert delta.coefficient(2).is_zero()
    assert delta.coefficient(3) == cols(ZERO3, [0, 0, -1], ZERO3)
    psi_expected = {0: Mat.identity(3), 1: cols(ZERO3, e(3), ZERO3), 3: cols(e(3), ZERO3, ZERO3)}
    for i in range(9):
        assert result.psi.coefficient(i) == psi_expected.get(i, Mat.zeros(3, 3))
    for i in range(9):
        assert result.phi.coefficient(i) == golden_phi_coefficient(i)
    inverse = result.generalized_inverse(6)
    assert inverse.pole == 3
    for exponent in range(-3, 7):
        assert inverse.coefficient(exponent) == golden_inverse_coefficient(exponent)
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0, f"golden run took {elapsed:.2f}s"
    _passed(f"criterion 1 golden run exact in {elapsed * 1000:.0f} ms")


def test_criterion_2_trivial_families():
    rng = random.Random(2)
    lead = random_invertible(rng, 3)
    started = time.perf_counter()
    const = diagonalize(MatSeries.polynomial([lead]))
    assert const.k == 0
    assert const.phi.eq_through(identity_series(3), const.order)
    assert const.psi.eq_through(identity_series(3), const.order)
    assert const.delta_series() == MatSeries.constant(lead)
    inverse = const.generalized_inverse(6)
    assert inverse.pole == 0
    assert inverse.coefficient(0) == lead.inverse()
    for exponent in range(1, 7):
        assert inverse.coefficient(exponent).is_zero()
    const_elapsed = time.perf_counter() - started

    started = time.perf_counter()
    eps_eye = MatSeries.polynomial([Mat.zeros(2, 2), Mat.identity(2)])
    scaled = diagonalize(eps_eye)
    assert scaled.k == 1
    assert scaled.delta_series() == eps_eye
    inverse = scaled.generalized_inverse(6)
    assert inverse.pole == 1
    assert inverse.coefficient(-1) == Mat.identity(2)
    for exponent in range(0, 7):
        assert inverse.coefficient(exponent).is_zero()
    eps_elapsed = time.perf_counter() - started

    assert const_elapsed < 0.1 and eps_elapsed < 0.1
    _passed(
        f"criterion 2 trivial families exact "
        f"({const_elapsed * 1000:.0f} ms, {eps_elapsed * 1000:.0f} ms)"
    )


def test_criterion_3_property_suite(property_suite):
    records, build_elapsed = property_suite
    started = time.perf_counter()
    for fam, result, inverse in records:
        state = result.state
        k = result.k
        # Residual: diagonalize would have raised otherwise; prove it again.
        assert result.residual_order() is None
        for j in range(1, state.stage_count + 1):
            assert state.coefficient_identity_holds(j)
        for j in range(k + 2, state.stage_count + 1):
            for i in range(k + 2, j):
                assert state.e_block(i, j).is_zero()
            length = j - (k + 1)
            for offset in range(1, length):
                assert state.m_block(k + 1 + offset, j) == state.m_block(k + offset, j - 1)
            assert state.m_block(j, j).is_identity()
        lau = fam
        lxl = lau @ inverse @ lau
        for exponent in range(-lxl.pole, lxl.tail_order + 1):
            assert lxl.coefficient(exponent) == lau.coefficient(exponent)
        xlx = inverse @ lau @ inverse
        for exponent in range(-xlx.pole, xlx.tail_order + 1):
            assert xlx.coefficient(exponent) == inverse.coefficient(exponent)
    elapsed = build_elapsed + (time.perf_counter() - started)
    assert elapsed < 120.0, f"property suite took {elapsed:.1f}s"
    ks = {}
    for _, result, _ in records:
        ks[result.k] = ks.get(result.k, 0) + 1
    _passed(
        f"criterion 3 property suite over {len(records)} families in "
        f"{elapsed:.1f}s (k distribution {dict(sorted(ks.items()))})"
    )


def test_criterion_4_oracle_equivalence(property_suite):
    records, _ = property_suite
    compared = 0
    for fam, result, inverse in records:
        if fam.rows == fam.cols and result.generic_rank == fam.rows:
            oracle = direct_laurent_inverse(fam, tail=12)
            assert oracle.pole == inverse.pole
            for exponent in range(-inverse.pole, 13):
                assert oracle.coefficient(exponent) == inverse.coefficient(exponent)
            compared += 1
        state = result.state
        for length in range(1, result.k + 2):
            expected = sum(state.stage(i).n.dim for i in range(1, length + 1))
            assert toeplitz_nullspace(fam, length).dim == expected
    assert compared >= 40
    _passed(
        f"criterion 4 oracle equivalence: {compared} square families against the "
        f"direct Laurent oracle, Toeplitz kernel dims on all {len(records)}"
    )


def test_criterion_5_companion_checks(example1):
    rng = random.Random(5)
    # Linearization bound over >= 50 polynomial families of degree 2..3.
    checked = 0
    while checked < 50:
        rows = rng.randint(1, 4)
        cols_ = rng.randint(1, 4)
        degree = rng.randint(2, 3)
        fam = random_family(rng, rows, cols_, degree, deficit=rng.choice([0, 1, 1]))
        state = RecursionState(fam)
        k = state.run_until_stabilized()
        pencil_state = RecursionState(linearize_polynomial(fam).pencil())
        kbar = pencil_state.run_until_stabilized()
        assert (kbar - 1) * degree < k <= kbar * degree, (
            f"bound fails for degree {degree}: k={k}, kbar={kbar}"
        )
        checked += 1
    golden_pencil = RecursionState(linearize_polynomial(example1).pencil())
    assert golden_pencil.run_until_stabilized() == 1

    # Resolvent recurrences over >= 50 linear pencils with pole <= 1.
    verified = 0
    while verified < 50:
        n = rng.randint(2, 4)
        fam = random_family(rng, n, n, 1, deficit=rng.choice([0, 1, 1]))
        try:
            inverse = direct_laurent_inverse(fam, tail=10)
        except ValueError:
            continue
        if inverse.pole > 1:
            continue
        ok, first_bad = resolvent_recurrence_check(
            fam.coefficient(0), fam.coefficient(1), inverse, 10
        )
        assert ok, f"recurrence fails first at index {first_bad}"
        verified += 1
    _passed(
        "criterion 5 companions: linearization bound on 51 families "
        "(golden k_pencil = 1), resolvent recurrences on 50 pencils"
    )


def test_criterion_6_smith_factorization(example1, property_suite):
    records, _ = property_suite
    golden = diagonalize(example1)
    assert golden.smith_factorization().exponents == (0, 1, 3)
    for fam, result, _ in records:
        fact = result.smith_factorization()
        assert MatSeries.constant(fact.s_p) @ fact.p_series() == result.delta_series()
        lhs = fam @ result.phi
        rhs = result.psi @ MatSeries.constant(fact.s_p) @ fact.p_series()
        assert lhs.eq_through(rhs, 12)
    _passed(
        f"criterion 6 Smith factorization identities exact on all "
        f"{len(records)} families; golden exponents (0, 1, 3)"
    )
