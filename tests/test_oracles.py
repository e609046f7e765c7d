"""The independent validators: block-Toeplitz kernels, direct Laurent
inversion, polynomial-to-pencil linearization, resolvent recurrences."""

import random
from fractions import Fraction

import pytest

from localsmith import (
    Mat,
    MatLaurent,
    MatSeries,
    RecursionState,
    direct_laurent_inverse,
    linearize_polynomial,
    resolvent_recurrence_check,
    toeplitz_block,
    toeplitz_nullspace,
)

from conftest import example1_family, random_family, random_matrix


def laurent_identity_holds(family: MatSeries, inverse: MatLaurent) -> bool:
    lau = family
    left = lau @ inverse
    right = inverse @ lau
    for product in (left, right):
        for exponent in range(-product.pole, product.tail_order + 1):
            expected = (
                Mat.identity(product.rows) if exponent == 0 else Mat.zeros(product.rows, product.cols)
            )
            if product.coefficient(exponent) != expected:
                return False
    return True


class TestToeplitzNullspace:
    def test_block_layout(self, example1):
        block = toeplitz_block(example1, 2)
        assert block.rows == 6 and block.cols == 6
        # Upper triangular: order-0 blocks on the diagonal, order-1 top right,
        # zero below the diagonal.
        assert block.entries[1][5] == 1
        l0 = example1.coefficient(0)
        for i in range(3):
            for j in range(3):
                assert block.entries[i][j] == l0.entries[i][j]
                assert block.entries[3 + i][3 + j] == l0.entries[i][j]
                assert block.entries[3 + i][j] == 0

    def test_golden_dims(self, example1):
        assert toeplitz_nullspace(example1, 1).dim == 2
        assert toeplitz_nullspace(example1, 4).dim == 4

    def test_zero_family_full_space(self):
        fam = MatSeries.polynomial([Mat.zeros(2, 3)])
        for length in (1, 2, 3):
            assert toeplitz_nullspace(fam, length).dim == 3 * length


class TestDirectLaurentInverse:
    def test_golden_pole_and_identity(self, example1):
        inverse = direct_laurent_inverse(example1, tail=8)
        assert inverse.pole == 3
        assert laurent_identity_holds(example1, inverse)

    def test_invertible_constant_term(self):
        rng = random.Random(61)
        lead = random_matrix(rng, 3, 3)
        while lead.det() == 0:
            lead = random_matrix(rng, 3, 3)
        fam = MatSeries.polynomial([lead, random_matrix(rng, 3, 3)])
        inverse = direct_laurent_inverse(fam, tail=6)
        assert inverse.pole == 0
        assert inverse.coefficient(0) == lead.inverse()
        assert laurent_identity_holds(fam, inverse)

    def test_eps_identity(self):
        fam = MatSeries.polynomial([Mat.zeros(2, 2), Mat.identity(2)])
        inverse = direct_laurent_inverse(fam, tail=5)
        assert inverse.pole == 1
        assert inverse.coefficient(-1) == Mat.identity(2)
        for exponent in range(0, 6):
            assert inverse.coefficient(exponent).is_zero()

    def test_generically_singular_rejected(self):
        fam = MatSeries.polynomial([Mat([[1, 0], [0, 0]]), Mat([[0, 0], [2, 0]])])
        with pytest.raises(ValueError, match="singular"):
            direct_laurent_inverse(fam, tail=4)

    def test_p_max_exceeded(self, example1):
        with pytest.raises(ValueError, match="exceeds p_max"):
            direct_laurent_inverse(example1, p_max=2, tail=4)

    def test_random_identity_both_sides(self):
        rng = random.Random(62)
        done = 0
        while done < 6:
            fam = random_family(rng, 3, 3, 2, deficit=1)
            try:
                inverse = direct_laurent_inverse(fam, tail=8)
            except ValueError:
                continue
            assert laurent_identity_holds(fam, inverse)
            done += 1


class TestLinearization:
    def test_degree_one_is_itself(self):
        fam = MatSeries.polynomial([Mat.identity(2), Mat([[0, 1], [1, 0]])])
        pencil = linearize_polynomial(fam)
        assert pencil.degree == 1
        assert pencil.lbar0 == fam.coefficient(0)
        assert pencil.lbar1 == fam.coefficient(1)

    def test_degree_zero_rejected(self):
        with pytest.raises(ValueError):
            linearize_polynomial(MatSeries.polynomial([Mat.identity(2)]))

    def test_block_layout(self, example1):
        pencil = linearize_polynomial(example1)
        m = pencil.lbar0
        assert m.rows == 9 and m.cols == 9
        l0, l1, l2 = (example1.coefficient(i) for i in range(3))
        for i in range(3):
            for j in range(3):
                assert m.entries[3 + i][j] == l1.entries[i][j]
                assert m.entries[6 + i][j] == l2.entries[i][j]
                assert m.entries[6 + i][3 + j] == l1.entries[i][j]
                assert m.entries[i][3 + j] == 0
        top = pencil.lbar1
        l3 = example1.coefficient(3)
        for i in range(3):
            for j in range(3):
                assert top.entries[i][j] == l3.entries[i][j]
                assert top.entries[i][3 + j] == l2.entries[i][j]
                assert top.entries[3 + i][j] == 0

    def test_golden_bound_and_chain_dims(self, example1):
        pencil = linearize_polynomial(example1)
        state = RecursionState(pencil.pencil())
        kbar = state.run_until_stabilized()
        assert kbar == 1
        assert (kbar - 1) * 3 < 3 <= kbar * 3
        # Chain spaces agree dimensionally: the pencil's length-kbar kernel
        # carries exactly the polynomial's length-k chains (k = kbar * n here).
        assert toeplitz_nullspace(pencil.pencil(), 1).dim == toeplitz_nullspace(example1, 3).dim

    def test_bound_on_random_degree_two(self):
        rng = random.Random(63)
        for _ in range(6):
            fam = random_family(rng, 3, 3, 2, deficit=1)
            state = RecursionState(fam)
            k = state.run_until_stabilized()
            pencil_state = RecursionState(linearize_polynomial(fam).pencil())
            kbar = pencil_state.run_until_stabilized()
            assert (kbar - 1) * 2 < k <= kbar * 2


class TestResolventRecurrences:
    def test_eps_identity(self):
        fam = MatSeries.polynomial([Mat.zeros(2, 2), Mat.identity(2)])
        inverse = direct_laurent_inverse(fam, tail=10)
        passed, first_bad = resolvent_recurrence_check(
            fam.coefficient(0), fam.coefficient(1), inverse, 10
        )
        assert passed and first_bad is None

    def test_neumann_series(self):
        nilpotent = Mat([[0, 1, 0], [0, 0, 1], [0, 0, 0]])
        fam = MatSeries.polynomial([Mat.identity(3), nilpotent])
        inverse = direct_laurent_inverse(fam, tail=10)
        for j in range(10):
            sign = 1 if j % 2 == 0 else -1
            power = Mat.identity(3)
            for _ in range(j):
                power = power @ nilpotent
            assert inverse.coefficient(j) == power * sign
        passed, _ = resolvent_recurrence_check(
            fam.coefficient(0), fam.coefficient(1), inverse, 10
        )
        assert passed

    def test_simple_singularity_pencils(self):
        rng = random.Random(64)
        done = 0
        while done < 6:
            fam = random_family(rng, 3, 3, 1, deficit=1)
            try:
                inverse = direct_laurent_inverse(fam, tail=10)
            except ValueError:
                continue
            if inverse.pole > 1:
                continue
            passed, first_bad = resolvent_recurrence_check(
                fam.coefficient(0), fam.coefficient(1), inverse, 10
            )
            assert passed, f"first violation at {first_bad}"
            done += 1

    def test_deep_pole_rejected(self):
        fam = MatSeries.polynomial([Mat([[0, 1], [0, 0]]), Mat.identity(2)])
        inverse = direct_laurent_inverse(fam, tail=6)
        assert inverse.pole == 2
        with pytest.raises(ValueError, match="pole"):
            resolvent_recurrence_check(fam.coefficient(0), fam.coefficient(1), inverse, 6)
