"""The independent validators: block-Toeplitz kernels, direct Laurent
inversion, polynomial-to-pencil linearization, resolvent recurrences."""

import random
import re
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from localsmith import (
    Mat,
    MatLaurent,
    MatSeries,
    RecursionState,
    direct_laurent_inverse,
    generic_rank,
    linearize_polynomial,
    resolvent_recurrence_check,
    toeplitz_block,
)
from localsmith.errors import TruncationError
from localsmith.oracles import toeplitz_nullspace

from conftest import example1_family, random_family, random_matrix


# -- the reference direct inverse: Mat-valued Newton interpolation of det and
# adj sampled one point at a time, and a coefficient-by-coefficient product.


def _poly_mul_series(a: list[Mat], b: list[Fraction], upto: int) -> list[Mat]:
    """Coefficients 0..upto of a(eps) b(eps), for Mat coefficients a_i."""
    out = [Mat.zeros(a[0].rows, a[0].cols)] * (upto + 1)
    for i, ai in enumerate(a[: upto + 1]):
        for j, bj in enumerate(b[: upto + 1 - i]):
            if bj:
                out[i + j] = out[i + j] + ai * bj
    return out


def _poly_inverse_series(p: list[Fraction], upto: int) -> list[Fraction]:
    inv0 = 1 / p[0]
    out = [inv0] + [Fraction(0)] * upto
    for l in range(1, upto + 1):
        acc = Fraction(0)
        for j in range(max(0, l - len(p) + 1), l):
            acc += p[l - j] * out[j]
        out[l] = -inv0 * acc
    return out


def _newton_interpolate(points: list[tuple[Fraction, object]], zero) -> list:
    """Coefficients of the unique interpolating polynomial, ascending order.
    The values may be Mats, interpolated as a whole; ``zero`` is the zero
    value."""
    xs = [x for x, _ in points]
    divided = [y for _, y in points]
    k = len(points)
    for level in range(1, k):
        for i in range(k - 1, level - 1, -1):
            divided[i] = (divided[i] - divided[i - 1]) * (1 / (xs[i] - xs[i - level]))
    # Horner expansion of the Newton form back to monomial coefficients.
    coeffs = [divided[k - 1]]
    for i in range(k - 2, -1, -1):
        expanded = [zero] * (len(coeffs) + 1)
        for j, c in enumerate(coeffs):
            expanded[j + 1] = expanded[j + 1] + c
            expanded[j] = expanded[j] - c * xs[i]
        expanded[0] = expanded[0] + divided[i]
        coeffs = expanded
    return coeffs


def reference_laurent_inverse(family: MatSeries, tail: int) -> MatLaurent:
    work = family if family.exact else MatSeries.polynomial(family.coeffs)
    n = work.rows
    deg_bound = n * work.degree
    det_points, adj_points = [], []
    t = 0
    while len(det_points) < deg_bound + 1:
        t += 1
        if t > 2 * deg_bound + 1:
            raise ValueError("generically singular family")
        x = Fraction(t)
        value = work.evaluate(x)
        det = value.det()
        if det == 0:
            continue
        det_points.append((x, det))
        adj_points.append((x, value.inverse() * det))
    det_poly = _newton_interpolate(det_points, Fraction(0))
    while len(det_poly) > 1 and det_poly[-1] == 0:
        det_poly.pop()
    pole_det = 0
    while det_poly[pole_det] == 0:
        pole_det += 1
    depth = tail + pole_det
    unit_inv = _poly_inverse_series(det_poly[pole_det:], depth)
    adj_poly = _newton_interpolate(adj_points, Mat.zeros(n, n))
    return MatLaurent(pole_det, _poly_mul_series(adj_poly, unit_inv, depth), exact=False)


@st.composite
def square_families(draw) -> MatSeries:
    """Square families of full generic rank, n 1..4 and degree 1..3, whose
    lead may drop rank, with rational coefficients and either flag."""
    n, degree = draw(st.integers(1, 4)), draw(st.integers(1, 3))
    rng = random.Random(draw(st.integers(0, 2**16)))
    family = random_family(rng, n, n, degree, deficit=draw(st.integers(0, n)))
    scales = [Fraction(1, draw(st.integers(1, 3))) for _ in family.coeffs]
    family = MatSeries([c * s for c, s in zip(family.coeffs, scales)], exact=draw(st.booleans()))
    assume(generic_rank(family) == n)
    return family


# det = eps (eps - 1): the sample point t = 1 is singular and skipped.
SINGULAR_AT_ONE = MatSeries.polynomial(
    [Mat([[0, 0], [0, 1]]), Mat([[-1, 0], [0, 0]]), Mat([[1, 0], [0, 0]])]
)


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


# -- hand-built block matrices: entry rows laid out one by one from the
# stored coefficients, with a zero block wherever the exponent is negative
# or past the last nonzero stored coefficient.


def _hand_blocks(family: MatSeries, size: int, exponent) -> Mat:
    m, n = family.rows, family.cols
    top = max((e for e, c in enumerate(family.coeffs) if not c.is_zero()), default=0)
    rows = []
    for bi in range(size):
        for r in range(m):
            row = []
            for bj in range(size):
                e = exponent(bi, bj)
                row.extend(family.coeffs[e].entries[r] if 0 <= e <= top else [0] * n)
            rows.append(row)
    return Mat(rows, cols=size * n)


def _block_families() -> dict[str, MatSeries]:
    rng = random.Random(26)
    square = random_family(rng, 3, 3, 2, deficit=1)
    wide, tall = random_family(rng, 2, 3, 3), random_family(rng, 3, 2, 1)
    gappy = MatSeries.polynomial(
        [random_matrix(rng, 2, 2), Mat.zeros(2, 2), random_matrix(rng, 2, 2)]
    )
    return {
        "example1": example1_family(),
        "square": square,
        "wide": wide,
        "tall": tall,
        "gappy": gappy,
        # Truncations: one through the degree, one past it with trailing
        # genuine zeros, one that cuts the polynomial short.
        "trunc-square": square.truncate(2),
        "trunc-wide-padded": wide.truncate(5),
        "trunc-example1-short": example1_family().truncate(1),
    }


BLOCK_FAMILIES = _block_families()


class TestBlockAssembly:
    @pytest.mark.parametrize("name", sorted(BLOCK_FAMILIES))
    def test_toeplitz_block_equals_hand_built(self, name):
        family = BLOCK_FAMILIES[name]
        # A truncated family is read through its stored coefficients only:
        # length l reads exponents up to l - 1.
        longest = family.degree + 1 if not family.exact else family.degree + 3
        for length in range(1, longest + 1):
            expect = _hand_blocks(family, length, lambda i, j: j - i)
            assert toeplitz_block(family, length) == expect
        if not family.exact:
            with pytest.raises(TruncationError):
                toeplitz_block(family, longest + 1)

    @pytest.mark.parametrize("name", sorted(BLOCK_FAMILIES))
    def test_linearize_polynomial_equals_hand_built(self, name):
        family = BLOCK_FAMILIES[name]
        closure = family if family.exact else MatSeries.polynomial(family.coeffs)
        deg = closure.degree
        pencil = linearize_polynomial(family)
        assert pencil.degree == deg
        assert pencil.lbar0 == _hand_blocks(family, deg, lambda i, j: i - j)
        assert pencil.lbar1 == _hand_blocks(family, deg, lambda i, j: deg + i - j)


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

    def test_tail_below_the_valuation_rejected(self, example1):
        """det L has valuation 4 on example1: tail -4 asks for the eps^-4
        coefficient alone, and a tail below it for no coefficient."""
        inverse = direct_laurent_inverse(example1, tail=-4)
        assert inverse.tail_order == -4
        assert inverse.coefficient(-4) == direct_laurent_inverse(example1, tail=8).coefficient(-4)
        for tail in (-5, -9):
            message = f"tail {tail} is below -4, minus the determinant's valuation"
            with pytest.raises(ValueError, match=re.escape(message)):
                direct_laurent_inverse(example1, tail=tail)

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(square_families(), st.integers(0, 12))
    @example(SINGULAR_AT_ONE, 6)
    def test_equals_reference(self, family, tail):
        """The one-pass interpolation and the Toeplitz product give the pole
        and every coefficient of the point-by-point reference exactly."""
        got = direct_laurent_inverse(family, tail=tail)
        want = reference_laurent_inverse(family, tail)
        assert got.pole == want.pole
        assert got.coeffs == want.coeffs
        assert got.tail_order == tail

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(square_families(), st.integers(0, 2), st.integers(-1, 3), st.integers(0, 10))
    def test_equals_reference_with_pole_and_truncation(self, family, pole, cut, tail):
        """The integer oracle equals the Fraction reference on eps^pole L,
        the normalized family of an input with that declared pole, and on
        its truncation through order pole + cut or its last stored one (none
        for cut = -1), which may leave it generically singular: then both
        reject it."""
        family = family.shift(pole)
        if cut >= 0:
            family = family.truncate(min(pole + cut, family.degree))
        try:
            want = reference_laurent_inverse(family, tail)
        except ValueError:
            message = "generically singular family (determinant vanishes identically)"
            with pytest.raises(ValueError, match=re.escape(message)):
                direct_laurent_inverse(family, tail=tail)
            return
        got = direct_laurent_inverse(family, tail=tail)
        assert (got.pole, got.coeffs, got.tail_order) == (want.pole, want.coeffs, tail)

    def test_singular_sample_point_is_skipped(self):
        assert SINGULAR_AT_ONE.evaluate(1).det() == 0
        inverse = direct_laurent_inverse(SINGULAR_AT_ONE, tail=6)
        assert inverse.pole == 1
        assert laurent_identity_holds(SINGULAR_AT_ONE, inverse)

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

    @staticmethod
    def reversed_within_super_blocks(count: int, d: int, size: int) -> list[int]:
        """The indices of count*d blocks of ``size`` lines each, with the d
        blocks inside each super-block of d in reverse order."""
        return [
            (group * d + d - 1 - block) * size + line
            for group in range(count)
            for block in range(d)
            for line in range(size)
        ]

    @pytest.mark.parametrize("length", [1, 2, 3])
    def test_pencil_toeplitz_is_reversed_family_toeplitz(self, length):
        """The companion pencil P of a degree-d family is L blocked by d:
        its length-l block Toeplitz matrix is L's length-l*d one with the d
        blocks inside each super-block reversed, on rows and on columns."""
        rng, checked = random.Random(500 + length), 0
        while checked < 40:
            family = random_family(rng, rng.randint(1, 4), rng.randint(1, 4), rng.randint(1, 4))
            d = family.degree
            if d < 1:
                continue
            checked += 1
            rows = self.reversed_within_super_blocks(length, d, family.rows)
            cols_ = self.reversed_within_super_blocks(length, d, family.cols)
            reordered = (
                toeplitz_block(family, length * d).submatrix_rows(rows).submatrix_columns(cols_)
            )
            pencil = linearize_polynomial(family).pencil()
            assert toeplitz_block(pencil, length) == reordered

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

    @pytest.mark.parametrize("exponent, first_bad", [(0, 1), (3, 3), (7, 7)])
    def test_corrupted_coefficient_fails_at_its_index(self, exponent, first_bad):
        # L(eps) = [[1, eps, 0], [0, eps, 0], [eps, 0, 1]], det L = eps.
        fam = MatSeries.polynomial(
            [Mat([[1, 0, 0], [0, 0, 0], [0, 0, 1]]), Mat([[0, 1, 0], [0, 1, 0], [1, 0, 0]])]
        )
        inverse = direct_laurent_inverse(fam, tail=10)
        assert inverse.pole == 1
        coeffs = list(inverse.coeffs)
        coeffs[exponent + 1] = coeffs[exponent + 1] + Mat([[1, 0, 0], [0, 0, 0], [0, 0, 0]])
        corrupted = MatLaurent(1, coeffs)
        assert resolvent_recurrence_check(
            fam.coefficient(0), fam.coefficient(1), corrupted, 10
        ) == (False, first_bad)

    def test_deep_pole_rejected(self):
        fam = MatSeries.polynomial([Mat([[0, 1], [0, 0]]), Mat.identity(2)])
        inverse = direct_laurent_inverse(fam, tail=6)
        assert inverse.pole == 2
        with pytest.raises(ValueError, match="pole"):
            resolvent_recurrence_check(fam.coefficient(0), fam.coefficient(1), inverse, 6)
