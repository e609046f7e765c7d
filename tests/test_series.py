"""Truncated power series and Laurent series algebra."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from localsmith import Mat, MatLaurent, MatSeries, TruncationError, series_inverse

from conftest import random_matrix
from reference import identity_series


def psi_golden() -> MatSeries:
    """The golden family's left transformation [[1,0,0],[0,1,0],[e^3,e,1]]."""
    c0 = Mat.identity(3)
    c1 = Mat([[0, 0, 0], [0, 0, 0], [0, 1, 0]])
    c3 = Mat([[0, 0, 0], [0, 0, 0], [1, 0, 0]])
    return MatSeries.polynomial([c0, c1, Mat.zeros(3, 3), c3])


def psi_golden_inverse() -> MatSeries:
    c0 = Mat.identity(3)
    c1 = Mat([[0, 0, 0], [0, 0, 0], [0, -1, 0]])
    c3 = Mat([[0, 0, 0], [0, 0, 0], [-1, 0, 0]])
    return MatSeries.polynomial([c0, c1, Mat.zeros(3, 3), c3])


def naive_convolution(a: MatSeries, b: MatSeries, upto: int) -> list[Mat]:
    out = []
    for l in range(upto + 1):
        acc = Mat.zeros(a.rows, b.cols)
        for i in range(l + 1):
            acc = acc + a.coefficient(i) @ b.coefficient(l - i)
        out.append(acc)
    return out


class TestSeriesProduct:
    def test_nilpotent_telescoping(self):
        n = Mat([[0, 1], [0, 0]])
        assert (n @ n).is_zero()
        plus = MatSeries.polynomial([Mat.identity(2), n])
        minus = MatSeries.polynomial([Mat.identity(2), -n])
        assert plus @ minus == identity_series(2)

    def test_golden_left_transform_times_inverse(self):
        product = psi_golden() @ psi_golden_inverse()
        assert product.eq_through(identity_series(3), 6)

    def test_matches_naive_convolution(self):
        rng = random.Random(21)
        for _ in range(10):
            a = MatSeries.polynomial([random_matrix(rng, 2, 3) for _ in range(3)])
            b = MatSeries.polynomial([random_matrix(rng, 3, 2) for _ in range(4)])
            product = a @ b
            for l, expected in enumerate(naive_convolution(a, b, 5)):
                assert product.coefficient(l) == expected

    def test_associative_and_distributive(self):
        rng = random.Random(22)
        for _ in range(8):
            a = MatSeries.polynomial([random_matrix(rng, 2, 2) for _ in range(3)])
            b = MatSeries.polynomial([random_matrix(rng, 2, 2) for _ in range(2)])
            c = MatSeries.polynomial([random_matrix(rng, 2, 2) for _ in range(3)])
            assert (a @ b) @ c == a @ (b @ c)
            assert a @ (b + c) == a @ b + a @ c

    def test_truncation_tightest_order(self):
        exact = MatSeries.polynomial([Mat.identity(2)] * 3)
        shallow = MatSeries([Mat.identity(2)] * 4, exact=False)
        product = exact @ shallow
        assert product.tail_order == 3
        with pytest.raises(TruncationError):
            product.coefficient(4)

    def test_exact_product_stays_exact(self):
        a = MatSeries.polynomial([Mat.identity(2), Mat.identity(2)])
        assert (a @ a).exact
        assert (a @ a).degree == 2


class TestSeriesInverse:
    def test_golden_left_transform(self):
        inv = series_inverse(psi_golden(), 6)
        assert inv.eq_through(psi_golden_inverse().truncate(6), 6)

    def test_identity(self):
        inv = series_inverse(identity_series(4), 5)
        assert inv.eq_through(identity_series(4), 5)

    def test_scalar_geometric(self):
        one_minus = MatSeries.polynomial([Mat([[1]]), Mat([[-1]])])
        inv = series_inverse(one_minus, 8)
        for i in range(9):
            assert inv.coefficient(i) == Mat([[1]])

    def test_two_sided_through_order(self):
        rng = random.Random(23)
        for _ in range(8):
            lead = random_matrix(rng, 3, 3)
            if lead.det() == 0:
                continue
            a = MatSeries.polynomial([lead] + [random_matrix(rng, 3, 3) for _ in range(2)])
            x = series_inverse(a, 7)
            assert (a @ x).eq_through(identity_series(3), 7)
            assert (x @ a).eq_through(identity_series(3), 7)

    def test_singular_leading_coefficient(self):
        a = MatSeries.polynomial([Mat.zeros(2, 2), Mat.identity(2)])
        with pytest.raises(ValueError, match="singular leading"):
            series_inverse(a, 3)


class TestLaurent:
    def test_pole_times_zero_order(self):
        inv_eps = MatLaurent(1, [Mat.identity(2)], exact=True)
        eps = MatLaurent(0, [Mat.zeros(2, 2), Mat.identity(2)], exact=True)
        product = inv_eps @ eps
        assert product.pole == 0
        assert product.coefficient(0) == Mat.identity(2)
        assert product.is_zero() is False

    def test_golden_diagonal_inverse_identity(self):
        # Delta = [[1,0,0],[0,0,e],[0,-e^3,0]]; solving Delta X = I by hand
        # gives X = [[1,0,0],[0,0,-e^-3],[0,e^-1,0]].
        delta = MatLaurent(
            0,
            [
                Mat([[1, 0, 0], [0, 0, 0], [0, 0, 0]]),
                Mat([[0, 0, 0], [0, 0, 1], [0, 0, 0]]),
                Mat.zeros(3, 3),
                Mat([[0, 0, 0], [0, 0, 0], [0, -1, 0]]),
            ],
            exact=True,
        )
        delta_inv = MatLaurent(
            3,
            [
                Mat([[0, 0, 0], [0, 0, -1], [0, 0, 0]]),
                Mat.zeros(3, 3),
                Mat([[0, 0, 0], [0, 0, 0], [0, 1, 0]]),
                Mat([[1, 0, 0], [0, 0, 0], [0, 0, 0]]),
            ],
            exact=True,
        )
        product = delta_inv @ delta
        assert product.pole == 0
        assert product.coefficient(0) == Mat.identity(3)
        for exponent in range(1, product.degree + 1):
            assert product.coefficient(exponent).is_zero()

    def test_pole_renormalization(self):
        lifted = MatLaurent(2, [Mat.zeros(2, 2), Mat.identity(2), Mat.identity(2)])
        assert lifted.pole == 1
        zero = MatLaurent(3, [Mat.zeros(1, 1)] * 4, exact=True)
        assert zero.pole == 0
        assert zero.is_zero()

    def test_tail_bookkeeping_in_products(self):
        # A has pole 1 and tail 4; B has pole 2 and tail 5. Coefficient l of
        # the product needs A through l+2 and B through l+1, so honesty stops
        # at min(4-2, 5-1) = 2.
        a = MatLaurent(1, [Mat.identity(1)] * 6, exact=False)
        b = MatLaurent(2, [Mat.identity(1)] * 8, exact=False)
        product = a @ b
        assert product.tail_order == 2
        with pytest.raises(TruncationError):
            product.coefficient(3)

    def test_truncation_survives_renormalization(self):
        # Popping the only stored block of a truncation would claim the
        # coefficient after it.
        zero = MatLaurent(1, [Mat.zeros(1, 1)])
        assert zero.tail_order == -1
        with pytest.raises(TruncationError):
            zero.coefficient(0)
        product = MatSeries([Mat.zeros(1, 1)]) @ MatLaurent(1, [Mat([[1]])], exact=True)
        assert product.tail_order == -1
        with pytest.raises(TruncationError):
            product.coefficient(0)

    def test_shift_round_trip(self):
        a = MatLaurent(1, [Mat.identity(2), Mat.identity(2)], exact=True)
        assert a.shift(3).shift(-3) == a
        assert a.shift(2).pole == 0

    def test_add_aligns_poles(self):
        a = MatLaurent(1, [Mat.identity(1), Mat.zeros(1, 1)], exact=True)
        b = MatLaurent(0, [Mat.identity(1)], exact=True)
        total = a + b
        assert total.coefficient(-1) == Mat.identity(1)
        assert total.coefficient(0) == Mat.identity(1)

    @pytest.mark.parametrize("pole", [0, 1, 3])
    @pytest.mark.parametrize("exact", [True, False])
    def test_truncate_keeps_every_coefficient_through_t(self, pole, exact):
        rng = random.Random(10 * pole + exact)
        a = MatLaurent(pole, [random_matrix(rng, 2, 3) for _ in range(4)], exact=exact)
        last = a.degree + (3 if exact else 0)
        for t in range(-a.pole, last + 1):
            cut = a.truncate(t)
            assert cut.tail_order == t
            for exponent in range(-a.pole - 1, t + 1):
                assert cut.coefficient(exponent) == a.coefficient(exponent), (t, exponent)
        for t in range(-a.pole - 3, -a.pole):
            with pytest.raises(ValueError, match=f"t = {t}: pole {a.pole} "):
                a.truncate(t)

    def test_evaluate_matches_coefficients(self):
        a = MatLaurent(1, [Mat.identity(1), Mat.zeros(1, 1), Mat([[3]])], exact=True)
        value = a.evaluate(Fraction(1, 2))
        assert value == Mat([[Fraction(2) + Fraction(3, 2)]])


# -- truncation bookkeeping against a plain reference ------------------------


class Reference:
    """An operand as an exponent -> matrix dict of its stored coefficients,
    with the order they are valid through (None when exact)."""

    def __init__(self, pole: int, blocks: list[Mat], exact: bool):
        self.pole, self.blocks, self.exact = pole, blocks, exact
        self.n = blocks[0].rows
        self.coeffs = {e - pole: m for e, m in enumerate(blocks)}
        self.tail = None if exact else len(blocks) - 1 - pole

    def build(self, as_series: bool) -> MatLaurent:
        if as_series and self.pole == 0:
            return MatSeries(self.blocks, exact=self.exact)
        return MatLaurent(self.pole, self.blocks, exact=self.exact)

    def min_pole(self) -> int:
        """The pole left once leading zero blocks are dropped; a truncation
        keeps its last stored block."""
        nonzero = [e for e, m in self.coeffs.items() if not m.is_zero()]
        low = min(nonzero, default=None if self.exact else self.tail)
        return 0 if low is None else max(0, -low)

    def at(self, e: int) -> Mat:
        """The coefficient at e; an unknown one (past the tail) is filled
        with a nonzero stand-in, so a result that claims it differs."""
        if e in self.coeffs or self.tail is None or e <= self.tail:
            return self.coeffs.get(e, Mat.zeros(self.n, self.n))
        return Mat([[e + 7 + i + j for j in range(self.n)] for i in range(self.n)])


def tightest(*candidates):
    known = [c for c in candidates if c is not None]
    return min(known) if known else None


def block(rows: int, cols: int):
    """A zero block, or one with small integer or rational entries."""
    entry = st.one_of(st.integers(-2, 2), st.fractions(-2, 2, max_denominator=5))
    grid = st.lists(st.lists(entry, min_size=cols, max_size=cols), min_size=rows, max_size=rows)
    return st.one_of(st.just(Mat.zeros(rows, cols)), grid.map(lambda g: Mat(g, cols=cols)))


@st.composite
def references(draw, n: int) -> Reference:
    blocks = draw(st.lists(block(n, n), min_size=1, max_size=4))
    return Reference(draw(st.integers(0, 2)), blocks, draw(st.booleans()))


def expected(op: str, a: Reference, b: Reference, k: int):
    """(tail order, coefficient function) of the result, or None when the
    operands determine no coefficient of it."""
    if op in ("+", "-"):
        sign = 1 if op == "+" else -1
        return tightest(a.tail, b.tail), lambda e: a.at(e) + b.at(e) * sign
    if op == "@":
        pa, pb = a.min_pole(), b.min_pole()
        tail = tightest(
            None if a.tail is None else a.tail - pb, None if b.tail is None else b.tail - pa
        )
        if tail is not None and tail < -(pa + pb):
            return None
        return tail, lambda l: sum(
            (a.at(i) @ b.at(l - i) for i in range(-pa, l + pb + 1)), Mat.zeros(a.n, b.n)
        )
    if op == "shift":
        return None if a.tail is None else a.tail + k, lambda e: a.at(e - k)
    t = -a.min_pole() + abs(k)
    if a.tail is not None and t > a.tail:
        return None
    return t, a.at


def apply(op: str, x: MatLaurent, y: MatLaurent, k: int) -> MatLaurent:
    if op == "+":
        return x + y
    if op == "-":
        return x - y
    if op == "@":
        return x @ y
    if op == "shift":
        return x.shift(k)
    return x.truncate(-x.pole + abs(k))


class TestTruncationBookkeeping:
    @pytest.mark.parametrize("op", ["+", "-", "@", "shift", "truncate"])
    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(data=st.data())
    def test_against_reference(self, op, data):
        n = data.draw(st.sampled_from([1, 2]))
        a, b = data.draw(references(n)), data.draw(references(n))
        k = data.draw(st.integers(-3, 3))
        want = expected(op, a, b, k)
        if want is None:
            with pytest.raises(TruncationError):
                apply(op, a.build(True), b.build(True), k)
            return
        tail, coefficient = want
        results = [apply(op, a.build(s), b.build(s), k) for s in (True, False)]
        assert results[0] == results[1]
        assert hash(results[0]) == hash(results[1])
        if op in ("+", "-", "@") and a.pole == b.pole == 0:
            assert type(results[0]) is MatSeries
        result = results[0]
        assert result.tail_order == tail
        top = 2 * (len(a.blocks) + len(b.blocks)) + 3 if tail is None else tail
        for e in range(-(a.pole + b.pole) - 5, top + 1):
            assert result.coefficient(e) == coefficient(e), e
        if tail is not None:
            with pytest.raises(TruncationError):
                result.coefficient(tail + 1)


# -- products and inverses against the all-pairs formulas --------------------


def all_pairs_product(x: MatLaurent, y: MatLaurent) -> MatLaurent:
    """x @ y by pairing every stored block of x with every stored block of
    y, zero blocks included."""
    pole, exact = x.pole + y.pole, x.exact and y.exact
    if exact:
        top = x.degree + y.degree
    else:
        top = min(a.degree - b.pole for a, b in ((x, y), (y, x)) if not a.exact)
    if top < -pole:
        raise TruncationError("truncations too shallow")
    na, nb = len(x.coeffs), len(y.coeffs)
    coeffs = [
        Mat.sum_of_products(
            ((x.coeffs[p], y.coeffs[s - p]) for p in range(max(0, s - nb + 1), min(s, na - 1) + 1)),
            x.rows,
            y.cols,
        )
        for s in range(top + pole + 1)
    ]
    if pole == 0 and type(x) is type(y) is MatSeries:
        return MatSeries(coeffs, exact)
    return MatLaurent(pole, coeffs, exact)


def all_pairs_inverse(a: MatSeries, t: int) -> MatSeries:
    """X_l = -A_0^{-1} sum_{j<l} A_{l-j} X_j over every j, zero blocks included."""
    x0 = a.coefficient(0).inverse()
    xs = [x0]
    for l in range(1, t + 1):
        acc = Mat.sum_of_products(((a.coefficient(l - j), xs[j]) for j in range(l)), a.rows, a.cols)
        xs.append(-(x0 @ acc))
    return MatSeries(xs, exact=False)


@st.composite
def sparse_series(draw, rows: int, cols: int, pole=st.integers(0, 2)) -> MatLaurent:
    """Exact or truncated, with random zero blocks; a pole-0 series is drawn
    as a MatSeries or a MatLaurent."""
    coeffs = draw(st.lists(block(rows, cols), min_size=1, max_size=5))
    pole, exact = draw(pole), draw(st.booleans())
    if pole == 0 and draw(st.booleans()):
        return MatSeries(coeffs, exact)
    return MatLaurent(pole, coeffs, exact)


SIZE = st.integers(1, 3)


class TestZeroBlocksAgainstAllPairs:
    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(SIZE, SIZE, SIZE, st.data())
    def test_product(self, rows, inner, cols, data):
        x = data.draw(sparse_series(rows, inner))
        y = data.draw(sparse_series(inner, cols))
        try:
            want = all_pairs_product(x, y)
        except TruncationError:
            with pytest.raises(TruncationError):
                x @ y
            return
        got = x @ y
        assert type(got) is type(want)
        assert got == want

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(SIZE, st.integers(0, 6), st.data())
    def test_inverse(self, n, t, data):
        a = data.draw(sparse_series(n, n, pole=st.just(0)))
        # A diagonally dominant A_0 is invertible.
        lead = a.coeffs[0] + Mat.identity(n) * 7
        a = MatSeries((lead,) + a.coeffs[1:], a.exact)
        if not a.exact and a.degree < t:
            with pytest.raises(TruncationError):
                series_inverse(a, t)
            return
        assert series_inverse(a, t) == all_pairs_inverse(a, t)
