"""Core exact matrix arithmetic and elimination."""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from localsmith import Mat, MatLaurent, matrix, rat

from conftest import random_matrix
from reference import format_rat, transpose


def cofactor_det(m: Mat) -> Fraction:
    """Independent determinant by recursive cofactor expansion."""
    n = m.rows
    if n == 0:
        return Fraction(1)
    if n == 1:
        return m.entries[0][0]
    total = Fraction(0)
    for j in range(n):
        if m.entries[0][j] == 0:
            continue
        minor = Mat(
            [[m.entries[i][c] for c in range(n) if c != j] for i in range(1, n)]
        )
        sign = 1 if j % 2 == 0 else -1
        total += sign * m.entries[0][j] * cofactor_det(minor)
    return total


def minor_rank(m: Mat) -> int:
    """Brute-force rank: the largest size of a nonzero minor."""
    upper = min(m.rows, m.cols)
    for size in range(upper, 0, -1):
        for row_idx in itertools.combinations(range(m.rows), size):
            for col_idx in itertools.combinations(range(m.cols), size):
                sub = Mat([[m.entries[i][j] for j in col_idx] for i in row_idx])
                if cofactor_det(sub) != 0:
                    return size
    return 0


class TestRat:
    def test_parse_forms(self):
        assert rat("3/4") == Fraction(3, 4)
        assert rat("-7") == Fraction(-7)
        assert rat(5) == Fraction(5)
        assert rat(Fraction(2, 6)) == Fraction(1, 3)

    def test_zero_denominator_rejected(self):
        with pytest.raises(ValueError):
            rat("2/0")

    def test_float_rejected(self):
        with pytest.raises(ValueError):
            rat(0.5)

    def test_format_round_trip(self):
        for text in ("0", "5", "-5", "3/4", "-22/7"):
            assert format_rat(rat(text)) == text


class TestRref:
    def test_identity_is_fixed(self):
        reduced, pivots = Mat.identity(3).rref()
        assert reduced == Mat.identity(3)
        assert pivots == (0, 1, 2)

    def test_forced_elimination(self):
        reduced, pivots = Mat([[0, 1], [0, 2]]).rref()
        assert reduced == Mat([[0, 1], [0, 0]])
        assert pivots == (1,)

    def test_idempotent(self):
        rng = random.Random(101)
        for _ in range(25):
            m = random_matrix(rng, rng.randint(1, 5), rng.randint(1, 5))
            reduced, _ = m.rref()
            again, _ = reduced.rref()
            assert again == reduced

    def test_rank_matches_minor_search(self):
        rng = random.Random(42)
        for _ in range(20):
            m = random_matrix(rng, 4, 5, density=0.5)
            assert m.rank() == minor_rank(m)

    def test_pivots_strictly_increasing(self):
        rng = random.Random(3)
        for _ in range(20):
            m = random_matrix(rng, 4, 4, density=0.4)
            _, pivots = m.rref()
            assert list(pivots) == sorted(set(pivots))


class TestNullspace:
    def test_rank_nullity(self):
        rng = random.Random(7)
        for _ in range(30):
            rows, cols_ = rng.randint(1, 5), rng.randint(1, 5)
            m = random_matrix(rng, rows, cols_, density=0.5)
            assert m.rank() + m.nullspace().cols == cols_

    def test_kernel_vectors_annihilated(self):
        rng = random.Random(8)
        for _ in range(20):
            m = random_matrix(rng, 3, 5, density=0.5)
            basis = m.nullspace()
            assert (m @ basis).is_zero()

    def test_deterministic_parametrization(self):
        m = Mat([[1, 2, 3], [0, 0, 0]])
        basis = m.nullspace()
        # Free columns 1 and 2, each carrying a unit entry in rref order.
        assert basis == Mat([[-2, -3], [1, 0], [0, 1]])


class TestArithmetic:
    def test_exactness_no_foreign_denominators(self):
        a = Mat([[rat("1/3"), rat("2/3")], [1, 0]])
        b = Mat([[3, 0], [0, 3]])
        assert a @ b == Mat([[1, 2], [3, 0]])

    def test_solve_and_inverse(self):
        rng = random.Random(9)
        for _ in range(15):
            m = random_matrix(rng, 3, 3)
            if m.det() == 0:
                continue
            inv = m.inverse()
            assert m @ inv == Mat.identity(3)
            assert inv @ m == Mat.identity(3)
            rhs = random_matrix(rng, 3, 2)
            sol = m.solve(rhs)
            assert m @ sol == rhs

    def test_solve_inconsistent_returns_none(self):
        m = Mat([[1, 0], [1, 0]])
        rhs = Mat([[1], [2]])
        assert m.solve(rhs) is None

    def test_det_matches_cofactor_expansion(self):
        rng = random.Random(10)
        for _ in range(20):
            n = rng.randint(1, 4)
            m = random_matrix(rng, n, n)
            assert m.det() == cofactor_det(m)

    @pytest.mark.parametrize(
        "a, b",
        [
            (Mat([[1, 2]]), Mat([[1, 2]])),
            (Mat.identity(2), Mat.identity(3)),
            (Mat.zeros(2, 3), Mat.zeros(2, 3)),
            (Mat.zeros(3, 0), Mat.zeros(2, 1)),
        ],
        ids=["dense", "identities", "zeros", "empty"],
    )
    def test_matmul_refuses_mismatched_shapes(self, a, b):
        with pytest.raises(ValueError, match="shape mismatch"):
            a @ b

    @pytest.mark.parametrize(
        "call, message",
        [
            (lambda: Mat([["1/2", 0, 0]]) + Mat.zeros(3, 1), "shape mismatch 1x3 + 3x1"),
            (lambda: Mat.identity(2) - Mat([["1/3", 0, 1]]), "shape mismatch 2x2 - 1x3"),
            (
                lambda: Mat.hstack([Mat.identity(2), Mat([["1/2"]])]),
                "row count mismatch in hstack",
            ),
            (
                lambda: Mat.vstack([Mat([["1/2"]]), Mat.identity(2)]),
                "column count mismatch in vstack",
            ),
            (
                lambda: packed(Mat.identity(2)).extended([Mat([["1/2", 0, 0]])]),
                "blocks of 2 columns expected",
            ),
        ],
        ids=["add", "sub", "hstack", "vstack", "extended"],
    )
    def test_common_denominator_kernels_refuse_mismatched_shapes(self, call, message):
        with pytest.raises(ValueError) as raised:
            call()
        assert str(raised.value) == message

    def test_zero_width_matrices(self):
        empty = Mat.zeros(3, 0)
        assert empty.rank() == 0
        assert (transpose(empty) @ empty) == Mat.zeros(0, 0)
        stacked = Mat.hstack([empty, Mat.identity(3)])
        assert stacked == Mat.identity(3)

    def test_immutable(self):
        m = Mat.identity(2)
        with pytest.raises(AttributeError):
            m.rows = 5

    @pytest.mark.parametrize(
        "grid", [[[0.5]], [[True]], [["1/0"]], [["1/x"]], [[1, 2], [3]]],
        ids=["float", "bool", "zero-denominator", "malformed", "ragged"],
    )
    def test_constructor_rejects(self, grid):
        with pytest.raises(ValueError):
            Mat(grid)

    @pytest.mark.parametrize(
        "grid, cols, width",
        [([[1, 2]], 3, 2), ([[], []], 2, 0)],
        ids=["wider", "empty-rows"],
    )
    def test_constructor_rejects_a_stated_width_the_rows_lack(self, grid, cols, width):
        with pytest.raises(ValueError, match=f"cols mismatch: stated {cols}, got {width}"):
            Mat(grid, cols=cols)

    @pytest.mark.parametrize(
        "m, expected",
        [
            (Mat.identity(3), True),
            (Mat([[1, 0], [0, 1]]), True),
            (Mat.zeros(0, 0), True),
            (Mat([[1, 0, 0], [0, 1, 0]]), False),
            (Mat([[1, 0], [0, 2]]), False),
            (Mat([[1, 0], [0, rat("1/2")]]), False),
            (Mat([[1, rat("1/2")], [0, 1]]), False),
            (Mat([[0, 1], [1, 0]]), False),
        ],
        ids=["I3", "I2", "0x0", "non-square", "diag-1-2", "den-2-diagonal", "den-2-off", "swap"],
    )
    def test_is_identity(self, m, expected):
        assert m.is_identity() is expected

    def test_integer_rows_are_over_the_common_denominator(self):
        assert Mat([[rat("1/2"), rat("1/3")], [1, 0]]).integer_rows == ((3, 2), (6, 0))
        assert Mat.identity(2).integer_rows == ((1, 0), (0, 1))

    def test_from_integers_inverts_integer_rows(self):
        m = Mat([[rat("1/2"), rat("1/3")], [1, 0]])
        assert m.denominator == 6 and Mat.identity(2).denominator == 1
        assert Mat.from_integers(m.integer_rows, m.denominator) == m
        assert Mat.from_integers([[2, 4], [6, 0]], 4) == Mat([[rat("1/2"), 1], [rat("3/2"), 0]])
        assert Mat.from_integers([[0, 0]], 5) == Mat.zeros(1, 2)

    def test_block_products_plus(self):
        # PackedRows.products_plus multiplies a left grid by packed right rows
        # and adds packed addend rows below; blocks reads row blocks back.
        Packed = matrix.PackedRows
        left = Mat([[rat("1/2"), 0], [0, rat("1/2")], [0, 0], [0, 0], [1, 2], [3, 4]])
        right = Mat([[2, 0], [1, rat("1/3")]])
        other = Mat([[rat("1/2"), 1], [0, rat("3/2")]])
        plus = packed(other, other)
        rows = Packed.products_plus(left, right, plus, 2)
        blocks = rows.blocks(2, 0, 6)
        assert blocks[0] == left.submatrix_rows(range(2)) @ right
        assert blocks[1] == other
        assert blocks[2] == left.submatrix_rows(range(4, 6)) @ right + other
        assert blocks[2] == Mat([[rat("9/2"), rat("5/3")], [10, rat("17/6")]])
        # The rows are over lcm(2 * 3, 2) and are not reduced.
        assert rows.den == 6 and rows.ints[2] == 3 + (6 << 8 * rows.width)
        # A packed right gives the same rows; addends may reach past left's.
        again = Packed.products_plus(left, packed(right), packed(other), 5)
        [whole] = again.blocks(7, 0, 7)
        assert whole == Mat.vstack([left @ right, Mat.zeros(1, 2)]) + Mat.vstack(
            [Mat.zeros(5, 2), other]
        )
        # Zero and identity blocks are the shared ones.
        zero = Packed.products_plus(left, Mat.zeros(2, 2))
        assert zero.blocks(2, 0, 6) == [Mat.zeros(2, 2)] * 3
        assert all(b is Mat.zeros(2, 2) for b in zero.blocks(2, 0, 6))
        unit = Packed.products_plus(Mat([[1, 0], [0, 1], [0, 0]]), Mat.identity(2))
        assert unit.blocks(2, 0, 2)[0] is Mat.identity(2)
        assert unit.blocks(1, 2, 3)[0] is Mat.zeros(1, 2)
        assert Packed.identity(2, 4).blocks(2, 0, 4) == [Mat.identity(2), Mat.zeros(2, 2)]
        assert Packed.products_plus(Mat.zeros(0, 3), Mat.identity(3)).blocks(1, 0, 0) == []

    @pytest.mark.parametrize(
        "call",
        [
            lambda: packed(Mat.identity(2), Mat.identity(2)).blocks(2, 2, 6),
            lambda: packed(Mat.identity(2), Mat.identity(2)).blocks(2, 1, 4),
            lambda: matrix.PackedRows.products_plus(
                Mat([[rat("1/2"), 0], [0, 0], [0, 0]]), Mat([[1, 2], [3, 4]]),
                packed(Mat.identity(3)),
            ),
            lambda: matrix.PackedRows.products_plus(
                Mat.zeros(2, 2), Mat.zeros(2, 2), packed(Mat.zeros(2, 3))
            ),
            lambda: packed(Mat.zeros(2, 2)).blocks(2, 0, 3),
            lambda: matrix.PackedRows.products_plus(
                Mat([[0, 0], [1, 1]]), packed(Mat([[1], [2], [3]]))
            ),
            lambda: packed(Mat.zeros(0, 2)).blocks(2, 0, 2),
            lambda: matrix.PackedRows.products_plus(
                Mat([[0, 0], [1, 1]]), Mat.identity(2), packed(Mat.identity(2)), -1
            ),
        ],
        ids=["past-the-end", "overhanging", "too-wide", "zero-head-too-wide",
             "zero-head-past-the-end", "inner-mismatch", "no-addends", "negative-start"],
    )
    def test_block_products_plus_checks_the_shape_first(self, call, monkeypatch):
        # A bad request raises before any multiplication, also where the
        # product is zero: row blocks past the rows or not a whole number of
        # blocks, addends of another width or above row 0, a left grid whose
        # columns are not right's rows.
        def forbidden(x, y):
            raise AssertionError("multiplied before the shape check")

        monkeypatch.setattr(matrix, "mul", forbidden)
        with pytest.raises(ValueError):
            call()


class TestFoldedProducts:
    """A factor equal to the identity and a zero factor cost no multiplication,
    and zero and identity matrices are one shared matrix per shape."""

    @pytest.fixture
    def mults(self, monkeypatch):
        calls = []

        def counted(x, y):
            calls.append((x, y))
            return x * y

        monkeypatch.setattr(matrix, "mul", counted)
        return calls

    def test_identity_and_zero_factors_make_no_multiplication(self, mults):
        a = Mat([[1, rat("1/2"), 3], [0, -2, rat("5/3")]])
        b = Mat([[rat("-1/4"), 0, 7], [2, 1, rat("2/9")]])
        c = Mat([[1, 2, 3], [4, 5, 6], [7, 8, rat("1/9")]])
        eye2, eye3, zero = Mat.identity(2), Mat.identity(3), Mat.zeros(2, 3)
        assert a @ eye3 is a
        assert eye2 @ a is a
        total = Mat.sum_of_products([(eye2, a), (b, eye3), (zero, c)], 2, 3)
        assert total == a + b
        assert Mat.sum_of_products([(zero, c)], 2, 3) is Mat.zeros(2, 3)
        assert Mat.sum_of_products([], 2, 3) is Mat.zeros(2, 3)
        assert mults == []
        # A real product still multiplies.
        assert a @ c == Mat([[24, "57/2", "19/3"], ["11/3", "10/3", "-319/27"]])
        assert mults

    def test_any_matrix_equal_to_the_identity_folds(self, mults):
        a = Mat([[1, rat("2/3")], [3, 4]])
        parsed = Mat([["1", "0"], ["0", "1"]])
        solved = a.solve(a)
        assert parsed is not Mat.identity(2) and solved is not Mat.identity(2)
        for eye in (parsed, solved):
            assert a @ eye is a
            assert eye @ a is a
        assert mults == []

    def test_zero_and_identity_are_shared_per_shape(self):
        assert Mat.zeros(2, 3) is Mat.zeros(2, 3)
        assert Mat.identity(4) is Mat.identity(4)
        assert Mat.zeros(2, 3) is not Mat.zeros(3, 2)
        assert Mat.identity(4) != Mat.identity(3)


# -- property tests against plain-Fraction reference kernels ----------------
#
# The references below work on lists of Fractions and share no code with
# Mat's integer kernels: schoolbook products, Gauss-Jordan with a division
# per pivot row, and Gaussian elimination for the determinant.


def packed(*mats: Mat, cols: int | None = None, width: int = 1) -> "matrix.PackedRows":
    """The rows of mats stacked and packed, ``width`` bytes to a slot or wider."""
    cols = mats[0].cols if cols is None else cols
    return matrix.PackedRows([], 1, cols, width, 0).extended(mats)


def ref_matmul(a, b, cols):
    inner = len(b)
    return [[sum((row[k] * b[k][j] for k in range(inner)), Fraction(0)) for j in range(cols)]
            for row in a]


def ref_rref(grid, cols):
    m = [list(row) for row in grid]
    pivots = []
    pr = 0
    for pc in range(cols):
        found = next((r for r in range(pr, len(m)) if m[r][pc] != 0), None)
        if found is None:
            continue
        m[pr], m[found] = m[found], m[pr]
        piv = m[pr][pc]
        m[pr] = [x / piv for x in m[pr]]
        for r in range(len(m)):
            if r != pr and m[r][pc] != 0:
                f = m[r][pc]
                m[r] = [x - f * y for x, y in zip(m[r], m[pr])]
        pivots.append(pc)
        pr += 1
    return m, tuple(pivots)


def ref_det(grid):
    m = [list(row) for row in grid]
    n = len(m)
    det = Fraction(1)
    for c in range(n):
        found = next((r for r in range(c, n) if m[r][c] != 0), None)
        if found is None:
            return Fraction(0)
        if found != c:
            m[c], m[found] = m[found], m[c]
            det = -det
        det *= m[c][c]
        for r in range(c + 1, n):
            f = m[r][c] / m[c][c]
            m[r] = [x - f * y for x, y in zip(m[r], m[c])]
    return det


def shape_of(m: Mat):
    return m.rows, m.cols, m.entries


def as_entries(grid):
    return tuple(tuple(row) for row in grid)


def ints_of(grid):
    """The grid with each entry replaced by its numerator: den == 1."""
    return [[x.numerator for x in row] for row in grid]


ENTRY = st.one_of(
    st.just(Fraction(0)),
    st.integers(-3, 3).map(Fraction),
    st.builds(Fraction, st.integers(-10**6, 10**6), st.integers(1, 10**6)),
)
DIM = st.integers(0, 4)
PROPERTY = settings(max_examples=60, deadline=None, derandomize=True, database=None)


@st.composite
def grids(draw, rows, cols):
    """A rows x cols list grid: dense, sparse, or of deliberately low rank."""
    if rows and cols and draw(st.booleans()):
        inner = draw(st.integers(0, min(rows, cols) - 1))
        left = draw(grids(rows, inner))
        right = draw(grids(inner, cols))
        return ref_matmul(left, right, cols)
    return draw(st.lists(st.lists(ENTRY, min_size=cols, max_size=cols),
                         min_size=rows, max_size=rows))


def full_grids(rows, cols):
    """A rows x cols list grid with no zero entry."""
    entry = st.one_of(
        st.builds(Fraction, st.integers(1, 10**6), st.integers(2, 10**6)),
        st.integers(-3, 3).filter(bool).map(Fraction),
    )
    return st.lists(st.lists(entry, min_size=cols, max_size=cols), min_size=rows, max_size=rows)


def any_grids(rows, cols):
    return st.one_of(full_grids(rows, cols), grids(rows, cols))


@st.composite
def matrices(draw, rows=DIM, cols=DIM):
    r, c = draw(rows), draw(cols)
    return draw(grids(r, c)), r, c


class TestStrings:
    @PROPERTY
    @given(st.one_of(matrices(), matrices().map(lambda d: (ints_of(d[0]), d[1], d[2]))))
    def test_strings_are_format_rat_of_entries(self, drawn):
        grid, r, c = drawn
        m = Mat(grid, cols=c)
        assert m.strings() == [[format_rat(x) for x in row] for row in m.entries]

    @pytest.mark.parametrize(
        "grid, cols, text",
        [
            ([[0, -3], [7, 0]], 2, [["0", "-3"], ["7", "0"]]),
            ([["-2/4", "1/3"], ["6/3", 0]], 2, [["-1/2", "1/3"], ["2", "0"]]),
            ([], 3, []),
            ([[], []], 0, [[], []]),
        ],
        ids=["integers", "rationals", "no-rows", "no-columns"],
    )
    def test_strings_examples(self, grid, cols, text):
        assert Mat(grid, cols=cols).strings() == text


def per_entry(grid, cols):
    """The matrix of ``grid`` read entry by entry, each entry by ``ratio``."""
    return Mat([[Fraction(*matrix.ratio(x)) for x in row] for row in grid], cols=cols)


# An ASCII integer with an optional sign and leading zeros, "-0" among them,
# and values past 2^64.
INTEGER_SPELLING = st.builds(
    lambda sign, zeros, value: sign + "0" * zeros + str(value),
    st.sampled_from(["", "+", "-"]),
    st.integers(0, 2),
    st.one_of(st.integers(0, 3), st.integers(0, 2**80)),
)


class TestIntegerRows:
    """``Mat`` reads a grid of integer strings a row at a time, and any other
    grid entry by entry."""

    @PROPERTY
    @given(
        DIM.flatmap(
            lambda c: st.tuples(
                st.lists(
                    st.lists(
                        st.one_of(INTEGER_SPELLING, st.integers(-2**70, 2**70)),
                        min_size=c, max_size=c,
                    ),
                    max_size=4,
                ),
                st.just(c),
            )
        ),
        st.booleans(),
    )
    def test_equals_the_per_entry_reading(self, drawn, strings_only):
        grid, c = drawn
        if strings_only:
            grid = [[str(x) for x in row] for row in grid]
        m, want = Mat(grid, cols=c), per_entry(grid, c)
        assert (m.rows, m.cols, m.denominator, m.integer_rows) == (
            want.rows, want.cols, want.denominator, want.integer_rows
        )

    @pytest.mark.parametrize(
        "grid",
        [
            [["-0", "+0", "007"], ["-12", "+3", str(2**64)]],
            [["1", 2], ["-3", -4]],
            [[str(-2**70)]],
        ],
        ids=["spellings", "mixed", "past-2^64"],
    )
    def test_examples(self, grid):
        assert Mat(grid) == per_entry(grid, len(grid[0]))

    def test_integer_strings_take_no_ratio_call(self, monkeypatch):
        calls, ratio, half = [], matrix.ratio, per_entry([["1", "1/2"]], 2)
        monkeypatch.setattr(matrix, "ratio", lambda x: calls.append(x) or ratio(x))
        assert Mat([["1", "-2"], ["+03", "4"]]).integer_rows == ((1, -2), (3, 4))
        assert calls == []
        assert Mat([["1", "1/2"]]) == half
        assert calls == ["1", "1/2"]

    @pytest.mark.parametrize(
        "bad",
        ["1.5", "1e3", "3_000", " 3 ", "\u0663", "1/0", "1/-2", "9" * 5000, "1,2", True],
        ids=[
            "decimal", "exponent", "underscore", "whitespace", "arabic-indic-digit",
            "zero-denominator", "negative-denominator", "5000-digits", "comma", "json-true",
        ],
    )
    def test_refusals_word_the_refused_entry(self, bad):
        with pytest.raises(ValueError) as refused:
            matrix.ratio(bad)
        text = str(refused.value)
        assert text.startswith("not a rational: bool" if bad is True else "malformed rational")
        for r, c in itertools.product(range(2), range(3)):
            grid = [["1", "-2", "30"], ["+4", "05", "-0"]]
            grid[r][c] = bad
            with pytest.raises(ValueError) as raised:
                Mat(grid)
            assert str(raised.value) == text, (r, c)


class TestKernelsAgainstReference:
    @PROPERTY
    @given(st.sampled_from(["full", "full", "full", "any"]), st.data())
    def test_matmul(self, kind, data):
        # Most examples take full factors of shape 1-4, which make a real
        # dot product unless a 1x1 factor is 1; the rest take any shape and
        # grid, empty, zero and low-rank factors included.
        dim, grid = (st.integers(1, 4), full_grids) if kind == "full" else (DIM, any_grids)
        r, k, c = data.draw(dim), data.draw(dim), data.draw(dim)
        a, b = data.draw(grid(r, k)), data.draw(grid(k, c))
        product = Mat(a, cols=k) @ Mat(b, cols=c)
        assert shape_of(product) == (r, c, as_entries(ref_matmul(a, b, c)))

    @settings(PROPERTY, max_examples=100)
    @given(
        st.integers(1, 4),
        st.integers(1, 4),
        st.lists(
            st.tuples(
                DIM,
                st.sampled_from(["dense", "zero-left", "zero-right", "eye-left", "eye-right"]),
                st.booleans(),
            ),
            min_size=2,
            max_size=4,
        ),
        st.data(),
    )
    def test_sum_of_products(self, r, c, inners, data):
        # An identity factor stands on either side, its inner size set to
        # fit; integer grids (den 1) and rational ones both occur. At least
        # two pairs and full grids make most sums mix folds and dot products;
        # products with no rows or columns go through test_matmul.
        pairs, expected = [], [[Fraction(0)] * c for _ in range(r)]
        for k, kind, integer in inners:
            k = {"eye-left": r, "eye-right": c}.get(kind, k)
            a = data.draw(st.one_of(full_grids(r, k), grids(r, k)))
            b = data.draw(st.one_of(full_grids(k, c), grids(k, c)))
            if integer:
                a, b = ints_of(a), ints_of(b)
            eye = [[int(i == j) for j in range(k)] for i in range(k)]
            if kind == "zero-left":
                a = [[0] * k for _ in range(r)]
            elif kind == "zero-right":
                b = [[0] * c for _ in range(k)]
            elif kind == "eye-left":
                a = eye
            elif kind == "eye-right":
                b = eye
            pairs.append((Mat(a, cols=k), Mat(b, cols=c)))
            for row, add in zip(expected, ref_matmul(a, b, c)):
                row[:] = [x + y for x, y in zip(row, add)]
        total = Mat.sum_of_products(pairs, r, c)
        assert shape_of(total) == (r, c, as_entries(expected))
        # Equal values have equal state, whichever way the sum was formed.
        want = Mat(expected, cols=c)
        assert (total._den, total._grid) == (want._den, want._grid)

    @PROPERTY
    @given(DIM, DIM, st.data())
    def test_rref_and_nullspace(self, r, c, data):
        grid = data.draw(st.one_of(full_grids(r, c), grids(r, c)))
        m = Mat(grid, cols=c)
        want, pivots = ref_rref(grid, c)
        reduced, got_pivots = m.rref()
        assert shape_of(reduced) == (r, c, as_entries(want))
        assert got_pivots == pivots
        free = [j for j in range(c) if j not in pivots]
        basis = [[Fraction(0)] * len(free) for _ in range(c)]
        for k, f in enumerate(free):
            basis[f][k] = Fraction(1)
            for row, p in enumerate(pivots):
                basis[p][k] = -want[row][f]
        assert shape_of(m.nullspace()) == (c, len(free), as_entries(basis))

    @PROPERTY
    @given(
        st.one_of(matrices(), matrices().map(lambda d: (ints_of(d[0]), d[1], d[2]))),
        st.lists(st.booleans(), max_size=3),
        st.data(),
    )
    def test_rank_is_the_rref_pivot_count(self, drawn, zero_lines, data):
        grid, r, c = drawn
        # Zero rows and zero columns at drawn places.
        for is_row in zero_lines:
            if is_row:
                grid.insert(data.draw(st.integers(0, r)), [0] * c)
                r += 1
            else:
                at = data.draw(st.integers(0, c))
                grid = [row[:at] + [0] + row[at:] for row in grid]
                c += 1
        m = Mat(grid, cols=c)
        pivots = len(ref_rref(grid, c)[1])
        # rank builds no rref, and counts the pivots itself whether or not
        # one is cached.
        assert m.rank() == pivots
        assert m._rref is None
        assert len(m.rref()[1]) == pivots
        assert m.rank() == pivots

    @PROPERTY
    @given(DIM, DIM, st.integers(0, 2), st.booleans(), st.data())
    def test_solve(self, r, c, width, consistent, data):
        grid = data.draw(st.one_of(full_grids(r, c), grids(r, c)))
        if consistent:
            x = data.draw(st.one_of(full_grids(c, width), grids(c, width)))
            rhs = ref_matmul(grid, x, width)
        else:
            rhs = data.draw(st.one_of(full_grids(r, width), grids(r, width)))
        augmented, pivots = ref_rref([a + b for a, b in zip(grid, rhs)], c + width)
        got = Mat(grid, cols=c).solve(Mat(rhs, cols=width))
        if any(p >= c for p in pivots):
            assert got is None
            return
        want = [[Fraction(0)] * width for _ in range(c)]
        for row, p in enumerate(pivots):
            want[p] = augmented[row][c:]
        assert shape_of(got) == (c, width, as_entries(want))

    @PROPERTY
    @given(matrices(rows=st.shared(DIM, key="n"), cols=st.shared(DIM, key="n")))
    def test_inverse_and_det(self, drawn):
        grid, n, _ = drawn
        m = Mat(grid, cols=n)
        det = ref_det(grid)
        assert m.det() == det
        if det == 0:
            with pytest.raises(ValueError):
                m.inverse()
            return
        eye = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
        reduced, _ = ref_rref([a + b for a, b in zip(grid, eye)], 2 * n)
        assert shape_of(m.inverse()) == (n, n, as_entries(row[n:] for row in reduced))

    @PROPERTY
    @given(st.integers(1, 6).flatmap(lambda n: grids(n, n)), st.booleans())
    def test_det_adjugate(self, grid, zero_lead):
        """One fraction-free pass over the integer grid A = D * M, D the
        common denominator, gives det A = D^n det M and adj A = D^(n-1)
        det M M^-1, and (0, None) for a singular M: det against the
        elimination reference, adj against the rref inverse. A zero leading entry
        forces a row swap whenever the first column has another nonzero."""
        n = len(grid)
        if zero_lead:
            grid = [[Fraction(0), *grid[0][1:]], *grid[1:]]
        m = Mat(grid, cols=n)
        den = m.denominator
        det, adj = Mat.det_adjugate(m.integer_rows)
        assert Fraction(det, den**n) == m.det() == ref_det(grid)
        if det == 0:
            assert adj is None
            return
        assert Mat.from_integers(adj, den ** (n - 1)) == m.inverse() * m.det()

    def test_det_adjugate_swaps_rows(self):
        assert Mat.det_adjugate([[0, 1], [1, 0]]) == (-1, [[0, -1], [-1, 0]])
        assert Mat.det_adjugate([[0, 2], [0, 3]]) == (0, None)

    @pytest.mark.parametrize("r, c", [(0, 3), (3, 0), (0, 0), (1, 1)])
    def test_degenerate_shapes(self, r, c):
        m = Mat([[Fraction(-7, 999983)] * c for _ in range(r)], cols=c)
        assert shape_of(m @ Mat.zeros(c, 2)) == (r, 2, ((Fraction(0),) * 2,) * r)
        assert shape_of(Mat.sum_of_products([], r, c)) == shape_of(Mat.zeros(r, c))
        _, pivots = m.rref()
        assert pivots == ((0,) if r and c else ())
        free = [j for j in range(c) if j not in pivots]
        basis = tuple(tuple(Fraction(int(i == f)) for f in free) for i in range(c))
        assert shape_of(m.nullspace()) == (c, len(free), basis)
        assert shape_of(m.solve(Mat.zeros(r, 1))) == (c, 1, ((Fraction(0),),) * c)
        if r == c:
            assert m.det() == (Fraction(-7, 999983) if r else 1)
            inverse = ((Fraction(-999983, 7),),) if r else ()
            assert shape_of(m.inverse()) == (r, r, inverse)

    @PROPERTY
    @given(matrices(), st.data())
    def test_add_sub_neg(self, drawn, data):
        a, r, c = drawn
        b = data.draw(grids(r, c))
        ma, mb = Mat(a, cols=c), Mat(b, cols=c)
        total = [[x + y for x, y in zip(p, q)] for p, q in zip(a, b)]
        difference = [[x - y for x, y in zip(p, q)] for p, q in zip(a, b)]
        assert shape_of(ma + mb) == (r, c, as_entries(total))
        assert shape_of(ma - mb) == (r, c, as_entries(difference))
        assert shape_of(-ma) == (r, c, as_entries([[-x for x in row] for row in a]))

    @PROPERTY
    @given(matrices(), st.one_of(ENTRY, st.integers(-5, 5), ENTRY.map(format_rat)))
    def test_scalar_multiple(self, drawn, scalar):
        grid, r, c = drawn
        s = Fraction(scalar)
        assert shape_of(Mat(grid, cols=c) * scalar) == (
            r, c, as_entries([[x * s for x in row] for row in grid])
        )

    @PROPERTY
    @given(DIM, st.lists(DIM, min_size=1, max_size=3), st.data())
    def test_hstack_vstack(self, n, widths, data):
        parts = [data.draw(grids(n, w)) for w in widths]
        wide = Mat.hstack([Mat(p, cols=w) for p, w in zip(parts, widths)])
        rows = [[x for p in parts for x in p[i]] for i in range(n)]
        assert shape_of(wide) == (n, sum(widths), as_entries(rows))
        blocks = [data.draw(grids(w, n)) for w in widths]
        tall = Mat.vstack([Mat(b, cols=n) for b in blocks])
        assert shape_of(tall) == (sum(widths), n, as_entries(row for b in blocks for row in b))

    @PROPERTY
    @given(matrices(), st.data())
    def test_transpose_column_and_submatrices(self, drawn, data):
        grid, r, c = drawn
        m = Mat(grid, cols=c)
        flipped = [[grid[i][j] for i in range(r)] for j in range(c)]
        assert shape_of(transpose(m)) == (c, r, as_entries(flipped))
        for j in range(c):
            column = as_entries([row[j]] for row in grid)
            assert shape_of(m.submatrix_columns([j])) == (r, 1, column)
        indices = data.draw(st.lists(st.integers(0, c - 1), max_size=4)) if c else []
        picked = [[row[j] for j in indices] for row in grid]
        assert shape_of(m.submatrix_columns(indices)) == (r, len(indices), as_entries(picked))
        rows = data.draw(st.lists(st.integers(0, r - 1), max_size=4)) if r else []
        picked = [grid[i] for i in rows]
        assert shape_of(m.submatrix_rows(rows)) == (len(rows), c, as_entries(picked))

    @PROPERTY
    @given(matrices(), st.data())
    def test_equal_values_compare_and_hash_equal(self, drawn, data):
        grid, r, c = drawn
        a = Mat(grid, cols=c)
        b = Mat(data.draw(grids(r, c)), cols=c)
        results = [
            a + b, a - b, -a, a * Fraction(-3, 7), a * 0, a @ transpose(b), a.rref()[0],
            a.nullspace(), transpose(a), Mat.hstack([a, b]), Mat.vstack([a, b]),
            a.submatrix_columns(range(c // 2)), a.submatrix_rows(range(r // 2)),
            *(a.submatrix_columns([j]) for j in range(c)),
        ]
        routes = [((a + b) - b, a), ((a - b) + b, a), (-(-a), a), (a * 0, Mat.zeros(r, c))]
        routes += [(Mat(m.entries, cols=m.cols), m) for m in [a, *results]]
        for x, y in routes:
            assert x == y
            assert hash(x) == hash(y)


# -- the series and block kernels against pair-by-pair references ------------

PRIMES = (2, 3, 5, 7, 11, 13, 17, 19)
# Block counts that mostly leave _PACK_MIN_BLOCKS nonzero blocks a side.
LONG = st.integers(4, 7)
# Shapes with an empty dimension in about one draw in four.
SERIES_DIM = st.sampled_from((0, 1, 2, 3, 1, 2, 3, 1, 2, 3, 2, 3))


def ref_convolve(a, b, size, rows, cols):
    """c_s = sum_{p+q=s} a_p b_q for s < size, pair by pair over Fraction grids."""
    out = [[[Fraction(0)] * cols for _ in range(rows)] for _ in range(size)]
    for p, x in enumerate(a):
        for q, y in enumerate(b):
            if p + q < size:
                for row, add in zip(out[p + q], ref_matmul(x, y, cols)):
                    row[:] = [u + v for u, v in zip(row, add)]
    return out


@st.composite
def series_blocks(draw, rows, cols, count=st.integers(0, 7)):
    """Blocks, some zero: small, 200-bit, one repeated value, or over a
    prime of their own, so the denominators of a side are pairwise coprime."""
    blocks = []
    for p in range(draw(count)):
        kind = draw(st.sampled_from(["zero", "small", "wide", "same", "coprime", "any"]))
        if kind == "any":
            blocks.append(draw(grids(rows, cols)))
            continue
        entry = {
            "zero": st.just(0),
            "small": st.integers(-3, 3),
            "wide": st.integers(-(2**200), 2**200),
            "same": st.just(draw(st.integers(-(2**200), 2**200))),
            "coprime": st.integers(-10**6, 10**6).map(lambda x, d=PRIMES[p]: Fraction(x, d)),
        }[kind].map(Fraction)
        blocks.append(draw(st.lists(st.lists(entry, min_size=cols, max_size=cols),
                                    min_size=rows, max_size=rows)))
    return blocks


class TestKroneckerPacking:
    """The one packer and reader: ``_pack`` with consecutive slots, as
    ``PackedRows`` packs a row, or with a slot per nonzero power only, as
    ``Mat.convolve`` packs an entry's blocks; ``_unpack_rows`` reads any
    number of low slots back."""

    @pytest.mark.parametrize("layout", ["rows", "series"])
    @pytest.mark.parametrize("width", [1, 2, 8, 25, 40])
    @pytest.mark.parametrize("slots", [1, 2, 7, 31, 90])
    def test_round_trip(self, slots, width, layout):
        rng = random.Random(slots * 41 + width)
        top = 2 ** (8 * width - 1) - 1
        powers = list(range(slots))
        if layout == "series":
            powers = sorted(rng.sample(powers, rng.randint(1, slots)))
        vectors = [[0] * len(powers), [top] * len(powers), [-top] * len(powers)]
        for _ in range(4):
            vectors.append(
                [rng.choice([0, top, -top, rng.randint(-top, top)]) for _ in powers]
            )
        ints = matrix._pack(vectors, [8 * width * p for p in powers])
        assert ints[0] == 0
        values = [dict(zip(powers, vector)) for vector in vectors]
        for count in range(slots + 1):
            want = [tuple(value.get(s, 0) for s in range(count)) for value in values]
            assert matrix._unpack_rows(ints, count, width) == want, count

    def test_zero_reads_as_zeros(self):
        assert matrix._unpack_rows([0, 0], 3, 2) == [(0, 0, 0)] * 2
        assert matrix._unpack_rows([0], 0, 1) == [()]


class TestSeriesKernels:
    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(SERIES_DIM, SERIES_DIM, SERIES_DIM, st.integers(-2, 2), st.data())
    def test_convolve(self, r, k, c, extra, data):
        count = data.draw(st.sampled_from([LONG, LONG, st.integers(0, 7)]))
        a = data.draw(series_blocks(r, k, count))
        b = data.draw(series_blocks(k, c, count))
        size = max(1, len(a) + len(b) - 1 + extra)
        got = Mat.convolve([Mat(x, cols=k) for x in a], [Mat(y, cols=c) for y in b], size, r, c)
        want = ref_convolve(a, b, size, r, c)
        assert len(got) == size
        for coeff, grid in zip(got, want):
            assert shape_of(coeff) == (r, c, as_entries(grid))
            if not any(map(any, grid)):
                assert coeff is Mat.zeros(r, c)

    @pytest.mark.parametrize("sign", [1, -1], ids=["same-sign", "opposite-sign"])
    @pytest.mark.parametrize(
        "magnitude, inner",
        [(2**99, 1), (2**99 - 1, 1), (3, 4), (2**60, 3)],
        ids=["bound-of-200-bits", "bound-under-200-bits", "small-inner-4", "61-bits-inner-3"],
    )
    def test_convolve_at_the_slot_bound(self, magnitude, inner, sign):
        # Every entry the same size, so c_2 = 3 * inner * magnitude^2 reaches
        # the bound the slots are sized by; at 2^99 it fills a whole number
        # of bytes and only the sign bit's byte holds it.
        a = [Mat([[magnitude] * inner])] * 3
        b = [Mat([[sign * magnitude]] * inner)] * 3
        got = Mat.convolve(a, b, 6, 1, 1)
        assert [m.entries[0][0] for m in got] == [
            sign * inner * magnitude**2 * n for n in (1, 2, 3, 2, 1, 0)
        ]
        assert got[5] is Mat.zeros(1, 1)

    @pytest.mark.parametrize("width", [1, 2, 25], ids=["8-bit", "16-bit", "200-bit"])
    def test_block_products_plus_at_the_slot_bound(self, width):
        # x = 2^(8 width - 1) - 1 is the largest |entry| a slot of width
        # bytes holds. A product whose bound is exactly that keeps the
        # operands' width; one bit more repacks them wider.
        Packed, x = matrix.PackedRows, 2 ** (8 * width - 1) - 1
        right = packed(Mat([[x, -x]]), width=width)
        assert right.width == width
        assert packed(Mat([[x + 1]]), width=width).width > width
        fits = Packed.products_plus(Mat([[1], [-1], [0]]), right)
        assert fits.width == width
        assert fits.blocks(1, 0, 3) == [Mat([[x, -x]]), Mat([[-x, x]]), Mat.zeros(1, 2)]
        wider = Packed.products_plus(Mat([[2], [-1]]), right)
        assert wider.width > width
        assert wider.blocks(1, 0, 2) == [Mat([[2 * x, -2 * x]]), Mat([[-x, x]])]
        # An addend at the bound, past the product's rows.
        addend = packed(Mat([[-x, x]]), width=width)
        plus = Packed.products_plus(Mat([[0]]), Mat([[5, 5]]), addend, 1)
        assert plus.width == width
        assert plus.blocks(1, 0, 2) == [Mat.zeros(1, 2), Mat([[-x, x]])]
        # Over the lcm of the denominators x/2 and -x/3 are 3x and -2x, past
        # the bound: the addend is repacked.
        over = Packed.products_plus(
            Mat([[rat("1/2")]]), Mat([[x, 0]]), packed(Mat([[0, rat(f"{-x}/3")]]), width=width)
        )
        assert over.den == 6 and over.width > width
        assert over.blocks(1, 0, 1) == [Mat([[rat(f"{x}/2"), rat(f"{-x}/3")]])]

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(SERIES_DIM, st.integers(1, 3), SERIES_DIM, st.integers(0, 2), st.integers(0, 2),
           st.data())
    def test_laurent_products_convolve(self, r, k, c, pole_a, pole_b, data):
        a = data.draw(series_blocks(r, k, LONG))
        b = data.draw(series_blocks(k, c, LONG))
        x = MatLaurent(pole_a, [Mat(g, cols=k) for g in a], exact=True)
        y = MatLaurent(pole_b, [Mat(g, cols=c) for g in b], exact=True)
        want = ref_convolve(a, b, len(a) + len(b) - 1, r, c)
        product = x @ y
        for s, grid in enumerate(want):
            assert shape_of(product.coefficient(s - pole_a - pole_b)) == (r, c, as_entries(grid))
        assert product.coefficient(len(want) - pole_a - pole_b).is_zero()

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(st.integers(0, 3), st.integers(1, 3), SERIES_DIM, st.integers(1, 3), st.data())
    def test_block_products_plus(self, count, height, inner, cols, data):
        # count left blocks of height rows, some zero or the identity, by
        # right rows, Mat or packed, plus packed addend blocks from block
        # ``start``: small, 200-bit or rational signed entries, packed at 1
        # to 4 bytes a slot, so that products repack narrow operands.
        left = data.draw(series_blocks(height, inner, st.just(count)))
        if height == inner:
            for b in data.draw(st.lists(st.integers(0, count - 1), max_size=2)) if count else []:
                left[b] = [[Fraction(int(i == k)) for k in range(inner)] for i in range(height)]
        right = data.draw(series_blocks(1, cols, st.just(inner)))
        right = [row for block in right for row in block]
        if inner == cols and data.draw(st.booleans()):
            right = [[Fraction(int(i == k)) for k in range(cols)] for i in range(inner)]
        width = data.draw(st.integers(1, 4))
        operand = Mat(right, cols=cols)
        if data.draw(st.booleans()):
            operand = packed(*[operand.submatrix_rows([i]) for i in range(inner)], cols=cols,
                             width=width)
        plus, start = None, data.draw(st.integers(0, count + 1))
        addends = []
        if data.draw(st.booleans()):
            addends = data.draw(series_blocks(height, cols, st.integers(0, 3)))
            plus = packed(*[Mat(g, cols=cols) for g in addends], cols=cols, width=width)
        rows = [row for block in left for row in block]
        got = matrix.PackedRows.products_plus(Mat(rows, cols=inner), operand, plus, start * height)
        total = max(count, start + len(addends) if plus else 0)
        want = ref_matmul(rows, right, cols) + [[Fraction(0)] * cols] * (total - count) * height
        for b, addend in enumerate(addends):
            for i, row in enumerate(addend):
                r = (start + b) * height + i
                want[r] = [u + v for u, v in zip(want[r], row)]
        assert len(got.ints) == total * height
        for b, block in enumerate(got.blocks(height, 0, total * height)):
            grid = want[b * height : b * height + height]
            assert shape_of(block) == (height, cols, as_entries(grid))
            # Equal values have equal state; zero and identity are shared.
            same = Mat(grid, cols=cols)
            assert (block._den, block._grid) == (same._den, same._grid)
            if same.is_zero():
                assert block is Mat.zeros(height, cols)
            if same.is_identity():
                assert block is Mat.identity(height)
