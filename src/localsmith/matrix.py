"""Dense exact-rational matrices with reduced row echelon elimination.

Everything downstream (subspace splits, the stage recursion, the series
algebra) reduces to the primitives in this module. A matrix is held as an
integer grid over one positive common denominator, reduced so that the
denominator and the grid entries have no common factor: equal matrices have
equal state. Every kernel (products, elimination, sums, stacking, slicing)
runs on Python integers and ends with at most one gcd over its result, so
every result is the same exact value that entry-by-entry ``Fraction``
arithmetic gives, without a gcd per multiply and add. ``Mat.strings``
renders the grid with no ``fractions.Fraction``; ``Mat.entries`` builds the
Fractions on first use, for scalar code.

Matrices are immutable after construction and safe to share.
"""

from __future__ import annotations

import math
import re
from decimal import Decimal
from fractions import Fraction
from itertools import chain
from operator import add, mul, sub
from typing import Iterable, Sequence

_ZERO = Fraction(0)
_set = object.__setattr__


# The one spelling of a rational: an ASCII integer or num/den.
_RATIONAL = re.compile(r"([+-]?[0-9]+)(?:/([0-9]+))?")
# The most characters of a refused value that an error message echoes.
_ECHO = 40


def _echo(value) -> str:
    """The repr of a refused value; past _ECHO characters, a prefix of it and
    the length of the value (of a string) or of the repr."""
    text = repr(value)
    if len(text) <= _ECHO:
        return text
    return f"{text[:_ECHO]}... ({len(value if isinstance(value, str) else text)} characters)"


def ratio(value) -> tuple[int, int]:
    """(num, den) in lowest terms, den > 0, of an int, a Fraction, or an
    ASCII string ``[+-]?digits`` or ``[+-]?digits/digits``. Anything else is
    rejected: floats, decimals, exponents, whitespace, non-ASCII digits, a
    zero denominator, or more digits than the interpreter converts."""
    if isinstance(value, str):
        match = _RATIONAL.fullmatch(value)
        try:
            num, den = (int(match[1]), int(match[2] or 1)) if match else (0, 0)
        except ValueError:  # past the interpreter's int-string limit
            den = 0
        if not den:
            raise ValueError(f"malformed rational {_echo(value)}")
        g = math.gcd(num, den)
        return num // g, den // g
    if isinstance(value, int) and not isinstance(value, bool):
        return value, 1
    if isinstance(value, Fraction):
        return value.numerator, value.denominator
    raise ValueError(f"not a rational: {type(value).__name__} {_echo(value)}")


def rat(value) -> Fraction:
    """Coerce what ``ratio`` accepts to a Fraction."""
    if isinstance(value, Fraction):
        return value
    return Fraction(*ratio(value))


def format_rat(q: Fraction) -> str:
    """Render a Fraction as ``"num/den"``, or plain ``"num"`` for integers."""
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


class Mat:
    """An immutable rows x cols matrix of rationals.

    The state is ``_grid``, a tuple of row tuples of ints, over one positive
    denominator ``_den`` with gcd(_den, every entry) = 1. ``entries`` is the
    same matrix as a tuple of row tuples of Fractions. Zero-row and
    zero-column matrices are legal; they show up as bases of zero-dimensional
    subspaces.
    """

    __slots__ = ("rows", "cols", "_grid", "_den", "_entries", "_zero", "_rref")

    def __init__(self, entries: Iterable[Iterable], cols: int | None = None):
        pairs = tuple(tuple(map(ratio, row)) for row in entries)
        if pairs:
            width = len(pairs[0])
            if any(len(row) != width for row in pairs):
                raise ValueError("ragged rows")
        else:
            width = 0 if cols is None else cols
        if cols is not None and width and cols != width:
            raise ValueError(f"cols mismatch: stated {cols}, got {width}")
        # The lcm of reduced denominators leaves the grid without a common
        # factor with it, so the state is already reduced.
        den = math.lcm(*[d for row in pairs for _, d in row])
        grid = tuple(tuple(x * (den // d) for x, d in row) for row in pairs)
        # A 5x0 matrix needs explicit empty rows so rows stays meaningful.
        self._fill(grid, den, len(pairs), width)

    @staticmethod
    def _of(grid: tuple, den: int, rows: int, cols: int) -> Mat:
        """Trusted constructor: ``grid`` is a tuple of ``rows`` tuples of
        ``cols`` ints over ``den`` > 0, and gcd(den, every entry) = 1."""
        m = object.__new__(Mat)
        m._fill(grid, den, rows, cols)
        return m

    @staticmethod
    def _reduced(grid: tuple, den: int, rows: int, cols: int) -> Mat:
        """Like ``_of``, but first divides out gcd(den, every entry)."""
        if den != 1:
            g = math.gcd(den, *chain.from_iterable(grid))
            if g != 1:
                den //= g
                grid = tuple(tuple(x // g for x in row) for row in grid)
        return Mat._of(grid, den, rows, cols)

    def _fill(self, grid: tuple, den: int, rows: int, cols: int) -> None:
        _set(self, "rows", rows)
        _set(self, "cols", cols)
        _set(self, "_grid", grid)
        _set(self, "_den", den)
        _set(self, "_entries", None)
        _set(self, "_zero", None)
        _set(self, "_rref", None)

    def __setattr__(self, name, value):
        raise AttributeError("Mat is immutable")

    @property
    def entries(self) -> tuple[tuple[Fraction, ...], ...]:
        """The entries as a tuple of row tuples of Fractions, built once on
        first use."""
        cached = self._entries
        if cached is None:
            den = self._den
            cached = tuple(
                tuple(Fraction(x, den) if x else _ZERO for x in row) for row in self._grid
            )
            _set(self, "_entries", cached)
        return cached

    def strings(self, digits=str) -> list[list[str]]:
        """The entries as ``format_rat`` strings, one gcd per entry, with
        every digit also past the interpreter's int-to-str limit."""
        den, gcd = self._den, math.gcd
        try:
            if den == 1:
                return [list(map(digits, row)) for row in self._grid]
            return [
                [
                    digits(x // g) if (g := gcd(x, den)) == den
                    else f"{digits(x // g)}/{digits(den // g)}"
                    for x in row
                ]
                for row in self._grid
            ]
        except ValueError:
            # Decimal converts an int of any size exactly.
            return self.strings(lambda x: str(Decimal(x)))

    def _scaled(self, factor: int) -> tuple:
        """The grid times ``factor``, for a denominator ``factor`` times ours."""
        if factor == 1:
            return self._grid
        return tuple(tuple(x * factor for x in row) for row in self._grid)

    # -- constructors -------------------------------------------------

    @staticmethod
    def zeros(rows: int, cols: int) -> Mat:
        return Mat._of(((0,) * cols,) * rows, 1, rows, cols)

    @staticmethod
    def identity(n: int) -> Mat:
        grid = tuple(tuple(int(i == j) for j in range(n)) for i in range(n))
        return Mat._of(grid, 1, n, n)

    @staticmethod
    def from_columns(columns: Sequence[Sequence], rows: int | None = None) -> Mat:
        """Build a matrix whose j-th column is ``columns[j]``."""
        cols = len(columns)
        if cols == 0:
            if rows is None:
                raise ValueError("rows required for a 0-column matrix")
            return Mat([[] for _ in range(rows)], cols=0)
        height = len(columns[0])
        if any(len(c) != height for c in columns):
            raise ValueError("ragged columns")
        if rows is not None and rows != height:
            raise ValueError("rows mismatch")
        return Mat([[columns[j][i] for j in range(cols)] for i in range(height)])

    # Stacking needs no reduction: over the lcm of the parts' denominators,
    # a prime power of that lcm comes from some part, and that part's grid,
    # scaled by a factor free of the prime, keeps an entry free of it.

    @staticmethod
    def hstack(mats: Sequence["Mat"]) -> Mat:
        mats = [m for m in mats]
        if not mats:
            raise ValueError("nothing to stack")
        rows = mats[0].rows
        if any(m.rows != rows for m in mats):
            raise ValueError("row count mismatch in hstack")
        den = math.lcm(*[m._den for m in mats])
        grids = [m._scaled(den // m._den) for m in mats]
        grid = tuple(tuple(chain.from_iterable(g[i] for g in grids)) for i in range(rows))
        return Mat._of(grid, den, rows, sum(m.cols for m in mats))

    @staticmethod
    def vstack(mats: Sequence["Mat"]) -> Mat:
        mats = [m for m in mats]
        if not mats:
            raise ValueError("nothing to stack")
        cols = mats[0].cols
        if any(m.cols != cols for m in mats):
            raise ValueError("column count mismatch in vstack")
        den = math.lcm(*[m._den for m in mats])
        grid = tuple(chain.from_iterable(m._scaled(den // m._den) for m in mats))
        return Mat._of(grid, den, len(grid), cols)

    @staticmethod
    def sum_of_products(pairs: Iterable[tuple["Mat", "Mat"]], rows: int, cols: int) -> Mat:
        """The rows x cols matrix sum of ``a @ b`` over ``pairs``.

        Equal to the hstack of the left factors times the vstack of the right
        ones, taken over the integers: every entry is one dot product of the
        factors' integer grids, over the lcm of the products' denominators,
        and one gcd reduces the result. Pairs with a zero factor are skipped;
        no pairs give the zero matrix.
        """
        terms = []
        for a, b in pairs:
            if a.rows != rows or b.cols != cols or a.cols != b.rows:
                raise ValueError(
                    f"shape mismatch {a.rows}x{a.cols} @ {b.rows}x{b.cols} "
                    f"in a {rows}x{cols} sum"
                )
            if not (a.is_zero() or b.is_zero()):
                terms.append((a._grid, b._grid, a._den * b._den))
        den = math.lcm(*[d for _, _, d in terms])
        left: list[list[int]] = [[] for _ in range(rows)]
        right: list[list[int]] = [[] for _ in range(cols)]
        for grid_a, grid_b, d in terms:
            scale = den // d
            for acc, row in zip(left, grid_a):
                acc.extend(row if scale == 1 else [x * scale for x in row])
            for acc, col in zip(right, zip(*grid_b)):
                acc.extend(col)
        zero_row = (0,) * cols
        grid = tuple(
            tuple([sum(map(mul, ints_a, ints_b)) for ints_b in right])
            if any(ints_a)
            else zero_row
            for ints_a in left
        )
        return Mat._reduced(grid, den, rows, cols)

    # -- basic queries ------------------------------------------------

    def is_zero(self) -> bool:
        cached = self._zero
        if cached is None:
            cached = self._den == 1 and not any(map(any, self._grid))
            _set(self, "_zero", cached)
        return cached

    def is_identity(self) -> bool:
        return self.rows == self.cols and self == Mat.identity(self.rows)

    def column(self, j: int) -> Mat:
        """Column j as a rows x 1 matrix, for 0 <= j < cols."""
        if not 0 <= j < self.cols:
            raise IndexError(f"column {j} of a matrix with {self.cols} columns")
        return Mat._reduced(tuple((row[j],) for row in self._grid), self._den, self.rows, 1)

    def submatrix_columns(self, indices: Sequence[int]) -> Mat:
        grid = tuple(tuple(row[j] for j in indices) for row in self._grid)
        return Mat._reduced(grid, self._den, self.rows, len(indices))

    def submatrix_rows(self, indices: Sequence[int]) -> Mat:
        grid = tuple(self._grid[i] for i in indices)
        return Mat._reduced(grid, self._den, len(indices), self.cols)

    def transpose(self) -> Mat:
        grid = tuple(zip(*self._grid)) if self.rows else ((),) * self.cols
        return Mat._of(grid, self._den, self.cols, self.rows)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Mat)
            and self.rows == other.rows
            and self.cols == other.cols
            and self._den == other._den
            and self._grid == other._grid
        )

    def __hash__(self):
        return hash((self.rows, self.cols, self._den, self._grid))

    def __repr__(self):
        body = "; ".join(map(" ".join, self.strings()))
        return f"Mat({self.rows}x{self.cols}: [{body}])"

    # -- arithmetic ---------------------------------------------------

    def _combine(self, other: Mat, op, symbol: str) -> Mat:
        if self.rows != other.rows or self.cols != other.cols:
            raise ValueError(
                f"shape mismatch {self.rows}x{self.cols} {symbol} {other.rows}x{other.cols}"
            )
        den = math.lcm(self._den, other._den)
        grid = tuple(
            tuple(map(op, r1, r2))
            for r1, r2 in zip(self._scaled(den // self._den), other._scaled(den // other._den))
        )
        return Mat._reduced(grid, den, self.rows, self.cols)

    def __add__(self, other: Mat) -> Mat:
        return self._combine(other, add, "+")

    def __sub__(self, other: Mat) -> Mat:
        return self._combine(other, sub, "-")

    def __neg__(self) -> Mat:
        grid = tuple(tuple(-x for x in row) for row in self._grid)
        return Mat._of(grid, self._den, self.rows, self.cols)

    def __mul__(self, other):
        if isinstance(other, Mat):
            return self.__matmul__(other)
        scalar = rat(other)
        return Mat._reduced(
            self._scaled(scalar.numerator), self._den * scalar.denominator, self.rows, self.cols
        )

    def __matmul__(self, other: Mat) -> Mat:
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch {self.rows}x{self.cols} @ {other.rows}x{other.cols}")
        return Mat.sum_of_products(((self, other),), self.rows, other.cols)

    # -- elimination --------------------------------------------------

    def rref(self) -> tuple[Mat, tuple[int, ...]]:
        """Unique reduced row echelon form and its strictly increasing pivot columns.

        Integer Gauss-Jordan: each row is kept a primitive integer multiple
        of the corresponding row of rational elimination. At the end, pivot
        row r over its pivot p_r is the rational row, so the result is the
        rows scaled to the lcm of the pivots.
        """
        cached = self._rref
        if cached is not None:
            return cached
        m = []
        for ints in self._grid:
            g = math.gcd(*ints)
            m.append([x // g for x in ints] if g > 1 else list(ints))
        pivots: list[int] = []
        pr = 0
        for pc in range(self.cols):
            row_found = None
            for r in range(pr, self.rows):
                if m[r][pc]:
                    row_found = r
                    break
            if row_found is None:
                continue
            m[pr], m[row_found] = m[row_found], m[pr]
            pivot_row = m[pr]
            p = pivot_row[pc]
            for r in range(self.rows):
                f = m[r][pc]
                if r != pr and f:
                    row = [p * a - f * b for a, b in zip(m[r], pivot_row)]
                    g = math.gcd(*row)
                    m[r] = [x // g for x in row] if g > 1 else row
            pivots.append(pc)
            pr += 1
            if pr == self.rows:
                break
        # Every row is primitive, so a prime power of the lcm, taken from
        # some pivot, leaves an entry of that pivot's scaled row free of the
        # prime: the state is reduced.
        den = math.lcm(*[m[r][pc] for r, pc in enumerate(pivots)])
        grid = [tuple(a * (den // m[r][pc]) for a in m[r]) for r, pc in enumerate(pivots)]
        grid.extend([(0,) * self.cols] * (self.rows - pr))
        result = (Mat._of(tuple(grid), den, self.rows, self.cols), tuple(pivots))
        _set(self, "_rref", result)
        return result

    def rank(self) -> int:
        return len(self.rref()[1])

    def nullspace(self) -> Mat:
        """Columns spanning {x : self @ x = 0}.

        Free variables are parametrized in increasing column index from the
        rref, which makes every downstream subspace choice reproducible.
        """
        reduced, pivots = self.rref()
        pivot_set = set(pivots)
        free = [j for j in range(self.cols) if j not in pivot_set]
        den = reduced._den
        grid = [[0] * len(free) for _ in range(self.cols)]
        for k, f in enumerate(free):
            grid[f][k] = den
            for r, p in enumerate(pivots):
                grid[p][k] = -reduced._grid[r][f]
        return Mat._reduced(tuple(map(tuple, grid)), den, self.cols, len(free))

    def solve(self, rhs: Mat) -> Mat | None:
        """A particular solution X of self @ X = rhs, or None if inconsistent.

        Free variables are set to zero, so the solution is deterministic.
        """
        if rhs.rows != self.rows:
            raise ValueError("rhs row mismatch")
        augmented = Mat.hstack([self, rhs])
        reduced, pivots = augmented.rref()
        if any(p >= self.cols for p in pivots):
            return None
        sol = [(0,) * rhs.cols] * self.cols
        for r, p in enumerate(pivots):
            sol[p] = reduced._grid[r][self.cols :]
        return Mat._reduced(tuple(sol), reduced._den, self.cols, rhs.cols)

    def inverse(self) -> Mat:
        if self.rows != self.cols:
            raise ValueError("inverse of a non-square matrix")
        inverse = self.solve(Mat.identity(self.rows))
        if inverse is None:
            raise ValueError("singular matrix")
        return inverse

    def det(self) -> Fraction:
        """Determinant by Bareiss fraction-free elimination of the integer
        grid over the common denominator (Bareiss 1968)."""
        if self.rows != self.cols:
            raise ValueError("determinant of a non-square matrix")
        n = self.rows
        m = [list(row) for row in self._grid]
        sign, prev = 1, 1
        for c in range(n):
            pivot_row = None
            for r in range(c, n):
                if m[r][c]:
                    pivot_row = r
                    break
            if pivot_row is None:
                return _ZERO
            if pivot_row != c:
                m[c], m[pivot_row] = m[pivot_row], m[c]
                sign = -sign
            p = m[c][c]
            # Every entry stays a minor of the integer matrix, so the
            # division by the previous pivot is exact.
            for r in range(c + 1, n):
                f = m[r][c]
                m[r] = [(p * a - f * b) // prev for a, b in zip(m[r], m[c])]
            prev = p
        return Fraction(sign * prev, self._den**n)
