"""Dense exact-rational matrices with reduced row echelon elimination.

Everything downstream (subspace splits, the stage recursion, the series
algebra) reduces to the primitives in this module. A matrix is held as an
integer grid over one positive common denominator, reduced so that the
denominator and the grid entries have no common factor: equal matrices have
equal state. Every kernel (products, elimination, sums, stacking, slicing)
runs on Python integers and ends with at most one gcd over each matrix it
returns, so every result is the same exact value that entry-by-entry
``Fraction`` arithmetic gives, without a gcd per multiply and add. Products
pay only for real arithmetic: a factor equal to the identity adds the other
factor's grid with no dot product, and an empty sum is the shared zero. Two
kernels touch each entry fewer times, by packing many integers into one
(Kronecker substitution; the slot layout is the "Kronecker packing" comment
below).
``Mat.convolve`` multiplies matrix series; once both sides have
``_PACK_MIN_BLOCKS`` nonzero blocks it packs each entry's blocks, so each
result entry is one dot product of packed integers. ``PackedRows`` packs
each row of a grid, over one denominator that is not reduced:
``PackedRows.products_plus`` multiplies an integer grid by packed rows and
adds packed rows below, one dot product per result row, and
``PackedRows.blocks`` reads row blocks back, each reduced once. ``Mat(grid)``
reads a grid of integer strings one row at a time, with one match per row.
``Mat.strings`` renders the grid with no ``fractions.Fraction``;
``Mat.entries`` builds the Fractions on first use, for scalar code.

Matrices are immutable after construction and safe to share: ``Mat.zeros``
and ``Mat.identity`` build one matrix per shape for the whole process.
"""

from __future__ import annotations

import functools
import math
import re
from decimal import Decimal
from fractions import Fraction
from itertools import chain
from operator import add, lshift, mul, sub
from typing import Iterable, Sequence

_ZERO = Fraction(0)
_set = object.__setattr__
# Mat.convolve packs a product once both sides have this many nonzero
# blocks; with fewer, packing costs more than the pairs it replaces.
_PACK_MIN_BLOCKS = 3


# The one spelling of an ASCII decimal integer (also of power keys and integer
# flags), and from it a rational, an integer or num/den, and a row of
# integers, each followed by a comma.
DECIMAL_INTEGER = re.compile(r"[+-]?[0-9]+")
_RATIONAL = re.compile(rf"({DECIMAL_INTEGER.pattern})(?:/([0-9]+))?")
_INTEGER_ROW = re.compile(rf"(?:{DECIMAL_INTEGER.pattern},)*")
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


def _max_abs(grids) -> int:
    """The largest |entry| of a list of grids, 0 for no entry."""
    return max(map(abs, chain.from_iterable(chain.from_iterable(grids))), default=0)


# Kronecker packing: slot s of a packed int holds a signed value x_s in
# ``width`` bytes, and the int is sum_s x_s 2^(8 width s). ``Mat.convolve``
# packs each entry of a series, slot s for eps^s, and ``PackedRows`` each
# row of a grid, slot c for column c. With every |x_s| < 2^(8 width - 1),
# adding 2^(8 width - 1) in each of the low slots makes each of them
# x_s + 2^(8 width - 1), in [0, 2^(8 width)), whatever the slots above
# hold, so they read back one by one, from the low end, by mask and shift.


def _pack(vectors, shifts) -> list[int]:
    """Each vector of ints as one int: sum_s vector[s] 2^shifts[s]."""
    return [sum(map(lshift, ints, shifts)) for ints in vectors]


@functools.cache
def _bias(width: int, slots: int) -> tuple[int, int]:
    """2^(8 width - 1), and the bias: that value in each of ``slots`` slots."""
    half, bits = 1 << (8 * width - 1), 8 * width
    return half, half * ((1 << bits * slots) - 1) // ((1 << bits) - 1)


def _unpack_rows(ints, slots: int, width: int) -> list[tuple[int, ...]]:
    """Slots 0 .. slots - 1 of each packed int, as a tuple; a zero int reads
    as zeros."""
    half, bias = _bias(width, slots)
    bits, mask, zero = 8 * width, (1 << 8 * width) - 1, (0,) * slots
    rows = []
    for x in ints:
        if x:
            x += bias
            row = []
            for _ in range(slots):
                row.append((x & mask) - half)
                x >>= bits
            rows.append(tuple(row))
        else:
            rows.append(zero)
    return rows


class Mat:
    """An immutable rows x cols matrix of rationals.

    The state is ``_grid``, a tuple of row tuples of ints, over one positive
    denominator ``_den`` with gcd(_den, every entry) = 1. ``entries`` is the
    same matrix as a tuple of row tuples of Fractions. Zero-row and
    zero-column matrices are legal; they show up as bases of zero-dimensional
    subspaces.
    """

    __slots__ = (
        "rows", "cols", "_grid", "_den", "_entries", "_zero", "_identity", "_rref", "_peak_abs"
    )

    def __init__(self, entries: Iterable[Iterable], cols: int | None = None):
        rows = [tuple(row) for row in entries]
        try:
            # A grid of integer strings is read a row at a time. Any other
            # grid (a JSON int, a fraction, a comma inside an entry, digits
            # past the int-string limit) is read entry by entry by ``ratio``,
            # which words every refusal.
            if not all(_INTEGER_ROW.fullmatch(",".join(row) + ",") for row in rows):
                raise ValueError
            grid, den = tuple(tuple(map(int, row)) for row in rows), 1
        except (TypeError, ValueError):
            pairs = [tuple(map(ratio, row)) for row in rows]
            # The lcm of reduced denominators leaves the grid without a
            # common factor with it, so the state is already reduced.
            den = math.lcm(*[d for row in pairs for _, d in row])
            grid = tuple(tuple(x * (den // d) for x, d in row) for row in pairs)
        if grid:
            width = len(grid[0])
            if any(len(row) != width for row in grid):
                raise ValueError("ragged rows")
        else:
            width = 0 if cols is None else cols
        if cols is not None and cols != width:
            raise ValueError(f"cols mismatch: stated {cols}, got {width}")
        # A 5x0 matrix needs explicit empty rows so rows stays meaningful.
        self._fill(grid, den, len(grid), width)

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
                grid = tuple(tuple([x // g for x in row]) for row in grid)
        return Mat._of(grid, den, rows, cols)

    def _fill(self, grid: tuple, den: int, rows: int, cols: int) -> None:
        _set(self, "rows", rows)
        _set(self, "cols", cols)
        _set(self, "_grid", grid)
        _set(self, "_den", den)
        _set(self, "_entries", None)
        _set(self, "_zero", None)
        _set(self, "_identity", None)
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
        """The entries as ``"num/den"`` strings, or plain ``"num"`` for an
        integer, one gcd per entry, with every digit also past the
        interpreter's int-to-str limit."""
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
        return tuple(tuple([x * factor for x in row]) for row in self._grid)

    # -- constructors -------------------------------------------------

    @staticmethod
    @functools.cache
    def zeros(rows: int, cols: int) -> Mat:
        return Mat._of(((0,) * cols,) * rows, 1, rows, cols)

    @staticmethod
    @functools.cache
    def identity(n: int) -> Mat:
        grid = tuple(tuple(int(i == j) for j in range(n)) for i in range(n))
        return Mat._of(grid, 1, n, n)

    # Stacking needs no reduction: over the lcm of the parts' denominators,
    # a prime power of that lcm comes from some part, and that part's grid,
    # scaled by a factor free of the prime, keeps an entry free of it.

    @staticmethod
    def hstack(mats: Sequence["Mat"]) -> Mat:
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
        and one gcd reduces the result. Only real arithmetic is paid for:
        pairs with a zero factor are skipped, a pair with an identity factor
        adds the other factor's grid with no dot product, a sum whose one
        nonzero pair has an identity factor is the other factor itself, and
        no nonzero pair gives the shared zero matrix.
        """
        terms, folds = [], []
        for a, b in pairs:
            if a.rows != rows or b.cols != cols or a.cols != b.rows:
                raise ValueError(
                    f"shape mismatch {a.rows}x{a.cols} @ {b.rows}x{b.cols} "
                    f"in a {rows}x{cols} sum"
                )
            if a.is_zero() or b.is_zero():
                continue
            if a.is_identity():
                folds.append(b)
            elif b.is_identity():
                folds.append(a)
            else:
                terms.append((a, b._grid, a._den * b._den))
        if len(folds) < 2 and not terms:
            return folds[0] if folds else Mat.zeros(rows, cols)
        # Left rows side by side, and right columns as the columns of the
        # right grids stacked, over the lcm of every denominator.
        den = math.lcm(*[d for _, _, d in terms], *[m._den for m in folds])
        lefts = [a._scaled(den // d) for a, _, d in terms]
        left = lefts[0] if len(lefts) == 1 else [[*chain.from_iterable(r)] for r in zip(*lefts)]
        right = list(zip(*chain.from_iterable(g for _, g, _ in terms)))
        zero_row = (0,) * cols
        grid = (zero_row,) * rows
        if terms:
            grid = tuple(
                tuple([sum(map(mul, ints_a, ints_b)) for ints_b in right])
                if any(ints_a)
                else zero_row
                for ints_a in left
            )
        for m in folds:
            grid = tuple(tuple(map(add, r1, r2)) for r1, r2 in zip(grid, m._scaled(den // m._den)))
        return Mat._reduced(grid, den, rows, cols)

    @staticmethod
    def convolve(a: Sequence[Mat], b: Sequence[Mat], size: int, rows: int, cols: int) -> list[Mat]:
        """c_s = sum_{p+q=s} a_p @ b_q for s < size, each rows x cols.

        With fewer than _PACK_MIN_BLOCKS nonzero blocks on a side, each c_s
        is one ``sum_of_products`` over its pairs of nonzero blocks. Otherwise
        the product is one Kronecker substitution (see "Kronecker packing"):
        each side's blocks go over that side's lcm denominator, each entry's
        blocks are packed into one int, slot p for eps^p, and each result
        entry is one dot product of packed ints, whose first ``size`` slots
        are read back. The slots hold the largest possible |c_s| entry and a
        sign bit, in whole bytes. Each c_s is reduced once; an all-zero one
        is the shared zero.
        """
        left = [(p, x) for p, x in enumerate(a[:size]) if not x.is_zero()]
        right = [(q, y) for q, y in enumerate(b[:size]) if not y.is_zero()]
        if min(len(left), len(right)) < _PACK_MIN_BLOCKS:
            pairs = [[] for _ in range(size)]
            for p, x in left:
                for q, y in right:
                    if p + q >= size:
                        break
                    pairs[p + q].append((x, y))
            return [Mat.sum_of_products(ps, rows, cols) for ps in pairs]
        inner = left[0][1].cols
        if any(x.rows != rows or x.cols != inner for _, x in left) or any(
            y.rows != inner or y.cols != cols for _, y in right
        ):
            raise ValueError(f"block shapes differ from {rows}x{inner} @ {inner}x{cols}")
        den_a = math.lcm(*[x._den for _, x in left])
        den_b = math.lcm(*[y._den for _, y in right])
        grids_a = [x._scaled(den_a // x._den) for _, x in left]
        grids_b = [y._scaled(den_b // y._den) for _, y in right]
        bound = min(len(left), len(right)) * inner * _max_abs(grids_a) * _max_abs(grids_b)
        width = _slot_width(bound.bit_length())
        shifts_a, shifts_b = [8 * width * p for p, _ in left], [8 * width * q for q, _ in right]
        cols_b = list(zip(*[_pack(zip(*rows), shifts_b) for rows in zip(*grids_b)]))
        entries = [
            sum(map(mul, row, col))
            for row in [_pack(zip(*rows), shifts_a) for rows in zip(*grids_a)]
            for col in cols_b
        ]
        slots = min(size, left[-1][0] + right[-1][0] + 1)
        den, zero, coeffs = den_a * den_b, Mat.zeros(rows, cols), []
        for values in zip(*_unpack_rows(entries, slots, width)):
            grid = tuple(values[lo : lo + cols] for lo in range(0, rows * cols, cols))
            coeffs.append(Mat._reduced(grid, den, rows, cols) if any(values) else zero)
        return coeffs + [zero] * (size - len(coeffs))

    # -- basic queries ------------------------------------------------

    def is_zero(self) -> bool:
        cached = self._zero
        if cached is None:
            cached = self._den == 1 and not any(map(any, self._grid))
            _set(self, "_zero", cached)
        return cached

    def is_identity(self) -> bool:
        cached = self._identity
        if cached is None:
            n = self.cols
            cached = (
                self.rows == n
                and self._den == 1
                and all(row[i] == 1 and row.count(0) == n - 1 for i, row in enumerate(self._grid))
            )
            _set(self, "_identity", cached)
        return cached

    def _peak(self) -> int:
        """The largest |entry| of the grid, 0 for no entry; the slot is set on
        first use, so that building a matrix costs nothing for it."""
        cached = getattr(self, "_peak_abs", None)
        if cached is None:
            cached = _max_abs([self._grid])
            _set(self, "_peak_abs", cached)
        return cached

    def submatrix_columns(self, indices: Sequence[int]) -> Mat:
        grid = tuple(tuple(row[j] for j in indices) for row in self._grid)
        return Mat._reduced(grid, self._den, self.rows, len(indices))

    def submatrix_rows(self, indices: Sequence[int]) -> Mat:
        grid = tuple(self._grid[i] for i in indices)
        return Mat._reduced(grid, self._den, len(indices), self.cols)

    @property
    def integer_rows(self) -> tuple[tuple[int, ...], ...]:
        """The matrix times the least common denominator of its entries."""
        return self._grid

    @property
    def denominator(self) -> int:
        """The least common denominator of the entries."""
        return self._den

    @staticmethod
    def from_integers(grid: Sequence[Sequence[int]], den: int) -> Mat:
        """The rows of ints ``grid`` over ``den`` > 0."""
        return Mat._reduced(tuple(map(tuple, grid)), den, len(grid), len(grid[0]) if grid else 0)

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
        scalar = rat(other)
        return Mat._reduced(
            self._scaled(scalar.numerator), self._den * scalar.denominator, self.rows, self.cols
        )

    def __matmul__(self, other: Mat) -> Mat:
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
        """The number of rref pivots, from an integer forward pass with
        primitive rows and one gcd per eliminated row, with no back
        substitution, scaling or result matrix; a cached rref is not read."""
        rows = []
        for ints in self._grid:
            if g := math.gcd(*ints):
                rows.append([x // g for x in ints] if g > 1 else ints)
        rank = 0
        for pc in range(self.cols):
            at = next((r for r, row in enumerate(rows) if row[pc]), None)
            if at is None:
                continue
            pivot, rest, rank = rows.pop(at), [], rank + 1
            p = pivot[pc]
            for row in rows:
                if f := row[pc]:
                    row = [p * a - f * b for a, b in zip(row, pivot)]
                    if (g := math.gcd(*row)) > 1:
                        row = [x // g for x in row]
                    elif not g:
                        continue
                rest.append(row)
            rows = rest
        return rank

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
        """det of the integer grid, from ``det_adjugate``, over den^n."""
        if self.rows != self.cols:
            raise ValueError("determinant of a non-square matrix")
        return Fraction(Mat.det_adjugate(self._grid)[0], self._den**self.rows)

    @staticmethod
    def det_adjugate(grid: Sequence[Sequence[int]]) -> tuple[int, list[list[int]] | None]:
        """det A and adj A of a square integer grid A, or (0, None) if A is
        singular, by one fraction-free Gauss-Jordan pass over [A | I]
        (Bareiss 1968): step c sets each row r but the pivot row to
        (p r - r_c pivot_row) / p_prev, exactly, as every entry is a minor
        of [A | I], and drops column c, which is p e_c. The pass ends at
        d I | d A^-1 with d = +-det A, the sign of its row swaps."""
        n = len(grid)
        m = [[*row, *(int(i == j) for j in range(n))] for i, row in enumerate(grid)]
        sign, prev = 1, 1
        for c in range(n):
            at = next((r for r in range(c, n) if m[r][0]), None)
            if at is None:
                return 0, None
            if at != c:
                m[c], m[at], sign = m[at], m[c], -sign
            p, pivot = m[c][0], m[c][1:]
            for r, row in enumerate(m):
                if r != c:
                    f = row[0]
                    m[r] = [(p * a - f * b) // prev for a, b in zip(row[1:], pivot)]
            m[c], prev = pivot, p
        return sign * prev, [[sign * x for x in row] for row in m]


class PackedRows:
    """Integer rows over one positive denominator, each packed into one int.

    Row r of a grid with ``cols`` columns is ``ints[r]``, slot c holding
    x_rc in ``width`` bytes (see "Kronecker packing"). Every |x_rc| < 2^bits
    with bits < 8 width, so every slot reads back. The rows are not reduced
    against the denominator: only ``blocks`` forms Mats from them, with one
    gcd each. The rows never change; a product that needs wider slots
    repacks its operands in place.
    """

    __slots__ = ("ints", "den", "cols", "width", "bits")

    def __init__(self, ints: list[int], den: int, cols: int, width: int, bits: int):
        self.ints, self.den, self.cols, self.width, self.bits = ints, den, cols, width, bits

    @staticmethod
    def identity(n: int, rows: int) -> PackedRows:
        """The n x n identity stacked over zero rows, ``rows`` rows in all."""
        return PackedRows([1 << 8 * i for i in range(n)] + [0] * (rows - n), 1, n, 1, 1)

    def first(self, count: int) -> PackedRows:
        """The first ``count`` rows."""
        if count == len(self.ints):
            return self
        return PackedRows(self.ints[:count], self.den, self.cols, self.width, self.bits)

    def extended(self, mats: Sequence[Mat]) -> PackedRows:
        """These rows followed by the rows of ``mats``, over the lcm of the
        denominators."""
        if any(m.cols != self.cols for m in mats):
            raise ValueError(f"blocks of {self.cols} columns expected")
        den = math.lcm(self.den, *[m._den for m in mats])
        grids = [m._scaled(den // m._den) for m in mats]
        scale = den // self.den
        bits = max((scale * ((1 << self.bits) - 1)).bit_length(), _max_abs(grids).bit_length())
        self._repack(_slot_width(bits, self.width))
        ints = self.ints if scale == 1 else [x * scale for x in self.ints]
        step = 8 * self.width
        tail = _pack(chain.from_iterable(grids), range(0, step * self.cols, step))
        return PackedRows(ints + tail, den, self.cols, self.width, bits)

    def _repack(self, width: int) -> None:
        """The same rows, packed in place ``width`` bytes to a slot."""
        if width != self.width:
            grid = _unpack_rows(self.ints, self.cols, self.width)
            self.ints, self.width = _pack(grid, range(0, 8 * width * self.cols, 8 * width)), width

    def blocks(self, height: int, start: int, stop: int) -> list[Mat]:
        """Rows start .. stop - 1, read back in one pass, as blocks of
        ``height`` rows, each a reduced Mat, or the shared zero or identity
        when it is zero or the identity."""
        if not 0 <= start <= stop <= len(self.ints) or (stop - start) % height:
            raise ValueError(f"rows {start}..{stop - 1} of {len(self.ints)} in blocks of {height}")
        cols, den = self.cols, self.den
        rows, blocks = _unpack_rows(self.ints[start:stop], cols, self.width), []
        for lo in range(0, stop - start, height):
            grid = tuple(rows[lo : lo + height])
            if not any(map(any, grid)):
                blocks.append(Mat.zeros(height, cols))
                continue
            block = Mat._reduced(grid, den, height, cols)
            blocks.append(Mat.identity(height) if block.is_identity() else block)
        return blocks

    @staticmethod
    def products_plus(
        left: Mat, right: Mat | PackedRows, plus: PackedRows | None = None, at: int = 0
    ) -> PackedRows:
        """left @ right, with row r of ``plus`` added to row at + r, packed.

        The result has the rows of left, and more if plus reaches past them,
        over the lcm of the product's denominator and plus's. Each product
        row is one dot product of a row of left's integer grid with the
        packed rows of right (a Mat right is packed on the way in); a zero
        row of left costs nothing. The result's entries are bounded by
        f inner max|left| max|right| + g max|plus|, with f and g the scales
        to the common denominator. Packed operands whose slots cannot hold
        that bound are first repacked in place, wider. Nothing is read back
        or reduced.
        """
        packed = isinstance(right, PackedRows)
        height = len(right.ints) if packed else right.rows
        cols = right.cols
        if left.cols != height or plus is not None and (plus.cols != cols or at < 0):
            below = "" if plus is None else f" + {len(plus.ints)}x{plus.cols} at row {at}"
            raise ValueError(f"shape mismatch {left.rows}x{left.cols} @ {height}x{cols}{below}")
        den = left._den * (right.den if packed else right._den)
        bound = left.cols * left._peak() * ((1 << right.bits) - 1 if packed else right._peak())
        f = g = 1
        if plus is not None:
            total = math.lcm(den, plus.den)
            f, g, den = total // den, total // plus.den, total
            bound = f * bound + g * ((1 << plus.bits) - 1)
        bits = bound.bit_length()
        operands = [x for x in (right, plus) if isinstance(x, PackedRows)]
        width = _slot_width(bits, max([x.width for x in operands], default=0))
        for operand in operands:
            operand._repack(width)
        rights = right.ints if packed else _pack(right._grid, range(0, 8 * width * cols, 8 * width))
        if f != 1:
            rights = [x * f for x in rights]
        ints = [sum(map(mul, row, rights)) if any(row) else 0 for row in left._grid]
        if plus is not None:
            ints.extend([0] * (at + len(plus.ints) - len(ints)))
            for r, x in enumerate(plus.ints, at):
                ints[r] += x * g
        return PackedRows(ints, den, cols, width, bits)


def _slot_width(bits: int, width: int = 0) -> int:
    """``width`` if its slots hold |x| < 2^bits with a sign bit, and otherwise
    the fewest bytes that do."""
    return width if bits < 8 * width else bits // 8 + 1
