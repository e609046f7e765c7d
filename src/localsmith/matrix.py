"""Dense exact-rational matrices with reduced row echelon elimination.

Everything downstream (subspace splits, the stage recursion, the series
algebra) reduces to the primitives in this module. Entries are
``fractions.Fraction``s, so results are exact: no operation introduces a
denominator not forced by the inputs. Products and elimination run on Python
integers with the denominators cleared, and build one ``Fraction`` per result
entry, so every result is the same exact value that entry-by-entry
``Fraction`` arithmetic gives, without a gcd per multiply and add.

Matrices are immutable after construction and safe to share.
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import add, mul, sub
from typing import Iterable, Sequence

_ZERO = Fraction(0)
_ONE = Fraction(1)
_set = object.__setattr__


def rat(value) -> Fraction:
    """Coerce an int, string like ``"3/4"``, or Fraction to a Fraction.

    Strings must be integers or ``num/den`` with a nonzero denominator;
    anything else (floats included) is rejected to keep arithmetic exact.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise ValueError(f"not a rational: {value!r}")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        text = value.strip()
        try:
            return Fraction(text)
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"malformed rational {value!r}") from exc
    raise ValueError(f"not a rational: {value!r}")


def format_rat(q: Fraction) -> str:
    """Render a Fraction as ``"num/den"``, or plain ``"num"`` for integers."""
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


class Mat:
    """An immutable rows x cols matrix of Fractions.

    ``entries`` is a tuple of row tuples. Zero-row and zero-column matrices
    are legal; they show up as bases of zero-dimensional subspaces.
    """

    __slots__ = ("rows", "cols", "entries", "_zero", "_rref", "_int_grid")

    def __init__(self, entries: Iterable[Iterable], cols: int | None = None):
        grid = tuple(tuple(rat(x) for x in row) for row in entries)
        if grid:
            width = len(grid[0])
            if any(len(row) != width for row in grid):
                raise ValueError("ragged rows")
        else:
            width = 0 if cols is None else cols
        if cols is not None and width and cols != width:
            raise ValueError(f"cols mismatch: stated {cols}, got {width}")
        # A 5x0 matrix needs explicit empty rows so rows stays meaningful.
        self._fill(grid, len(grid), width if grid else (cols or 0), None)

    @staticmethod
    def _of(grid: tuple, rows: int, cols: int, zero: bool | None = None) -> Mat:
        """Trusted constructor: ``grid`` is already a tuple of ``rows`` tuples
        of ``cols`` Fractions. ``zero`` is the known answer to ``is_zero``."""
        m = object.__new__(Mat)
        m._fill(grid, rows, cols, zero)
        return m

    def _fill(self, grid: tuple, rows: int, cols: int, zero: bool | None) -> None:
        _set(self, "rows", rows)
        _set(self, "cols", cols)
        _set(self, "entries", grid)
        _set(self, "_zero", zero)
        _set(self, "_rref", None)
        _set(self, "_int_grid", None)

    def __setattr__(self, name, value):
        raise AttributeError("Mat is immutable")

    # -- constructors -------------------------------------------------

    @staticmethod
    def zeros(rows: int, cols: int) -> Mat:
        return Mat._of(((_ZERO,) * cols,) * rows, rows, cols, True)

    @staticmethod
    def identity(n: int) -> Mat:
        grid = tuple(tuple(_ONE if i == j else _ZERO for j in range(n)) for i in range(n))
        return Mat._of(grid, n, n, n == 0)

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

    @staticmethod
    def hstack(mats: Sequence["Mat"]) -> Mat:
        mats = [m for m in mats]
        if not mats:
            raise ValueError("nothing to stack")
        rows = mats[0].rows
        if any(m.rows != rows for m in mats):
            raise ValueError("row count mismatch in hstack")
        width = sum(m.cols for m in mats)
        grid = tuple(tuple(x for m in mats for x in m.entries[i]) for i in range(rows))
        return Mat._of(grid, rows, width)

    @staticmethod
    def vstack(mats: Sequence["Mat"]) -> Mat:
        mats = [m for m in mats]
        if not mats:
            raise ValueError("nothing to stack")
        cols = mats[0].cols
        if any(m.cols != cols for m in mats):
            raise ValueError("column count mismatch in vstack")
        grid = tuple(row for m in mats for row in m.entries)
        return Mat._of(grid, len(grid), cols)

    @staticmethod
    def sum_of_products(pairs: Iterable[tuple["Mat", "Mat"]], rows: int, cols: int) -> Mat:
        """The rows x cols matrix sum of ``a @ b`` over ``pairs``.

        Equal to the hstack of the left factors times the vstack of the right
        ones, taken over the integers: every entry is one dot product of the
        factors' integer grids and one division by the common denominator.
        Pairs with a zero factor are skipped; no pairs give the zero matrix.
        """
        terms = []
        for a, b in pairs:
            if a.rows != rows or b.cols != cols or a.cols != b.rows:
                raise ValueError(
                    f"shape mismatch {a.rows}x{a.cols} @ {b.rows}x{b.cols} "
                    f"in a {rows}x{cols} sum"
                )
            if not (a.is_zero() or b.is_zero()):
                (grid_a, den_a), (grid_b, den_b) = a._integers(), b._integers()
                terms.append((grid_a, grid_b, den_a * den_b))
        den = math.lcm(*[d for _, _, d in terms])
        left: list[list[int]] = [[] for _ in range(rows)]
        right: list[list[int]] = [[] for _ in range(cols)]
        for grid_a, grid_b, d in terms:
            scale = den // d
            for acc, row in zip(left, grid_a):
                acc.extend(row if scale == 1 else [x * scale for x in row])
            for acc, col in zip(right, zip(*grid_b)):
                acc.extend(col)
        zero_row = (_ZERO,) * cols
        grid = []
        zero = True
        for ints_a in left:
            if not any(ints_a):
                grid.append(zero_row)
                continue
            out = []
            for ints_b in right:
                dot = sum(map(mul, ints_a, ints_b))
                if dot:
                    out.append(Fraction(dot, den))
                    zero = False
                else:
                    out.append(_ZERO)
            grid.append(tuple(out))
        return Mat._of(tuple(grid), rows, cols, zero)

    # -- basic queries ------------------------------------------------

    def is_zero(self) -> bool:
        cached = self._zero
        if cached is None:
            cached = all(x == 0 for row in self.entries for x in row)
            _set(self, "_zero", cached)
        return cached

    def _integers(self) -> tuple[tuple[tuple[int, ...], ...], int]:
        """``(grid, den)``: the entries as integers over one common
        denominator, ``den`` the lcm of all of theirs. Computed once, since a
        matrix is often a factor of many products."""
        cached = self._int_grid
        if cached is None:
            den = math.lcm(*[x.denominator for row in self.entries for x in row])
            grid = tuple(
                tuple(x.numerator * (den // x.denominator) for x in row) for row in self.entries
            )
            cached = (grid, den)
            _set(self, "_int_grid", cached)
        return cached

    def is_identity(self) -> bool:
        if self.rows != self.cols:
            return False
        return all(
            x == (1 if i == j else 0)
            for i, row in enumerate(self.entries)
            for j, x in enumerate(row)
        )

    def column(self, j: int) -> Mat:
        """Column j as a rows x 1 matrix, for 0 <= j < cols."""
        if not 0 <= j < self.cols:
            raise IndexError(f"column {j} of a matrix with {self.cols} columns")
        return Mat._of(tuple((row[j],) for row in self.entries), self.rows, 1)

    def submatrix_columns(self, indices: Sequence[int]) -> Mat:
        grid = tuple(tuple(row[j] for j in indices) for row in self.entries)
        return Mat._of(grid, self.rows, len(indices))

    def transpose(self) -> Mat:
        grid = tuple(zip(*self.entries)) if self.rows else ((),) * self.cols
        return Mat._of(grid, self.cols, self.rows)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Mat)
            and self.rows == other.rows
            and self.cols == other.cols
            and self.entries == other.entries
        )

    def __hash__(self):
        return hash((self.rows, self.cols, self.entries))

    def __repr__(self):
        body = "; ".join(" ".join(format_rat(x) for x in row) for row in self.entries)
        return f"Mat({self.rows}x{self.cols}: [{body}])"

    # -- arithmetic ---------------------------------------------------

    def __add__(self, other: Mat) -> Mat:
        if self.rows != other.rows or self.cols != other.cols:
            raise ValueError(f"shape mismatch {self.rows}x{self.cols} + {other.rows}x{other.cols}")
        grid = tuple(tuple(map(add, r1, r2)) for r1, r2 in zip(self.entries, other.entries))
        return Mat._of(grid, self.rows, self.cols)

    def __sub__(self, other: Mat) -> Mat:
        if self.rows != other.rows or self.cols != other.cols:
            raise ValueError(f"shape mismatch {self.rows}x{self.cols} - {other.rows}x{other.cols}")
        grid = tuple(tuple(map(sub, r1, r2)) for r1, r2 in zip(self.entries, other.entries))
        return Mat._of(grid, self.rows, self.cols)

    def __neg__(self) -> Mat:
        grid = tuple(tuple(-x for x in row) for row in self.entries)
        return Mat._of(grid, self.rows, self.cols, self._zero)

    def __mul__(self, other):
        if isinstance(other, Mat):
            return self.__matmul__(other)
        scalar = rat(other)
        grid = tuple(tuple(x * scalar for x in row) for row in self.entries)
        return Mat._of(grid, self.rows, self.cols)

    def __matmul__(self, other: Mat) -> Mat:
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch {self.rows}x{self.cols} @ {other.rows}x{other.cols}")
        return Mat.sum_of_products(((self, other),), self.rows, other.cols)

    # -- elimination --------------------------------------------------

    def rref(self) -> tuple[Mat, tuple[int, ...]]:
        """Unique reduced row echelon form and its strictly increasing pivot columns.

        Integer Gauss-Jordan: each row is kept a primitive integer multiple
        of the corresponding row of rational elimination, and pivot rows are
        divided by their pivots only at the end.
        """
        cached = self._rref
        if cached is not None:
            return cached
        m = []
        for ints in self._integers()[0]:
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
        grid = []
        for r, pc in enumerate(pivots):
            p = m[r][pc]
            grid.append(tuple(Fraction(a, p) if a else _ZERO for a in m[r]))
        grid.extend([(_ZERO,) * self.cols] * (self.rows - pr))
        result = (Mat._of(tuple(grid), self.rows, self.cols, not pivots), tuple(pivots))
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
        grid = [[_ZERO] * len(free) for _ in range(self.cols)]
        for k, f in enumerate(free):
            grid[f][k] = _ONE
            for r, p in enumerate(pivots):
                grid[p][k] = -reduced.entries[r][f]
        return Mat._of(tuple(map(tuple, grid)), self.cols, len(free), not free)

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
        sol = [[_ZERO] * rhs.cols for _ in range(self.cols)]
        for r, p in enumerate(pivots):
            sol[p] = reduced.entries[r][self.cols :]
        return Mat._of(tuple(map(tuple, sol)), self.cols, rhs.cols)

    def inverse(self) -> Mat:
        if self.rows != self.cols:
            raise ValueError("inverse of a non-square matrix")
        reduced, pivots = Mat.hstack([self, Mat.identity(self.rows)]).rref()
        if len(pivots) != self.rows or any(p >= self.cols for p in pivots):
            raise ValueError("singular matrix")
        return reduced.submatrix_columns(range(self.cols, 2 * self.cols))

    def det(self) -> Fraction:
        """Determinant by Bareiss fraction-free elimination of the integer
        grid over the common denominator (Bareiss 1968)."""
        if self.rows != self.cols:
            raise ValueError("determinant of a non-square matrix")
        n = self.rows
        grid, den = self._integers()
        m = [list(row) for row in grid]
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
        return Fraction(sign * prev, den**n)
