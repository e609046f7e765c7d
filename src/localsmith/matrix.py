"""Dense exact-rational matrices with reduced row echelon elimination.

Everything downstream (subspace splits, the stage recursion, the series
algebra) reduces to the primitives in this module. All arithmetic is over
``fractions.Fraction``, so results are exact: no operation introduces a
denominator not forced by the inputs.

Matrices are immutable after construction and safe to share.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Sequence

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

    __slots__ = ("rows", "cols", "entries", "_zero", "_rref")

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
        object.__setattr__(self, "rows", len(grid))
        object.__setattr__(self, "cols", width if grid else (cols or 0))
        # A 5x0 matrix needs explicit empty rows so rows stays meaningful.
        object.__setattr__(self, "entries", grid)
        object.__setattr__(self, "_zero", None)
        object.__setattr__(self, "_rref", None)

    def __setattr__(self, name, value):
        raise AttributeError("Mat is immutable")

    # -- constructors -------------------------------------------------

    @staticmethod
    def zeros(rows: int, cols: int) -> Mat:
        return Mat([[0] * cols for _ in range(rows)], cols=cols)

    @staticmethod
    def identity(n: int) -> Mat:
        return Mat([[1 if i == j else 0 for j in range(n)] for i in range(n)])

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
        return Mat(
            [[x for m in mats for x in m.entries[i]] for i in range(rows)],
            cols=width,
        )

    @staticmethod
    def vstack(mats: Sequence["Mat"]) -> Mat:
        mats = [m for m in mats]
        if not mats:
            raise ValueError("nothing to stack")
        cols = mats[0].cols
        if any(m.cols != cols for m in mats):
            raise ValueError("column count mismatch in vstack")
        return Mat([row for m in mats for row in m.entries], cols=cols)

    # -- basic queries ------------------------------------------------

    def is_zero(self) -> bool:
        cached = self._zero
        if cached is None:
            cached = all(x == 0 for row in self.entries for x in row)
            object.__setattr__(self, "_zero", cached)
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
        return Mat([[row[j]] for row in self.entries])

    def submatrix_columns(self, indices: Sequence[int]) -> Mat:
        return Mat([[row[j] for j in indices] for row in self.entries], cols=len(indices))

    def transpose(self) -> Mat:
        return Mat(
            [[self.entries[i][j] for i in range(self.rows)] for j in range(self.cols)],
            cols=self.rows,
        )

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
        return Mat(
            [[a + b for a, b in zip(r1, r2)] for r1, r2 in zip(self.entries, other.entries)],
            cols=self.cols,
        )

    def __sub__(self, other: Mat) -> Mat:
        if self.rows != other.rows or self.cols != other.cols:
            raise ValueError(f"shape mismatch {self.rows}x{self.cols} - {other.rows}x{other.cols}")
        return Mat(
            [[a - b for a, b in zip(r1, r2)] for r1, r2 in zip(self.entries, other.entries)],
            cols=self.cols,
        )

    def __neg__(self) -> Mat:
        return Mat([[-x for x in row] for row in self.entries], cols=self.cols)

    def __mul__(self, other):
        if isinstance(other, Mat):
            return self.__matmul__(other)
        return Mat([[x * rat(other) for x in row] for row in self.entries], cols=self.cols)

    def __matmul__(self, other: Mat) -> Mat:
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch {self.rows}x{self.cols} @ {other.rows}x{other.cols}")
        if self.is_zero() or other.is_zero():
            return Mat.zeros(self.rows, other.cols)
        cols_b = list(zip(*other.entries)) if other.entries else []
        return Mat(
            [[sum(a * b for a, b in zip(row, col)) for col in cols_b] for row in self.entries],
            cols=other.cols,
        )

    # -- elimination --------------------------------------------------

    def rref(self) -> tuple[Mat, tuple[int, ...]]:
        """Unique reduced row echelon form and its strictly increasing pivot columns."""
        cached = self._rref
        if cached is not None:
            return cached
        m = [list(row) for row in self.entries]
        pivots: list[int] = []
        pr = 0
        for pc in range(self.cols):
            row_found = None
            for r in range(pr, self.rows):
                if m[r][pc] != 0:
                    row_found = r
                    break
            if row_found is None:
                continue
            m[pr], m[row_found] = m[row_found], m[pr]
            inv = 1 / m[pr][pc]
            m[pr] = [x * inv for x in m[pr]]
            for r in range(self.rows):
                if r != pr and m[r][pc] != 0:
                    f = m[r][pc]
                    m[r] = [a - f * b for a, b in zip(m[r], m[pr])]
            pivots.append(pc)
            pr += 1
            if pr == self.rows:
                break
        result = (Mat(m, cols=self.cols), tuple(pivots))
        object.__setattr__(self, "_rref", result)
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
        columns = []
        for f in free:
            vec = [Fraction(0)] * self.cols
            vec[f] = Fraction(1)
            for r, p in enumerate(pivots):
                vec[p] = -reduced.entries[r][f]
            columns.append(vec)
        return Mat.from_columns(columns, rows=self.cols)

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
        sol = [[Fraction(0)] * rhs.cols for _ in range(self.cols)]
        for r, p in enumerate(pivots):
            for c in range(rhs.cols):
                sol[p][c] = reduced.entries[r][self.cols + c]
        return Mat(sol, cols=rhs.cols)

    def inverse(self) -> Mat:
        if self.rows != self.cols:
            raise ValueError("inverse of a non-square matrix")
        reduced, pivots = Mat.hstack([self, Mat.identity(self.rows)]).rref()
        if len(pivots) != self.rows or any(p >= self.cols for p in pivots):
            raise ValueError("singular matrix")
        return reduced.submatrix_columns(range(self.cols, 2 * self.cols))

    def det(self) -> Fraction:
        """Determinant by fraction-tracking Gaussian elimination."""
        if self.rows != self.cols:
            raise ValueError("determinant of a non-square matrix")
        n = self.rows
        m = [list(row) for row in self.entries]
        det = Fraction(1)
        for c in range(n):
            pivot_row = None
            for r in range(c, n):
                if m[r][c] != 0:
                    pivot_row = r
                    break
            if pivot_row is None:
                return Fraction(0)
            if pivot_row != c:
                m[c], m[pivot_row] = m[pivot_row], m[c]
                det = -det
            det *= m[c][c]
            inv = 1 / m[c][c]
            for r in range(c + 1, n):
                if m[r][c] != 0:
                    f = m[r][c] * inv
                    m[r] = [a - f * b for a, b in zip(m[r], m[c])]
        return det

