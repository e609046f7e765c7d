"""Truncated matrix Laurent series over exact rationals; a power series is
the pole-0 case.

One implementation, ``MatLaurent``, stores coefficients from epsilon^{-pole}
on up and an ``exact`` flag. ``exact=True`` means every unstored coefficient
is genuinely zero (a matrix polynomial or Laurent polynomial); otherwise
nothing is claimed above ``tail_order``, the exponent of the last stored
coefficient (``degree``). Every operation records the tightest truncation it
can honestly claim: consumers that need a deeper coefficient get a
``TruncationError`` instead of a silent zero. Below the pole every
coefficient is zero, so a power series read at a negative exponent gives
zero.

``MatSeries(coeffs, exact)`` is the pole-0 constructor: it and
``MatLaurent(0, coeffs, exact)`` build the same series, which compare and
hash equal. A sum or product of two power series is again a ``MatSeries``;
shifting one by a negative power gives a Laurent series.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from .errors import TruncationError
from .matrix import Mat, rat


class MatLaurent:
    """A matrix Laurent series: coefficients from epsilon^{-pole} on up.

    The pole is minimal: when pole > 0 the leading stored block is nonzero,
    unless the series is a truncation whose only stored block is zero.
    """

    __slots__ = ("rows", "cols", "pole", "coeffs", "exact")

    def __init__(self, pole: int, coeffs: Sequence[Mat], exact: bool = False):
        coeffs = list(coeffs)
        if not coeffs:
            raise ValueError("a series needs at least one coefficient")
        rows, cols = coeffs[0].rows, coeffs[0].cols
        if any(c.rows != rows or c.cols != cols for c in coeffs):
            raise ValueError("coefficient shapes differ")
        if pole < 0:
            raise ValueError("pole order must be >= 0")
        # Renormalize to the minimal pole. A truncation keeps its last stored
        # block: popping it would claim a coefficient past the truncation.
        while pole > 0 and len(coeffs) > (0 if exact else 1) and coeffs[0].is_zero():
            coeffs.pop(0)
            pole -= 1
        if not coeffs:
            coeffs = [Mat.zeros(rows, cols)]
        if exact:
            # Canonical polynomial: drop trailing zero coefficients.
            while len(coeffs) > 1 and coeffs[-1].is_zero():
                coeffs.pop()
            if len(coeffs) == 1 and coeffs[0].is_zero():
                pole = 0
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "pole", pole)
        object.__setattr__(self, "coeffs", tuple(coeffs))
        object.__setattr__(self, "exact", exact)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    @staticmethod
    def from_terms(terms: Iterable[tuple[int, Mat]], rows: int, cols: int) -> MatLaurent:
        """The exact series sum of eps^power * mat over the (power, mat)
        terms; a ``MatSeries`` when no power is negative."""
        terms = list(terms)
        pole = max(0, -min((power for power, _ in terms), default=0))
        top = max((power for power, _ in terms), default=0)
        coeffs = [Mat.zeros(rows, cols)] * (pole + top + 1)
        for power, mat in terms:
            coeffs[pole + power] = coeffs[pole + power] + mat
        return MatLaurent(pole, coeffs, exact=True) if pole else MatSeries(coeffs, exact=True)

    def _new(self, other: MatLaurent, pole: int, coeffs, exact: bool) -> MatLaurent:
        """A power series when both operands are one and no pole arises, else
        a Laurent series."""
        if pole == 0 and type(self) is type(other) is MatSeries:
            return MatSeries(coeffs, exact)
        return MatLaurent(pole, coeffs, exact)

    # -- queries ----------------------------------------------------------

    @property
    def degree(self) -> int:
        """Exponent of the last stored coefficient (the degree when exact)."""
        return len(self.coeffs) - 1 - self.pole

    @property
    def tail_order(self) -> int | None:
        """Highest exponent the series is valid through; None means exact."""
        return None if self.exact else self.degree

    def coefficient(self, exponent: int) -> Mat:
        idx = exponent + self.pole
        if 0 <= idx < len(self.coeffs):
            return self.coeffs[idx]
        if idx < 0 or self.exact:
            return Mat.zeros(self.rows, self.cols)
        raise TruncationError(
            f"coefficient of order {exponent} requested, valid through {self.degree}"
        )

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self.coeffs)

    def first_difference(self, other: MatLaurent, low: int, high: int) -> int | None:
        """The first exponent in low..high where the two series differ, or None."""
        return next(
            (e for e in range(low, high + 1) if self.coefficient(e) != other.coefficient(e)), None
        )

    def eq_through(self, other: MatLaurent, t: int) -> bool:
        """Coefficient-wise equality through order t (both must reach t)."""
        return self.first_difference(other, -max(self.pole, other.pole), t) is None

    def __eq__(self, other) -> bool:
        if not isinstance(other, MatLaurent):
            return NotImplemented
        return (
            self.exact == other.exact
            and self.pole == other.pole
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.exact, self.pole, self.coeffs))

    def __repr__(self):
        kind = "exact" if self.exact else f"valid through {self.degree}"
        return f"{type(self).__name__}({self.rows}x{self.cols}, pole {self.pole}, {kind})"

    # -- arithmetic -------------------------------------------------------

    def _aligned(self, other: MatLaurent, op) -> MatLaurent:
        if self.rows != other.rows or self.cols != other.cols:
            raise ValueError("shape mismatch")
        pole = max(self.pole, other.pole)
        exact = self.exact and other.exact
        if exact:
            top = max(self.degree, other.degree)
        else:
            top = min(s.degree for s in (self, other) if not s.exact)
        coeffs = [op(self.coefficient(e), other.coefficient(e)) for e in range(-pole, top + 1)]
        return self._new(other, pole, coeffs, exact)

    def __add__(self, other):
        return self._aligned(other, lambda a, b: a + b)

    def __sub__(self, other):
        return self._aligned(other, lambda a, b: a - b)

    def __neg__(self):
        return self._new(self, self.pole, [-c for c in self.coeffs], self.exact)

    def __matmul__(self, other: MatLaurent) -> MatLaurent:
        """The convolution of the stored blocks, by ``Mat.convolve``: poles
        add, the result is renormalized to a minimal pole, and the truncation
        is tracked conservatively."""
        if self.cols != other.rows:
            raise ValueError(
                f"shape mismatch {self.rows}x{self.cols} @ {other.rows}x{other.cols}"
            )
        pole = self.pole + other.pole
        exact = self.exact and other.exact
        if exact:
            top = self.degree + other.degree
        else:
            # Coefficient l needs A_i through l + pole(B) and B_j through
            # l + pole(A), so the product is honest only through this order.
            top = min(a.degree - b.pole for a, b in ((self, other), (other, self)) if not a.exact)
        if top < -pole:
            raise TruncationError("truncations too shallow for this Laurent product")
        # Stored index s of the product pairs stored indices p + q = s.
        coeffs = Mat.convolve(self.coeffs, other.coeffs, top + pole + 1, self.rows, other.cols)
        return self._new(other, pole, coeffs, exact)

    def shift(self, power: int) -> MatLaurent:
        """Multiply by epsilon^power."""
        pole = self.pole - power
        coeffs = self.coeffs
        if pole < 0:
            coeffs = (Mat.zeros(self.rows, self.cols),) * -pole + coeffs
            pole = 0
        return self._new(self, pole, coeffs, self.exact)

    def truncate(self, t: int) -> MatLaurent:
        """The truncation through exponent t >= -pole (exact input may be
        padded with zeros, in one allocation)."""
        if t < -self.pole:
            raise ValueError(f"cannot truncate at t = {t}: pole {self.pole} starts at {-self.pole}")
        self.coefficient(t)  # raises past the order a truncation is valid through
        pad = (Mat.zeros(self.rows, self.cols),) * (t - self.degree)
        return self._new(self, self.pole, self.coeffs[: t + self.pole + 1] + pad, False)

    def evaluate(self, point) -> Mat:
        """Evaluate the stored coefficients at a rational point (Horner)."""
        point = rat(point)
        if point == 0 and self.pole > 0:
            raise ZeroDivisionError("evaluation at the pole")
        acc = self.coeffs[-1]
        for c in reversed(self.coeffs[:-1]):
            acc = c + acc * point
        return acc * (1 / point**self.pole) if self.pole else acc


class MatSeries(MatLaurent):
    """A matrix power series: ``exact=True`` is a matrix polynomial, otherwise
    a truncation valid through ``tail_order``."""

    __slots__ = ()

    def __init__(self, coeffs: Sequence[Mat], exact: bool = False):
        super().__init__(0, coeffs, exact)

    @staticmethod
    def polynomial(coeffs: Sequence[Mat]) -> MatSeries:
        return MatSeries(coeffs, exact=True)

    @staticmethod
    def constant(matrix: Mat) -> MatSeries:
        return MatSeries((matrix,), exact=True)

    # The same product under its own name: perfbench/tracing.py wraps
    # MatSeries.__matmul__ and MatLaurent.__matmul__ by name, and times
    # products whose left operand is a power series apart.
    __matmul__ = MatLaurent.__matmul__


def series_inverse(a: MatSeries, t: int) -> MatSeries:
    """Multiplicative inverse through order t; requires an invertible A_0.

    X_0 = A_0^{-1} and X_l = -A_0^{-1} * sum_{j<l} A_{l-j} X_j; the result
    satisfies A @ X = X @ A = I through order t. The sum visits only the
    pairs of nonzero blocks, and an X_l with none is one shared zero block.
    """
    if a.rows != a.cols or a.pole:
        raise ValueError("series inverse needs a square power series")
    if not a.exact and a.degree < t:
        raise TruncationError(
            f"need coefficients through order {t}, series valid through {a.degree}"
        )
    try:
        x0 = a.coefficient(0).inverse()
    except ValueError as exc:
        raise ValueError("singular leading coefficient") from exc
    xs, zero = [x0], Mat.zeros(a.rows, a.cols)
    terms = [(i, c) for i, c in enumerate(a.coeffs[1 : t + 1], start=1) if not c.is_zero()]
    for l in range(1, t + 1):
        pairs = [(c, xs[l - i]) for i, c in terms if i <= l and not xs[l - i].is_zero()]
        xs.append(-(x0 @ Mat.sum_of_products(pairs, a.rows, a.cols)) if pairs else zero)
    return MatSeries(xs, exact=False)
