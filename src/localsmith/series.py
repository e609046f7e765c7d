"""Truncated matrix power series and Laurent series over exact rationals.

Both kinds share one implementation: coefficients stored from epsilon^{-pole}
on up, and an ``exact`` flag. ``exact=True`` means every unstored coefficient
is genuinely zero (a matrix polynomial or Laurent polynomial); otherwise
nothing is claimed above the top stored exponent. Every operation records the
tightest truncation it can honestly claim: consumers that need a deeper
coefficient get a ``TruncationError`` instead of a silent zero.

``MatSeries`` is the pole-0 case. ``MatLaurent`` allows a finite-order pole,
which is kept minimal (the leading stored block of a pole is nonzero).
"""

from __future__ import annotations

from typing import Sequence

from .errors import TruncationError
from .matrix import Mat, rat


class _Series:
    """Storage, truncation tracking and arithmetic shared by both kinds."""

    __slots__ = ("rows", "cols", "pole", "coeffs", "exact")

    # Message for a coefficient above a truncation: (exponent, top exponent).
    _BEYOND = "coefficient of order {0} requested, valid through {1}"

    def __init__(self, pole: int, coeffs: Sequence[Mat], exact: bool = False):
        coeffs = list(coeffs)
        if not coeffs:
            raise ValueError("a series needs at least one coefficient")
        rows, cols = coeffs[0].rows, coeffs[0].cols
        if any(c.rows != rows or c.cols != cols for c in coeffs):
            raise ValueError("coefficient shapes differ")
        if pole < 0:
            raise ValueError("pole order must be >= 0")
        # Renormalize to the minimal pole.
        while pole > 0 and coeffs and coeffs[0].is_zero():
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

    def _new(self, other: _Series, pole: int, coeffs, exact: bool) -> _Series:
        """A power series when both operands are one, else a Laurent series."""
        if type(self) is type(other) is MatSeries:
            return MatSeries(coeffs, exact=exact)
        return MatLaurent(pole, coeffs, exact=exact)

    # -- queries ----------------------------------------------------------

    @property
    def top_exponent(self) -> int:
        """Exponent of the last stored coefficient."""
        return len(self.coeffs) - 1 - self.pole

    def coefficient(self, exponent: int) -> Mat:
        idx = exponent + self.pole
        if 0 <= idx < len(self.coeffs):
            return self.coeffs[idx]
        if idx < 0 or self.exact:
            return Mat.zeros(self.rows, self.cols)
        raise TruncationError(self._BEYOND.format(exponent, self.top_exponent))

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self.coeffs)

    def eq_through(self, other: _Series, t: int) -> bool:
        """Coefficient-wise equality through order t (both must reach t)."""
        low = -max(self.pole, other.pole)
        return all(self.coefficient(e) == other.coefficient(e) for e in range(low, t + 1))

    def __eq__(self, other) -> bool:
        return (
            type(self) is type(other)
            and self.exact == other.exact
            and self.pole == other.pole
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.exact, self.pole, self.coeffs))

    def __repr__(self):
        kind = "exact" if self.exact else f"valid through {self.top_exponent}"
        return f"{type(self).__name__}({self.rows}x{self.cols}, pole {self.pole}, {kind})"

    # -- arithmetic -------------------------------------------------------

    def _aligned(self, other: _Series, op) -> _Series:
        if self.rows != other.rows or self.cols != other.cols:
            raise ValueError("shape mismatch")
        pole = max(self.pole, other.pole)
        exact = self.exact and other.exact
        if exact:
            top = max(self.top_exponent, other.top_exponent)
        else:
            top = min(s.top_exponent for s in (self, other) if not s.exact)
        coeffs = [op(self.coefficient(e), other.coefficient(e)) for e in range(-pole, top + 1)]
        return self._new(other, pole, coeffs, exact)

    def __add__(self, other):
        return self._aligned(other, lambda a, b: a + b)

    def __sub__(self, other):
        return self._aligned(other, lambda a, b: a - b)

    def __neg__(self):
        return self._new(self, self.pole, [-c for c in self.coeffs], self.exact)

    def _product(self, other: _Series) -> _Series:
        """Convolution; poles add, then the result is renormalized to a
        minimal pole, and the truncation is tracked conservatively."""
        if self.cols != other.rows:
            raise ValueError(
                f"shape mismatch {self.rows}x{self.cols} @ {other.rows}x{other.cols}"
            )
        pole = self.pole + other.pole
        exact = self.exact and other.exact
        if exact:
            top = self.top_exponent + other.top_exponent
        else:
            # Coefficient l needs A_i through l + pole(B) and B_j through
            # l + pole(A), so the product is honest only through this order.
            top = min(
                a.top_exponent - b.pole for a, b in ((self, other), (other, self)) if not a.exact
            )
        if top < -pole:
            raise TruncationError("truncations too shallow for this Laurent product")
        # Stored index s of the product pairs stored indices p + q = s.
        na, nb = len(self.coeffs), len(other.coeffs)
        coeffs = [
            Mat.sum_of_products(
                (
                    (self.coeffs[p], other.coeffs[s - p])
                    for p in range(max(0, s - nb + 1), min(s, na - 1) + 1)
                ),
                self.rows,
                other.cols,
            )
            for s in range(top + pole + 1)
        ]
        return self._new(other, pole, coeffs, exact)

    def shift(self, power: int):
        """Multiply by epsilon^power."""
        pole = self.pole - power
        coeffs = self.coeffs
        if pole < 0:
            coeffs = (Mat.zeros(self.rows, self.cols),) * -pole + coeffs
            pole = 0
        return self._new(self, pole, coeffs, self.exact)

    def evaluate(self, point) -> Mat:
        """Evaluate the stored coefficients at a rational point (Horner)."""
        point = rat(point)
        if point == 0 and self.pole > 0:
            raise ZeroDivisionError("evaluation at the pole")
        acc = self.coeffs[-1]
        for c in reversed(self.coeffs[:-1]):
            acc = c + acc * point
        return acc * (1 / point**self.pole) if self.pole else acc


class MatSeries(_Series):
    """A matrix power series: ``exact=True`` is a matrix polynomial, otherwise
    a truncation valid through ``trunc_order``."""

    __slots__ = ()

    _BEYOND = "coefficient {0} requested but series only valid through order {1}"

    def __init__(self, coeffs: Sequence[Mat], exact: bool = False):
        super().__init__(0, coeffs, exact)

    # -- constructors ---------------------------------------------------

    @staticmethod
    def polynomial(coeffs: Sequence[Mat]) -> MatSeries:
        return MatSeries(coeffs, exact=True)

    @staticmethod
    def constant(matrix: Mat) -> MatSeries:
        return MatSeries((matrix,), exact=True)

    @staticmethod
    def identity(n: int) -> MatSeries:
        return MatSeries((Mat.identity(n),), exact=True)

    # -- queries ----------------------------------------------------------

    @property
    def trunc_order(self) -> int | None:
        """Highest order the series is valid through; None means exact."""
        return None if self.exact else self.top_exponent

    @property
    def degree(self) -> int:
        """Degree of the stored coefficients (polynomial degree when exact)."""
        return self.top_exponent

    def coefficient(self, i: int) -> Mat:
        if i < 0:
            raise ValueError("power series has no negative coefficients")
        return super().coefficient(i)

    def require_order(self, t: int) -> None:
        if not self.exact and self.degree < t:
            raise TruncationError(
                f"need coefficients through order {t}, series valid through {self.degree}"
            )

    # -- arithmetic -------------------------------------------------------

    def __matmul__(self, other: MatSeries) -> MatSeries:
        """Cauchy product, truncated to the tightest honestly-known order."""
        return self._product(other)

    def truncate(self, t: int) -> MatSeries:
        """The truncation to order t (exact input may be padded with zeros)."""
        return MatSeries([self.coefficient(i) for i in range(t + 1)], exact=False)

    def shift(self, power: int) -> MatSeries:
        """Multiply by epsilon^power (power >= 0)."""
        if power < 0:
            raise ValueError("use MatLaurent for negative powers")
        return super().shift(power)


def series_inverse(a: MatSeries, t: int) -> MatSeries:
    """Multiplicative inverse through order t; requires an invertible A_0.

    X_0 = A_0^{-1} and X_l = -A_0^{-1} * sum_{j<l} A_{l-j} X_j; the result
    satisfies A @ X = X @ A = I through order t.
    """
    if a.rows != a.cols:
        raise ValueError("series inverse needs a square series")
    a.require_order(t)
    try:
        x0 = a.coefficient(0).inverse()
    except ValueError as exc:
        raise ValueError("singular leading coefficient") from exc
    xs = [x0]
    for l in range(1, t + 1):
        acc = Mat.sum_of_products(
            ((a.coefficient(l - j), xs[j]) for j in range(l)), a.rows, a.cols
        )
        xs.append(-(x0 @ acc))
    return MatSeries(xs, exact=False)


class MatLaurent(_Series):
    """A matrix Laurent series: coefficients from epsilon^{-pole} on up.

    The pole is minimal: when pole > 0 the leading stored block is nonzero.
    ``exact=True`` means a Laurent polynomial (all unstored coefficients are
    genuinely zero); otherwise nothing is claimed above ``tail_order``.
    """

    __slots__ = ()

    @staticmethod
    def from_series(s: MatSeries) -> MatLaurent:
        return MatLaurent(0, s.coeffs, exact=s.exact)

    @property
    def tail_order(self) -> int | None:
        """Highest exponent the series is valid through; None means exact."""
        return None if self.exact else self.top_exponent

    def __matmul__(self, other: MatLaurent) -> MatLaurent:
        return self._product(other)
