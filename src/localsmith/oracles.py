"""Independent brute-force validators.

Nothing here reuses the stage recursion: the block-Toeplitz nullspace works
straight from the definition of a Jordan chain, the direct Laurent inverse
goes through exact determinant/adjugate interpolation, and the companion
checks assemble their block matrices from the raw coefficients. These are
the second opinion the main pipeline is compared against.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .matrix import Mat
from .series import MatLaurent, MatSeries
from .subspaces import Subspace


def toeplitz_block(family: MatSeries, length: int) -> Mat:
    """The upper-triangular block matrix whose kernel holds all chains of
    the given length: block (i, j) carries coefficient j - i."""
    if length < 1:
        raise ValueError("chain length must be >= 1")
    m, n = family.rows, family.cols
    rows = []
    for bi in range(length):
        block_row = []
        for bj in range(length):
            block_row.append(
                family.coefficient(bj - bi) if bj >= bi else Mat.zeros(m, n)
            )
        rows.append(Mat.hstack(block_row))
    return Mat.vstack(rows)


def toeplitz_nullspace(family: MatSeries, length: int) -> Subspace:
    """Exact nullspace of the stacked chain condition, in K^{cols*length}."""
    return Subspace(family.cols * length, toeplitz_block(family, length).nullspace())


# -- polynomial helpers (coefficient lists, ascending) ----------------------
# Coefficients are Fractions, or Mats where a helper says so.


def _poly_trim(p: list[Fraction]) -> list[Fraction]:
    while len(p) > 1 and p[-1] == 0:
        p.pop()
    return p


def _poly_mul_series(a: list[Mat], b: list[Fraction], upto: int) -> list[Mat]:
    """Coefficients 0..upto of a(eps) b(eps), for Mat coefficients a_i."""
    out = [Mat.zeros(a[0].rows, a[0].cols)] * (upto + 1)
    for i, ai in enumerate(a[: upto + 1]):
        for j, bj in enumerate(b[: upto + 1 - i]):
            if bj:
                out[i + j] = out[i + j] + ai * bj
    return out


def _poly_inverse_series(p: list[Fraction], upto: int) -> list[Fraction]:
    if p[0] == 0:
        raise ValueError("series inverse needs a unit constant term")
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


def direct_laurent_inverse(
    family: MatSeries, p_max: int | None = None, tail: int = 12
) -> MatLaurent:
    """The Laurent expansion of the exact inverse of a square family.

    Works entirely outside the recursion: the determinant and adjugate are
    polynomials of bounded degree, recovered exactly by interpolating their
    values at integer sample points, and the quotient adj/det is expanded as
    a Laurent series through order ``tail``. Fails if the family is
    generically singular or the pole exceeds ``p_max``.
    """
    if family.rows != family.cols:
        raise ValueError("direct inverse needs a square family")
    work = family if family.exact else MatSeries.polynomial(family.coeffs)
    n = work.rows
    d = work.degree
    if p_max is None:
        # Safe bound: the pole cannot exceed the determinant's vanishing order.
        p_max = n * d
    deg_bound = n * d
    need = deg_bound + 1
    det_points: list[tuple[Fraction, Fraction]] = []
    adj_points: list[tuple[Fraction, Mat]] = []
    t = 0
    while len(det_points) < need:
        t += 1
        if t > 2 * deg_bound + 1:
            raise ValueError("generically singular family (determinant vanishes identically)")
        x = Fraction(t)
        value = work.evaluate(x)
        det = value.det()
        if det == 0:
            continue
        det_points.append((x, det))
        adj_points.append((x, value.inverse() * det))
    det_poly = _poly_trim(_newton_interpolate(det_points, Fraction(0)))
    pole_det = 0
    while det_poly[pole_det] == 0:
        pole_det += 1
    unit = det_poly[pole_det:]
    depth = tail + pole_det
    unit_inv = _poly_inverse_series(unit, depth)
    adj_poly = _newton_interpolate(adj_points, Mat.zeros(n, n))
    result = MatLaurent(pole_det, _poly_mul_series(adj_poly, unit_inv, depth), exact=False)
    if result.pole > p_max:
        raise ValueError(f"pole order {result.pole} exceeds p_max = {p_max}")
    return result


@dataclass(frozen=True)
class AugmentedPencil:
    """The linear pencil equivalent to a degree-n polynomial family: block
    lower-triangular Toeplitz constant part, upper-triangular linear part."""

    degree: int
    lbar0: Mat
    lbar1: Mat

    def pencil(self) -> MatSeries:
        return MatSeries.polynomial([self.lbar0, self.lbar1])


def linearize_polynomial(family: MatSeries) -> AugmentedPencil:
    work = family if family.exact else MatSeries.polynomial(family.coeffs)
    deg = work.degree
    if deg < 1:
        raise ValueError("linearization needs degree >= 1")
    m, n = work.rows, work.cols
    zero = Mat.zeros(m, n)
    rows0 = []
    rows1 = []
    for i in range(deg):
        rows0.append(
            Mat.hstack([work.coefficient(i - j) if i >= j else zero for j in range(deg)])
        )
        rows1.append(
            Mat.hstack(
                [work.coefficient(deg - (j - i)) if j >= i else zero for j in range(deg)]
            )
        )
    return AugmentedPencil(deg, Mat.vstack(rows0), Mat.vstack(rows1))


def resolvent_recurrence_check(
    l0: Mat, l1: Mat, resolvent: MatLaurent, tail: int = 10
) -> tuple[bool, int | None]:
    """Check the two-sided coefficient recurrences generated by the basic
    coefficients {R_{-1}, R_0} of a first-order pencil's resolvent.

    R_{-j} = (-1)^{j-1} (R_{-1} L_0)^{j-1} R_{-1} and
    R_j = (-1)^j (R_0 L_1)^j R_0 for j >= 1. Only stated for pole order <= 1;
    a deeper pole is rejected rather than guessed at.

    Returns (passed, first_failing_index).
    """
    if resolvent.pole > 1:
        raise ValueError(
            f"recurrences apply to pole order <= 1, resolvent has pole {resolvent.pole}"
        )
    r_neg = resolvent.coefficient(-1)
    r_zero = resolvent.coefficient(0)
    neg_product = r_neg @ l0
    pos_product = r_zero @ l1
    neg_power = None
    pos_power = None
    for j in range(1, tail + 1):
        if j == 1:
            expected_neg = r_neg
            expected_pos = -(pos_product @ r_zero)
            pos_power = pos_product
        else:
            neg_power = neg_product if neg_power is None else neg_power @ neg_product
            sign = 1 if (j - 1) % 2 == 0 else -1
            expected_neg = (neg_power @ r_neg) * sign
            pos_power = pos_power @ pos_product
            sign_pos = 1 if j % 2 == 0 else -1
            expected_pos = (pos_power @ r_zero) * sign_pos
        if resolvent.coefficient(-j) != expected_neg:
            return False, j
        if resolvent.coefficient(j) != expected_pos:
            return False, j
    return True, None
