"""Independent brute-force validators.

Nothing here reuses the stage recursion: the block-Toeplitz nullspace works
straight from the definition of a Jordan chain, the direct Laurent inverse
goes through exact determinant/adjugate interpolation, and the chain
matrices and the companion pencil are assembled from the raw coefficients:
block (i, j) is the coefficient at an exponent fixed by i and j, and one
below 0 or past an exact degree is the zero block. These are the second
opinion the main pipeline is compared against.

The direct inverse builds no Fraction: one fraction-free pass per sample
point (Bareiss 1968) and Newton's divided differences (von zur Gathen &
Gerhard, *Modern Computer Algebra*, ch. 5) over every value column at once.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from operator import mul
from typing import NamedTuple

from .matrix import Mat
from .series import MatLaurent, MatSeries
from .subspaces import Subspace


def _blocks(family: MatSeries, size: int, exponent) -> Mat:
    """The size x size block matrix whose block (i, j) is the family's
    coefficient at ``exponent(i, j)``."""
    return Mat.vstack(
        [Mat.hstack([family.coefficient(exponent(i, j)) for j in range(size)]) for i in range(size)]
    )


def toeplitz_block(family: MatSeries, length: int) -> Mat:
    """The upper-triangular block matrix whose kernel holds all chains of
    the given length: block (i, j) carries coefficient j - i."""
    if length < 1:
        raise ValueError("chain length must be >= 1")
    return _blocks(family, length, lambda i, j: j - i)


def toeplitz_nullspace(family: MatSeries, length: int) -> Subspace:
    """Exact nullspace of the stacked chain condition, in K^{cols*length}."""
    return Subspace(family.cols * length, toeplitz_block(family, length).nullspace())


def toeplitz_kernel_dims(family: MatSeries, length: int) -> list[int]:
    """Kernel dimensions of the block Toeplitz matrices of lengths 1..length,
    from one rref: the first l*cols columns of the longest one are the
    length-l matrix over zero rows, so its rank is their pivot count."""
    n, pivots = family.cols, toeplitz_block(family, length).rref()[1]
    return [l * n - bisect_left(pivots, l * n) for l in range(1, length + 1)]


# -- polynomial helpers (coefficient lists, ascending) ----------------------


def _newton_interpolate(xs: list[int], values: list[list[int]]) -> list[list[int]]:
    """Ascending monomial coefficients of the polynomials of degree below
    len(xs) through (xs[p], values[p][c]), one per column c, for distinct
    integer points xs: primitive integer rows over one denominator, which
    scales every column alike and so is not returned.

    One Newton divided-difference pass runs over all the columns at once:
    each level divides by the lcm of its point gaps, which multiplies the
    running denominator, and row l of the table is final after level l.
    The final rows are brought to the last denominator and divided by their
    gcd, and Horner's rule expands the Newton form on the integer points,
    a unimodular change of basis that keeps the rows primitive.
    """
    k = len(xs)
    table = [list(row) for row in values]
    den, dens = 1, [1] * k
    for level in range(1, k):
        scale = math.lcm(*[xs[i] - xs[i - level] for i in range(level, k)])
        for i in range(k - 1, level - 1, -1):
            f = scale // (xs[i] - xs[i - level])
            table[i] = [(a - b) * f for a, b in zip(table[i], table[i - 1])]
        den *= scale
        dens[level] = den
    g = math.gcd(*[math.gcd(*row) * (den // d) for row, d in zip(table, dens)])
    table = [[a * (den // d) // g for a in row] for row, d in zip(table, dens)]
    poly = [table[k - 1]]
    for i in range(k - 2, -1, -1):
        x = xs[i]
        # poly <- poly * (eps - x) + table[i]
        expanded = [[c - x * a for c, a in zip(table[i], poly[0])]]
        expanded.extend(
            [b - x * a for b, a in zip(poly[e - 1], poly[e])] for e in range(1, len(poly))
        )
        expanded.append(poly[-1])
        poly = expanded
    return poly


def direct_laurent_inverse(family: MatSeries, tail: int) -> MatLaurent:
    """The Laurent expansion of the exact inverse of a square family.

    Works entirely outside the recursion, and on integers: the determinant
    and adjugate are polynomials of bounded degree, recovered exactly by
    interpolating their values at integer sample points, and the quotient
    adj/det is expanded as a Laurent series through order ``tail``. Fails if
    the family is generically singular, or if ``tail`` lies below minus the
    determinant's valuation, where no coefficient is asked for.

    The family's value at t = 1 .. 2 n d + 1 is an integer grid G over the
    coefficients' common denominator D. At the first n d + 1 points where
    it is regular, one fraction-free pass (``Mat.det_adjugate``) gives
    det G and adj G, and the n^2 + 1 columns [det G, D adj G], D^n times
    det and adj, are interpolated together. Every coefficient of adj/det is
    then an integer grid over one power of the constant term of the
    determinant's unit; the common factor of det and adj cancels.
    """
    if family.rows != family.cols:
        raise ValueError("direct inverse needs a square family")
    work = MatSeries.polynomial(family.coeffs)
    n, exponents = work.rows, range(work.degree + 1)
    need = n * work.degree + 1
    wide = Mat.hstack(work.coeffs)  # entry (i, j) of L_e at (i, e n + j)
    den, columns = wide.denominator, [row[j::n] for row in wide.integer_rows for j in range(n)]
    xs, values = [], []
    for t in range(1, 2 * need):
        powers = [t**e for e in exponents]
        row = [sum(map(mul, powers, column)) for column in columns]
        det, adj = Mat.det_adjugate([row[i : i + n] for i in range(0, n * n, n)])
        if det:
            xs.append(t)
            values.append([det, *[den * x for adj_row in adj for x in adj_row]])
            if len(xs) == need:
                break
    else:
        raise ValueError("generically singular family (determinant vanishes identically)")
    poly = _newton_interpolate(xs, values)
    pole_det = next(e for e, row in enumerate(poly) if row[0])
    depth = tail + pole_det
    if depth < 0:
        raise ValueError(f"tail {tail} is below -{pole_det}, minus the determinant's valuation")
    # With u = sign * det / eps^pole and u_0 > 0, eps^pole / det is
    # sum_m w_m eps^m / u_0^(depth+1) with integers w_0 = sign u_0^depth and
    # u_0 w_m = -sum_{j>=1} u_j w_{m-j}.
    sign = 1 if poly[pole_det][0] > 0 else -1
    unit = [sign * row[0] for row in poly[pole_det : pole_det + depth + 1]]
    w = [sign * unit[0] ** depth]
    for _ in range(depth):
        w.append(-sum(map(mul, unit[1:], reversed(w))) // unit[0])
    columns, coeffs = list(zip(*[row[1:] for row in poly[: depth + 1]])), []
    for l in range(depth + 1):
        grid = [sum(map(mul, column, w[l::-1])) for column in columns]
        rows = [grid[i : i + n] for i in range(0, n * n, n)]
        coeffs.append(Mat.from_integers(rows, unit[0] ** (depth + 1)))
    return MatLaurent(pole_det, coeffs, exact=False)


class AugmentedPencil(NamedTuple):
    """The linear pencil equivalent to a degree-n polynomial family: block
    lower-triangular Toeplitz constant part, upper-triangular linear part."""

    degree: int
    lbar0: Mat
    lbar1: Mat

    def pencil(self) -> MatSeries:
        return MatSeries.polynomial([self.lbar0, self.lbar1])


def linearize_polynomial(family: MatSeries) -> AugmentedPencil:
    work = MatSeries.polynomial(family.coeffs)
    deg = work.degree
    if deg < 1:
        raise ValueError("linearization needs degree >= 1")
    lbar0 = _blocks(work, deg, lambda i, j: i - j)
    return AugmentedPencil(deg, lbar0, _blocks(work, deg, lambda i, j: deg + i - j))


def resolvent_recurrence_check(
    l0: Mat, l1: Mat, resolvent: MatLaurent, tail: int = 10
) -> tuple[bool, int | None]:
    """Check the two-sided coefficient recurrences generated by the basic
    coefficients {R_{-1}, R_0} of a first-order pencil's resolvent.

    R_{-j} = (-1)^{j-1} (R_{-1} L_0)^{j-1} R_{-1} and
    R_j = (-1)^j (R_0 L_1)^j R_0 for j >= 1, checked in their one-step forms
    R_{-j} = -(R_{-1} L_0) R_{-(j-1)} (j >= 2) and R_j = -(R_0 L_1) R_{j-1}:
    the first j that fails is the first j where the closed forms fail. Only
    stated for pole order <= 1; a deeper pole is rejected rather than
    guessed at.

    Returns (passed, first_failing_index).
    """
    if resolvent.pole > 1:
        raise ValueError(
            f"recurrences apply to pole order <= 1, resolvent has pole {resolvent.pole}"
        )
    neg_step = resolvent.coefficient(-1) @ l0
    pos_step = resolvent.coefficient(0) @ l1
    for j in range(1, tail + 1):
        if j > 1 and resolvent.coefficient(-j) != -(neg_step @ resolvent.coefficient(1 - j)):
            return False, j
        if resolvent.coefficient(j) != -(pos_step @ resolvent.coefficient(j - 1)):
            return False, j
    return True, None
