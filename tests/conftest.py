"""Shared fixtures and random generators for the whole suite.

The golden family here is the 3x3 cubic whose full stage-by-stage data is
known in closed form (stabilization index 3, diagonal [[1,0,0],[0,0,e],[0,-e^3,0]],
polynomial left transformation, generalized inverse with a third-order pole).
Random families come in three flavors: plain dense (usually invertible at 0),
leading-coefficient-deficient (forces the recursion to work), and
Smith-structured products unit * diag(eps^a_i) * unit whose exponents are
known by construction.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import strategies as st

from localsmith import Mat, MatSeries
from reference import from_columns


def cols(*columns) -> Mat:
    """Matrix from column tuples, mirroring per-column constructions."""
    return from_columns([list(c) for c in columns])


def e(i: int, n: int = 3) -> tuple:
    return tuple(1 if j == i - 1 else 0 for j in range(n))


ZERO3 = (0, 0, 0)


def example1_family() -> MatSeries:
    """The 3x3 cubic golden family [[1,0,e^3],[0,e^2,e+e^3],[e^3,0,e^2]]."""
    l0 = cols(e(1), ZERO3, ZERO3)
    l1 = cols(ZERO3, ZERO3, e(2))
    l2 = cols(ZERO3, e(2), e(3))
    l3 = cols(e(3), ZERO3, (1, 1, 0))
    return MatSeries.polynomial([l0, l1, l2, l3])


@pytest.fixture
def example1() -> MatSeries:
    return example1_family()


def random_matrix(rng: random.Random, rows, cols_, span=2, density=0.65) -> Mat:
    return Mat(
        [
            [rng.randint(-span, span) if rng.random() < density else 0 for _ in range(cols_)]
            for _ in range(rows)
        ],
        cols=cols_,
    )


def random_invertible(rng: random.Random, n: int, span=2) -> Mat:
    while True:
        m = random_matrix(rng, n, n, span=span, density=0.8)
        if m.det() != 0:
            return m


def rank_deficient(rng: random.Random, rows, cols_, rank) -> Mat:
    if rank == 0:
        return Mat.zeros(rows, cols_)
    while True:
        a = random_matrix(rng, rows, rank, density=0.8)
        b = random_matrix(rng, rank, cols_, density=0.8)
        m = a @ b
        if m.rank() == rank:
            return m


def random_family(rng: random.Random, rows, cols_, degree, deficit=0) -> MatSeries:
    """Random polynomial family whose leading coefficient drops rank by
    ``deficit`` (0 keeps it generic, usually invertible)."""
    lead_rank = max(0, min(rows, cols_) - deficit)
    while True:
        lead = (
            random_matrix(rng, rows, cols_)
            if deficit == 0
            else rank_deficient(rng, rows, cols_, lead_rank)
        )
        coeffs = [lead] + [
            random_matrix(rng, rows, cols_, density=0.5) for _ in range(degree)
        ]
        fam = MatSeries.polynomial(coeffs)
        if not fam.is_zero():
            return fam


def smith_structured_family(
    rng: random.Random, exponents: list[int], unimodular_degree: int = 1
) -> MatSeries:
    """unit(eps) * diag(eps^a_i) * unit(eps) with units invertible at 0.

    The local Smith exponents of the product are exactly ``exponents``, so
    the pipeline's answer is known in advance.
    """
    n = len(exponents)
    core_coeffs = [Mat.zeros(n, n) for _ in range(max(exponents) + 1)]
    for i, a in enumerate(exponents):
        grid = [list(row) for row in core_coeffs[a].entries]
        grid[i][i] = 1
        core_coeffs[a] = Mat(grid)
    core = MatSeries.polynomial(core_coeffs)

    def unit() -> MatSeries:
        coeffs = [random_invertible(rng, n)] + [
            random_matrix(rng, n, n, density=0.5) for _ in range(unimodular_degree)
        ]
        return MatSeries.polynomial(coeffs)

    return unit() @ core @ unit()


def unit_diag_unit(seed: int, rows: int, cols_: int, exponents: list[int]) -> MatSeries:
    """unit(eps) * D(eps) * unit(eps), D the rows x cols_ matrix with
    eps^{a_i} at (i, i) and zeros elsewhere, units invertible at 0."""
    rng = random.Random(seed)
    core = [[[0] * cols_ for _ in range(rows)] for _ in range(max(exponents) + 1)]
    for i, a in enumerate(exponents):
        core[a][i][i] = 1

    def unit(n: int) -> MatSeries:
        return MatSeries.polynomial(
            [random_invertible(rng, n), random_matrix(rng, n, n, density=0.5)]
        )

    return unit(rows) @ MatSeries.polynomial([Mat(c) for c in core]) @ unit(cols_)


@st.composite
def smith_families(draw) -> MatSeries:
    rows, cols_ = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    exponents = draw(
        st.lists(st.integers(0, 8), min_size=1, max_size=min(rows, cols_))
    )
    return unit_diag_unit(draw(st.integers(0, 2**16)), rows, cols_, sorted(exponents))
