"""Reference formulas that the tests build with or compare the package
against, and that no command runs.

Each is a plain function over the package's public API: a matrix is read
through ``Mat.integer_rows``, ``Mat.denominator`` and ``Mat.entries`` and
built with ``Mat.from_integers`` or ``Mat(...)``; subspaces, stage ledgers,
chain families and results through their public attributes.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

from localsmith import (
    DiagonalizationResult,
    JordanChain,
    JordanChainFamily,
    Mat,
    MatSeries,
    RecursionState,
    Subspace,
    TruncationError,
    image,
)

# -- matrices ---------------------------------------------------------------


def format_rat(q: Fraction) -> str:
    """``"num/den"``, or plain ``"num"`` for an integer."""
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


def transpose(m: Mat) -> Mat:
    if not (m.rows and m.cols):
        return Mat.zeros(m.cols, m.rows)
    return Mat.from_integers(list(zip(*m.integer_rows)), m.denominator)


def from_columns(columns: Sequence[Sequence], rows: int | None = None) -> Mat:
    """The matrix whose j-th column is ``columns[j]``; ``rows`` is needed
    only when there are no columns."""
    if not columns:
        if rows is None:
            raise ValueError("rows required for a 0-column matrix")
        return Mat.zeros(rows, 0)
    m = transpose(Mat(columns))
    if rows is not None and rows != m.rows:
        raise ValueError("rows mismatch")
    return m


def identity_series(n: int) -> MatSeries:
    return MatSeries.constant(Mat.identity(n))


# -- subspaces --------------------------------------------------------------


def spanned_by(columns: Sequence[Sequence], ambient_dim: int) -> Subspace:
    """Span of the given vectors, reduced to an independent basis."""
    return image(from_columns(columns, rows=ambient_dim))


def kernel_basis(m: Mat) -> Subspace:
    """The kernel {x : m @ x = 0} with the rref parametrization."""
    return Subspace(m.cols, m.nullspace())


def canonical_basis(space: Subspace) -> Mat:
    """The basis in column-reduced form: equal exactly for equal spaces."""
    reduced, pivots = transpose(space.basis).rref()
    return transpose(reduced).submatrix_columns(range(len(pivots)))


def same_space(a: Subspace, b: Subspace) -> bool:
    return a.ambient_dim == b.ambient_dim and canonical_basis(a) == canonical_basis(b)


# -- the stage engine -------------------------------------------------------


def rank_of_root(state: RecursionState, b0) -> int | float:
    """Largest i with b0 in N_i; math.inf when b0 survives stabilization.
    A vector of N_{i-1} lies in N_i exactly when S_i maps it to zero."""
    vec = b0 if isinstance(b0, Mat) else Mat([[x] for x in b0])
    if vec.is_zero():
        raise ValueError("rank is defined for nonzero root candidates only")
    rank = 0
    for st in state.stages:
        if not (st.s @ vec).is_zero():
            return rank
        rank = st.index
    if state.stabilization_k is not None and rank >= state.stabilization_k + 1:
        return math.inf
    raise TruncationError(f"vector still lies in N_{rank}; run more stages or stabilize first")


def partial_triangularize(state: RecursionState, k: int) -> tuple[MatSeries, MatSeries]:
    """The degree-k pre-transformation from M column k+1 and the
    transformed series whose k+1 leading coefficients are S_1..S_{k+1}."""
    state.ensure_stages(k + 1)
    p_k = MatSeries([state.m_block(k + 1 - i, k + 1) for i in range(k + 1)], exact=True)
    return p_k, state.input_family @ p_k


def block_column(chains: JordanChainFamily, c: int) -> Mat:
    """M_{1,c} .. M_{c,c} stacked over length - c zero blocks."""
    state, n = chains.state, chains.state.domain_dim
    blocks = [state.m_block(i, c) for i in range(1, c + 1)]
    return Mat.vstack(blocks + [Mat.zeros((chains.length - c) * n, n)])


def chain_from(chains: JordanChainFamily, components: Sequence[Mat]) -> JordanChain:
    """The triangular map applied to column vectors n_1..n_l (n_i in N_i)."""
    l = chains.length
    if len(components) != l:
        raise ValueError(f"need {l} component vectors")
    for i, (vec, ker) in enumerate(zip(components, chains.stage_kernels), start=1):
        if not ker.contains(vec):
            raise ValueError(f"component {i} is not in the stage-{i} kernel")
    terms = (block_column(chains, c) @ vec for c, vec in enumerate(components, start=1))
    return JordanChain(sum(terms, Mat.zeros(l * chains.state.domain_dim, 1)), l)


def stacked_nullspace_basis(chains: JordanChainFamily) -> Mat:
    """Generators of the length-l kernel tuples, stacked into K^{n*l}."""
    return Mat.hstack(
        [block_column(chains, c) @ ker.basis for c, ker in enumerate(chains.stage_kernels, 1)]
    )


def kernel_range_families(
    result: DiagonalizationResult, t: int | None = None
) -> tuple[MatSeries, MatSeries]:
    """Analytic continuations of the kernel and the ranges: the columns of
    phi * basis(N_{k+1}) and of psi * basis(R_1 + ... + R_{k+1})."""
    t = result.order if t is None else t
    phi, psi = result.derived("phi", t), result.derived("psi", t)
    ranges = [st.r.basis for st in result.stages if st.r.dim > 0]
    range_basis = Mat.hstack([Mat.zeros(result.state.codomain_dim, 0), *ranges])
    return (
        phi @ MatSeries.constant(result.tail_kernel.basis),
        psi @ MatSeries.constant(range_basis),
    )
