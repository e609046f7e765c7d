"""The stage-by-stage stabilization engine.

Each stage j builds the operator pair (S̄_j, S_j), splits the running kernel
chain N_{j-1} and codomain remainder Rc_{j-1}, and appends one column to the
block-triangular E and M matrices. Stabilization is certified when the
accumulated range dimensions reach the generic rank of the family, after
which no further range can appear and the chain of complements has died.
The generic rank bounds the accumulated range at every stage, before and
after stabilization; a stage that breaks it is an internal error.

Each stage forms S_j basis(N_{j-1}) once, and one rref of it splits
N_{j-1} = Nc_j ⊕ N_j: Nc_j takes the N_{j-1} basis columns at its pivots,
and R_j its pivot columns, S_j basis(Nc_j). The stage reads its projections
off the running complement projectors Q_{j-1} = I - P_1 - ... - P_{j-1},
onto N_{j-1}, and Qc_{j-1} = I - calP_1 - ... - calP_{j-1}, onto Rc_{j-1}.
With W the R_j coordinates, in Rc_{j-1} = R_j ⊕ Rc_j, of Qc_{j-1}, read off
one rref of [S_j basis(Nc_j) | basis(Rc_j) | Qc_{j-1}], calP_j is
S_j basis(Nc_j) W, S_j^+ is basis(Nc_j) W and P_j is S_j^+ S_j Q_{j-1}:
S_j^+ S_j is the identity on Nc_j and zero on N_j. A given Nc_j also maps
onto R_j, so the formulas hold for it. No basis is inverted.

A stage is *degenerate* when that product is zero: every stage past k+1,
and a gap stage where the Smith exponents skip a value. Then
N_j = N_{j-1}, Rc_j = Rc_{j-1}, and Nc_j, R_j, P_j, calP_j and S_j^+ are
zero: the general step's values, taken with no elimination unless the
complement plan names the stage. The stages run through the last stage
the plan names, which must lie within the stage budget.

The E column is the solution of an upper-triangular block system; the M
column is the E column pushed through the previous M triangle:

    E_{j,j} = I,  E_{i,j} = -S_i^+ * sum_{v>i} S̄_v E_{v,j}  (i < j),
    M_{1,j} = E_{1,j},  M_{row,j} = sum_{c=row-1}^{j-1} M_{row-1,c} E_{c+1,j}.

Row k+1 of the M matrix is what later becomes the right transformation's
coefficients.

Both columns are read from one product. S_i^+ = 0 makes E_{i,j} = 0, so
only the *inverting* stages below j, those with S_i^+ nonzero, enter the
bottom-up solve, and it carries S̄_j through one fixed map: with A = I at
the top inverting stage and A <- A + S̄_i G_i below each inverting i,

    E_{i,j} = G_i S̄_j,  G_i = -S_i^+ A.

Putting that into the M sum, whose terms are the inverting rows c+1 = i and
the diagonal c+1 = j with E_{j,j} = I, gives

    M_{1,j} = E_{1,j},  M_{row,j} = K_row S̄_j + M_{row-1,j-1},
    K_row = sum_{inverting i >= row} M_{row-1,i-1} G_i.

K_row is zero past the top inverting stage, so there M_{row,j} is the block
M_{row-1,j-1} of the previous column, shared rather than recomputed: the
Toeplitz shift that ``verify`` checks as post-stabilization structure.
With no inverting stage yet, a column is the identity diagonal and that
shift. The coupling [G; K] reads only the inverting stages and their M
columns, so it is stacked on the first column that needs it and kept until
another stage inverts; each column costs one product of it with S̄_j. Past
k+1 no stage inverts (new range would break the rank guard), so every later
column shares one coupling, and a run that ends at its last inverting
stage builds none for it. The blocks are the same exact values the
recurrences give.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .errors import (
    InputError,
    InternalConsistencyError,
    StageBudgetError,
    TruncationError,
)
from .matrix import Mat
from .series import MatSeries
from .subspaces import (
    Subspace,
    choose_complement,
    coordinate_rows,
    restrict_and_split,
)


def generic_rank(family: MatSeries) -> int:
    """Rank of the family over the rational-function field.

    Computed as the maximum rank over d*min(rows, cols) + 1 distinct sample
    points 1, 2, 3, ...: the locus where the rank drops is cut out by a
    nonzero minor of degree at most d*min(rows, cols), so at least one
    sample point attains the generic value.
    """
    samples = family.degree * min(family.rows, family.cols) + 1
    best = 0
    limit = min(family.rows, family.cols)
    for t in range(1, samples + 1):
        best = max(best, family.evaluate(t).rank())
        if best == limit:
            break
    return best


@dataclass(frozen=True)
class Stage:
    """The per-stage ledger: operators, subspaces, projections, inverse."""

    index: int
    sbar: Mat
    s: Mat
    n: Subspace
    r: Subspace
    nc: Subspace
    rc: Subspace
    p: Mat
    calp: Mat
    splus: Mat


@dataclass
class ComplementPlan:
    """Optional per-stage complement bases (1-based stage index).

    Stages without an entry fall back to the deterministic pivot strategy.
    """

    nc_bases: dict[int, Mat]
    rc_bases: dict[int, Mat]

    @staticmethod
    def empty() -> "ComplementPlan":
        return ComplementPlan({}, {})


@dataclass(frozen=True)
class JordanChain:
    """A chain (b_{l-1}, ..., b_0) held as its stacked l*n x 1 column; the
    root b_0 is the last block."""

    column: Mat
    length: int

    @property
    def vectors(self) -> tuple[tuple[Fraction, ...], ...]:
        flat = [row[0] for row in self.column.entries]
        n = len(flat) // self.length
        return tuple(tuple(flat[i * n : i * n + n]) for i in range(self.length))

    @property
    def root(self) -> tuple[Fraction, ...]:
        return self.vectors[-1]


class JordanChainFamily:
    """All kernel tuples of a given length, as the triangular map applied to
    the per-stage kernels: n_c in N_c enters component i of the chain, b_{l-i},
    as M_{i,c} n_c, so each generator is a block column of M times a kernel
    basis."""

    def __init__(self, state: "RecursionState", length: int):
        self.state = state
        self.length = length
        self.stage_kernels = [state.stages[i].n for i in range(length)]

    @property
    def nullspace_dim(self) -> int:
        return sum(k.dim for k in self.stage_kernels)

    def _block_column(self, c: int) -> Mat:
        """M_{1,c} .. M_{c,c} stacked over length - c zero blocks."""
        n = self.state.domain_dim
        blocks = [self.state.m_block(i, c) for i in range(1, c + 1)]
        return Mat.vstack(blocks + [Mat.zeros((self.length - c) * n, n)])

    def chain_from(self, components: Sequence[Mat]) -> JordanChain:
        """Apply the triangular map to column vectors n_1..n_l (n_i in N_i)."""
        l = self.length
        if len(components) != l:
            raise ValueError(f"need {l} component vectors")
        for i, (vec, ker) in enumerate(zip(components, self.stage_kernels), start=1):
            if not ker.contains(vec):
                raise ValueError(f"component {i} is not in the stage-{i} kernel")
        pairs = ((self._block_column(c), vec) for c, vec in enumerate(components, start=1))
        return JordanChain(Mat.sum_of_products(pairs, l * self.state.domain_dim, 1), l)

    def basis_chains(self) -> list[JordanChain]:
        """One genuine length-l chain per basis vector of the deepest kernel."""
        chains = self._block_column(self.length) @ self.stage_kernels[-1].basis
        return [JordanChain(chains.column(j), self.length) for j in range(chains.cols)]

    def stacked_nullspace_basis(self) -> Mat:
        """Generators of the length-l kernel tuples, stacked into K^{n*l}."""
        return Mat.hstack(
            [self._block_column(c) @ ker.basis for c, ker in enumerate(self.stage_kernels, 1)]
        )


class RecursionState:
    """Single-writer builder for the stage ledger and the E/M columns.

    Truncated (non-polynomial) input is treated as an exact polynomial of its
    truncation degree, but stages are refused once they would consume
    coefficients the truncation does not genuinely contain.
    """

    def __init__(
        self,
        family: MatSeries,
        complements: ComplementPlan | None = None,
        max_stages: int | None = None,
    ):
        self.input_family = family
        self.input_trunc = None if family.exact else family.degree
        # The engine always works with the polynomial closure.
        self.L = family if family.exact else MatSeries.polynomial(family.coeffs)
        self.domain_dim = family.cols
        self.codomain_dim = family.rows
        self.complements = complements or ComplementPlan.empty()
        degree = family.degree
        if max_stages is None:
            max_stages = (
                max(
                    self.domain_dim + self.codomain_dim,
                    degree * min(self.domain_dim, self.codomain_dim),
                )
                + 2
            )
        self.max_stages = max_stages
        self.plan_end = max([*self.complements.nc_bases, *self.complements.rc_bases], default=0)
        if self.plan_end > max_stages:
            raise StageBudgetError(
                f"the complement plan names stage {self.plan_end}, past the "
                f"budget of {max_stages} stages"
            )
        self.generic_rank = generic_rank(self.L)
        self.stages: list[Stage] = []
        self.E_cols: list[list[Mat]] = []
        self.M_cols: list[list[Mat]] = []
        self.stabilization_k: int | None = None
        # Q_j and Qc_j, the projections onto N_j and Rc_j along the earlier
        # complements and ranges, after the stages so far.
        self._q = Mat.identity(self.domain_dim)
        self._qc = Mat.identity(self.codomain_dim)
        # The stages so far whose S^+ is nonzero: the only rows of an E
        # column that can be nonzero below the diagonal.
        self._inverting: list[int] = []
        # [G; K] stacked from the stages in _inverting: the E blocks and M
        # heads of the next column, as one linear map of its Sbar. Dropped
        # when a stage joins _inverting and stacked again on the next column.
        self._coupling: Mat | None = None
        # psi_0, psi_1, ... as formed so far, each once per run.
        self._psi: list[Mat] = []

    # -- accessors ------------------------------------------------------

    @property
    def stage_count(self) -> int:
        return len(self.stages)

    def stage(self, i: int) -> Stage:
        return self.stages[i - 1]

    def m_block(self, i: int, j: int) -> Mat:
        """M_{i,j} for 1 <= i <= j <= stage_count."""
        return self.M_cols[j - 1][i - 1]

    def e_block(self, i: int, j: int) -> Mat:
        return self.E_cols[j - 1][i - 1]

    def kernel_chain(self, i: int) -> Subspace:
        """N_i, with N_0 the full domain."""
        return Subspace.full(self.domain_dim) if i == 0 else self.stages[i - 1].n

    # -- the stage step ---------------------------------------------------

    def run_stage(self) -> None:
        j = len(self.stages) + 1
        if self.input_trunc is not None and j - 1 > self.input_trunc:
            raise TruncationError(
                f"stage {j} needs the order-{j - 1} coefficient; input truncated "
                f"at order {self.input_trunc}"
            )
        if j == 1:
            sbar = self.L.coefficient(0)
        else:
            sbar = Mat.sum_of_products(
                ((self.L.coefficient(v), self.m_block(v, j - 1)) for v in range(1, j)),
                self.codomain_dim,
                self.domain_dim,
            )
        s = sbar if self._qc.is_identity() else self._qc @ sbar
        stage = self._split_stage(j, sbar, s)
        self._q, self._qc = self._q - stage.p, self._qc - stage.calp
        self.stages.append(stage)
        if self._coupling is None:
            self._coupling = self._inverting_coupling()
        product = self._coupling @ sbar
        self.E_cols.append(self._build_e_column(j, product))
        self.M_cols.append(self._build_m_column(j, product))
        if not stage.splus.is_zero():
            self._inverting.append(j)
            self._coupling = None
        self._detect_stabilization()

    def _split_stage(self, j: int, sbar: Mat, s: Mat) -> Stage:
        """The stage step: split N_{j-1} and Rc_{j-1} under S_j from one
        product S_j basis(N_{j-1}) and one rref of it, and project against
        Q_{j-1} and Qc_{j-1}."""
        prev_n = self.kernel_chain(j - 1)
        prev_rc = Subspace.full(self.codomain_dim) if j == 1 else self.stages[-1].rc
        n_j, r_j, nc_j = restrict_and_split(s, prev_n)
        given_nc, given_rc = self.complements.nc_bases.get(j), self.complements.rc_bases.get(j)
        named = given_nc is not None or given_rc is not None
        n, m, zeros = self.domain_dim, self.codomain_dim, Mat.zeros
        if r_j.is_zero() and not named:
            return Stage(j, sbar, s, n_j, r_j, nc_j, prev_rc, zeros(n, n), zeros(m, m), zeros(n, m))
        try:
            if given_nc is not None:
                nc_j = choose_complement(prev_n, n_j, given=given_nc)
            image = r_j if given_nc is None else Subspace(m, s @ nc_j.basis)
            rc_j = choose_complement(prev_rc, r_j, given=given_rc)
            w = coordinate_rows(image, rc_j, self._qc)
        except ValueError as exc:
            # A bad user-supplied complement is an input problem; the pivot
            # strategy failing would be a bug in the engine itself.
            raise (InputError if named else InternalConsistencyError)(
                f"stage {j} (kernel dim {n_j.dim}, range dim {r_j.dim}, "
                f"ambient {n}->{m}): {exc}"
            ) from exc
        b = nc_j.basis
        return Stage(j, sbar, s, n_j, r_j, nc_j, rc_j, b @ (w @ s @ self._q), image.basis @ w, b @ w)

    def _inverting_coupling(self) -> Mat:
        """[G_i for inverting i; K_row for row = 2..top] stacked, where top is
        the last inverting stage: G_i = -S_i^+ A with A = I at top and
        A <- A + Sbar_i G_i below each inverting i, and
        K_row = sum_{inverting i >= row} M_{row-1,i-1} G_i. With no inverting
        stage the stack has no rows."""
        n, m = self.domain_dim, self.codomain_dim
        if not self._inverting:
            return Mat.zeros(0, m)
        gains: dict[int, Mat] = {}
        a = Mat.identity(m)
        for i in reversed(self._inverting):
            st = self.stages[i - 1]
            gains[i] = -(st.splus @ a)
            if i > self._inverting[0]:
                a = a + st.sbar @ gains[i]
        heads = [
            Mat.sum_of_products(
                ((self.m_block(row - 1, i - 1), gains[i]) for i in self._inverting if i >= row),
                n,
                m,
            )
            for row in range(2, self._inverting[-1] + 1)
        ]
        return Mat.vstack([gains[i] for i in self._inverting] + heads)

    def _build_e_column(self, j: int, product: Mat) -> list[Mat]:
        """E_{j,j} = I, and E_{i,j} = G_i Sbar_j for each inverting i, read
        from the leading blocks of the coupling product; other rows are zero."""
        n = self.domain_dim
        col: list[Mat] = [Mat.zeros(n, n)] * j
        col[j - 1] = Mat.identity(n)
        for b, i in enumerate(self._inverting):
            col[i - 1] = product.submatrix_rows(range(b * n, b * n + n))
        return col

    def _build_m_column(self, j: int, product: Mat) -> list[Mat]:
        """M_{1,j} = E_{1,j} and M_{row,j} = K_row Sbar_j + M_{row-1,j-1},
        K_row Sbar_j read from the coupling product below the E blocks; past
        the top inverting stage the row is the shared block M_{row-1,j-1}."""
        n = self.domain_dim
        mcol = [self.E_cols[j - 1][0]]
        for row in range(2, j + 1):
            shifted = self.m_block(row - 1, j - 1)
            at = (len(self._inverting) + row - 2) * n
            head = product.submatrix_rows(range(at, at + n)) if at < product.rows else None
            mcol.append(shifted if head is None or head.is_zero() else head + shifted)
        return mcol

    # -- stabilization ----------------------------------------------------

    def _detect_stabilization(self) -> None:
        total = sum(st.r.dim for st in self.stages)
        if total > self.generic_rank:
            raise InternalConsistencyError(
                f"accumulated range dimension {total} exceeds generic rank "
                f"{self.generic_rank}"
            )
        if self.stabilization_k is not None or self.generic_rank == 0:
            return
        if total == self.generic_rank:
            last_positive = max(st.index for st in self.stages if st.r.dim > 0)
            self.stabilization_k = last_positive - 1

    def detect_stabilization(self) -> int | None:
        return self.stabilization_k

    def run_until_stabilized(self) -> int:
        while self.stabilization_k is None:
            if len(self.stages) >= self.max_stages:
                raise StageBudgetError(
                    f"no stabilization certificate within {self.max_stages} stages "
                    f"(accumulated rank {sum(st.r.dim for st in self.stages)} of "
                    f"{self.generic_rank})"
                )
            self.run_stage()
        self.ensure_stages(self.plan_end)
        return self.stabilization_k

    def ensure_stages(self, count: int) -> None:
        """Run the stages through ``count`` and the last one the plan names."""
        while len(self.stages) < max(count, self.plan_end):
            self.run_stage()

    # -- queries built on the ledger ---------------------------------------

    def coefficient_identity_holds(self, j: int) -> bool:
        """(L_0 ... L_{j-1}) applied to M column j equals S_j, exactly."""
        acc = Mat.sum_of_products(
            ((self.L.coefficient(v - 1), self.m_block(v, j)) for v in range(1, j + 1)),
            self.codomain_dim,
            self.domain_dim,
        )
        return acc == self.stages[j - 1].s

    def jordan_chain_basis(self, length: int) -> JordanChainFamily:
        """Chains of the given length; they need that many stages, which must
        fit the stage budget."""
        if length > self.max_stages:
            raise StageBudgetError(
                f"chains of length {length} need {length} stages, more than the "
                f"budget of {self.max_stages}"
            )
        self.ensure_stages(length)
        return JordanChainFamily(self, length)

    def rank_of_root(self, b0) -> int | float:
        """Largest i with b0 in N_i; math.inf when b0 survives stabilization.
        A vector of N_{i-1} lies in N_i exactly when S_i maps it to zero."""
        vec = b0 if isinstance(b0, Mat) else Mat([[x] for x in b0])
        if vec.is_zero():
            raise ValueError("rank is defined for nonzero root candidates only")
        rank = 0
        for st in self.stages:
            if not (st.s @ vec).is_zero():
                return rank
            rank = st.index
        if self.stabilization_k is not None and rank >= self.stabilization_k + 1:
            return math.inf
        raise TruncationError(
            f"vector still lies in N_{rank}; run more stages or stabilize first"
        )

    def partial_triangularize(self, k: int) -> tuple[MatSeries, MatSeries]:
        """The degree-k pre-transformation from M column k+1 and the
        transformed series whose k+1 leading coefficients are S_1..S_{k+1}."""
        self.ensure_stages(k + 1)
        coeffs = [self.m_block(k + 1 - i, k + 1) for i in range(k + 1)]
        p_k = MatSeries(coeffs, exact=True)
        return p_k, self.input_family @ p_k

    def phi_coefficient(self, i: int) -> Mat:
        """phi_i = M_{k+1, k+1+i}; stage k+1+i must be genuine."""
        k = self._require_stabilized()
        if i == 0:
            return Mat.identity(self.domain_dim)
        self.ensure_stages(k + 1 + i)
        return self.m_block(k + 1, k + 1 + i)

    def psi_coefficient(self, i: int) -> Mat:
        """psi_i = sum_j S_{i+j} Splus_j over j = 1..k+1 (psi_0 = I)."""
        k = self._require_stabilized()
        if i == 0:
            return Mat.identity(self.codomain_dim)
        self.ensure_stages(k + 1 + i)
        return Mat.sum_of_products(
            ((self.stages[i + j - 1].s, self.stages[j - 1].splus) for j in range(1, k + 2)),
            self.codomain_dim,
            self.codomain_dim,
        )

    def psi_coefficients(self, t: int) -> list[Mat]:
        """psi_0..psi_t; psi_coefficient forms each index once per run and
        a deeper request extends the stored ones."""
        while len(self._psi) <= t:
            self._psi.append(self.psi_coefficient(len(self._psi)))
        return self._psi[: t + 1]

    def _require_stabilized(self) -> int:
        if self.stabilization_k is None:
            raise ValueError("stabilization has not been certified yet")
        return self.stabilization_k
