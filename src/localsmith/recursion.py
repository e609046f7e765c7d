"""The stage-by-stage stabilization engine.

Each stage j builds the operator pair (S̄_j, S_j), splits the running kernel
chain N_{j-1} and codomain remainder Rc_{j-1}, and appends one column to the
block-triangular E and M matrices. Stabilization is certified when the
accumulated range dimensions reach the generic rank of the family, after
which no further range can appear and the chain of complements has died.
The generic rank bounds the accumulated range at every stage, before and
after stabilization; a stage that breaks it is an internal error.

The E column solves an upper-triangular block system from the bottom up; the
M column is the E column pushed through the previous M triangle:

    E_{j,j} = I,  E_{i,j} = -S_i^+ * sum_{v>i} S̄_v E_{v,j}  (i < j),
    M_{1,j} = E_{1,j},  M_{row,j} = sum_{c=row-1}^{j-1} M_{row-1,c} E_{c+1,j}.

Row k+1 of the M matrix is what later becomes the right transformation's
coefficients.

A stage j > 1 is *degenerate* when S_j maps N_{j-1} to zero. Every stage
past k+1 is, and so is a gap stage before it when the Smith exponents skip
a value. A degenerate stage adds no subspace: N_j = N_{j-1},
Rc_j = Rc_{j-1}, Nc_j and R_j are zero-dimensional, and P_j, calP_j and
S_j^+ are zero. Those are the values the general subspace step gives, so a
degenerate stage takes them directly, unless the complement plan names the
stage, whose given bases must still be validated and used. Because
S_i^+ = 0 makes E_{i,j} = 0, the E column walks only the rows whose S_i^+
is nonzero. Above the last nonzero off-diagonal E block of column j the
M sum has the single term M_{row-1,j-1} E_{j,j}, so M_{row,j} is the
block M_{row-1,j-1} of the previous column, shared rather than recomputed:
the Toeplitz shift that ``verify`` checks as post-stabilization structure.

Once k is certified every inverting stage (S_i^+ nonzero) is at most k+1,
and a later stage j whose S_j^+ is zero takes its columns in closed form.
Between the top inverting stage and j no E block is nonzero, so the
bottom-up solve carries S̄_j through one fixed map: with A = I at the top
inverting stage and A <- A + S̄_i G_i below each inverting i,

    E_{i,j} = G_i S̄_j,  G_i = -S_i^+ A.

Putting that into the M sum, whose terms are the inverting rows c+1 = i and
the diagonal c+1 = j with E_{j,j} = I, gives

    M_{1,j} = E_{1,j},  M_{row,j} = K_row S̄_j + M_{row-1,j-1},
    K_row = sum_{inverting i >= row} M_{row-1,i-1} G_i,

where K_row is zero past the top inverting stage, so those rows stay the
shared shift. G and K read only stages and M columns up to k+1; they are
stacked once, on the first stage past k+1, so a run that stops at k+1 pays
nothing for them, and each such column costs one product of the stack with
S̄_j. The blocks are the same exact values the recurrences give.
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
    projection_matrix,
    restrict_and_split,
    restricted_inverse,
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
    """A chain (b_{l-1}, ..., b_0); the root b_0 is the last entry."""

    vectors: tuple[tuple[Fraction, ...], ...]

    @property
    def length(self) -> int:
        return len(self.vectors)

    @property
    def root(self) -> tuple[Fraction, ...]:
        return self.vectors[-1]

    def stacked(self) -> Mat:
        return Mat([[x] for vec in self.vectors for x in vec])


class JordanChainFamily:
    """All kernel tuples of a given length, as the triangular map applied to
    the per-stage kernels: component i of the image is b_{l-i}."""

    def __init__(self, state: "RecursionState", length: int):
        self.state = state
        self.length = length
        self.stage_kernels = [state.stages[i].n for i in range(length)]

    @property
    def nullspace_dim(self) -> int:
        return sum(k.dim for k in self.stage_kernels)

    def chain_from(self, components: Sequence[Mat]) -> JordanChain:
        """Apply the triangular map to column vectors n_1..n_l (n_i in N_i)."""
        l = self.length
        if len(components) != l:
            raise ValueError(f"need {l} component vectors")
        for i, (vec, ker) in enumerate(zip(components, self.stage_kernels), start=1):
            if not ker.contains(vec):
                raise ValueError(f"component {i} is not in the stage-{i} kernel")
        out = []
        for row in range(1, l + 1):
            acc = Mat.sum_of_products(
                ((self.state.m_block(row, col), components[col - 1]) for col in range(row, l + 1)),
                self.state.domain_dim,
                1,
            )
            out.append(tuple(x[0] for x in acc.entries))
        return JordanChain(tuple(out))

    def basis_chains(self) -> list[JordanChain]:
        """One genuine length-l chain per basis vector of the deepest kernel."""
        n_l = self.stage_kernels[-1]
        zero = Mat.zeros(self.state.domain_dim, 1)
        chains = []
        for j in range(n_l.dim):
            comps = [zero] * (self.length - 1) + [n_l.basis.column(j)]
            chains.append(self.chain_from(comps))
        return chains

    def stacked_nullspace_basis(self) -> Mat:
        """Generators of the length-l kernel tuples, stacked into K^{n*l}."""
        columns = []
        zero = Mat.zeros(self.state.domain_dim, 1)
        for i, ker in enumerate(self.stage_kernels, start=1):
            for j in range(ker.dim):
                comps = [zero] * self.length
                comps[i - 1] = ker.basis.column(j)
                chain = self.chain_from(comps)
                columns.append([x for vec in chain.vectors for x in vec])
        return Mat.from_columns(columns, rows=self.state.domain_dim * self.length)


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
        self.generic_rank = generic_rank(self.L)
        self.stages: list[Stage] = []
        self.E_cols: list[list[Mat]] = []
        self.M_cols: list[list[Mat]] = []
        self.stabilization_k: int | None = None
        self._calp_sum = Mat.zeros(self.codomain_dim, self.codomain_dim)
        # The stages before the current one whose S^+ is nonzero: the only
        # rows of an E column that can be nonzero below the diagonal.
        self._inverting: list[int] = []
        # [G; K] stacked from the stages in _inverting, built on the first
        # stage past k+1: the E blocks and M heads of every later column, as
        # one linear map of that column's Sbar.
        self._coupling: Mat | None = None
        self._no_domain = Subspace.zero(self.domain_dim)
        self._no_codomain = Subspace.zero(self.codomain_dim)

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
        s = sbar if self._calp_sum.is_zero() else sbar - self._calp_sum @ sbar
        prev_n = self.kernel_chain(j - 1)
        prev_rc = (
            Subspace.full(self.codomain_dim) if j == 1 else self.stages[-1].rc
        )
        if self._is_degenerate(j, s, prev_n):
            n, m = self.domain_dim, self.codomain_dim
            stage = Stage(
                j, sbar, s, prev_n, self._no_codomain, self._no_domain, prev_rc,
                Mat.zeros(n, n), Mat.zeros(m, m), Mat.zeros(n, m),
            )
        else:
            stage = self._split_stage(j, sbar, s, prev_n, prev_rc)
            self._calp_sum = self._calp_sum + stage.calp
        self.stages.append(stage)
        if self.stabilization_k is not None and stage.splus.is_zero():
            self._append_coupled_columns(j)
        else:
            self.E_cols.append(self._build_e_column(j))
            self.M_cols.append(self._build_m_column(j))
        if not stage.splus.is_zero():
            self._inverting.append(j)
        self._detect_stabilization()

    def _is_degenerate(self, j: int, s: Mat, prev_n: Subspace) -> bool:
        """S_j maps N_{j-1} to zero, and the complement plan leaves stage j
        to the engine."""
        return (
            j > 1
            and j not in self.complements.nc_bases
            and j not in self.complements.rc_bases
            and (s @ prev_n.basis).is_zero()
        )

    def _split_stage(
        self, j: int, sbar: Mat, s: Mat, prev_n: Subspace, prev_rc: Subspace
    ) -> Stage:
        """The general subspace step: split N_{j-1} and Rc_{j-1} under S_j."""
        n_j, r_j = restrict_and_split(s, prev_n)
        try:
            nc_j = choose_complement(prev_n, n_j, given=self.complements.nc_bases.get(j))
            rc_j = choose_complement(prev_rc, r_j, given=self.complements.rc_bases.get(j))
            parts_domain = [st.nc for st in self.stages] + [nc_j, n_j]
            parts_codomain = [st.r for st in self.stages] + [r_j, rc_j]
            p_j = projection_matrix(parts_domain, j - 1)
            calp_j = projection_matrix(parts_codomain, j - 1)
            splus_j = restricted_inverse(s, nc_j, calp_j)
        except ValueError as exc:
            overridden = j in self.complements.nc_bases or j in self.complements.rc_bases
            # A bad user-supplied complement is an input problem; the pivot
            # strategy failing would be a bug in the engine itself.
            kind = InputError if overridden else InternalConsistencyError
            raise kind(
                f"stage {j} (kernel dim {n_j.dim}, range dim {r_j.dim}, "
                f"ambient {self.domain_dim}->{self.codomain_dim}): {exc}"
            ) from exc
        return Stage(j, sbar, s, n_j, r_j, nc_j, rc_j, p_j, calp_j, splus_j)

    def _build_e_column(self, j: int) -> list[Mat]:
        """Solve the triangular system bottom-up: E_{j,j} = I and
        E_{i,j} = -S_i^+ * sum_{v>i} S̄_v E_{v,j}. Rows with S_i^+ = 0 stay
        zero and are not walked."""
        col: list[Mat] = [Mat.zeros(self.domain_dim, self.domain_dim)] * j
        col[j - 1] = Mat.identity(self.domain_dim)
        acc = self.stages[j - 1].sbar
        for i in reversed(self._inverting):
            if acc.is_zero():
                break
            col[i - 1] = -(self.stages[i - 1].splus @ acc)
            sbar = self.stages[i - 1].sbar
            if not (sbar.is_zero() or col[i - 1].is_zero()):
                acc = acc + sbar @ col[i - 1]
        return col

    def _build_m_column(self, j: int) -> list[Mat]:
        """M column j = diag(I, M^{(j-1)}) applied to the E column; rows above
        the last nonzero off-diagonal E block are shared with column j-1."""
        ecol = self.E_cols[j - 1]
        last = max((i for i in range(1, j) if not ecol[i - 1].is_zero()), default=0)
        mcol: list[Mat] = [ecol[0]]
        for row in range(2, j + 1):
            if row > last:
                mcol.append(self.m_block(row - 1, j - 1))
                continue
            mcol.append(
                Mat.sum_of_products(
                    ((self.m_block(row - 1, c), ecol[c]) for c in range(row - 1, j)),
                    self.domain_dim,
                    self.domain_dim,
                )
            )
        return mcol

    def _stabilized_coupling(self) -> Mat:
        """[G_i for inverting i; K_row for row = 2..top] stacked, where top is
        the last inverting stage: G_i = -S_i^+ A with A = I at top and
        A <- A + Sbar_i G_i below each inverting i, and
        K_row = sum_{inverting i >= row} M_{row-1,i-1} G_i."""
        n, m = self.domain_dim, self.codomain_dim
        gains: dict[int, Mat] = {}
        a = Mat.identity(m)
        for i in reversed(self._inverting):
            st = self.stages[i - 1]
            gains[i] = -(st.splus @ a)
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

    def _append_coupled_columns(self, j: int) -> None:
        """Columns j of E and M from one product of the coupling with Sbar_j:
        E_{i,j} = G_i Sbar_j and M_{row,j} = K_row Sbar_j + M_{row-1,j-1}.
        Valid because every inverting stage precedes j: past k+1 a nonzero
        S^+ means new range, which the rank guard refuses."""
        if self._coupling is None:
            self._coupling = self._stabilized_coupling()
        n = self.domain_dim
        product = self._coupling @ self.stages[j - 1].sbar
        blocks = iter(product.submatrix_rows(range(b, b + n)) for b in range(0, product.rows, n))
        ecol: list[Mat] = [Mat.zeros(n, n)] * j
        ecol[j - 1] = Mat.identity(n)
        for i in self._inverting:
            ecol[i - 1] = next(blocks)
        mcol = [ecol[0]]
        for row in range(2, j + 1):
            shifted = self.m_block(row - 1, j - 1)
            head = next(blocks, None)
            mcol.append(shifted if head is None or head.is_zero() else head + shifted)
        self.E_cols.append(ecol)
        self.M_cols.append(mcol)

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
                    f"{self.generic_rank})",
                    stages_run=len(self.stages),
                    rank_found=sum(st.r.dim for st in self.stages),
                    generic_rank=self.generic_rank,
                )
            self.run_stage()
        return self.stabilization_k

    def ensure_stages(self, count: int) -> None:
        while len(self.stages) < count:
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
                f"budget of {self.max_stages}",
                stages_run=len(self.stages),
                generic_rank=self.generic_rank,
            )
        self.ensure_stages(length)
        return JordanChainFamily(self, length)

    def rank_of_root(self, b0) -> int | float:
        """Largest i with b0 in N_i; math.inf when b0 survives stabilization."""
        vec = b0 if isinstance(b0, Mat) else Mat([[x] for x in b0])
        if vec.is_zero():
            raise ValueError("rank is defined for nonzero root candidates only")
        rank = 0
        for st in self.stages:
            if not st.n.contains(vec):
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

    def _require_stabilized(self) -> int:
        if self.stabilization_k is None:
            raise ValueError("stabilization has not been certified yet")
        return self.stabilization_k
