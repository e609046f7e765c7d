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
and R_j its pivot columns, S_j basis(Nc_j). The stage reads calP_j off the
running complement projector Qc_{j-1} = I - calP_1 - ... - calP_{j-1}, onto
Rc_{j-1}. A second rref, of [S_j basis(Nc_j) | B | Qc_{j-1}], gives Rc_j
and W, the R_j coordinates of Qc_{j-1} in Rc_{j-1} = R_j ⊕ Rc_j: B is a
given Rc_j basis, or basis(Rc_{j-1}), whose columns at the pivots past the
first block make Rc_j. Then calP_j is S_j basis(Nc_j) W and S_j^+ is
basis(Nc_j) W: S_j^+ S_j is the identity on Nc_j and zero on N_j. No stage
reads the domain projection P_j = S_j^+ S_j Q_{j-1}, with
Q_{j-1} = I - P_1 - ... - P_{j-1} onto N_{j-1}: it belongs to the
diagonalization, which forms it. A given Nc_j basis is valid exactly when
it has dim R_j columns, lies in N_{j-1} and S_j maps it to independent
columns, which then span R_j. No basis is inverted.

A stage is *degenerate* when that product is zero: every stage past k+1,
and a gap stage where the Smith exponents skip a value. Then
N_j = N_{j-1}, Rc_j = Rc_{j-1}, and Nc_j, R_j, calP_j and S_j^+ are
zero: the general step's values, taken with no elimination unless the
complement plan names the stage; so finishing one (below) forms only its
M column. The stages run through the last stage the plan names, which
must lie within the stage budget.

A degenerate stage pays only for its proofs. S_j^+ = basis(Nc_j) W with
independent basis columns, so calP_j is zero whenever S_j^+ is, named
stages included: Qc changes only at inverting stages (below), and
Qc_{j-1} = I before the first one, where S_j is S̄_j itself. L_v is
zero past deg L, so S̄_j sums v = 1..min(j-1, deg L). A stage past k+1
so forms two products, S_j = Qc_{j-1} S̄_j and the degeneracy product,
and two packed ones (below), S̄_j and its M column, and runs the rank
guard on a running range total; its zero blocks and E_{j,j} = I are
shared by every stage. Every basis the engine builds is independent by
construction and takes no rank test; only a given basis and its image do.

The stage step comes in two parts. ``run_stage`` forms S̄_j and S_j,
splits N_{j-1}, and runs the rank guard and the certificate, which read
only dim R_j. Finishing the stage (the second rref, calP_j, S_j^+, the
``Stage`` record, the coupling, M column j and Qc_j) waits until stage j+1
starts or a reader of the ledger asks, so ``run_until_stabilized`` returns
with stage k+1 pending; ``stage_count`` counts it without finishing it. A
stage the complement plan names is finished at once, so a bad given basis
is refused when its stage runs.

The E column is the solution of an upper-triangular block system; the M
column is the E column pushed through the previous M triangle:

    E_{j,j} = I,  E_{i,j} = -S_i^+ * sum_{v>i} S̄_v E_{v,j}  (i < j),
    M_{1,j} = E_{1,j},  M_{row,j} = sum_{c=row-1}^{j-1} M_{row-1,c} E_{c+1,j}.

Row k+1 of the M matrix is what later becomes the right transformation's
coefficients.

The M column comes from one packed product, and no E block is formed for
it. S_i^+ = 0 makes E_{i,j} = 0, so only the *inverting* stages below j,
those with S_i^+ nonzero, enter the bottom-up solve, and it carries S̄_j
through one fixed map: with A = I at the top inverting stage and
A <- A + S̄_i G_i below each inverting i,

    E_{i,j} = G_i S̄_j,  G_i = -S_i^+ A.

Putting that into the M sum, whose terms are the inverting rows c+1 = i and
the diagonal c+1 = j with E_{j,j} = I, gives

    M_{1,j} = E_{1,j},  M_{row,j} = K_row S̄_j + M_{row-1,j-1},
    K_row = sum_{inverting i >= row} M_{row-1,i-1} G_i.

K_row is zero past the top inverting stage, so there M_{row,j} is the block
M_{row-1,j-1} of the previous column, shared rather than recomputed: the
Toeplitz shift that ``verify`` checks as post-stabilization structure. Those
rows are taken as one slice of the previous column and are not visited.
With no inverting stage yet, a column is the identity diagonal and that
shift. The coupling [G_1; K], G_1 zero unless stage 1 inverts, is top
blocks high: with no inverting stage, top is 1 and it is one zero block.
It reads only the inverting stages and their M columns, so it is stacked
on the first column that needs it and kept until another stage inverts.
Past k+1 no stage inverts (new range would break the rank guard), so every
later column shares one coupling, and a run that ends at its last
inverting stage builds none for it.

Every M column is one ``MColumn``. Its computed rows 1..top are its head,
held as ``PackedRows``: each row of a block is one integer, over one column
denominator D_j = lcm(den(coupling) den(S̄_j), D_{j-1}), never reduced. The
head is one ``PackedRows.products_plus`` call: the coupling times S̄_j,
plus the previous column's packed rows shifted one block down. The packed
rows go on past top to row deg L, shifted the same way, so that S̄_{j+1} is
one packed product of [L_1 .. L_deg] with them; past row j they are zero.
So a stage reads back only S̄_j and the top block M_{top,j}, which the
next column shares and phi reads. The other head blocks are read back and
reduced together, on the first read of one of them: by ``jordan``, the
coupling and the ``verify`` checks.

Only ``verify`` reads E blocks, and no stage records any. ``e_block``
builds column j on its first read with ``_build_e_column``, the bottom-up
solve of the system above under the ledger's S_i^+, and keeps its nonzero
blocks by row. The paper's system has S_i^+ calP_i in place of S_i^+; the
stage step makes the two equal, and ``verify``'s triangular-system proves
it stage by stage, so the one solve is the system's. E_{1,j} is held apart
from M_{1,j}, which it equals.
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import (
    InputError,
    InternalConsistencyError,
    StageBudgetError,
    TruncationError,
)
from .matrix import Mat, PackedRows
from .series import MatSeries
from .subspaces import Subspace, complement_coordinates, restrict_and_split


def generic_rank(family: MatSeries) -> int:
    """Rank of the family over the rational-function field.

    Computed as the maximum rank ``best`` over the sample points 1, 2, 3, ...,
    stopping at full rank min(rows, cols) or once d*(best + 1) + 1 points are
    sampled: every (best + 1)-minor is a polynomial of degree at most
    d*(best + 1), so one that vanishes at that many points is identically
    zero. At most d*min(rows, cols) + 1 points are sampled.
    """
    d, limit = family.degree, min(family.rows, family.cols)
    best = t = 0
    while best < limit and t <= d * (best + 1):
        t += 1
        best = max(best, family.evaluate(t).rank())
    return best


class Stage(NamedTuple):
    """The per-stage ledger: operators, subspaces, calP and S^+. The domain
    projection P_j belongs to the diagonalization, which forms it."""

    index: int
    sbar: Mat
    s: Mat
    n: Subspace
    r: Subspace
    nc: Subspace
    rc: Subspace
    calp: Mat
    splus: Mat


class MColumn:
    """M column j: its head, the packed rows 1..top and on to row deg L, and
    below row top the blocks M_{top,j-1} .. M_{j-1,j-1} of column j-1,
    shared.

    The first read of a head block not yet formed forms all of them from
    the packed rows, in one pass, and keeps them; the top one, which the
    next column shares and phi reads, is formed at once.
    """

    __slots__ = ("head", "top", "blocks")

    def __init__(self, head: PackedRows, top: int, blocks: list[Mat | None]):
        """``blocks`` holds rows 1..j, with None for each head block not
        yet formed and the top one formed."""
        self.head, self.top, self.blocks = head, top, blocks

    def __getitem__(self, i: int) -> Mat:
        if self.blocks[i] is None:
            n = self.head.cols
            self.blocks[: self.top - 1] = self.head.blocks(n, 0, (self.top - 1) * n)
        return self.blocks[i]

    def rows(self, count: int) -> PackedRows:
        """Rows 1..count packed: the packed rows, and those of the shared
        blocks past them."""
        head, n = self.head, self.head.cols
        packed = len(head.ints) // n
        if count <= packed:
            return head.first(count * n)
        return head.extended(self.blocks[packed:count])


class RecursionState:
    """Single-writer builder for the stage ledger and the E/M columns.

    Truncated (non-polynomial) input is treated as an exact polynomial of its
    truncation degree, but stages are refused once they would consume
    coefficients the truncation does not genuinely contain.

    A complement plan maps a stage to its given (Nc basis or None, Rc basis
    or None); every other stage and basis takes the pivot strategy.
    """

    def __init__(
        self,
        family: MatSeries,
        complements: dict[int, tuple[Mat | None, Mat | None]] | None = None,
        max_stages: int | None = None,
    ):
        self.input_family = family
        # The engine always works with the polynomial closure.
        self.L = MatSeries.polynomial(family.coeffs)
        self.domain_dim = family.cols
        self.codomain_dim = family.rows
        # The entries that name a basis: only their stages run by the plan,
        # and each is finished as soon as it runs.
        plan = (complements or {}).items()
        self.complements = {j: (nc, rc) for j, (nc, rc) in plan if nc is not None or rc is not None}
        degree = family.degree
        if max_stages is None:
            max_stages = (
                max(
                    self.domain_dim + self.codomain_dim,
                    degree * min(self.domain_dim, self.codomain_dim),
                )
                + 2
            )
        elif max_stages < 0:
            raise ValueError(f"the stage budget must be >= 0, got {max_stages}")
        self.max_stages = max_stages
        self.plan_end = max(self.complements, default=0)
        if self.plan_end > max_stages:
            raise StageBudgetError(
                f"the complement plan names stage {self.plan_end}, past the "
                f"budget of {max_stages} stages"
            )
        self.generic_rank = generic_rank(self.L)
        # The finished stages; ``stages`` finishes the pending one first.
        self._stages: list[Stage] = []
        # (j, Sbar_j, S_j, N_j, R_j, Nc_j) of the stage run but not finished.
        self._pending: tuple | None = None
        # E column j as its nonzero blocks by row, solved on its first read.
        self.E_cols: dict[int, dict[int, Mat]] = {}
        self.M_cols: list[MColumn] = []
        # [L_1 .. L_deg] side by side, the left factor of every Sbar_j.
        self._leads = Mat.hstack([Mat.zeros(self.codomain_dim, 0), *self.L.coeffs[1:]])
        self.stabilization_k: int | None = None
        # The sum of dim R_j over the stages so far, for the rank guard.
        self._range_total = 0
        # Qc_j, the projection onto Rc_j along R_1 .. R_j, after the
        # finished stages.
        self._qc = Mat.identity(self.codomain_dim)
        # The stages so far whose S^+ is nonzero: the only rows of an E
        # column that can be nonzero below the diagonal.
        self._inverting: list[int] = []
        # [G_1, or zero; K] stacked from the stages in _inverting: the M
        # heads of the next column, as one linear map of its Sbar. Dropped
        # when a stage joins _inverting and stacked again on the next column.
        self._coupling: Mat | None = None
        # psi_0, psi_1, ... as formed so far, each once per run.
        self._psi: list[Mat] = []

    # -- accessors ------------------------------------------------------

    @property
    def stages(self) -> list[Stage]:
        """The ledger, the pending stage finished."""
        self._finish_stage()
        return self._stages

    @property
    def stage_count(self) -> int:
        """The stages run, the pending one included; nothing is finished."""
        return len(self._stages) + (self._pending is not None)

    def stage(self, i: int) -> Stage:
        """Stage i for 1 <= i <= stage_count."""
        stages = self.stages
        if not 1 <= i <= len(stages):
            raise IndexError(f"stage {i} is outside the ledger of {len(stages)} stages")
        return stages[i - 1]

    def m_block(self, i: int, j: int) -> Mat:
        """M_{i,j} for 1 <= i <= j <= stage_count."""
        self._finish_stage()
        if not 1 <= i <= j <= len(self.M_cols):
            raise IndexError(f"M_{{{i},{j}}} is outside the ledger of {len(self.M_cols)} stages")
        return self.M_cols[j - 1][i - 1]

    def e_block(self, i: int, j: int) -> Mat:
        """E_{i,j} for 1 <= i <= j <= stage_count; column j is solved on its
        first read and kept."""
        if not 1 <= i <= j <= len(self.stages):
            raise IndexError(f"E_{{{i},{j}}} is outside the ledger of {len(self.stages)} stages")
        column = self.E_cols.get(j)
        if column is None:
            column = self.E_cols[j] = self._build_e_column(j)
        block = column.get(i)
        return Mat.zeros(self.domain_dim, self.domain_dim) if block is None else block

    def kernel_chain(self, i: int) -> Subspace:
        """N_i for 0 <= i <= stage_count, with N_0 the full domain."""
        return Subspace.full(self.domain_dim) if i == 0 else self.stage(i).n

    # -- the stage step ---------------------------------------------------

    def run_stage(self) -> None:
        """Run stage j: finish stage j-1, whose Qc_{j-1} and M column S_j
        reads, then split N_{j-1} under S_j from one product
        S_j basis(N_{j-1}) and one rref of it, and run the rank guard and
        the certificate, which read only dim R_j. The rest of stage j
        waits for ``_finish_stage``, unless the plan names the stage."""
        j = self.stage_count + 1
        trunc = self.input_family.tail_order
        if trunc is not None and j - 1 > trunc:
            raise TruncationError(
                f"stage {j} needs the order-{j - 1} coefficient; input truncated "
                f"at order {trunc}"
            )
        self._finish_stage()
        sbar = self.L.coefficient(0) if j == 1 else self._sbar()
        s = self._qc @ sbar
        n_j, r_j, nc_j = restrict_and_split(s, self.kernel_chain(j - 1))
        self._pending = (j, sbar, s, n_j, r_j, nc_j)
        if j in self.complements:
            # A bad given basis is refused when its stage runs.
            self._finish_stage()
        self._detect_stabilization(j, r_j.dim)

    def _finish_stage(self) -> None:
        """Finish the pending stage j, if any: pick or check Rc_j, record
        the stage, build M column j and fold an inverting stage into Qc
        and the coupling."""
        if self._pending is None:
            return
        pending, self._pending = self._pending, None
        j, sbar = pending[:2]
        stage = self._record_stage(*pending)
        self._stages.append(stage)
        self.M_cols.append(self._build_m_column(j, sbar))
        if not stage.splus.is_zero():
            self._qc = self._qc - stage.calp
            self._inverting.append(j)
            self._coupling = None

    def _record_stage(
        self, j: int, sbar: Mat, s: Mat, n_j: Subspace, r_j: Subspace, nc_j: Subspace
    ) -> Stage:
        """The stage record: pick or check Rc_j and read W off one rref
        against Qc_{j-1}."""
        prev_rc = Subspace.full(self.codomain_dim) if j == 1 else self._stages[-1].rc
        given_nc, given_rc = self.complements.get(j, (None, None))
        named = j in self.complements
        n, m = self.domain_dim, self.codomain_dim
        if r_j.is_zero() and not named:
            return Stage(j, sbar, s, n_j, r_j, nc_j, prev_rc, Mat.zeros(m, m), Mat.zeros(n, m))
        try:
            if given_nc is not None:
                nc_j = Subspace(n, given_nc)
                if nc_j.dim != r_j.dim or not self.kernel_chain(j - 1).contains(given_nc):
                    raise ValueError("given complement does not complement the kernel")
            image = r_j if given_nc is None else Subspace(m, s @ nc_j.basis)
            rc_j, w = complement_coordinates(image, prev_rc, self._qc, given_rc)
        except ValueError as exc:
            # A bad user-supplied complement is an input problem; the pivot
            # strategy failing would be a bug in the engine itself.
            raise (InputError if named else InternalConsistencyError)(
                f"stage {j} (kernel dim {n_j.dim}, range dim {r_j.dim}, "
                f"ambient {n}->{m}): {exc}"
            ) from exc
        return Stage(j, sbar, s, n_j, r_j, nc_j, rc_j, image.basis @ w, nc_j.basis @ w)

    def _sbar(self) -> Mat:
        """Sbar_j = sum_v L_v M_{v,j-1} over v = 1..deg L, as one packed
        product of [L_1 .. L_deg] with the packed rows of column j-1, which
        reach row deg L; M_{v,j-1} is zero past row j-1, and self.L is
        exact."""
        m = self.codomain_dim
        rows = self.M_cols[-1].head.first(self.L.degree * self.domain_dim)
        [sbar] = PackedRows.products_plus(self._leads, rows).blocks(m, 0, m)
        return sbar

    def _inverting_coupling(self) -> Mat:
        """[G_1, or zero when stage 1 does not invert; K_row for
        row = 2..top] stacked, top blocks high, where top is the last
        inverting stage, or 1 with none, when the coupling is one zero
        block: G_i = -S_i^+ A with A = I at top and A <- A + Sbar_i G_i
        below each inverting i, and K_row = sum_{inverting i >= row}
        M_{row-1,i-1} G_i."""
        n, m = self.domain_dim, self.codomain_dim
        gains: dict[int, Mat] = {}
        a = Mat.identity(m)
        for i in reversed(self._inverting):
            st = self._stages[i - 1]
            gains[i] = -(st.splus @ a)
            if i > self._inverting[0]:
                a = a + st.sbar @ gains[i]
        heads = [
            Mat.sum_of_products(
                ((self.m_block(row - 1, i - 1), gains[i]) for i in self._inverting if i >= row),
                n,
                m,
            )
            for row in range(2, max(self._inverting, default=1) + 1)
        ]
        return Mat.vstack([gains.get(1, Mat.zeros(n, m)), *heads])

    def _build_m_column(self, j: int, sbar: Mat) -> MColumn:
        """M_{1,j} = E_{1,j} and M_{row,j} = K_row Sbar_j + M_{row-1,j-1} for
        rows 2..top, top the coupling's height in blocks (the top inverting
        stage, 1 with none), as one packed product of the coupling with
        Sbar_j plus the packed rows of column j-1 one block down:
        E_{1,j} = G_1 Sbar_j from the first block when stage 1 inverts, and
        zero otherwise; M_{1,1} = I, and column 1 reads no coupling. Past
        top, K_row is zero: those rows are the previous column's blocks,
        taken by one slice and not visited."""
        n, degree = self.domain_dim, self.L.degree
        if j == 1:
            head = PackedRows.identity(n, n * max(1, degree))
            return MColumn(head, 1, [Mat.identity(n)])
        if self._coupling is None:
            self._coupling = self._inverting_coupling()
        prev = self.M_cols[-1]
        top = self._coupling.rows // n
        # The packed rows reach row deg L, which Sbar_{j+1} reads; past row
        # j they are zero.
        rows = max(top, degree)
        shifted = prev.rows(rows - 1) if rows > 1 else None
        head = PackedRows.products_plus(self._coupling, sbar, shifted, n)
        [block] = head.blocks(n, (top - 1) * n, top * n)
        return MColumn(head, top, [None] * (top - 1) + [block] + prev.blocks[top - 1 :])

    def _build_e_column(self, j: int) -> dict[int, Mat]:
        """E column j by the bottom-up solve E_{j,j} = I,
        E_{i,j} = -S_i^+ sum_{v>i} Sbar_v E_{v,j}, as its nonzero blocks by
        row: a row whose S_i^+ is zero, or that the rows below leave nothing
        to map, makes no product."""
        column = {j: Mat.identity(self.domain_dim)}
        # acc = sum_{v>i} Sbar_v E_{v,j}, starting from Sbar_j E_{j,j} = Sbar_j.
        acc = self._stages[j - 1].sbar
        for i in range(j - 1, 0, -1):
            if i + 1 < j and i + 1 in column:
                acc = acc + self._stages[i].sbar @ column[i + 1]
            splus = self._stages[i - 1].splus
            if not (splus.is_zero() or acc.is_zero()):
                block = -(splus @ acc)
                if not block.is_zero():
                    column[i] = block
        return column

    # -- stabilization ----------------------------------------------------

    def _detect_stabilization(self, j: int, rank: int) -> None:
        """The rank guard on stage j, just run with dim R_j = ``rank``, and
        the certificate: the first stage whose range brings the total to
        the generic rank is stage k+1."""
        self._range_total += rank
        total = self._range_total
        if total > self.generic_rank:
            raise InternalConsistencyError(
                f"accumulated range dimension {total} exceeds generic rank "
                f"{self.generic_rank}"
            )
        if self.stabilization_k is None and rank and total == self.generic_rank:
            self.stabilization_k = j - 1

    def run_until_stabilized(self) -> int:
        """Run the stages through k+1 and the last one the plan names, and
        return k. The last stage run is left pending: its first reader
        finishes it."""
        while self.stabilization_k is None or self.stage_count < self.plan_end:
            if self.stabilization_k is None and self.stage_count >= self.max_stages:
                raise StageBudgetError(
                    f"no stabilization certificate within {self.max_stages} stages "
                    f"(accumulated rank {self._range_total} of "
                    f"{self.generic_rank})"
                )
            self.run_stage()
        return self.stabilization_k

    def ensure_stages(self, count: int) -> None:
        """Run and finish the stages through ``count`` and the last one the
        plan names."""
        while self.stage_count < max(count, self.plan_end):
            self.run_stage()
        self._finish_stage()

    # -- queries built on the ledger ---------------------------------------

    def jordan_chains(self, length: int) -> Mat:
        """The chains of the given length as the columns of one
        length*n x dim N_length matrix, each the stacked chain
        (b_{l-1}; ...; b_0): the block column M_{1..l,l} times a basis of
        N_l. They need that many stages, which must fit the stage budget."""
        if length < 1:
            raise ValueError(f"a chain has length >= 1, got {length}")
        if length > self.max_stages:
            raise StageBudgetError(
                f"chains of length {length} need {length} stages, more than the "
                f"budget of {self.max_stages}"
            )
        self.ensure_stages(length)
        column = Mat.vstack([self.m_block(i, length) for i in range(1, length + 1)])
        return column @ self._stages[length - 1].n.basis

    def phi_coefficients(self, t: int) -> list[Mat]:
        """phi_0..phi_t, phi_i = M_{k+1, k+1+i}, from the stages through
        k+1+t. phi_0 is the shared identity, as every diagonal M block is
        M_{1,1} = I."""
        k = self._stages_through("phi", t)
        return [self.m_block(k + 1, k + 1 + i) for i in range(t + 1)]

    def psi_coefficients(self, t: int) -> list[Mat]:
        """psi_0..psi_t: psi_0 = I and psi_i = sum_j S_{i+j} Splus_j over
        j = 1..k+1, each formed once per run; a deeper request extends the
        stored ones."""
        k, m = self._stages_through("psi", t), self.codomain_dim
        if not self._psi:
            self._psi.append(Mat.identity(m))
        for i in range(len(self._psi), t + 1):
            stages = self._stages
            pairs = ((stages[i + j - 1].s, stages[j - 1].splus) for j in range(1, k + 2))
            self._psi.append(Mat.sum_of_products(pairs, m, m))
        return self._psi[: t + 1]

    def _stages_through(self, name: str, t: int) -> int:
        """k, once the stages through k+1+t have run for the series ``name``
        through order t."""
        if t < 0:
            raise ValueError(f"{name} has no coefficient of order {t}")
        if self.stabilization_k is None:
            raise ValueError("stabilization has not been certified yet")
        self.ensure_stages(self.stabilization_k + 1 + t)
        return self.stabilization_k
