"""Proofs of the identities localsmith returns, and the ``verify`` checks.

A proof is ``(passed, detail)``. A command asserts the identity it reports
with ``require`` on the same proof that its check reports. ``CHECKS`` lists
the checks in report order; each takes a ``DiagonalizationResult`` alone and
returns a proof, or None where it does not apply. ``run_check`` makes the
report record of one check. A check marked *oracle* compares with
``localsmith.oracles``, which shares no code with the stage recursion; the
others recompute from the recursion's own ledger and transformations. Each
check proves an identity of eps^p L, p the declared pole, and counts orders
and powers in its frame.

1. diagonalization-residual: psi^-1 L phi == Delta through the working order,
   proven as L phi == psi Delta (equivalent, since psi_0 = I) from the
   result's stored L phi and psi. Every series a check reads (phi, psi,
   their inverses, L phi, L^+ and the direct Laurent inverse) comes from the
   result's store: built once, through the deepest order any check asks for.
2. coefficient-identity: (L_0 .. L_{j-1}) M_j == S_j for every stage j.
3. triangular-system: E_ij + sum_{v>i} S_i^+ calP_i Sbar_v E_vj == delta_ij I
   for every (i, j), proven as S_i^+ calP_i == S_i^+ at every stage. The
   ledger's E columns are the bottom-up solve under S_i^+
   (``RecursionState._build_e_column``), so under that identity they solve
   the system. The first stage where it fails is named.
4. toeplitz-kernel-dims (oracle): the length-l block Toeplitz kernel has
   dimension dim N_1 + ... + dim N_l, for l = 1 .. k+1; every rank is read
   off one rref of the length-(k+1) matrix.
5. chain-membership (oracle): the length-l block Toeplitz matrix annihilates
   every generated chain of length l, for l = 1 .. k+1, all of them in one
   product.
6. post-stabilization-structure: the ledger's E and M columns meet the
   generic recurrence, M_{1,j} = E_{1,j} and M_{row,j} =
   sum_{c=row-1}^{j-1} M_{row-1,c} E_{c+1,j}, with a product only where
   both factors are nonzero: the M columns come from one coupling and the
   E columns from the bottom-up solve, so neither is read off the other.
   Past stage k+1 the E blocks below row k+1 are zero, and the M blocks
   are the ledger's shifted blocks, with identity diagonal blocks.
7. generalized-inverse-axioms: L X L == L and X L X == X for X = L^+.
8. laurent-oracle (oracle): L^+ has the pole and the coefficients of the
   direct Laurent inverse, det and adjugate from one fraction-free pass per
   integer sample point, interpolated in one Newton pass, and adj/det
   expanded in integers; square families of full generic rank only.
9. smith-identities: each P_j is re-formed from the ledger as
   S_j^+ S_j Q_{j-1}, with Q_0 = I and Q_j = Q_{j-1} - P_j, naming the first
   stage where it differs; then S_P P == Delta and the blow-up
   psi^-1 L phi P^-1 == S_P. With diagonalization-residual, S_P P == Delta
   gives L phi == psi S_P P.
10. projector-families: both projector families are idempotent, and
    L * left == L == right * L through the working order, that is
    L (I - left) = 0 and (I - right) L = 0.
11. linearization-bound (oracle: the companion pencil, built from the raw
    coefficients; its index k_pencil comes from the stage recursion):
    (k_pencil - 1) degree < k <= k_pencil degree; exact families of degree
    >= 2 only.
"""

from __future__ import annotations

from .diagonalize import DiagonalizationResult
from .errors import InternalConsistencyError, LocalSmithError, TruncationError
from .matrix import Mat
from .oracles import (
    AugmentedPencil,
    direct_laurent_inverse,
    linearize_polynomial,
    toeplitz_block,
    toeplitz_kernel_dims,
)
from .recursion import RecursionState
from .series import MatLaurent, MatSeries

Proof = tuple[bool, str]


def require(proof: Proof) -> bool:
    """True for a passed proof; a failed one is a bug, raised as such."""
    passed, detail = proof
    if not passed:
        raise InternalConsistencyError(detail)
    return True


def inverse_axioms(family: MatSeries, linv: MatLaurent) -> Proof:
    """L*X*L == L and X*L*X == X on every coefficient the products determine;
    X*L*X is read as X*(L*X), so L*X is formed once."""
    lx = family @ linv
    lxl = lx @ family
    e = lxl.first_difference(family, -lxl.pole, lxl.tail_order)
    if e is not None:
        return False, f"L*X*L != L at order {e}"
    xlx = linv @ lx
    e = xlx.first_difference(linv, -xlx.pole, xlx.tail_order)
    if e is not None:
        return False, f"X*L*X != X at order {e}"
    return True, f"both axioms exact through order {min(lxl.tail_order, xlx.tail_order)}"


def smith_identity(result: DiagonalizationResult) -> Proof:
    """S_P * P(eps) == Delta, exactly."""
    s_p, p_terms = result.smith_factorization()
    p_eps = MatLaurent.from_terms(p_terms, s_p.cols, s_p.cols)
    if MatSeries.constant(s_p) @ p_eps != result.delta_series():
        return False, "S_P * P(eps) differs from delta"
    return True, "S_P * P(eps) == delta"


def linearization(
    family: MatSeries, k: int, max_stages: int | None = None
) -> tuple[AugmentedPencil, int, Proof]:
    """The companion pencil of a polynomial family of degree >= 1, its
    stabilization index, and the proof of the bound relating it to k."""
    pencil = linearize_polynomial(family)
    kbar = RecursionState(pencil.pencil(), max_stages=max_stages).run_until_stabilized()
    deg = pencil.degree
    if not (kbar - 1) * deg < k <= kbar * deg:
        return pencil, kbar, (False, f"bound fails: k={k}, k_pencil={kbar}, degree={deg}")
    return pencil, kbar, (True, f"k={k}, k_pencil={kbar}, degree={deg}")


def _residual(result: DiagonalizationResult) -> Proof:
    i = result.residual_order()
    if i is not None:
        return False, f"residual is nonzero at order {i}"
    return True, f"exact through order {result.order}"


def _coefficient_identity(result: DiagonalizationResult) -> Proof:
    state = result.state
    m, n = state.codomain_dim, state.domain_dim
    for j in range(1, state.stage_count + 1):
        pairs = ((state.L.coefficient(v - 1), state.m_block(v, j)) for v in range(1, j + 1))
        if Mat.sum_of_products(pairs, m, n) != state.stage(j).s:
            return False, f"column {j} violates the coefficient identity"
    return True, f"(L_0..L_{{j-1}}) * M_j == S_j for all {state.stage_count} stages"


def _triangular_system(result: DiagonalizationResult) -> Proof:
    for stage in result.state.stages:
        if stage.splus @ stage.calp != stage.splus:
            return False, f"S_i^+ calP_i != S_i^+ at stage {stage.index}"
    return True, "E columns solve the block-triangular system"


def _toeplitz_kernel_dims(result: DiagonalizationResult) -> Proof:
    state, k = result.state, result.k
    dims = toeplitz_kernel_dims(state.input_family, k + 1)
    for length, got in enumerate(dims, start=1):
        expect = sum(state.stage(i).n.dim for i in range(1, length + 1))
        if got != expect:
            return False, f"length {length}: oracle {got} vs recursion {expect}"
    return True, f"kernel dims {dims} agree for lengths 1..{k + 1}"


def _chain_membership(result: DiagonalizationResult) -> Proof:
    state = result.state
    for length in range(1, result.k + 2):
        chains = state.jordan_chains(length)
        block = toeplitz_block(state.input_family, length)
        if chains.cols and not (block @ chains).is_zero():
            return False, f"a length-{length} chain fails the stacked condition"
    return True, "all generated chains are annihilated by the block matrix"


def _post_stabilization_structure(result: DiagonalizationResult) -> Proof:
    # The ledger builds the M columns from one coupling, with the shift in
    # place, and the E columns by a separate solve, so every M block is
    # recomputed here from the generic recurrence over the E blocks.
    state, k = result.state, result.k
    n, count = state.domain_dim, state.stage_count
    # One read solves E column j, kept as its nonzero blocks by row.
    for j in range(1, count + 1):
        state.e_block(j, j)
    ecols = {j: state.E_cols[j] for j in range(1, count + 1)}
    for j in range(k + 2, count + 1):
        for i in range(k + 2, j):
            if i in ecols[j]:
                return False, f"E block ({i},{j}) nonzero below row {k + 1}"
    for j, column in ecols.items():
        if state.m_block(1, j) != state.e_block(1, j):
            return False, f"M block (1,{j}) differs from E block (1,{j})"
        for row in range(2, j + 1):
            # E_{j,j} = I adds M_{row-1,j-1} itself; only the other nonzero
            # E blocks at rows >= row are multiplied. The zero pattern above
            # leaves none past row k+1 in columns past k+2, so there the
            # recurrence is the Toeplitz shift.
            generic = state.m_block(row - 1, j - 1)
            pairs = [
                (state.m_block(row - 1, i - 1), block)
                for i, block in column.items()
                if row <= i < j
            ]
            if pairs:
                generic = Mat.sum_of_products(pairs, n, n) + generic
            stored = state.m_block(row, j)
            if generic != stored:
                return False, f"M block ({row},{j}) differs from the recurrence"
            if row == j > k + 2 and not stored.is_identity():
                return False, f"M diagonal block at column {j} is not the identity"
    return True, "E zero pattern and M Toeplitz shift hold after stabilization"


def _generalized_inverse_axioms(result: DiagonalizationResult) -> Proof:
    return inverse_axioms(result.state.input_family, result.generalized_inverse(result.order))


def _laurent_oracle(result: DiagonalizationResult) -> Proof | None:
    family, order = result.state.input_family, result.order
    if family.rows != family.cols or result.state.generic_rank != family.rows:
        return None
    linv = result.generalized_inverse(order)
    oracle = result.series(
        "direct_inverse", order, lambda t: direct_laurent_inverse(family, tail=t)
    )
    if oracle.pole != linv.pole:
        return False, f"pole {linv.pole} vs oracle {oracle.pole}"
    e = oracle.first_difference(linv, -linv.pole, order)
    if e is not None:
        return False, f"coefficient mismatch at order {e}"
    return True, f"coefficients agree from eps^-{linv.pole} through eps^{order}"


def _smith_identities(result: DiagonalizationResult) -> Proof:
    q = Mat.identity(result.state.domain_dim)
    for st, p in zip(result.stages, result.projections):
        if p != st.splus @ st.s @ q:
            return False, f"P_{st.index} != S_{st.index}^+ S_{st.index} Q_{st.index - 1}"
        q = q - p
    passed, detail = smith_identity(result)
    if not passed:
        return passed, detail
    s_p, p_terms = result.smith_factorization()
    # P^{-1}(eps) = eps^{-k} P_{k+1} + ... + P_1, a k-pole inverse on the
    # direct sum of the complement chain.
    p_inv = MatLaurent.from_terms(((-e, p) for e, p in p_terms), s_p.cols, s_p.cols)
    blow = result.psi_inv @ result.l_phi @ p_inv
    e = blow.first_difference(MatSeries.constant(s_p), -blow.pole, blow.tail_order)
    if e is not None:
        return False, f"blow-up identity fails at order {e}"
    if blow.tail_order < 0:
        reach = f"blow-up identity not reached at order {result.order}"
        return True, f"factorization identities exact; {reach}"
    return True, "factorization and blow-up identities exact"


def _projector_families(result: DiagonalizationResult) -> Proof:
    family, order = result.state.input_family, result.order
    left, right = result.projector_families(order)
    if not (left @ left).eq_through(left, order):
        return False, "left projector family is not idempotent"
    if not (right @ right).eq_through(right, order):
        return False, "right projector family is not idempotent"
    if not (family @ left).eq_through(family, order):
        return False, "L * left differs from L"
    if not (right @ family).eq_through(family, order):
        return False, "right * L differs from L"
    return True, f"idempotent through order {order}, L * left == L == right * L"


def _linearization_bound(result: DiagonalizationResult) -> Proof | None:
    family = result.state.input_family
    if not family.exact or family.degree < 2:
        return None
    return linearization(family, result.k)[2]


CHECKS = (
    ("diagonalization-residual", _residual),
    ("coefficient-identity", _coefficient_identity),
    ("triangular-system", _triangular_system),
    ("toeplitz-kernel-dims", _toeplitz_kernel_dims),
    ("chain-membership", _chain_membership),
    ("post-stabilization-structure", _post_stabilization_structure),
    ("generalized-inverse-axioms", _generalized_inverse_axioms),
    ("laurent-oracle", _laurent_oracle),
    ("smith-identities", _smith_identities),
    ("projector-families", _projector_families),
    ("linearization-bound", _linearization_bound),
)


def run_check(name: str, check) -> dict:
    """The record of one check: ``check()`` is called with no arguments. A
    TruncationError skips it, any other LocalSmithError fails it, and None
    means it does not apply."""
    try:
        outcome = check()
    except TruncationError as exc:
        return {"name": name, "status": "skipped", "detail": str(exc)}
    except LocalSmithError as exc:
        return {"name": name, "status": "fail", "detail": str(exc)}
    if outcome is None:
        return {"name": name, "status": "skipped", "detail": "not applicable"}
    passed, text = outcome
    return {"name": name, "status": "pass" if passed else "fail", "detail": text}
