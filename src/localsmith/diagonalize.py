"""Assembly of the diagonalization from a stabilized recursion.

Given stabilization at k, row k+1 of the M matrix supplies the right
transformation, the S-operators with the restricted inverses supply the left
one, and the diagonal polynomial collects the per-stage blocks. Everything
this module returns has been verified: the defining identity
``psi^{-1} * L * phi = Delta`` is proven as ``L * phi = psi * Delta``
coefficient-by-coefficient through the working order (equivalent, since
psi_0 = I), and a mismatch is raised as an internal bug, never returned.
phi, psi, their inverses, L * phi and L^+ are exact series, so the result
keeps each in one store, built once through the deepest order any caller
has asked for; a shallower request reads a truncation of it.

``analyze`` reports only k, the stage table and the Smith exponents, and
proves the identity through order k, which reads stages only through 2k+1.
That proves every exponent. Let r be the generic rank, found by evaluation,
and e_1 <= ... <= e_r <= k the exponents Delta carries. In bases adapted to
the stage decompositions Delta is block diagonal with blocks eps^{i-1}
times an invertible constant, so U Delta V = D, diag(eps^{e_i}) padded with
zeros, for constant invertible U and V. Since phi_0 = psi_0 = I, phi and psi
are units and L = psi U^{-1} (D + eps^{k+1} Y) V^{-1} phi^{-1} for some
series Y, so the least valuation of the j x j minors of L equals that of
D + eps^{k+1} Y. For j <= r each term of such a minor has valuation at
least e_1 + ... + e_j, and the principal minor on the first j indices
attains it, since every Y entry it uses replaces some eps^{e_i} by a power
>= k+1 > e_i. The minors larger than r vanish. So the invariant factors of
L at 0 are eps^{e_1}, ..., eps^{e_r} (Gohberg, Lancaster & Rodman, Matrix
Polynomials, 1982, ch. S1). Truncated input caps the order at
tail_order - k, and the exponents then hold modulo the truncation, as for
every other result.

Stopping at 2k+1 also stops the rank guard of the stages past it, and the
guard cannot fire there under pivot complements. Past k+1 such a stage is
either degenerate, adding no range, or adds range and so breaks the
generic rank at once. The range accumulated through stage j counts the
exponents below j, which are the proven ones above; so a stage past 2k+1
that added range would be an engine fault in a stage no analyze output
reads. A complement plan can name a later stage, which is then not
degenerate by fiat and must still be validated, so ``RecursionState`` runs
the stages through the last one the plan names.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from .errors import InputError, InternalConsistencyError
from .matrix import Mat
from .recursion import RecursionState, Stage
from .series import MatLaurent, MatSeries, series_inverse


def phi_series(state: RecursionState, t: int) -> MatSeries:
    """The right transformation through order t: phi_i = M_{k+1, k+1+i}."""
    return MatSeries(state.phi_coefficients(t), exact=False)


def psi_series(state: RecursionState, t: int) -> MatSeries:
    """The left transformation through order t from the S-operator sums."""
    return MatSeries(state.psi_coefficients(t), exact=False)


def _working_order_view(name: str) -> property:
    """A read-only view of the stored series ``name`` through the working order."""
    return property(lambda self: self.derived(name, self.order))


@dataclass
class DiagonalizationResult:
    """The verified diagonalization: k, the stage ledger, transformations,
    the domain projections P_1 .. P_{k+1} and the structured diagonal
    terms."""

    state: RecursionState
    k: int
    order: int
    projections: list[Mat] = field(init=False)
    # Delta = sum eps^{i-1} S_i P_i, as its terms (i - 1, S_i P_i).
    delta: tuple[tuple[int, Mat], ...] = field(init=False)
    # Series name -> the deepest truncation built so far (see ``series``).
    _store: dict[str, MatLaurent] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def __post_init__(self):
        """P_j = S_j^+ S_j Q_{j-1} for j = 1..k+1, with Q_0 = I and
        Q_j = Q_{j-1} - P_j, and Delta's terms. P_j is zero where S_j^+ is,
        and takes no product."""
        n = self.state.domain_dim
        q, self.projections = Mat.identity(n), []
        for st in self.stages:
            if st.splus.is_zero():
                p = Mat.zeros(n, n)
            else:
                p = st.splus @ (st.s @ q)
                q = q - p
            self.projections.append(p)
        self.delta = tuple(
            (st.index - 1, st.s @ p) for st, p in zip(self.stages, self.projections)
        )

    def series(self, name: str, t: int, build: Callable[[int], MatLaurent]) -> MatLaurent:
        """The stored series ``name`` through order t. A coefficient does not
        depend on the depth its series was built to, so ``build(t)`` runs
        only when the stored series stops short of t, and its result is kept
        only once it returns (a deeper build can raise TruncationError on
        truncated input)."""
        stored = self._store.get(name)
        if stored is None or stored.degree < t:
            stored = self._store[name] = build(t)
        return stored.truncate(t)

    def derived(self, name: str, t: int) -> MatSeries:
        """phi, psi, phi_inv, psi_inv or l_phi (L * phi) through order t,
        from the store. Stages past the working order run on demand."""
        builds = {
            "phi": lambda t: phi_series(self.state, t),
            "psi": lambda t: psi_series(self.state, t),
            "phi_inv": lambda t: series_inverse(self.derived("phi", t), t),
            "psi_inv": lambda t: series_inverse(self.derived("psi", t), t),
            "l_phi": lambda t: self.state.input_family @ self.derived("phi", t),
        }
        return self.series(name, t, builds[name])

    phi = _working_order_view("phi")
    psi = _working_order_view("psi")
    phi_inv = _working_order_view("phi_inv")
    psi_inv = _working_order_view("psi_inv")
    l_phi = _working_order_view("l_phi")

    def residual_order(self) -> int | None:
        """The first order through the working order where L * phi and
        psi * Delta differ, or None. With psi_0 = I it is the first where
        psi^{-1} L phi and Delta do."""
        return self.l_phi.first_difference(self.psi @ self.delta_series(), 0, self.order)

    # -- views over the ledger ---------------------------------------------

    @property
    def stages(self) -> list[Stage]:
        return self.state.stages[: self.k + 1]

    def smith_exponents(self) -> tuple[int, ...]:
        """Exponent j - 1 once for each dimension of Nc_j; the ledger holds
        the stages in index order, so the exponents ascend."""
        return tuple(st.index - 1 for st in self.stages for _ in range(st.nc.dim))

    def delta_series(self) -> MatSeries:
        return MatLaurent.from_terms(self.delta, self.state.codomain_dim, self.state.domain_dim)

    # -- derived families ----------------------------------------------------

    def generalized_inverse(self, t: int | None = None) -> MatLaurent:
        """L^+ = phi * Delta^+ * psi^{-1} with coefficients through eps^t, t >= -k.

        Delta^+ collects the restricted inverses with falling powers; the
        pole comes out at most k and is trimmed to its actual value. The
        default depth is the working order, capped for truncated input:
        order t needs transformations through t + k, hence genuine input
        coefficients through t + 2k. A truncation at order T has T >= k,
        since stage k+1 reads coefficient k, so the cap T - 2k can be
        negative but never falls below -k.
        """
        if t is None:
            t, trunc = self.order, self.state.input_family.tail_order
            if trunc is not None:
                t = min(t, trunc - 2 * self.k)
        if t < -self.k:
            raise ValueError(f"L^+ has pole at most k = {self.k}, so t = {t} is below it")

        def build(t: int) -> MatLaurent:
            phi, psi_inv = self.derived("phi", t + self.k), self.derived("psi_inv", t + self.k)
            coeffs = [self.state.stage(self.k + 1 - i).splus for i in range(self.k + 1)]
            return phi @ MatLaurent(self.k, coeffs, exact=True) @ psi_inv

        return self.series("l_plus", t, build)

    def projector_families(self, t: int) -> tuple[MatSeries, MatSeries]:
        """left = phi (P_1+..+P_{k+1}) phi^{-1}, right = psi (cal P sums) psi^{-1};
        both idempotent through order t."""
        phi, psi, phi_inv, psi_inv = (
            self.derived(name, t) for name in ("phi", "psi", "phi_inv", "psi_inv")
        )
        n, m = self.state.domain_dim, self.state.codomain_dim
        p_sum = sum(self.projections, Mat.zeros(n, n))
        calp_sum = sum((st.calp for st in self.stages), Mat.zeros(m, m))
        left = phi @ MatSeries.constant(p_sum) @ phi_inv
        right = psi @ MatSeries.constant(calp_sum) @ psi_inv
        return left, right

    def smith_factorization(self) -> tuple[Mat, tuple[tuple[int, Mat], ...]]:
        """Delta = S_P * P(eps): the constant factor S_P = sum S_i P_i, the
        sum of Delta's terms, and the terms (i - 1, P_i) of P(eps)."""
        zero = Mat.zeros(self.state.codomain_dim, self.state.domain_dim)
        s_p = sum((term for _, term in self.delta), zero)
        return s_p, tuple(enumerate(self.projections))


def _diagonalization(
    family: MatSeries,
    order: int | None,
    max_stages: int | None,
    complements: dict[int, tuple[Mat | None, Mat | None]] | None,
    through_k: bool,
) -> DiagonalizationResult:
    """Stabilize, run the stages the proof through ``order`` reads, assemble
    phi/psi/Delta and prove L * phi == psi * Delta through ``order``.

    ``order`` defaults to k if ``through_k``, else to max(2k + 4, 12).
    Truncated input caps the default at tail_order - k, so that only
    genuine coefficients are consumed. The stages run through k+1+order,
    and through the last stage the complement plan names.
    """
    if order is not None and order < 0:
        raise ValueError(f"order must be >= 0, got {order}")
    if family.is_zero():
        raise InputError("the zero family cannot be diagonalized")
    state = RecursionState(family, complements=complements, max_stages=max_stages)
    k = state.run_until_stabilized()
    if order is None:
        order = k if through_k else max(2 * k + 4, 12)
        if family.tail_order is not None:
            order = min(order, family.tail_order - k)
    state.ensure_stages(k + 1 + order)
    result = DiagonalizationResult(state=state, k=k, order=order)
    i = result.residual_order()
    if i is not None:
        raise InternalConsistencyError(f"diagonalization residual is nonzero at order {i}")
    return result


def diagonalize(
    family: MatSeries,
    order: int | None = None,
    max_stages: int | None = None,
    complements: dict[int, tuple[Mat | None, Mat | None]] | None = None,
) -> DiagonalizationResult:
    """Run the full pipeline: stabilize, assemble phi/psi/Delta, verify.

    ``order`` defaults to max(2k + 4, 12), capped for truncated input so
    that only genuine coefficients are consumed. The defining identity is
    proven exactly through the working order as L * phi == psi * Delta,
    which needs no inverse and is equivalent since psi_0 = I; failure raises
    InternalConsistencyError (it would be a bug, not a data condition).
    phi^{-1} and psi^{-1} are built only for the callers that read them.
    """
    return _diagonalization(family, order, max_stages, complements, through_k=False)


def analyze(
    family: MatSeries,
    order: int | None = None,
    max_stages: int | None = None,
    complements: dict[int, tuple[Mat | None, Mat | None]] | None = None,
) -> DiagonalizationResult:
    """The diagonalization proven through the order that fixes k, the stage
    table and the Smith exponents: ``order`` defaults to k (capped at
    tail_order - k for truncated input), which needs stages only through
    2k+1. See the module docstring for why that proves every exponent.
    """
    return _diagonalization(family, order, max_stages, complements, through_k=True)
