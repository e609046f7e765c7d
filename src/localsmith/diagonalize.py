"""Assembly of the diagonalization from a stabilized recursion.

Given stabilization at k, row k+1 of the M matrix supplies the right
transformation, the S-operators with the restricted inverses supply the left
one, and the diagonal polynomial collects the per-stage blocks. Everything
this module returns has been verified: the defining identity
``psi^{-1} * L * phi = Delta`` is proven as ``L * phi = psi * Delta``
coefficient-by-coefficient through the working order (equivalent, since
psi_0 = I), and a mismatch is raised as an internal bug, never returned.
phi^{-1} and psi^{-1} are built through the working order on first use.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

from .errors import InputError, InternalConsistencyError, TruncationError
from .matrix import Mat
from .recursion import ComplementPlan, RecursionState, Stage
from .series import MatLaurent, MatSeries, series_inverse
from .subspaces import Subspace


def phi_series(state: RecursionState, t: int) -> MatSeries:
    """The right transformation through order t: phi_i = M_{k+1, k+1+i}."""
    coeffs = [state.phi_coefficient(i) for i in range(t + 1)]
    return MatSeries(coeffs, exact=False)


def psi_series(state: RecursionState, t: int) -> MatSeries:
    """The left transformation through order t from the S-operator sums."""
    coeffs = [state.psi_coefficient(i) for i in range(t + 1)]
    return MatSeries(coeffs, exact=False)


def delta_terms(state: RecursionState) -> tuple[tuple[int, Mat], ...]:
    """The diagonal polynomial as structured (power, S_i P_i) terms."""
    k = state.detect_stabilization()
    if k is None:
        raise ValueError("stabilization has not been certified yet")
    out = []
    for i in range(1, k + 2):
        st = state.stage(i)
        out.append((i - 1, st.s @ st.p))
    return tuple(out)


@dataclass(frozen=True)
class SmithFactorization:
    """Delta = S_P * P(eps) split into the constant factor and Smith form."""

    s_p: Mat
    p_terms: tuple[tuple[int, Mat], ...]
    a_series: MatSeries
    exponents: tuple[int, ...]

    def p_series(self) -> MatSeries:
        n = self.p_terms[0][1].rows
        top = max(power for power, _ in self.p_terms)
        coeffs = [Mat.zeros(n, n) for _ in range(top + 1)]
        for power, mat in self.p_terms:
            coeffs[power] = coeffs[power] + mat
        return MatSeries(coeffs, exact=True)

    def p_inverse_laurent(self) -> MatLaurent:
        """P^{-1}(eps) = eps^{-k} P_{k+1} + ... + P_1, a k-pole inverse on
        the direct sum of the complement chain."""
        k = max(power for power, _ in self.p_terms)
        n = self.p_terms[0][1].rows
        coeffs = [Mat.zeros(n, n) for _ in range(k + 1)]
        for power, mat in self.p_terms:
            coeffs[k - power] = coeffs[k - power] + mat
        return MatLaurent(k, coeffs, exact=True)


@dataclass
class DiagonalizationResult:
    """The verified diagonalization: k, the stage ledger, transformations,
    and the structured diagonal terms."""

    state: RecursionState
    k: int
    order: int
    phi: MatSeries
    psi: MatSeries
    delta: tuple[tuple[int, Mat], ...]
    residual_ok: bool
    # L^+ per coefficient depth, built once and shared by every caller.
    _inverses: dict[int, MatLaurent] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )
    # The direct Laurent inverse of the input (localsmith.oracles), built by
    # the first verify check that needs it and shared with the others.
    oracle_inverse: MatLaurent | None = field(
        default=None, init=False, repr=False, compare=False
    )

    @cached_property
    def phi_inv(self) -> MatSeries:
        return series_inverse(self.phi, self.order)

    @cached_property
    def psi_inv(self) -> MatSeries:
        return series_inverse(self.psi, self.order)

    # -- views over the ledger ---------------------------------------------

    @property
    def stages(self) -> list[Stage]:
        return self.state.stages[: self.k + 1]

    @property
    def tail_kernel(self) -> Subspace:
        """N_{k+1}: the kernel that survives for every nonzero parameter."""
        return self.state.stage(self.k + 1).n

    @property
    def tail_cokernel(self) -> Subspace:
        """Rc_{k+1}: the complement the range never reaches."""
        return self.state.stage(self.k + 1).rc

    @property
    def generic_rank(self) -> int:
        return self.state.generic_rank

    def smith_exponents(self) -> tuple[int, ...]:
        out = []
        for st in self.stages:
            out.extend([st.index - 1] * st.nc.dim)
        return tuple(sorted(out))

    def delta_series(self) -> MatSeries:
        m, n = self.state.codomain_dim, self.state.domain_dim
        coeffs = [Mat.zeros(m, n) for _ in range(self.k + 1)]
        for power, mat in self.delta:
            coeffs[power] = coeffs[power] + mat
        return MatSeries(coeffs, exact=True)

    # -- derived families ----------------------------------------------------

    def _through(self, t: int, *names: str) -> tuple[MatSeries, ...]:
        """The named series among phi, psi, phi_inv and psi_inv through
        order t. Within the working order the stored series are truncated;
        past it phi and psi are rebuilt, extending stages on demand (which
        may fail on truncated input), and only the named inverses formed.
        An inverse formed here is also kept, truncated to the working order,
        as the stored one if that was not built yet."""
        if t <= self.order:
            return tuple(getattr(self, name).truncate(t) for name in names)
        built = {"phi": phi_series(self.state, t), "psi": psi_series(self.state, t)}
        for name in names:
            if name not in built:
                built[name] = series_inverse(built[name.removesuffix("_inv")], t)
                if name not in vars(self):
                    setattr(self, name, built[name].truncate(self.order))
        return tuple(built[name] for name in names)

    def generalized_inverse(self, t: int | None = None) -> MatLaurent:
        """L^+ = phi * Delta^+ * psi^{-1} with coefficients through eps^t.

        Delta^+ collects the restricted inverses with falling powers; the
        pole comes out at most k and is trimmed to its actual value. The
        default depth is the working order, capped for truncated input:
        order t needs transformations through t + k, hence genuine input
        coefficients through t + 2k. Each depth is built once and the same
        series is returned to every later caller.
        """
        if t is None:
            t = self.order
            if self.state.input_trunc is not None:
                t = min(t, self.state.input_trunc - 2 * self.k)
            if t < 0:
                raise TruncationError(
                    f"truncation order {self.state.input_trunc} cannot support "
                    f"any generalized-inverse coefficient at k = {self.k}"
                )
        if t in self._inverses:
            return self._inverses[t]
        phi, psi_inv = self._through(t + self.k, "phi", "psi_inv")
        coeffs = [self.state.stage(self.k + 1 - i).splus for i in range(self.k + 1)]
        delta_plus = MatLaurent(self.k, coeffs, exact=True)
        linv = phi @ delta_plus @ psi_inv
        self._inverses[t] = linv
        return linv

    def kernel_range_families(self, t: int | None = None) -> tuple[MatSeries, MatSeries]:
        """Analytic continuations of kernels and ranges: columns of
        phi * basis(N_{k+1}) and psi * basis(R_1 + ... + R_{k+1})."""
        t = self.order if t is None else t
        phi, psi = self._through(t, "phi", "psi")
        kernel_basis_mat = self.tail_kernel.basis
        range_mats = [st.r.basis for st in self.stages if st.r.dim > 0]
        n_fam = phi @ MatSeries.constant(kernel_basis_mat)
        if range_mats:
            range_basis = Mat.hstack(range_mats)
        else:
            range_basis = Mat.zeros(self.state.codomain_dim, 0)
        r_fam = psi @ MatSeries.constant(range_basis)
        return n_fam, r_fam

    def projector_families(self, t: int | None = None) -> tuple[MatSeries, MatSeries]:
        """left = phi (P_1+..+P_{k+1}) phi^{-1}, right = psi (cal P sums) psi^{-1};
        both idempotent through the returned order."""
        t = self.order if t is None else t
        phi, psi, phi_inv, psi_inv = self._through(t, "phi", "psi", "phi_inv", "psi_inv")
        n, m = self.state.domain_dim, self.state.codomain_dim
        p_sum = sum((st.p for st in self.stages), Mat.zeros(n, n))
        calp_sum = sum((st.calp for st in self.stages), Mat.zeros(m, m))
        left = phi @ MatSeries.constant(p_sum) @ phi_inv
        right = psi @ MatSeries.constant(calp_sum) @ psi_inv
        return left, right

    def smith_factorization(self) -> SmithFactorization:
        s_p = Mat.zeros(self.state.codomain_dim, self.state.domain_dim)
        for _, term in self.delta:
            s_p = s_p + term
        p_terms = tuple((st.index - 1, st.p) for st in self.stages)
        a_series = self.psi @ MatSeries.constant(s_p)
        return SmithFactorization(s_p, p_terms, a_series, self.smith_exponents())


def diagonalize(
    family: MatSeries,
    order: int | None = None,
    max_stages: int | None = None,
    complements: ComplementPlan | None = None,
) -> DiagonalizationResult:
    """Run the full pipeline: stabilize, assemble phi/psi/Delta, verify.

    ``order`` defaults to max(2k + 4, 12), capped for truncated input so
    that only genuine coefficients are consumed. The defining identity is
    proven exactly through the working order as L * phi == psi * Delta,
    which needs no inverse and is equivalent since psi_0 = I; failure raises
    InternalConsistencyError (it would be a bug, not a data condition).
    phi^{-1} and psi^{-1} are built only when first read.
    """
    if family.is_zero():
        raise InputError("the zero family cannot be diagonalized")
    state = RecursionState(family, complements=complements, max_stages=max_stages)
    k = state.run_until_stabilized()
    if order is None:
        order = max(2 * k + 4, 12)
        if state.input_trunc is not None:
            order = min(order, state.input_trunc - k)
    state.ensure_stages(k + 1 + order)
    result = DiagonalizationResult(
        state=state,
        k=k,
        order=order,
        phi=phi_series(state, order),
        psi=psi_series(state, order),
        delta=delta_terms(state),
        residual_ok=False,
    )
    # With psi_0 = I the first order where L phi and psi Delta differ is the
    # first where psi^{-1} L phi and Delta do.
    lhs, rhs = family @ result.phi, result.psi @ result.delta_series()
    for i in range(order + 1):
        if lhs.coefficient(i) != rhs.coefficient(i):
            raise InternalConsistencyError(
                f"diagonalization residual is nonzero at order {i}"
            )
    result.residual_ok = True
    return result
