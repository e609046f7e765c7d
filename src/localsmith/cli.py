"""Command-line driver: analyze, diagonalize, invert, jordan, smith,
linearize, and verify, over JSON family files.

Reports go to stdout as JSON (default) or a text rendering; all numbers are
exact rational strings. Exit codes: 0 success, 1 input error (usage errors
and out-of-range flags included), 2 stage budget exceeded (no stabilization
within it, or a Jordan chain longer than it), 3 internal-consistency failure
(an exact identity that must hold by construction did not; always a bug).
"""

from __future__ import annotations

import argparse
import json
import sys

from .diagonalize import DiagonalizationResult, diagonalize
from .errors import (
    InputError,
    InternalConsistencyError,
    LocalSmithError,
    StageBudgetError,
    TruncationError,
)
from .family_io import (
    FamilySpec,
    laurent_listing,
    mat_to_grid,
    parse_complement_plan,
    parse_family,
    render_poly_matrix,
    series_listing,
    spec_to_series,
    subspace_report,
    terms_listing,
)
from .matrix import Mat, format_rat
from .oracles import (
    AugmentedPencil,
    direct_laurent_inverse,
    linearize_polynomial,
    resolvent_recurrence_check,
    toeplitz_block,
    toeplitz_nullspace,
)
from .recursion import RecursionState
from .series import MatLaurent, MatSeries

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_BUDGET = 2
EXIT_INCONSISTENT = 3


class _Parser(argparse.ArgumentParser):
    """Usage errors are input errors (exit 1); argparse's own exit 2 would
    read as an exceeded stage budget."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise InputError(message)


def _at_least(low: int):
    """An argparse type for integers no smaller than ``low``."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value

    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="localsmith",
        description=(
            "Exact diagonalization of a matrix family L(eps) into "
            "psi^-1 * L * phi = Delta, with Jordan chains, the local Smith "
            "form, and the generalized inverse as a Laurent series."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    specs = {
        "analyze": "stage table, stabilization index, and subspace dimensions",
        "diagonalize": "transformations, diagonal polynomial, and residual proof",
        "invert": "generalized inverse Laurent coefficients and pole order",
        "jordan": "Jordan chain generators of a given length",
        "smith": "constant factor, Smith form, and exponents",
        "linearize": "augmented linear pencil and its stabilization bound",
        "verify": "run every independent oracle cross-check",
    }
    for name, help_text in specs.items():
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("family", help="path to a family JSON file")
        cmd.add_argument(
            "--order",
            type=_at_least(0),
            default=None,
            help="truncation order for series output (default max(2k+4, 12))",
        )
        cmd.add_argument(
            "--max-stages",
            type=_at_least(1),
            default=None,
            help="stage budget for stabilization detection "
            "(default max(rows+cols, degree*min(rows,cols)) + 2)",
        )
        cmd.add_argument(
            "--complement",
            default="pivot",
            help="complement strategy: 'pivot' (default) or 'given:<file>'",
        )
        cmd.add_argument(
            "--format", choices=("json", "text"), default="json", help="report format"
        )
        cmd.add_argument(
            "--pole",
            type=_at_least(0),
            default=None,
            help="override the input's declared pole order",
        )
        if name == "jordan":
            cmd.add_argument(
                "--length", type=_at_least(1), required=True, help="chain length to generate"
            )
    return parser


def _load_family(args) -> tuple[FamilySpec, MatSeries]:
    try:
        with open(args.family, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise InputError(f"cannot read {args.family}: {exc}") from exc
    spec = parse_family(text)
    if args.pole is not None:
        spec = FamilySpec(
            spec.rows, spec.cols, spec.kind, spec.trunc_or_degree, args.pole,
            spec.coefficients,
        )
        for power, _ in spec.coefficients:
            if power < -spec.declared_pole:
                raise InputError(f"power {power} below the overridden pole {args.pole}")
    return spec, spec_to_series(spec)


def _complement_plan(args):
    if args.complement == "pivot":
        return None
    if args.complement.startswith("given:"):
        path = args.complement[len("given:") :]
        try:
            with open(path, "r", encoding="utf-8") as handle:
                return parse_complement_plan(handle.read())
        except OSError as exc:
            raise InputError(f"cannot read complement file {path}: {exc}") from exc
    raise InputError("--complement must be 'pivot' or 'given:<file>'")


def _family_header(spec: FamilySpec) -> dict:
    header = {
        "rows": spec.rows,
        "cols": spec.cols,
        "kind": spec.kind,
        "trunc_or_degree": spec.trunc_or_degree,
        "declared_pole": spec.declared_pole,
    }
    if spec.kind == "truncated_series":
        header["caveat"] = (
            "input is a truncation; every conclusion holds modulo the "
            f"truncation at order {spec.trunc_or_degree}"
        )
    return header


def _diagonalize(family, args) -> DiagonalizationResult:
    return diagonalize(
        family,
        order=args.order,
        max_stages=args.max_stages,
        complements=_complement_plan(args),
    )


def _stage_table(result: DiagonalizationResult) -> list[dict]:
    table = []
    for st in result.stages:
        table.append(
            {
                "stage": st.index,
                "dim_complement": st.nc.dim,
                "dim_range": st.r.dim,
                "kernel": subspace_report(st.n),
                "range": subspace_report(st.r),
                "complement": subspace_report(st.nc),
            }
        )
    return table


def _analyze_report(result: DiagonalizationResult, spec: FamilySpec) -> dict:
    return {
        "command": "analyze",
        "family": _family_header(spec),
        "generic_rank": result.generic_rank,
        "stabilization_index": result.k,
        "stages": _stage_table(result),
        "tail": {
            "kernel": subspace_report(result.tail_kernel),
            "cokernel_complement": subspace_report(result.tail_cokernel),
        },
        "smith_exponents": list(result.smith_exponents()),
    }


def cmd_analyze(args) -> tuple[dict, int]:
    spec, family = _load_family(args)
    result = _diagonalize(family, args)
    return _analyze_report(result, spec), EXIT_OK


def cmd_diagonalize(args) -> tuple[dict, int]:
    spec, family = _load_family(args)
    result = _diagonalize(family, args)
    report = _analyze_report(result, spec)
    report["command"] = "diagonalize"
    report["order"] = result.order
    report["delta"] = terms_listing(result.delta)
    report["phi"] = series_listing(result.phi, result.order)
    report["psi"] = series_listing(result.psi, result.order)
    report["phi_inverse"] = series_listing(result.phi_inv, result.order)
    report["psi_inverse"] = series_listing(result.psi_inv, result.order)
    report["verification"] = {
        "identity": "psi_inverse * L * phi == delta",
        "checked_through_order": result.order,
        "exact": result.residual_ok,
    }
    return report, EXIT_OK


def cmd_invert(args) -> tuple[dict, int]:
    spec, family = _load_family(args)
    result = _diagonalize(family, args)
    linv = result.generalized_inverse(args.order)
    reported = linv.shift(spec.declared_pole)
    report = {
        "command": "invert",
        "family": _family_header(spec),
        "stabilization_index": result.k,
        "pole_order": reported.pole,
        "coefficients": laurent_listing(reported),
        "verification": {
            "identities": ["L * X * L == L", "X * L * X == X"],
            "checked_through_order": linv.tail_order,
            "exact": _require(_inverse_axioms(family, linv)),
        },
    }
    return report, EXIT_OK


# Each identity below is proved by one function, which both the command that
# reports it and its ``verify`` check call. A proof is (passed, detail).


def _require(proof: tuple[bool, str]) -> bool:
    """True for a passed proof; a failed one is a bug, raised as such."""
    passed, detail = proof
    if not passed:
        raise InternalConsistencyError(detail)
    return True


def _inverse_axioms(family: MatSeries, linv: MatLaurent) -> tuple[bool, str]:
    """L*X*L == L and X*L*X == X on every coefficient the products determine."""
    lau = MatLaurent.from_series(family)
    lxl = lau @ linv @ lau
    for e in range(-lxl.pole, lxl.tail_order + 1):
        if lxl.coefficient(e) != lau.coefficient(e):
            return False, f"L*X*L != L at order {e}"
    xlx = linv @ lau @ linv
    for e in range(-xlx.pole, xlx.tail_order + 1):
        if xlx.coefficient(e) != linv.coefficient(e):
            return False, f"X*L*X != X at order {e}"
    return True, f"both axioms exact through order {min(lxl.tail_order, xlx.tail_order)}"


def _smith_identity(result: DiagonalizationResult, fact) -> tuple[bool, str]:
    """S_P * P(eps) == Delta, exactly."""
    if MatSeries.constant(fact.s_p) @ fact.p_series() != result.delta_series():
        return False, "S_P * P(eps) differs from delta"
    return True, "S_P * P(eps) == delta"


def _linearization(
    family: MatSeries, k: int, max_stages: int | None = None
) -> tuple[AugmentedPencil, int, tuple[bool, str]]:
    """The companion pencil of a polynomial family of degree >= 1, its
    stabilization index, and the proof of the bound relating it to k."""
    pencil = linearize_polynomial(family)
    kbar = RecursionState(pencil.pencil(), max_stages=max_stages).run_until_stabilized()
    deg = pencil.degree
    if not (kbar - 1) * deg < k <= kbar * deg:
        return pencil, kbar, (False, f"bound fails: k={k}, k_pencil={kbar}, degree={deg}")
    return pencil, kbar, (True, f"k={k}, k_pencil={kbar}, degree={deg}")


def cmd_jordan(args) -> tuple[dict, int]:
    spec, family = _load_family(args)
    state = RecursionState(
        family, complements=_complement_plan(args), max_stages=args.max_stages
    )
    chains = state.jordan_chain_basis(args.length)
    report = {
        "command": "jordan",
        "family": _family_header(spec),
        "length": args.length,
        "stage_kernel_dims": [ker.dim for ker in chains.stage_kernels],
        "nullspace_dim": chains.nullspace_dim,
        "chains": [
            {
                "root": _vector_strings(chain.root),
                "vectors": [_vector_strings(v) for v in chain.vectors],
            }
            for chain in chains.basis_chains()
        ],
    }
    return report, EXIT_OK


def _vector_strings(vec) -> list[str]:
    return [format_rat(x) for x in vec]


def cmd_smith(args) -> tuple[dict, int]:
    spec, family = _load_family(args)
    result = _diagonalize(family, args)
    fact = result.smith_factorization()
    report = {
        "command": "smith",
        "family": _family_header(spec),
        "stabilization_index": result.k,
        "exponents": list(fact.exponents),
        "constant_factor": mat_to_grid(fact.s_p),
        "smith_form": terms_listing(fact.p_terms),
        "analytic_factor": series_listing(fact.a_series, result.order),
        "verification": {
            "identity": "constant_factor * P(eps) == delta",
            "exact": _require(_smith_identity(result, fact)),
        },
    }
    return report, EXIT_OK


def cmd_linearize(args) -> tuple[dict, int]:
    spec, family = _load_family(args)
    if spec.kind != "polynomial":
        raise InputError("linearization is defined for polynomial families")
    if family.degree < 1:
        raise InputError("linearization needs a family of degree >= 1")
    k = RecursionState(family, max_stages=args.max_stages).run_until_stabilized()
    pencil, kbar, proof = _linearization(family, k, args.max_stages)
    report = {
        "command": "linearize",
        "family": _family_header(spec),
        "degree": pencil.degree,
        "pencil_constant": mat_to_grid(pencil.lbar0),
        "pencil_linear": mat_to_grid(pencil.lbar1),
        "k": k,
        "k_pencil": kbar,
        "bound": "(k_pencil - 1) * degree < k <= k_pencil * degree",
        "bound_holds": _require(proof),
    }
    return report, EXIT_OK


def _check(name: str, fn) -> dict:
    try:
        detail = fn()
    except TruncationError as exc:
        return {"name": name, "status": "skipped", "detail": str(exc)}
    except LocalSmithError as exc:
        return {"name": name, "status": "fail", "detail": str(exc)}
    if detail is None:
        return {"name": name, "status": "skipped", "detail": "not applicable"}
    passed, text = detail
    return {"name": name, "status": "pass" if passed else "fail", "detail": text}


def cmd_verify(args) -> tuple[dict, int]:
    spec, family = _load_family(args)
    result = _diagonalize(family, args)
    state = result.state
    k = result.k
    order = result.order
    checks = []

    def residual():
        return result.residual_ok, f"exact through order {order}"

    def coefficient_identity():
        for j in range(1, state.stage_count + 1):
            if not state.coefficient_identity_holds(j):
                return False, f"column {j} violates the coefficient identity"
        return True, f"(L_0..L_{{j-1}}) * M_j == S_j for all {state.stage_count} stages"

    def triangular():
        for j in range(1, state.stage_count + 1):
            for i in range(1, j + 1):
                st = state.stage(i)
                acc = Mat.sum_of_products(
                    (
                        (st.splus @ (st.calp @ state.stage(v).sbar), state.e_block(v, j))
                        for v in range(i + 1, j + 1)
                    ),
                    state.domain_dim,
                    state.domain_dim,
                )
                lhs = state.e_block(i, j) + acc
                expected = (
                    Mat.identity(state.domain_dim)
                    if i == j
                    else Mat.zeros(state.domain_dim, state.domain_dim)
                )
                if lhs != expected:
                    return False, f"system row {i}, column {j}"
        return True, "E columns solve the block-triangular system"

    def toeplitz_dims():
        dims = []
        for length in range(1, k + 2):
            expect = sum(state.stage(i).n.dim for i in range(1, length + 1))
            got = toeplitz_nullspace(family, length).dim
            dims.append(got)
            if got != expect:
                return False, f"length {length}: oracle {got} vs recursion {expect}"
        return True, f"kernel dims {dims} agree for lengths 1..{k + 1}"

    def chain_membership():
        for length in range(1, k + 2):
            chains = state.jordan_chain_basis(length)
            block = toeplitz_block(family, length)
            for chain in chains.basis_chains():
                if not (block.matrix @ chain.stacked()).is_zero():
                    return False, f"a length-{length} chain fails the stacked condition"
        return True, "all generated chains are annihilated by the block matrix"

    def post_stabilization():
        # The ledger builds these columns with the shift in place, so the E
        # blocks and the shifted M blocks are recomputed here from the generic
        # recurrence instead of being read back.
        n = state.domain_dim
        ecols = {}
        for j in range(k + 2, state.stage_count + 1):
            ecols[j] = ecol = [Mat.zeros(n, n)] * (j - 1) + [Mat.identity(n)]
            acc = Mat.zeros(state.codomain_dim, n)
            for i in range(j - 1, 0, -1):
                term = state.stage(i + 1).sbar @ ecol[i]
                acc = acc if term.is_zero() else acc + term
                splus = state.stage(i).splus
                if not (splus.is_zero() or acc.is_zero()):
                    ecol[i - 1] = -(splus @ acc)
            for i in range(k + 2, j):
                if not ecol[i - 1].is_zero():
                    return False, f"E block ({i},{j}) nonzero below row {k + 1}"
        for j in range(k + 3, state.stage_count + 1):
            for row in range(k + 2, j + 1):
                generic = Mat.sum_of_products(
                    ((state.m_block(row - 1, c), ecols[j][c]) for c in range(row - 1, j)),
                    n,
                    n,
                )
                stored = state.m_block(row, j)
                if generic != stored:
                    return False, f"M block ({row},{j}) differs from the recurrence"
                if row == j and not stored.is_identity():
                    return False, f"M diagonal block at column {j} is not the identity"
                if row < j and stored != state.m_block(row - 1, j - 1):
                    return False, f"M shift fails at block ({row},{j})"
        return True, "E zero pattern and M Toeplitz shift hold after stabilization"

    def inverse_axioms():
        return _inverse_axioms(family, result.generalized_inverse(order))

    def laurent_oracle():
        if family.rows != family.cols or result.generic_rank != family.rows:
            return None
        linv = result.generalized_inverse(order)
        oracle = direct_laurent_inverse(family, tail=order)
        if oracle.pole != linv.pole:
            return False, f"pole {linv.pole} vs oracle {oracle.pole}"
        for e in range(-linv.pole, order + 1):
            if oracle.coefficient(e) != linv.coefficient(e):
                return False, f"coefficient mismatch at order {e}"
        return True, f"coefficients agree from eps^-{linv.pole} through eps^{order}"

    def smith_identities():
        fact = result.smith_factorization()
        passed, detail = _smith_identity(result, fact)
        if not passed:
            return passed, detail
        lhs = family @ result.phi
        rhs = result.psi @ MatSeries.constant(fact.s_p) @ fact.p_series()
        if not lhs.eq_through(rhs, order):
            return False, "L * phi differs from psi * S_P * P(eps)"
        blow = (
            MatLaurent.from_series(result.psi_inv)
            @ MatLaurent.from_series(family @ result.phi)
            @ fact.p_inverse_laurent()
        )
        for e in range(-blow.pole, blow.tail_order + 1):
            expected = fact.s_p if e == 0 else Mat.zeros(fact.s_p.rows, fact.s_p.cols)
            if blow.coefficient(e) != expected:
                return False, f"blow-up identity fails at order {e}"
        return True, "factorization and blow-up identities exact"

    def projectors():
        left, right = result.projector_families(order)
        if not (left @ left).eq_through(left, order):
            return False, "left projector family is not idempotent"
        if not (right @ right).eq_through(right, order):
            return False, "right projector family is not idempotent"
        p_sum = Mat.zeros(state.domain_dim, state.domain_dim)
        calp_sum = Mat.zeros(state.codomain_dim, state.codomain_dim)
        for st in result.stages:
            p_sum = p_sum + st.p
            calp_sum = calp_sum + st.calp
        if left.coefficient(0) != p_sum or right.coefficient(0) != calp_sum:
            return False, "constant terms differ from the projection sums"
        return True, f"idempotent through order {order}, constant terms correct"

    def resolvent():
        if family.degree > 1 or family.rows != family.cols:
            return None
        if result.generic_rank != family.rows:
            return None
        oracle = direct_laurent_inverse(family, tail=10)
        if oracle.pole > 1:
            return None
        passed, first_bad = resolvent_recurrence_check(
            family.coefficient(0), family.coefficient(1), oracle, 10
        )
        if not passed:
            return False, f"first violated index {first_bad}"
        return True, "both coefficient recurrences hold through order 10"

    def linearization():
        if not family.exact or family.degree < 2:
            return None
        return _linearization(family, k)[2]

    for name, fn in (
        ("diagonalization-residual", residual),
        ("coefficient-identity", coefficient_identity),
        ("triangular-system", triangular),
        ("toeplitz-kernel-dims", toeplitz_dims),
        ("chain-membership", chain_membership),
        ("post-stabilization-structure", post_stabilization),
        ("generalized-inverse-axioms", inverse_axioms),
        ("laurent-oracle", laurent_oracle),
        ("smith-identities", smith_identities),
        ("projector-families", projectors),
        ("resolvent-recurrences", resolvent),
        ("linearization-bound", linearization),
    ):
        checks.append(_check(name, fn))

    failed = [c for c in checks if c["status"] == "fail"]
    report = {
        "command": "verify",
        "family": _family_header(spec),
        "stabilization_index": k,
        "generic_rank": result.generic_rank,
        "checks": checks,
        "all_passed": not failed,
    }
    return report, EXIT_INCONSISTENT if failed else EXIT_OK


# -- rendering ----------------------------------------------------------------


def _render_text(report: dict) -> str:
    lines = [f"localsmith {report['command']}"]
    fam = report.get("family", {})
    if fam:
        lines.append(
            f"  family: {fam['rows']}x{fam['cols']} {fam['kind']}"
            f" (order {fam['trunc_or_degree']}, declared pole {fam['declared_pole']})"
        )
        if "caveat" in fam:
            lines.append(f"  caveat: {fam['caveat']}")
    for key in ("generic_rank", "stabilization_index", "order", "pole_order", "length",
                "nullspace_dim", "degree", "k", "k_pencil", "bound_holds"):
        if key in report:
            lines.append(f"  {key}: {report[key]}")
    if "stages" in report:
        lines.append("  stage  dim_complement  dim_range")
        for st in report["stages"]:
            lines.append(
                f"  {st['stage']:>5}  {st['dim_complement']:>14}  {st['dim_range']:>9}"
            )
    if "smith_exponents" in report:
        lines.append(f"  smith exponents: {report['smith_exponents']}")
    if "exponents" in report:
        lines.append(f"  smith exponents: {report['exponents']}")
    for key in ("delta", "smith_form", "phi", "psi", "coefficients"):
        if key in report:
            terms = [
                (item["power"], Mat(item["matrix"]))
                for item in report[key]
            ]
            lines.append(f"  {key}(eps) =")
            lines.append(render_poly_matrix(terms, indent="    "))
    if "chains" in report:
        for idx, chain in enumerate(report["chains"]):
            lines.append(f"  chain {idx}: root {chain['root']}")
            for v in chain["vectors"]:
                lines.append(f"    {v}")
    if "checks" in report:
        for check in report["checks"]:
            lines.append(f"  [{check['status']:>7}] {check['name']}: {check['detail']}")
        lines.append(f"  all passed: {report['all_passed']}")
    if "verification" in report:
        ver = report["verification"]
        lines.append(f"  verification: {ver}")
    return "\n".join(lines)


_COMMANDS = {
    "analyze": cmd_analyze,
    "diagonalize": cmd_diagonalize,
    "invert": cmd_invert,
    "jordan": cmd_jordan,
    "smith": cmd_smith,
    "linearize": cmd_linearize,
    "verify": cmd_verify,
}


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        report, code = _COMMANDS[args.command](args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except TruncationError as exc:
        print(f"error: undetermined at this truncation: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except StageBudgetError as exc:
        print(f"error: stage budget exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except InternalConsistencyError as exc:
        print(f"internal consistency failure: {exc}", file=sys.stderr)
        return EXIT_INCONSISTENT
    if args.format == "text":
        print(_render_text(report))
    else:
        print(json.dumps(report, indent=2))
    return code


if __name__ == "__main__":
    sys.exit(main())
