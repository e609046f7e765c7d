"""Command-line driver: analyze, diagonalize, invert, jordan, smith,
linearize, and verify, over JSON family files.

``_COMMANDS`` names each command once, with its function and help line.
``main`` loads the family, calls the command with the parsed flags, the
family spec and the normalized family, and writes the report header
(``"command"`` and ``"family"``) above the fields the command returns.

Reports go to stdout as JSON (default) or a text rendering; all numbers are
exact rational strings. Exit codes: 0 success, 1 input error (usage errors
and out-of-range flags included) or a stdout closed before the whole report
was written (as in ``| head``; the rest is dropped without a message, and
the run does not count as a success because the reader did not get the
report), 2 stage budget exceeded (no stabilization within it, or a Jordan
chain longer than it), 3 internal-consistency failure (an exact identity
that must hold by construction did not; always a bug).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from functools import cache, partial

from .diagonalize import DiagonalizationResult, analyze, diagonalize
from .errors import (
    InputError,
    InternalConsistencyError,
    StageBudgetError,
    TruncationError,
)
from .family_io import (
    FamilySpec,
    ReportEncoder,
    family_fields,
    laurent_listing,
    mat_to_grid,
    parse_complement_plan,
    parse_family,
    read_file,
    render_poly_matrix,
    series_listing,
    spec_to_series,
    subspace_report,
    terms_listing,
)
from .matrix import DECIMAL_INTEGER
from .recursion import RecursionState
from .series import MatSeries
from .verify import CHECKS, inverse_axioms, linearization, require, smith_identity
from .verify import run_check as _check

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
    """An argparse type for ASCII decimal integers no smaller than ``low``."""

    def parse(text: str) -> int:
        if not DECIMAL_INTEGER.fullmatch(text):
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value

    return parse


@cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process and shared."""
    parser = _Parser(
        prog="localsmith",
        description=(
            "Exact diagonalization of a matrix family L(eps) into "
            "psi^-1 * L * phi = Delta, with Jordan chains, the local Smith "
            "form, and the generalized inverse as a Laurent series."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text) in _COMMANDS.items():
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("family", help="path to a family JSON file")
        if name not in ("jordan", "linearize"):
            cmd.add_argument(
                "--order",
                type=_at_least(0),
                default=None,
                help="truncation order for series output "
                "(default max(2k+4, 12); analyze: k)",
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
    spec = parse_family(read_file(args.family))
    if args.pole is not None:
        spec = spec._replace(declared_pole=args.pole)
        # The coefficients are sorted by power, so the first is the lowest.
        lowest = spec.coefficients[0][0] if spec.coefficients else 0
        if lowest < -args.pole:
            raise InputError(f"power {lowest} below the overridden pole {args.pole}")
    return spec, spec_to_series(spec)


def _complement_plan(args):
    if args.complement == "pivot":
        return None
    if args.complement.startswith("given:"):
        path = args.complement.removeprefix("given:")
        return parse_complement_plan(read_file(path, "complement file "))
    raise InputError("--complement must be 'pivot' or 'given:<file>'")


def _family_header(spec: FamilySpec) -> dict:
    header = family_fields(spec)
    if spec.kind == "truncated_series":
        header["caveat"] = (
            "input is a truncation; every conclusion holds modulo the "
            f"truncation at order {spec.trunc_or_degree}"
        )
    return header


def _run(pipeline, family, args) -> DiagonalizationResult:
    """``diagonalize`` or ``analyze`` with the command's flags. Each command
    passes the module name it calls, read when it runs, so that a wrapper
    bound over that name (perfbench/tracing.py binds one) is the one run."""
    return pipeline(
        family,
        order=args.order,
        max_stages=args.max_stages,
        complements=_complement_plan(args),
    )


def _unnormalized(terms, spec: FamilySpec) -> list:
    """Terms of the normalized eps^p L moved to the frame of L, p the declared pole."""
    return [(power - spec.declared_pole, m) for power, m in terms]


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


def _analyze_fields(result: DiagonalizationResult, spec: FamilySpec) -> dict:
    tail = result.stages[-1]
    return {
        "generic_rank": result.state.generic_rank,
        "stabilization_index": result.k,
        "stages": _stage_table(result),
        "tail": {
            "kernel": subspace_report(tail.n),
            "cokernel_complement": subspace_report(tail.rc),
        },
        "smith_exponents": [e - spec.declared_pole for e in result.smith_exponents()],
    }


def cmd_analyze(args, spec: FamilySpec, family: MatSeries) -> tuple[dict, int]:
    return _analyze_fields(_run(analyze, family, args), spec), EXIT_OK


def cmd_diagonalize(args, spec: FamilySpec, family: MatSeries) -> tuple[dict, int]:
    result = _run(diagonalize, family, args)
    return {
        **_analyze_fields(result, spec),
        "order": result.order,
        "delta": terms_listing(_unnormalized(result.delta, spec)),
        "phi": series_listing(result.phi, result.order),
        "psi": series_listing(result.psi, result.order),
        "phi_inverse": series_listing(result.phi_inv, result.order),
        "psi_inverse": series_listing(result.psi_inv, result.order),
        "verification": {
            "identity": "psi_inverse * L * phi == delta",
            # Proven on eps^p L through the working order: L's order is p less.
            "checked_through_order": result.order - spec.declared_pole,
            # diagonalize() returns only a result whose residual it has proven.
            "exact": True,
        },
    }, EXIT_OK


def cmd_invert(args, spec: FamilySpec, family: MatSeries) -> tuple[dict, int]:
    result = _run(diagonalize, family, args)
    linv = result.generalized_inverse(args.order)
    reported = linv.shift(spec.declared_pole)
    return {
        "stabilization_index": result.k,
        "pole_order": reported.pole,
        "coefficients": laurent_listing(reported),
        "verification": {
            "identities": ["L * X * L == L", "X * L * X == X"],
            "checked_through_order": reported.tail_order,
            "exact": require(inverse_axioms(family, linv)),
        },
    }, EXIT_OK


def cmd_jordan(args, spec: FamilySpec, family: MatSeries) -> tuple[dict, int]:
    state = RecursionState(
        family, complements=_complement_plan(args), max_stages=args.max_stages
    )
    length, n = args.length, state.domain_dim
    grid = state.jordan_chains(length).strings()
    dims = [stage.n.dim for stage in state.stages[:length]]
    return {
        "length": length,
        "stage_kernel_dims": dims,
        "nullspace_dim": sum(dims),
        "chains": [
            {
                "root": vectors[-1],
                "vectors": vectors,
            }
            for vectors in (
                [[row[j] for row in grid[r * n : r * n + n]] for r in range(length)]
                for j in range(len(grid[0]))
            )
        ],
    }, EXIT_OK


def cmd_smith(args, spec: FamilySpec, family: MatSeries) -> tuple[dict, int]:
    result = _run(diagonalize, family, args)
    s_p, p_terms = result.smith_factorization()
    analytic = result.psi @ MatSeries.constant(s_p)
    return {
        "stabilization_index": result.k,
        "exponents": [e - spec.declared_pole for e in result.smith_exponents()],
        "constant_factor": mat_to_grid(s_p),
        "smith_form": terms_listing(_unnormalized(p_terms, spec)),
        "analytic_factor": series_listing(analytic, result.order),
        "verification": {
            "identity": "constant_factor * P(eps) == delta",
            "exact": require(smith_identity(result)),
        },
    }, EXIT_OK


def cmd_linearize(args, spec: FamilySpec, family: MatSeries) -> tuple[dict, int]:
    if not family.exact:
        raise InputError("linearization is defined for polynomial families")
    if family.degree < 1:
        raise InputError("linearization needs a family of degree >= 1")
    plan = _complement_plan(args)
    k = RecursionState(family, plan, args.max_stages).run_until_stabilized()
    pencil, kbar, proof = linearization(family, k, args.max_stages)
    return {
        "degree": pencil.degree,
        "pencil_constant": mat_to_grid(pencil.lbar0),
        "pencil_linear": mat_to_grid(pencil.lbar1),
        "k": k,
        "k_pencil": kbar,
        "bound": "(k_pencil - 1) * degree < k <= k_pencil * degree",
        "bound_holds": require(proof),
    }, EXIT_OK


def cmd_verify(args, spec: FamilySpec, family: MatSeries) -> tuple[dict, int]:
    result = _run(diagonalize, family, args)
    # perfbench/tracing.py times each check by wrapping ``localsmith.cli._check``
    # by name, so the CLI calls it once per check until the benchmark reads
    # run statistics instead.
    checks = [_check(name, partial(check, result)) for name, check in CHECKS]
    failed = [c for c in checks if c["status"] == "fail"]
    return {
        "stabilization_index": result.k,
        "generic_rank": result.state.generic_rank,
        "checks": checks,
        "all_passed": not failed,
    }, EXIT_INCONSISTENT if failed else EXIT_OK


# Each command once: its function and its help line, in the order the
# parser lists them.
_COMMANDS = {
    "analyze": (cmd_analyze, "stage table, stabilization index, and subspace dimensions"),
    "diagonalize": (cmd_diagonalize, "transformations, diagonal polynomial, and residual proof"),
    "invert": (cmd_invert, "generalized inverse Laurent coefficients and pole order"),
    "jordan": (cmd_jordan, "Jordan chain generators of a given length"),
    "smith": (cmd_smith, "constant factor, Smith form, and exponents"),
    "linearize": (cmd_linearize, "augmented linear pencil and its stabilization bound"),
    "verify": (cmd_verify, "run every independent oracle cross-check"),
}


# -- rendering ----------------------------------------------------------------


def _render_text(report: dict) -> str:
    lines = [f"localsmith {report['command']}"]
    fam = report["family"]
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
    for key in ("smith_exponents", "exponents"):
        if key in report:
            lines.append(f"  smith exponents: {report[key]}")
    for key in ("delta", "smith_form", "phi", "psi", "coefficients"):
        if key in report:
            lines.append(f"  {key}(eps) =")
            lines.append(render_poly_matrix(report[key]))
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


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        spec, family = _load_family(args)
        fields, code = _COMMANDS[args.command][0](args, spec, family)
        report = {"command": args.command, "family": _family_header(spec), **fields}
        if args.format == "text":
            text = _render_text(report)
        else:
            text = json.dumps(report, indent=2, cls=ReportEncoder)
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
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return EXIT_INPUT
    try:
        print(text)
        sys.stdout.flush()
    except BrokenPipeError:
        # Point stdout at the null device so that the flush at exit cannot
        # fail a second time.
        devnull = os.open(os.devnull, os.O_WRONLY)
        try:
            os.dup2(devnull, sys.stdout.fileno())
        finally:
            os.close(devnull)
        return EXIT_INPUT
    return code


if __name__ == "__main__":
    sys.exit(main())
