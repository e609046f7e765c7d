"""Correctness gate: every call is checked by exit code and by meaning.

A call passes when it ends with the exit code the corpus expects for that
(family, command) pair and, for exit 0, its report says what the command
promises: an exact diagonalization or inverse, all verify checks passed, the
linearization bound holding. Across the calls of one family the Smith
exponents and the stabilization index must agree with each other and with
the values known by construction.
"""

from __future__ import annotations

import json


def check_call(command: str, code: int, expected: int, text: str) -> tuple[str | None, dict | None]:
    """(problem or None, parsed report or None) for one CLI call."""
    if code != expected:
        return f"exit code {code}, expected {expected}", None
    if expected != 0:
        return None, None
    try:
        report = json.loads(text)
    except json.JSONDecodeError as exc:
        return f"report is not JSON: {exc}", None
    if not isinstance(report, dict) or report.get("command") != command:
        return "report is for another command", None
    if command in ("diagonalize", "invert", "smith"):
        if report.get("verification", {}).get("exact") is not True:
            return "verification.exact is not true", report
    elif command == "verify":
        if report.get("all_passed") is not True:
            failed = [c.get("name") for c in report.get("checks", []) if c.get("status") != "pass"]
            return f"verify did not pass all checks: {failed}", report
    elif command == "linearize":
        if report.get("bound_holds") is not True:
            return "linearization bound does not hold", report
    return None, report


def check_family(reports: dict[str, dict], exponents: list[int] | None) -> str | None:
    """Cross-command agreement for one family's passing reports, by command."""
    found = {}
    if "analyze" in reports:
        found["analyze"] = reports["analyze"].get("smith_exponents")
    if "smith" in reports:
        found["smith"] = reports["smith"].get("exponents")
    if len({json.dumps(v) for v in found.values()}) > 1:
        return f"Smith exponents disagree: {found}"
    if exponents is not None:
        for command, value in found.items():
            if value != sorted(exponents):
                return f"{command} exponents {value}, constructed {sorted(exponents)}"
    indices = {}
    for command, report in reports.items():
        if "stabilization_index" in report:
            indices[command] = report["stabilization_index"]
        elif command == "linearize":
            indices[command] = report.get("k")
    if len(set(indices.values())) > 1:
        return f"stabilization index disagrees: {indices}"
    if exponents is not None and indices and set(indices.values()) != {max(exponents)}:
        return f"stabilization index {indices}, constructed {max(exponents)}"
    return None
