"""JSON wire format for matrix families, and exact report rendering helpers.

A family file carries grids of rational strings ("num/den" or "int" in
ASCII digits, as ``matrix.ratio`` reads them; plain JSON integers are also
accepted) keyed by power. Meromorphic inputs declare
a pole p and may then use powers down to -p; parsing normalizes them by the
usual eps^p multiplication, so the rest of the package only ever sees an
analytic family. Reports never contain floating point: every number is an
exact rational string.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass

from .errors import InputError
from .matrix import Mat
from .recursion import ComplementPlan
from .series import MatLaurent, MatSeries

_FAMILY_FIELDS = {"rows", "cols", "kind", "trunc_or_degree", "declared_pole", "coefficients"}
_KINDS = {"polynomial", "truncated_series"}
# ASCII decimal integers: the spelling of power keys here and of the
# integer CLI flags.
DECIMAL_INTEGER = re.compile(r"[+-]?[0-9]+")


@dataclass(frozen=True)
class FamilySpec:
    rows: int
    cols: int
    kind: str
    trunc_or_degree: int
    declared_pole: int
    coefficients: tuple[tuple[int, Mat], ...]  # sorted by power


_STRING = json.encoder.encode_basestring_ascii


class ReportEncoder(json.JSONEncoder):
    """The text of ``json.dumps(obj, indent=2)``, written with the C string
    encoder instead of the pure-Python indenting one, and a list of strings
    (a grid row) in one join. It takes dicts with string keys, lists,
    strings, bools, ints and None; anything else is a TypeError. It writes
    that one layout: other indents, separators or key orders are refused."""

    def encode(self, o) -> str:
        layout = (self.indent, self.item_separator, self.key_separator)
        if layout != (2, ",", ": ") or not self.ensure_ascii or self.sort_keys:
            raise ValueError("ReportEncoder writes the json.dumps(indent=2) layout only")
        out: list[str] = []
        _write(o, "\n", out.append)
        return "".join(out)


def _write(o, newline: str, put) -> None:
    """Put the text of ``o``, whose lines start after ``newline``."""
    if isinstance(o, str):
        put(_STRING(o))
    elif isinstance(o, dict):
        if not o:
            put("{}")
            return
        inner, sep = newline + "  ", "{"
        for key, value in o.items():
            if not isinstance(key, str):
                raise TypeError(f"keys must be str, not {type(key).__name__}")
            put(f"{sep}{inner}{_STRING(key)}: ")
            _write(value, inner, put)
            sep = ","
        put(newline + "}")
    elif isinstance(o, list):
        if not o:
            put("[]")
            return
        inner = newline + "  "
        if all(isinstance(x, str) for x in o):
            put(f"[{inner}{(',' + inner).join(map(_STRING, o))}{newline}]")
            return
        sep = "["
        for value in o:
            put(sep + inner)
            _write(value, inner, put)
            sep = ","
        put(newline + "]")
    elif o is None:
        put("null")
    elif o is True:
        put("true")
    elif o is False:
        put("false")
    elif isinstance(o, int):
        put(int.__repr__(o))
    else:
        raise TypeError(f"Object of type {type(o).__name__} is not JSON serializable")


def _no_duplicates(pairs):
    seen = set()
    for key, _ in pairs:
        if key in seen:
            raise InputError(f"duplicate key {key!r} in JSON object")
        seen.add(key)
    return dict(pairs)


def _is_int(value) -> bool:
    """A JSON integer; JSON true/false parse as Python bools, which are ints."""
    return isinstance(value, int) and not isinstance(value, bool)


def grid_to_mat(grid, rows: int, cols: int, context: str = "matrix") -> Mat:
    if not isinstance(grid, list) or len(grid) != rows:
        raise InputError(f"{context}: expected {rows} rows")
    for r, row in enumerate(grid):
        if not isinstance(row, list):
            raise InputError(f"{context}: row {r} is not a list")
        if len(row) != cols:
            raise InputError(f"{context}: row {r} must have {cols} entries")
    try:
        return Mat(grid, cols=cols)
    except ValueError as exc:
        raise InputError(f"{context}: {exc}") from exc


def mat_to_grid(m: Mat) -> list[list[str]]:
    return m.strings()


def parse_family(text: str) -> FamilySpec:
    # json raises ValueError for malformed JSON and for a number past the
    # int-string limit, and RecursionError for nesting past the recursion limit.
    try:
        obj = json.loads(text, object_pairs_hook=_no_duplicates)
    except (ValueError, RecursionError) as exc:
        raise InputError(f"not valid JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise InputError("family file must contain a JSON object")
    unknown = set(obj) - _FAMILY_FIELDS
    if unknown:
        raise InputError(f"unknown fields: {sorted(unknown)}")
    for required in ("rows", "cols", "kind", "trunc_or_degree", "coefficients"):
        if required not in obj:
            raise InputError(f"missing field {required!r}")
    rows, cols = obj["rows"], obj["cols"]
    if not (_is_int(rows) and _is_int(cols)) or rows < 1 or cols < 1:
        raise InputError("rows and cols must be positive integers")
    kind = obj["kind"]
    if kind not in _KINDS:
        raise InputError(f"kind must be one of {sorted(_KINDS)}")
    trunc = obj["trunc_or_degree"]
    if not _is_int(trunc) or trunc < 0:
        raise InputError("trunc_or_degree must be a nonnegative integer")
    pole = obj.get("declared_pole", 0)
    if not _is_int(pole) or pole < 0:
        raise InputError("declared_pole must be a nonnegative integer")
    raw = obj["coefficients"]
    if not isinstance(raw, dict):
        raise InputError("coefficients must map powers to grids")
    parsed: list[tuple[int, Mat]] = []
    for key, grid in raw.items():
        if not DECIMAL_INTEGER.fullmatch(key):
            raise InputError(f"coefficient key {key!r} is not an integer power")
        power = int(key)
        # "1", "+1" and "01" are distinct JSON keys naming the same power.
        if any(power == seen for seen, _ in parsed):
            raise InputError(f"duplicate power {power} (key {key!r})")
        if power < 0 and pole == 0:
            raise InputError(f"negative power {power} without a declared pole")
        if power < -pole or power > trunc:
            raise InputError(
                f"power {power} outside the allowed range [{-pole}, {trunc}]"
            )
        parsed.append((power, grid_to_mat(grid, rows, cols, context=f"coefficient {power}")))
    parsed.sort(key=lambda item: item[0])
    return FamilySpec(rows, cols, kind, trunc, pole, tuple(parsed))


def serialize_family(spec: FamilySpec) -> str:
    body = {
        "rows": spec.rows,
        "cols": spec.cols,
        "kind": spec.kind,
        "trunc_or_degree": spec.trunc_or_degree,
        "declared_pole": spec.declared_pole,
        "coefficients": {
            str(power): mat_to_grid(m) for power, m in spec.coefficients if not m.is_zero()
        },
    }
    return json.dumps(body, indent=2, cls=ReportEncoder)


def spec_to_series(spec: FamilySpec) -> MatSeries:
    """The normalized analytic family: input times eps^declared_pole; a
    truncated input keeps every coefficient through its truncation order."""
    pole = spec.declared_pole
    terms = [(power + pole, m) for power, m in spec.coefficients]
    series = MatLaurent.from_terms(terms, spec.rows, spec.cols)
    return series if spec.kind == "polynomial" else series.truncate(spec.trunc_or_degree + pole)


def family_from_series(series: MatSeries, declared_pole: int = 0) -> FamilySpec:
    kind = "polynomial" if series.exact else "truncated_series"
    coeffs = tuple(
        (i - declared_pole, c) for i, c in enumerate(series.coeffs) if not c.is_zero()
    )
    return FamilySpec(
        series.rows, series.cols, kind, series.degree - declared_pole, declared_pole, coeffs
    )


def parse_complement_plan(text: str) -> ComplementPlan:
    """A "given" complement file: per stage, optional complement bases.

    Format: {"stages": [{"stage": 2, "domain_complement": [[..]..],
    "codomain_complement": [[..]..]}, ...]} with bases given as row-major
    grids whose columns are the chosen complement vectors.
    """
    try:
        obj = json.loads(text, object_pairs_hook=_no_duplicates)
    except (ValueError, RecursionError) as exc:  # as in parse_family
        raise InputError(f"complement file is not valid JSON: {exc}") from exc
    if not isinstance(obj, dict) or set(obj) - {"stages"}:
        raise InputError('complement file must be {"stages": [...]}')
    entries = obj.get("stages", [])
    if not isinstance(entries, list):
        raise InputError('complement file must be {"stages": [...]}')
    plan, seen = ComplementPlan({}, {}), set()
    for entry in entries:
        if not isinstance(entry, dict) or "stage" not in entry:
            raise InputError("each stage entry needs a 'stage' index")
        unknown = set(entry) - {"stage", "domain_complement", "codomain_complement"}
        if unknown:
            raise InputError(f"unknown stage fields: {sorted(unknown)}")
        index = entry["stage"]
        if not _is_int(index) or index < 1:
            raise InputError("stage index must be a positive integer")
        if index in seen:
            raise InputError(f"duplicate stage {index}")
        seen.add(index)
        for field, store in (
            ("domain_complement", plan.nc_bases),
            ("codomain_complement", plan.rc_bases),
        ):
            grid = entry.get(field)
            if grid is None:
                continue
            if not isinstance(grid, list) or not grid:
                raise InputError(f"stage {index}: {field} must be a nonempty grid")
            width = len(grid[0]) if isinstance(grid[0], list) else 0
            store[index] = grid_to_mat(grid, len(grid), width, context=f"stage {index} {field}")
    return plan


# -- report rendering helpers ------------------------------------------------


def subspace_report(sub) -> dict:
    return {"dim": sub.dim, "basis": mat_to_grid(sub.basis)}


def series_listing(series: MatSeries, upto: int) -> list[dict]:
    return [
        {"power": i, "matrix": mat_to_grid(series.coefficient(i))}
        for i in range(upto + 1)
    ]


def laurent_listing(laurent: MatLaurent) -> list[dict]:
    return [
        {"power": e, "matrix": mat_to_grid(laurent.coefficient(e))}
        for e in range(-laurent.pole, laurent.degree + 1)
    ]


def terms_listing(terms) -> list[dict]:
    return [{"power": power, "matrix": mat_to_grid(m)} for power, m in terms]


def _monomial(q: str, power: int) -> str:
    if power == 0:
        return q
    if power == 1:
        eps = "eps"
    else:
        eps = f"eps^{power}"
    if q == "1":
        return eps
    if q == "-1":
        return f"-{eps}"
    return f"{q}*{eps}"


def poly_entry_strings(terms) -> list[list[str]]:
    """Entry-wise eps-polynomial strings for a list of (power, grid) terms,
    each grid of entry strings as ``mat_to_grid`` gives."""
    terms = sorted(terms, key=lambda item: item[0])
    if not terms:
        return []
    first = terms[0][1]
    rows, cols = len(first), len(first[0]) if first else 0
    out = []
    for i in range(rows):
        row = []
        for j in range(cols):
            pieces = []
            for power, grid in terms:
                q = grid[i][j]
                if q == "0":
                    continue
                text = _monomial(q, power)
                if pieces:
                    text = f"+ {text}" if not text.startswith("-") else f"- {text[1:]}"
                pieces.append(text)
            row.append(" ".join(pieces) if pieces else "0")
        out.append(row)
    return out


def render_poly_matrix(terms) -> str:
    grid = poly_entry_strings(terms)
    if not grid:
        return "    (empty)"
    widths = [max(len(grid[i][j]) for i in range(len(grid))) for j in range(len(grid[0]))]
    lines = []
    for row in grid:
        cells = "  ".join(cell.rjust(w) for cell, w in zip(row, widths))
        lines.append(f"    [ {cells} ]")
    return "\n".join(lines)
