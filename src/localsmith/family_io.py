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
from typing import NamedTuple

from .errors import InputError
from .matrix import DECIMAL_INTEGER, Mat
from .series import MatLaurent, MatSeries

# The fields of a family file, in file order.
_FAMILY_FIELDS = ("rows", "cols", "kind", "trunc_or_degree", "declared_pole", "coefficients")
_KINDS = {"polynomial", "truncated_series"}


class FamilySpec(NamedTuple):
    rows: int
    cols: int
    kind: str
    trunc_or_degree: int
    declared_pole: int
    coefficients: tuple[tuple[int, Mat], ...]  # sorted by power


_STRING = json.encoder.encode_basestring_ascii


class ReportEncoder(json.JSONEncoder):
    """The text of ``json.dumps(obj, indent=2)``, written with the C string
    encoder instead of the pure-Python indenting one, and a list of nonempty
    lists of strings (a grid) in one join of its rows. It takes dicts with
    string keys, lists, strings, bools, ints and None; anything else is a
    TypeError. It writes that one layout: other indents, separators or key
    orders are refused."""

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
        if all(isinstance(x, list) and x for x in o):
            cell = inner + "  "
            try:  # a grid, unless the C string encoder meets a non-string
                rows = [("," + cell).join(map(_STRING, x)) for x in o]
                rows = f"{inner}],{inner}[{cell}".join(rows)
                put(f"[{inner}[{cell}{rows}{inner}]{newline}]")
                return
            except TypeError:
                pass
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


def read_file(path: str, what: str = "") -> str:
    """The text of a UTF-8 file; ``what`` names the file in the refusal."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read {what}{path}: {exc}") from exc


def _no_duplicates(pairs):
    seen = set()
    for key, _ in pairs:
        if key in seen:
            raise InputError(f"duplicate key {key!r} in JSON object")
        seen.add(key)
    return dict(pairs)


def _json(text: str, refusal: str):
    """The JSON value of ``text``. json raises ValueError for malformed JSON and
    a number past the int-string limit, RecursionError for deep nesting."""
    try:
        return json.loads(text, object_pairs_hook=_no_duplicates)
    except (ValueError, RecursionError) as exc:
        raise InputError(f"{refusal}: {exc}") from exc


def _is_int(value) -> bool:
    """A JSON integer; JSON true/false parse as Python bools, which are ints."""
    return isinstance(value, int) and not isinstance(value, bool)


def grid_to_mat(grid, rows: int, cols: int, context: str) -> Mat:
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
    obj = _json(text, "not valid JSON")
    if not isinstance(obj, dict):
        raise InputError("family file must contain a JSON object")
    unknown = set(obj).difference(_FAMILY_FIELDS)
    if unknown:
        raise InputError(f"unknown fields: {sorted(unknown)}")
    for name in _FAMILY_FIELDS:
        if name not in obj and name != "declared_pole":
            raise InputError(f"missing field {name!r}")
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
    parsed: dict[int, Mat] = {}
    for key, grid in raw.items():
        if not DECIMAL_INTEGER.fullmatch(key):
            raise InputError(f"coefficient key {key!r} is not an integer power")
        power = int(key)
        # "1", "+1" and "01" are distinct JSON keys naming the same power.
        if power in parsed:
            raise InputError(f"duplicate power {power} (key {key!r})")
        if power < 0 and pole == 0:
            raise InputError(f"negative power {power} without a declared pole")
        if power < -pole or power > trunc:
            raise InputError(
                f"power {power} outside the allowed range [{-pole}, {trunc}]"
            )
        parsed[power] = grid_to_mat(grid, rows, cols, f"coefficient {power}")
    return FamilySpec(rows, cols, kind, trunc, pole, tuple(sorted(parsed.items())))


def family_fields(spec: FamilySpec) -> dict:
    """The fields of ``spec``'s family file before its coefficients."""
    return {name: getattr(spec, name) for name in _FAMILY_FIELDS[:-1]}


def serialize_family(spec: FamilySpec) -> str:
    nonzero = {str(power): mat_to_grid(m) for power, m in spec.coefficients if not m.is_zero()}
    return json.dumps({**family_fields(spec), "coefficients": nonzero}, indent=2, cls=ReportEncoder)


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


def parse_complement_plan(text: str) -> dict[int, tuple[Mat | None, Mat | None]]:
    """A "given" complement file as {stage: (Nc basis or None, Rc basis or
    None)}, with an entry only for a stage that names a basis.

    Format: {"stages": [{"stage": 2, "domain_complement": [[..]..],
    "codomain_complement": [[..]..]}, ...]} with bases given as row-major
    grids whose columns are the chosen complement vectors.
    """
    obj = _json(text, "complement file is not valid JSON")
    entries = obj.get("stages", []) if isinstance(obj, dict) else None
    if not isinstance(entries, list) or set(obj) - {"stages"}:
        raise InputError('complement file must be {"stages": [...]}')
    plan, seen = {}, set()
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
        bases = []
        for field in ("domain_complement", "codomain_complement"):
            grid = entry.get(field)
            if grid is not None:
                if not isinstance(grid, list) or not grid:
                    raise InputError(f"stage {index}: {field} must be a nonempty grid")
                width = len(grid[0]) if isinstance(grid[0], list) else 0
                grid = grid_to_mat(grid, len(grid), width, f"stage {index} {field}")
            bases.append(grid)
        if bases != [None, None]:
            plan[index] = tuple(bases)
    return plan


# -- report rendering helpers ------------------------------------------------


def subspace_report(sub) -> dict:
    return {"dim": sub.dim, "basis": mat_to_grid(sub.basis)}


def terms_listing(terms) -> list[dict]:
    return [{"power": power, "matrix": mat_to_grid(m)} for power, m in terms]


def laurent_listing(laurent: MatLaurent) -> list[dict]:
    return terms_listing(enumerate(laurent.coeffs, -laurent.pole))


def series_listing(series: MatSeries, upto: int) -> list[dict]:
    return laurent_listing(series.truncate(upto))


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


def poly_entry_strings(listing) -> list[list[str]]:
    """Entry-wise eps-polynomial strings for a report listing, in the order
    of its powers, which ascend in every listing a command writes. Each such
    listing has at least one entry, of at least one row and one column."""
    terms = [(item["power"], item["matrix"]) for item in listing]
    first = terms[0][1]
    rows, cols = len(first), len(first[0])
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


def render_poly_matrix(listing) -> str:
    grid = poly_entry_strings(listing)
    widths = [max(len(grid[i][j]) for i in range(len(grid))) for j in range(len(grid[0]))]
    lines = []
    for row in grid:
        cells = "  ".join(cell.rjust(w) for cell, w in zip(row, widths))
        lines.append(f"    [ {cells} ]")
    return "\n".join(lines)
