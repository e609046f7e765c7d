"""Seeded corpus generator for the three benchmark workloads.

The generator works on plain Python integers, so the inputs do not depend
on the package under test: a change to ``localsmith`` cannot change the
corpus. Each family carries the commands the workload runs on it, the exit
code every command is expected to end with, and, for Smith-structured
families, the exponents known by construction.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

DATA_DIR = Path(__file__).resolve().parent / "data"

WORKLOADS = ("dense-deficient", "deep-smith", "verify-oracles")


@dataclass
class Family:
    """One corpus entry: a family file body and the calls made on it."""

    name: str
    body: dict
    # (argv after the family path, expected exit code) per call, in order.
    calls: list[tuple[list[str], int]]
    exponents: list[int] | None = None
    text: str = field(init=False, default="")

    def __post_init__(self):
        self.text = json.dumps(self.body, indent=2, sort_keys=True)


# -- integer matrix helpers ----------------------------------------------------


def _zeros(rows, cols):
    return [[0] * cols for _ in range(rows)]


def _matmul(a, b):
    cols_b = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in cols_b] for row in a]


def _add(a, b):
    return [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def _rank(m) -> int:
    rows = [[Fraction(x) for x in row] for row in m]
    rank = 0
    for c in range(len(rows[0]) if rows else 0):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][c] != 0), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for r in range(rank + 1, len(rows)):
            f = rows[r][c] / rows[rank][c]
            if f:
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def _random_matrix(rng, rows, cols, span=2, density=0.65):
    return [
        [rng.randint(-span, span) if rng.random() < density else 0 for _ in range(cols)]
        for _ in range(rows)
    ]


def _random_invertible(rng, n):
    while True:
        m = _random_matrix(rng, n, n, density=0.8)
        if _rank(m) == n:
            return m


def _rank_deficient(rng, rows, cols, rank):
    if rank == 0:
        return _zeros(rows, cols)
    while True:
        m = _matmul(
            _random_matrix(rng, rows, rank, density=0.8),
            _random_matrix(rng, rank, cols, density=0.8),
        )
        if _rank(m) == rank:
            return m


def _poly_matmul(a, b):
    """Product of matrix polynomials given as coefficient lists."""
    rows, cols = len(a[0]), len(b[0][0])
    out = [_zeros(rows, cols) for _ in range(len(a) + len(b) - 1)]
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            out[i + j] = _add(out[i + j], _matmul(ai, bj))
    return out


# -- family constructors ---------------------------------------------------------


def _body(coeffs, kind="polynomial", pole=0):
    rows, cols = len(coeffs[0]), len(coeffs[0][0])
    return {
        "rows": rows,
        "cols": cols,
        "kind": kind,
        "trunc_or_degree": len(coeffs) - 1 - pole,
        "declared_pole": pole,
        "coefficients": {
            str(i - pole): [[str(x) for x in row] for row in c]
            for i, c in enumerate(coeffs)
            if any(x for row in c for x in row)
        },
    }


def dense_coeffs(rng, rows, cols, degree, deficit):
    """Leading coefficient of rank min(rows, cols) - deficit, then ``degree``
    sparse random coefficients, the last one nonzero so that the family has
    the stated degree."""
    lead = _rank_deficient(rng, rows, cols, max(0, min(rows, cols) - deficit))
    coeffs = [lead] + [_random_matrix(rng, rows, cols, density=0.5) for _ in range(degree)]
    while degree and not any(x for row in coeffs[-1] for x in row):
        coeffs[-1] = _random_matrix(rng, rows, cols, density=0.5)
    return coeffs


def smith_coeffs(rng, exponents, unit_degree=1):
    """unit(eps) * diag(eps^a_i) * unit(eps) with units invertible at 0, so the
    local Smith exponents are ``exponents``."""
    n = len(exponents)
    core = [_zeros(n, n) for _ in range(max(exponents) + 1)]
    for i, a in enumerate(exponents):
        core[a][i][i] = 1

    def unit():
        return [_random_invertible(rng, n)] + [
            _random_matrix(rng, n, n, density=0.5) for _ in range(unit_degree)
        ]

    return _poly_matmul(_poly_matmul(unit(), core), unit())


# -- workloads -------------------------------------------------------------------

_ANALYTIC = ["analyze", "diagonalize", "invert", "smith"]


def dense_deficient(rng: random.Random, cycle: int) -> list[Family]:
    """Square n in {4, 6} and 4x6 / 6x4, degree 2, leading rank deficit 2 or
    3; the deficit of each shape alternates from cycle to cycle."""
    shapes = [(4, 4), (6, 6), (4, 6), (6, 4)]
    calls = [([c], 0) for c in _ANALYTIC] + [(["jordan", "--length", "3"], 0)]
    out = []
    for idx, (rows, cols) in enumerate(shapes):
        deficit = 2 + (idx + cycle) % 2
        coeffs = dense_coeffs(rng, rows, cols, 2, deficit)
        name = f"c{cycle:02d}-dense{idx}-{rows}x{cols}-d{deficit}"
        out.append(Family(name, _body(coeffs), list(calls)))
    return out


def deep_smith(rng: random.Random, cycle: int) -> list[Family]:
    """n in {3, 4}, unit degree 1, largest exponent 5-8; exponents known.
    Each largest exponent appears once per cycle, with n alternating between
    cycles, so two cycles hold every (n, largest) pair. The exponents are
    fixed by (n, largest): drawn ones made the cost of a seed's corpus vary
    by up to 2x."""
    out = []
    specs = [(3 + (largest + cycle) % 2, largest) for largest in (5, 6, 7, 8)]
    for idx, (n, largest) in enumerate(specs):
        exps = [0, largest // 2, largest] if n == 3 else [0, 1, largest // 2, largest]
        coeffs = smith_coeffs(rng, exps)
        calls = [([c], 0) for c in _ANALYTIC] + [
            (["jordan", "--length", str(largest + 1)], 0)
        ]
        name = f"c{cycle:02d}-smith{idx}-{n}x{n}-" + "-".join(map(str, exps))
        out.append(Family(name, _body(coeffs), calls, exponents=exps))
    return out


def verify_oracles(rng: random.Random, cycle: int) -> list[Family]:
    """verify + linearize over the golden cubic and a mix of frames."""
    both = [(["verify"], 0), (["linearize"], 0)]
    golden = json.loads((DATA_DIR / "example1.json").read_text(encoding="utf-8"))
    out = [Family("golden-cubic", golden, list(both), exponents=[0, 1, 3])]
    # Each cycle holds every n and every degree once; three cycles hold all nine
    # pairs. Every cycle has a degree-1 family, which turns on the resolvent check.
    for n in (3, 4, 5):
        degree = 1 + (n + cycle) % 3
        coeffs = dense_coeffs(rng, n, n, degree, 1)
        out.append(Family(f"dense-{n}x{n}-deg{degree}", _body(coeffs), list(both)))
    for exps in ([0, 1, 3], [1, 2, 4], [0, 1, 1, 2]):
        n = len(exps)
        out.append(
            Family(
                f"smith-{n}x{n}-" + "-".join(map(str, exps)),
                _body(smith_coeffs(rng, exps)),
                list(both),
                exponents=exps,
            )
        )
    for rows, cols in ((4, 6), (6, 4)):
        coeffs = dense_coeffs(rng, rows, cols, 2, 1)
        out.append(Family(f"rect-{rows}x{cols}", _body(coeffs), list(both)))
    # Linearization is defined for polynomials only: exit 1 is the right answer.
    trunc = dense_coeffs(rng, 3, 3, 8, 1)
    out.append(
        Family(
            "truncated-3x3",
            _body(trunc, kind="truncated_series"),
            [(["verify"], 0), (["linearize"], 1)],
        )
    )
    pole = dense_coeffs(rng, 3, 3, 2, 1)
    out.append(Family("pole1-3x3", _body(pole, pole=1), list(both)))
    for fam in out:
        fam.name = f"c{cycle:02d}-{fam.name}"
    return out


_GENERATORS = {
    "dense-deficient": dense_deficient,
    "deep-smith": deep_smith,
    "verify-oracles": verify_oracles,
}


def build(workload: str, seed: int, cycle: int) -> list[Family]:
    """One cycle of the workload's corpus: every shape once. The same seed and
    cycle give byte-identical family files."""
    return _GENERATORS[workload](random.Random(f"{workload}:{seed}:{cycle}"), cycle)


def write(families: list[Family], directory: Path) -> list[Path]:
    directory.mkdir(parents=True, exist_ok=True)
    paths = []
    for fam in families:
        path = directory / f"{fam.name}.json"
        path.write_text(fam.text, encoding="utf-8")
        paths.append(path)
    return paths
