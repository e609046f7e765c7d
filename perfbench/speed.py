"""The machine's speed, measured by a fixed reference unit of work.

On a shared host the same call can take up to twice as long in one minute as
in the next, because other tenants share the cores and caches. A call's wall
time so says as much about the host as about the program. The benchmark
therefore times a reference unit right before and right after every timed
call and set-up, and scales each time to a host on which the unit takes
``REFERENCE_S``: ``normalized = wall * REFERENCE_S / reference``, where
``reference`` is the mean of the two unit times around the call.

The unit is pure-Python rational arithmetic of the kind the package does
(Gauss-Jordan inversion of fixed integer matrices over ``Fraction``). It
imports nothing from ``localsmith``, so no change to the package changes it,
and a change that slows the package down shows in full in the scaled times.
"""

from __future__ import annotations

from fractions import Fraction
from time import perf_counter

# Nominal seconds of one reference unit: the scaled times are the times on a
# host that runs the unit this fast. It is a fixed constant, not a measurement,
# so results stay comparable between runs and commits.
REFERENCE_S = 0.007

_MATRICES = [
    [[(3 * i + 5 * j + size) % 7 - 3 + (i == j) * 4 for j in range(size)] for i in range(size)]
    for size in (5, 6, 7)
]


def _inverse(rows: list[list[int]]) -> list[list[Fraction]]:
    n = len(rows)
    a = [
        [Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
        for i, row in enumerate(rows)
    ]
    for c in range(n):
        pivot = next(r for r in range(c, n) if a[r][c])
        a[c], a[pivot] = a[pivot], a[c]
        head = a[c][c]
        a[c] = [x / head for x in a[c]]
        for r in range(n):
            if r != c and a[r][c]:
                f = a[r][c]
                a[r] = [x - f * y for x, y in zip(a[r], a[c])]
    return [row[n:] for row in a]


def reference_unit() -> None:
    for rows in _MATRICES:
        _inverse(rows)


def time_unit() -> float:
    start = perf_counter()
    reference_unit()
    return perf_counter() - start


class Speed:
    """Scales timed intervals by the reference unit timed around them."""

    def __init__(self):
        self.last = time_unit()
        self.units: list[float] = [self.last]

    def scale(self, seconds: float) -> float:
        """``seconds`` of wall time just measured, scaled to the nominal host.
        Times the unit once more; that time also serves the next interval."""
        now = time_unit()
        self.units.append(now)
        local = (self.last + now) / 2
        self.last = now
        return seconds * REFERENCE_S / local
