"""Aggregate result files of repeated runs into medians and quartile spreads.

Usage:

    python3 perfbench/summarize.py perfbench/out/*-trace0.json > summary.json

For each workload and metric it reports the median, the quartiles
(``statistics.quantiles(values, n=4)``) and the spread, which is the distance
between the quartiles as a share of the median. Traced results also yield
their counts, which must be the same for every run of one seed.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict


def spread(values: list[float]) -> dict:
    median = statistics.median(values)
    out = {"median": median, "runs": len(values), "min": min(values), "max": max(values)}
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
        out.update(q1=q1, q3=q3, spread=(q3 - q1) / median if median else None)
    return out


def summarize(paths: list[str]) -> dict:
    values: dict[tuple, dict[str, list[float]]] = defaultdict(lambda: defaultdict(list))
    meta: dict[tuple, dict] = {}
    for path in paths:
        with open(path, encoding="utf-8") as handle:
            data = json.load(handle)
        summary, details = data["summary"], data["details"]
        key = (details["workload"], details["trace"])
        if not summary["correct"] or summary["failed"]:
            raise SystemExit(f"{path}: run not correct: {details['problems']}")
        for name, metric in summary["metrics"].items():
            values[key][name].append(metric["value"])
        for name, value in details.get("command_ms", {}).items():
            values[key][name].append(value)
        entry = meta.setdefault(
            key, {"seeds": [], "environment": details["environment"], "seconds": details["seconds"]}
        )
        entry["seeds"].append(details["seed"])
        entry.setdefault("attempted", []).append(summary["attempted"])
    out = {}
    for (workload, trace), metrics in sorted(values.items()):
        section = dict(meta[(workload, trace)])
        section["metrics"] = {name: spread(v) for name, v in sorted(metrics.items())}
        out.setdefault(workload, {})[f"trace{trace}"] = section
    return out


if __name__ == "__main__":
    json.dump(summarize(sys.argv[1:]), sys.stdout, indent=2, sort_keys=True)
    print()
