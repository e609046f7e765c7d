"""End-to-end and per-layer benchmark of the localsmith CLI.

Usage (from the repository root):

    python3 perfbench/run.py --workload dense-deficient --seed 1 --seconds 30 --trace 0

One process, one thread, one closed-loop client: every ``localsmith.cli.main``
call runs in-process with stdout captured and waits for the previous one.
The corpus comes from ``--seed`` (see corpus.py) and is written to
``perfbench/out/`` before timing starts. Every call is checked by the
correctness gate (gate.py).

A corpus cycle holds every shape of the workload once. ``--trace 0`` sets
up SETUP_REPEATS times and then makes one pass over the run's cycles. Every
set-up's and call's wall time is scaled by the speed of the host around it,
measured with a fixed reference unit of work (speed.py). ``--seconds`` sets
the number of cycles, ``round(seconds / CYCLE_SECONDS[workload])`` and at
least one, where CYCLE_SECONDS is one cycle's time at the baseline. A run so
does the same work on every commit and takes about ``--seconds`` at the
baseline. One pass over many families beats several passes over fewer: the
scaling already removes the host's swings, and more families average out
more of the seed-to-seed difference in work.

``--trace 1`` runs the first cycle untraced and with spans (tracing.py) in
turn, twice each, checks that every count repeats exactly, and reports the
per-layer metrics and the tracing overhead.

Both modes print a table of every metric, write the full results to
``perfbench/out/``, and end with one JSON line:
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import math
import os
import platform
import statistics
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

import corpus  # noqa: E402
import gate  # noqa: E402
import tracing  # noqa: E402
from speed import Speed  # noqa: E402

COMMANDS = ("analyze", "diagonalize", "invert", "smith", "jordan", "linearize", "verify")
SETUP_REPEATS = 20
# Scaled seconds (speed.py) of one pass over one corpus cycle at the baseline.
CYCLE_SECONDS = {"dense-deficient": 7.5, "deep-smith": 9.5, "verify-oracles": 13.5}


class Failure(Exception):
    """The benchmark cannot run here (for example, no package source)."""


# -- set-up -------------------------------------------------------------------


def fresh_import():
    """Import ``localsmith.cli`` anew from this checkout's ``src``."""
    if not (SRC / "localsmith" / "__init__.py").is_file():
        raise Failure(f"no package source at {SRC / 'localsmith'}")
    for key in [k for k in sys.modules if k == "localsmith" or k.startswith("localsmith.")]:
        del sys.modules[key]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    cli = importlib.import_module("localsmith.cli")
    if Path(cli.__file__).resolve().parent != SRC / "localsmith":
        raise Failure(f"imported localsmith from {cli.__file__}, not from {SRC}")
    return cli


def cycle_count(workload: str, seconds: float) -> int:
    return max(1, round(seconds / CYCLE_SECONDS[workload]))


def setup(workload: str, seed: int, count: int, directory: Path):
    """Import the package and build and write the corpus; timed as one set-up.

    Returns (seconds, cli module, cycles); a cycle is a list of (family, path).
    """
    start = perf_counter()
    cli = fresh_import()
    cycles = []
    for cycle in range(count):
        families = corpus.build(workload, seed, cycle)
        paths = corpus.write(families, directory / f"cycle{cycle:02d}")
        cycles.append(list(zip(families, paths)))
    return perf_counter() - start, cli, cycles


# -- one pass over families ---------------------------------------------------


class Pass:
    """Call timings, gate results and report digest of one pass."""

    def __init__(self):
        # (family index, command, s); s is scaled by speed.py when the pass has a Speed
        self.calls: list[tuple[int, str, float]] = []
        self.wall_s = 0.0
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.digest = hashlib.sha256()
        self.reports = 0

    @property
    def busy_s(self) -> float:
        return sum(seconds for _, _, seconds in self.calls)


def call(cli, argv: list[str]) -> tuple[object, str, float]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = perf_counter()
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # a traceback is a failed call, not a crash
            code = f"{type(exc).__name__}: {exc}"
        elapsed = perf_counter() - start
    return code, out.getvalue(), elapsed


def run_family(cli, index: int, family, path, result: Pass, tracer=None, speed=None) -> None:
    reports = {}
    bad = False
    for argv, expected in family.calls:
        command = argv[0]
        root = tracer.begin_call(command) if tracer else None
        try:
            code, text, elapsed = call(cli, [command, str(path)] + argv[1:])
        finally:
            if tracer:
                tracer.end_call(root)
        result.wall_s += elapsed
        result.calls.append((index, command, speed.scale(elapsed) if speed else elapsed))
        result.attempted += 1
        result.digest.update(f"{family.name} {command} {code}\n".encode())
        result.digest.update(text.encode())
        result.reports += 1
        problem, report = gate.check_call(command, code, expected, text)
        if problem:
            result.failed += 1
            result.problems.append(f"{family.name} {command}: {problem}")
            bad = True
        elif report is not None:
            reports[command] = report
    if not bad:
        problem = gate.check_family(reports, family.exponents)
        if problem:
            result.failed += len(family.calls)
            result.problems.append(f"{family.name}: {problem}")


def run_pass(cli, families, tracer=None, speed=None) -> Pass:
    result = Pass()
    for index, (family, path) in enumerate(families):
        run_family(cli, index, family, path, result, tracer, speed)
    return result


def combine(passes: list[Pass]) -> Pass:
    """Gate totals of several passes over the same families; a difference in
    their reports is a problem."""
    total = Pass()
    for part in passes:
        total.attempted += part.attempted
        total.failed += part.failed
        total.problems.extend(part.problems)
    if len({part.digest.hexdigest() for part in passes}) != 1:
        total.problems.append("reports differ between passes over the same families")
    total.digest, total.reports = passes[0].digest, passes[0].reports
    return total


# -- statistics ---------------------------------------------------------------


def geomean(values: list[float]) -> float:
    return math.exp(statistics.fmean(math.log(v) for v in values))


def tail(values: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples): the highest percentile with at least ten
    samples above it; the maximum when there are fewer than eleven samples."""
    ordered = sorted(values)
    n = len(ordered)
    if n < 11:
        return ordered[-1], 100.0, n
    return ordered[n - 11], 100.0 * (n - 10) / n, n


def environment() -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "machine": platform.machine(),
        "system": platform.system(),
    }


# -- the two modes ------------------------------------------------------------


def untraced(cli, cycles, setups: list[float], speed: Speed) -> tuple[dict, dict, Pass]:
    """One pass over all cycles, each call's time scaled by ``speed``."""
    families = [entry for cycle in cycles for entry in cycle]
    total = run_pass(cli, families, speed=speed)
    family_s = [0.0] * len(families)
    command_s: dict[str, list[float]] = {}
    for index, command, seconds in total.calls:
        family_s[index] += seconds
        command_s.setdefault(command, []).append(seconds)
    family_tail, tail_pct, tail_n = tail(family_s)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "family_ms": (1000 * geomean(family_s), "ms"),
        "families_per_s": (len(family_s) / sum(family_s), "1/s"),
    }
    details = {
        "families": len(family_s),
        "busy_s": total.busy_s,
        "wall_s": total.wall_s,
        "reference_unit_s": statistics.median(speed.units),
        "reference_unit_quartiles_s": statistics.quantiles(speed.units, n=4),
        "family_median_ms": 1000 * statistics.median(family_s),
        "family_tail_ms": 1000 * family_tail,
        "family_tail_percentile": tail_pct,
        "family_tail_samples": tail_n,
        "failed_ratio": total.failed / total.attempted,
        "command_ms": {
            f"{command}_ms": 1000 * geomean(command_s[command])
            for command in COMMANDS
            if command in command_s
        },
        "command_median_ms": {
            f"{command}_ms": 1000 * statistics.median(command_s[command])
            for command in COMMANDS
            if command in command_s
        },
        "family_s": family_s,
        "report_sha256": total.digest.hexdigest(),
        "reports": total.reports,
    }
    return metrics, details, total


def traced(cli, families, spans_path: Path) -> tuple[dict, dict, Pass]:
    """Untraced and traced passes in turn, twice each. The overhead compares
    the per-call minima of the two kinds."""
    plain, spanned, summaries = [], [], []
    for attempt in range(2):
        plain.append(run_pass(cli, families))
        tracer = tracing.Tracer()
        tracer.install()
        try:
            spanned.append(run_pass(cli, families, tracer))
        finally:
            tracer.uninstall()
        summaries.append(tracer.summary())
        if attempt == 0:
            tracer.dump(spans_path)
    total = combine(plain + spanned)
    mismatched = [
        f"{command}:{metric}"
        for command in summaries[0]
        for metric in tracing.EXACT
        if summaries[0][command][metric] != summaries[1].get(command, {}).get(metric)
    ]
    if mismatched:
        total.problems.append(f"counts differ between traced passes: {mismatched}")
    exact = set(tracing.EXACT)
    split = {
        command: {
            metric: value if metric in exact else (value + summaries[1][command][metric]) / 2
            for metric, value in values.items()
        }
        for command, values in summaries[0].items()
    }
    units = per_layer_units()
    metrics = {name: (split["all"][name], units[name]) for name in tracing.layer_metric_names()}
    untraced_s, traced_s = (
        sum(min(timings) for timings in zip(*([s for _, _, s in p.calls] for p in kind)))
        for kind in (plain, spanned)
    )
    metrics["trace.overhead_s"] = (traced_s - untraced_s, "s")
    details = {
        "families": len(families),
        "untraced_s": untraced_s,
        "traced_s": traced_s,
        "overhead_ratio": (traced_s - untraced_s) / untraced_s,
        "by_command": split,
        "report_sha256": total.digest.hexdigest(),
        "reports": total.reports,
        "spans": str(spans_path.relative_to(ROOT)),
    }
    return metrics, details, total


def per_layer_units() -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["per_layer"]}


# -- main ---------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=corpus.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    tag = f"{args.workload}-seed{args.seed}"
    count = cycle_count(args.workload, args.seconds)
    # Only untraced times are scaled; the last set-up's modules and files are used.
    speed = None if args.trace else Speed()
    setups: list[float] = []
    setups_wall: list[float] = []
    for _ in range(SETUP_REPEATS):
        elapsed, cli, cycles = setup(args.workload, args.seed, count, OUT / "corpus" / tag)
        setups_wall.append(elapsed)
        setups.append(speed.scale(elapsed) if speed else elapsed)
    if args.trace:
        metrics, details, result = traced(cli, cycles[0], OUT / f"{tag}-spans.tsv.gz")
    else:
        metrics, details, result = untraced(cli, cycles, setups, speed)
    details.update(
        workload=args.workload,
        seed=args.seed,
        seconds=args.seconds,
        trace=args.trace,
        cycles=count,
        setup_runs_s=setups,
        setup_runs_wall_s=setups_wall,
        environment=environment(),
        problems=result.problems,
    )
    summary = {
        "correct": not result.problems,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    results_path = OUT / f"{tag}-trace{args.trace}.json"
    results_path.write_text(
        json.dumps({"summary": summary, "details": details}, indent=2, sort_keys=True),
        encoding="utf-8",
    )
    print_table(args, metrics, details, result, results_path)
    print(json.dumps(summary))
    return 0


def print_table(args, metrics, details, result, results_path) -> None:
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<44} {value:>14.6g} {unit}")
    if not args.trace:
        print(f"  {'family_tail_ms':<44} {details['family_tail_ms']:>14.6g} ms")
        for command in COMMANDS:
            value = details["command_ms"].get(f"{command}_ms")
            shown = "absent" if value is None else f"{value:.6g}"
            print(f"  {command + '_ms':<44} {shown:>14} ms")
        print(f"  {'failed_ratio':<44} {details['failed_ratio']:>14.6g} ratio")
        print(
            f"  family_tail_ms is p{details['family_tail_percentile']:.1f} of "
            f"{details['family_tail_samples']} families in {details['cycles']} cycles"
        )
    else:
        print(f"  tracing overhead ratio {details['overhead_ratio']:.3f}")
    print(f"  report sha256 {details['report_sha256']} ({details['reports']} reports)")
    for problem in result.problems:
        print(f"  FAILED {problem}")
    print(f"  results in {results_path.relative_to(ROOT)}")


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Failure as exc:
        print(f"benchmark cannot run: {exc}", file=sys.stderr)
        sys.exit(2)
