"""In-memory spans around the package's public callables, recorded from
outside the package.

Methods are wrapped on their classes. A module function is replaced in every
``localsmith`` namespace that holds it, because ``from .x import f`` binds a
second name: wrapping only the defining module would record nothing for the
call sites that go through ``localsmith.cli.diagonalize`` or
``localsmith.recursion.choose_complement``. ``Tracer.uninstall`` puts every
original back.

A span has a name, a start, an end, a parent span and the id of the CLI call
it belongs to. Self time is a span's duration minus the durations of its
direct children (one thread, so children never overlap).
"""

from __future__ import annotations

import functools
import gzip
import json
import statistics
import sys
import types
from array import array
from collections import defaultdict
from time import perf_counter

VERIFY_CHECKS = (
    "diagonalization-residual",
    "coefficient-identity",
    "triangular-system",
    "toeplitz-kernel-dims",
    "chain-membership",
    "post-stabilization-structure",
    "generalized-inverse-axioms",
    "laurent-oracle",
    "smith-identities",
    "projector-families",
    "resolvent-recurrences",
    "linearization-bound",
)

# A target is wrapped in a span of the given name, or, for a name "@x", by
# Tracer._wrap_x, which counts or names its spans itself.

# (module, function, span): module functions, wrapped wherever bound.
FUNCTIONS = (
    ("localsmith.matrix", "rat", "@rat"),
    ("localsmith.subspaces", "restrict_and_split", "subspaces.restrict_and_split"),
    ("localsmith.subspaces", "choose_complement", "subspaces.choose_complement"),
    ("localsmith.subspaces", "projection_matrix", "subspaces.projection_matrix"),
    ("localsmith.subspaces", "restricted_inverse", "subspaces.restricted_inverse"),
    ("localsmith.recursion", "generic_rank", "recursion.generic_rank"),
    ("localsmith.series", "series_inverse", "series.series_inverse"),
    ("localsmith.diagonalize", "diagonalize", "diagonalize"),
    ("localsmith.diagonalize", "phi_series", "diagonalize.phi_series"),
    ("localsmith.diagonalize", "psi_series", "diagonalize.psi_series"),
    ("localsmith.oracles", "toeplitz_nullspace", "oracles.toeplitz_nullspace"),
    ("localsmith.oracles", "direct_laurent_inverse", "oracles.direct_laurent_inverse"),
    ("localsmith.oracles", "resolvent_recurrence_check", "oracles.resolvent_check"),
    ("localsmith.family_io", "parse_family", "family_io.parse_family"),
    ("localsmith.family_io", "spec_to_series", "family_io.spec_to_series"),
    ("localsmith.family_io", "subspace_report", "family_io.render"),
    ("localsmith.family_io", "series_listing", "family_io.render"),
    ("localsmith.family_io", "laurent_listing", "family_io.render"),
    ("localsmith.family_io", "terms_listing", "family_io.render"),
    ("localsmith.family_io", "mat_to_grid", "family_io.render"),
    ("localsmith.cli", "_check", "@check"),
)

# (module, class, method, span).
METHODS = (
    ("localsmith.matrix", "Mat", "__matmul__", "@matmul"),
    ("localsmith.matrix", "Mat", "rref", "@rref"),
    ("localsmith.matrix", "Mat", "inverse", "matrix.inverse"),
    ("localsmith.matrix", "Mat", "det", "matrix.det"),
    ("localsmith.subspaces", "Subspace", "__post_init__", "subspaces.subspace_check"),
    ("localsmith.recursion", "RecursionState", "run_stage", "recursion.run_stage"),
    ("localsmith.recursion", "RecursionState", "_build_e_column", "recursion.e_column"),
    ("localsmith.recursion", "RecursionState", "_build_m_column", "recursion.m_column"),
    ("localsmith.recursion", "RecursionState", "run_until_stabilized", "@stabilize"),
    ("localsmith.recursion", "RecursionState", "ensure_stages", "recursion.ensure_stages"),
    ("localsmith.series", "MatSeries", "__matmul__", "series.matseries_matmul"),
    ("localsmith.series", "MatLaurent", "__matmul__", "series.laurent_matmul"),
    ("localsmith.diagonalize", "DiagonalizationResult", "generalized_inverse",
     "diagonalize.generalized_inverse"),
    ("localsmith.diagonalize", "DiagonalizationResult", "projector_families",
     "diagonalize.projector_families"),
    ("localsmith.oracles", "AugmentedPencil", "pencil", "@pencil"),
)

# Per-layer metrics derived from the spans.
SELF_TIME = {
    "matrix.matmul.self_s": "matrix.matmul",
    "matrix.rref.self_s": "matrix.rref",
    "matrix.inverse.self_s": "matrix.inverse",
    "matrix.det.self_s": "matrix.det",
    "subspaces.restrict_and_split.self_s": "subspaces.restrict_and_split",
    "subspaces.choose_complement.self_s": "subspaces.choose_complement",
    "subspaces.projection_matrix.self_s": "subspaces.projection_matrix",
    "subspaces.restricted_inverse.self_s": "subspaces.restricted_inverse",
    "subspaces.subspace_check.self_s": "subspaces.subspace_check",
    "recursion.generic_rank.self_s": "recursion.generic_rank",
    "recursion.run_stage.self_s": "recursion.run_stage",
    "recursion.e_column.self_s": "recursion.e_column",
    "recursion.m_column.self_s": "recursion.m_column",
    "series.series_inverse.self_s": "series.series_inverse",
    "series.matseries_matmul.self_s": "series.matseries_matmul",
    "series.laurent_matmul.self_s": "series.laurent_matmul",
}
CALLS = {
    "matrix.matmul.calls": "matrix.matmul",
    "matrix.rref.calls": "matrix.rref",
    "subspaces.choose_complement.calls": "subspaces.choose_complement",
    "recursion.run_stage.calls": "recursion.run_stage",
    "series.series_inverse.calls": "series.series_inverse",
    "diagonalize.calls": "diagonalize",
    "diagonalize.generalized_inverse.calls": "diagonalize.generalized_inverse",
    "oracles.direct_laurent_inverse.calls": "oracles.direct_laurent_inverse",
}
# Inclusive time of the outermost spans among the named ones.
INCLUSIVE = {
    "recursion.stabilize_s": ("recursion.stabilize",),
    "diagonalize.generalized_inverse.s": ("diagonalize.generalized_inverse",),
    "diagonalize.projector_families.s": ("diagonalize.projector_families",),
    "oracles.toeplitz_nullspace.s": ("oracles.toeplitz_nullspace",),
    "oracles.direct_laurent_inverse.s": ("oracles.direct_laurent_inverse",),
    "oracles.pencil_stabilize_s": ("oracles.pencil_stabilize",),
    "oracles.resolvent_check.s": ("oracles.resolvent_check",),
    "family_io.parse_s": ("family_io.parse_family", "family_io.spec_to_series"),
    "family_io.render_s": ("family_io.render",),
    "cli.json_s": ("cli.json",),
}
INCLUSIVE.update({f"cli.verify.{c}.s": (f"cli.verify.{c}",) for c in VERIFY_CHECKS})
# Time of the direct children of a diagonalize() span.
DIAGONALIZE_CHILDREN = {
    "diagonalize.stabilize_s": ("recursion.stabilize",),
    "diagonalize.extend_s": (
        "recursion.ensure_stages", "diagonalize.phi_series", "diagonalize.psi_series",
    ),
    "diagonalize.inverses_s": ("series.series_inverse",),
    "diagonalize.residual_s": ("series.matseries_matmul",),
}
COUNTERS = (
    "matrix.matmul.scalar_mults",
    "matrix.rat.calls",
    "matrix.max_den_bits",
)
RATIOS = ("matrix.rref.cache_hit_ratio", "recursion.stage_use_ratio")

# Values that must repeat exactly between two traced passes.
EXACT = tuple(CALLS) + COUNTERS + RATIOS


def layer_metric_names() -> list[str]:
    """Every per-layer metric but the overhead, sorted by name."""
    names = set(SELF_TIME) | set(CALLS) | set(INCLUSIVE) | set(DIAGONALIZE_CHILDREN)
    names |= set(COUNTERS) | set(RATIOS)
    return sorted(names)


class Tracer:
    """Span recorder; one instance per traced pass."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.call = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self.commands: list[str] = []
        self.counters: list[dict] = []
        self._states: list[list] = []
        # Pencil series by id, held so that no other object can reuse an id.
        self._pencils: dict[int, object] = {}
        self._restore: list[tuple[object, str, object]] = []

    # -- recording ------------------------------------------------------------

    def _open(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.name)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.call.append(len(self.commands) - 1)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = perf_counter()
        self._stack.pop()

    def span(self, name: str, fn, *args, **kwargs):
        idx = self._open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(idx)

    def begin_call(self, command: str) -> int:
        self.commands.append(command)
        self.counters.append(defaultdict(int))
        self._states.append([])
        return self._open("cli.main")

    def end_call(self, root: int) -> None:
        self._close(root)
        states = self._states[-1]
        if states and states[0].stabilization_k is not None:
            state = states[0]
            self.counters[-1]["stage_use"] = (state.stabilization_k + 1) / state.stage_count

    # -- wrappers -------------------------------------------------------------

    def _timed(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self.span(name, fn, *args, **kwargs)

        return wrapper

    def _wrap_matmul(self, fn):
        @functools.wraps(fn)
        def wrapper(a, b):
            out = self.span("matrix.matmul", fn, a, b)
            if not (a.is_zero() or b.is_zero()):
                counters = self.counters[-1]
                counters["matrix.matmul.scalar_mults"] += a.rows * a.cols * b.cols
                bits = max(
                    (x.denominator.bit_length() for row in out.entries for x in row),
                    default=0,
                )
                if bits > counters["matrix.max_den_bits"]:
                    counters["matrix.max_den_bits"] = bits
            return out

        return wrapper

    def _wrap_rref(self, fn):
        @functools.wraps(fn)
        def wrapper(m):
            if m._rref is not None:
                self.counters[-1]["rref_hits"] += 1
            return self.span("matrix.rref", fn, m)

        return wrapper

    def _wrap_rat(self, fn):
        @functools.wraps(fn)
        def wrapper(value):
            self.counters[-1]["matrix.rat.calls"] += 1
            return fn(value)

        return wrapper

    def _wrap_check(self, fn):
        @functools.wraps(fn)
        def wrapper(name, check):
            return self.span(f"cli.verify.{name}", fn, name, check)

        return wrapper

    def _wrap_stabilize(self, fn):
        @functools.wraps(fn)
        def wrapper(state):
            if self._pencils.get(id(state.input_family)) is state.input_family:
                return self.span("oracles.pencil_stabilize", fn, state)
            self._states[-1].append(state)
            return self.span("recursion.stabilize", fn, state)

        return wrapper

    def _wrap_pencil(self, fn):
        """Remembers the pencil series, so that its state's stabilization
        counts as an oracle span."""

        @functools.wraps(fn)
        def wrapper(pencil):
            series = fn(pencil)
            self._pencils[id(series)] = series
            return series

        return wrapper

    def _wrapper(self, span: str, fn):
        if span.startswith("@"):
            return getattr(self, f"_wrap_{span[1:]}")(fn)
        return self._timed(span, fn)

    # -- installation ---------------------------------------------------------

    def install(self) -> None:
        """Wrap every target; ``uninstall`` restores the originals."""
        if self._restore:
            raise RuntimeError("tracer already installed")
        package = [
            mod for key, mod in sorted(sys.modules.items())
            if key == "localsmith" or key.startswith("localsmith.")
        ]
        for module, attr, span in FUNCTIONS:
            original = getattr(sys.modules[module], attr)
            wrapper = self._wrapper(span, original)
            for mod in package:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._restore.append((mod, key, original))
                        setattr(mod, key, wrapper)
        for module, cls_name, attr, span in METHODS:
            cls = getattr(sys.modules[module], cls_name)
            original = cls.__dict__[attr]
            self._restore.append((cls, attr, original))
            setattr(cls, attr, self._wrapper(span, original))
        cli = sys.modules["localsmith.cli"]
        shim = types.SimpleNamespace(dumps=self._timed("cli.json", json.dumps))
        self._restore.append((cli, "json", cli.json))
        cli.json = shim

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    # -- analysis -------------------------------------------------------------

    def summary(self) -> dict[str, dict[str, float]]:
        """Per-command per-layer metrics; key ``"all"`` sums the commands."""
        n = len(self.name)
        name = [self.names[i] for i in self.name]
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += dur[i]
        per: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        span_metrics: dict[str, list[tuple[str, str]]] = defaultdict(list)
        for metric, span_name in SELF_TIME.items():
            span_metrics[span_name].append(("self", metric))
        for metric, span_name in CALLS.items():
            span_metrics[span_name].append(("calls", metric))
        for metric, group in INCLUSIVE.items():
            for span_name in group:
                span_metrics[span_name].append(("inclusive", metric))
        for metric, group in DIAGONALIZE_CHILDREN.items():
            for span_name in group:
                span_metrics[span_name].append(("child", metric))
        for i in range(n):
            wanted = span_metrics.get(name[i])
            if not wanted:
                continue
            bucket = per[self.commands[self.call[i]]]
            for kind, metric in wanted:
                if kind == "self":
                    bucket[metric] += dur[i] - child[i]
                elif kind == "calls":
                    bucket[metric] += 1
                elif kind == "child":
                    p = self.parent[i]
                    if p >= 0 and name[p] == "diagonalize":
                        bucket[metric] += dur[i]
                elif not self._inside(i, INCLUSIVE[metric], name):
                    bucket[metric] += dur[i]
        hits: dict[str, int] = defaultdict(int)
        stage_use: dict[str, list[float]] = defaultdict(list)
        for command, counters in zip(self.commands, self.counters):
            bucket = per[command]
            for key in ("matrix.matmul.scalar_mults", "matrix.rat.calls"):
                bucket[key] += counters[key]
            bucket["matrix.max_den_bits"] = max(
                bucket["matrix.max_den_bits"], counters["matrix.max_den_bits"]
            )
            hits[command] += counters["rref_hits"]
            if "stage_use" in counters:
                stage_use[command].append(counters["stage_use"])
        out = {}
        for command in sorted(per):
            out[command] = self._finish(per[command], hits[command], stage_use[command])
        total: dict[str, float] = defaultdict(float)
        for bucket in per.values():
            for key, value in bucket.items():
                if key == "matrix.max_den_bits":
                    total[key] = max(total[key], value)
                else:
                    total[key] += value
        out["all"] = self._finish(
            total, sum(hits.values()), [r for rs in stage_use.values() for r in rs]
        )
        return out

    def _inside(self, i: int, group: tuple[str, ...], name: list[str]) -> bool:
        p = self.parent[i]
        while p >= 0:
            if name[p] in group:
                return True
            p = self.parent[p]
        return False

    @staticmethod
    def _finish(bucket, hits: int, stage_use: list[float]) -> dict[str, float]:
        out = {metric: bucket.get(metric, 0) for metric in layer_metric_names()}
        calls = bucket.get("matrix.rref.calls", 0)
        out["matrix.rref.cache_hit_ratio"] = hits / calls if calls else 0.0
        out["recursion.stage_use_ratio"] = statistics.median(stage_use) if stage_use else 0.0
        return out

    def dump(self, path) -> None:
        """Write every span as a tab-separated line (gzip)."""
        with gzip.open(path, "wt", encoding="utf-8") as handle:
            handle.write("span\tname\tparent\tcall\tcommand\tstart\tend\n")
            for i in range(len(self.name)):
                call = self.call[i]
                handle.write(
                    f"{i}\t{self.names[self.name[i]]}\t{self.parent[i]}\t{call}\t"
                    f"{self.commands[call]}\t{self.start[i]:.9f}\t{self.end[i]:.9f}\n"
                )
