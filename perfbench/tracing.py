"""Per-layer spans recorded from outside the ``repro`` package.

A :class:`Tracer` replaces the public entry point of every layer with a
wrapper that opens a span, calls the original, materializes the result
inside the span (``localCheckpoint(eager=True)`` for a DataFrame) and
closes the span. The wrapper is installed on the defining module and on
every other loaded ``repro`` module that imported the same function by
name (``repro.core.pipeline``, ``repro.core.clusterer``, ...), so the real
``run_pipeline`` / ``run_blocker`` wiring is what runs.

Spark counters come from Spark's status store, which exists with
``spark.ui.enabled=false``. Each span runs its jobs under a job group of
its own (a reused group id would accumulate jobs across runs). After the
traced iteration the listener bus is drained (the store lags it) and the
store is read in one pass, serialized to JSON on the JVM side. The store
drops old stages beyond ``spark.ui.retainedStages``, so the launch raises
that limit and :meth:`Tracer.collect` fails if a stage is missing. Only
``COMPLETE`` stages count: a ``SKIPPED`` stage reports tasks that never
ran.

Spans stay in memory; :meth:`Tracer.dump` writes them out at the end.
"""
from __future__ import annotations

import contextlib
import functools
import importlib
import itertools
import json
import sys
import time
import uuid
from dataclasses import asdict, dataclass, field

from pyspark.sql import DataFrame

# Layer name -> public entry points ``(module, function)`` it owns.
LAYERS: dict[str, tuple[tuple[str, str], ...]] = {
    "core.profiles": (("repro.core.profiles", "load_clean_clean"),),
    "core.tokens": (("repro.core.tokens", "tokenize"),),
    "looseschema.partitioning": (
        ("repro.looseschema.partitioning", "partition_attributes"),
        ("repro.looseschema.partitioning", "manual_partition"),
    ),
    "looseschema.entropy": (("repro.looseschema.entropy", "cluster_entropies"),),
    "core.blocking": (
        ("repro.core.blocking", "loose_schema_blocking"),
        ("repro.core.blocking", "token_blocking"),
        ("repro.core.blocking", "candidate_pairs"),
    ),
    "core.purging": (("repro.core.purging", "purge_blocks"),),
    "core.filtering": (("repro.core.filtering", "filter_blocks"),),
    "core.meta_blocking": (("repro.core.meta_blocking", "meta_blocking"),),
    "core.meta_blocking.build_graph": (("repro.core.meta_blocking", "build_graph"),),
    "core.meta_blocking.prune": (("repro.core.meta_blocking", "prune"),),
    "core.broadcast_mb": (("repro.core.broadcast_mb", "meta_blocking_broadcast"),),
    "matching.similarity": (("repro.matching.similarity", "add_similarities"),),
    "matching.matcher": (("repro.matching.matcher", "threshold_matcher"),),
    "core.clusterer": (("repro.core.clusterer", "cluster_entities"),),
    "graph.connected_components": (
        ("repro.graph.connected_components", "connected_components"),
    ),
    "debug.evaluation": tuple(
        ("repro.debug.evaluation", f)
        for f in ("pair_metrics", "lost_pairs", "explain_lost_pair", "cluster_pair_metrics")
    ),
}


@dataclass
class Span:
    """One call of a layer entry point (or the root of one traced iteration)."""

    name: str
    fn: str
    run_id: str
    span_id: int
    parent: int | None
    group: str
    start: float = 0.0
    end: float = 0.0
    rows_out: int = 0
    # Wall time spent inside this span counting its children's rows.
    bookkeeping_s: float = 0.0
    # Filled from the status store by Tracer.collect.
    jobs: int = 0
    job_intervals: list[tuple[float, float]] = field(default_factory=list)
    exec_s: float = 0.0
    shuffle_bytes: int = 0
    failed_tasks: int = 0


class Tracer:
    """Records spans around layer entry points of one Spark application."""

    def __init__(self, spark):
        self.sc = spark.sparkContext
        self.run_id = uuid.uuid4().hex[:12]
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._ids = itertools.count()
        self._patched: list[tuple[object, str, object]] = []
        # perf_counter -> epoch seconds, for the store's job timestamps.
        self._epoch_offset = time.time() - time.perf_counter()

    # -- patching ---------------------------------------------------------
    def install(self) -> None:
        """Wrap every entry point in :data:`LAYERS` wherever it is bound."""
        wrapped = {}
        for layer, entries in LAYERS.items():
            for mod_name, fn_name in entries:
                fn = getattr(importlib.import_module(mod_name), fn_name)
                wrapped[id(fn)] = (fn, self._wrap(layer, fn))
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "repro" or mod_name.startswith("repro.")):
                continue
            for attr, value in list(vars(mod).items()):
                hit = wrapped.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patched.append((mod, attr, value))
                    setattr(mod, attr, hit[1])

    def uninstall(self) -> None:
        for mod, attr, value in reversed(self._patched):
            setattr(mod, attr, value)
        self._patched.clear()

    def _wrap(self, layer: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(layer, fn.__name__) as span:
                out = fn(*args, **kwargs)
                if isinstance(out, DataFrame):
                    out = out.localCheckpoint(eager=True)
            self._count_rows(span, out)
            return out

        return traced

    # -- spans --------------------------------------------------------------
    @contextlib.contextmanager
    def span(self, name: str, fn: str):
        """Open a span; its Spark jobs run under a job group of its own."""
        parent = self._stack[-1] if self._stack else None
        span_id = next(self._ids)
        span = Span(
            name=name, fn=fn, run_id=self.run_id, span_id=span_id,
            parent=None if parent is None else parent.span_id,
            group=f"perfbench-{self.run_id}-{span_id}",
        )
        self.spans.append(span)
        self._stack.append(span)
        self._set_group(span.group)
        span.start = time.perf_counter()
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            self._stack.pop()
            self._set_group(parent.group if parent else None)

    def _set_group(self, group: str | None) -> None:
        self.sc.setLocalProperty("spark.jobGroup.id", group)

    def _count_rows(self, span: Span, out) -> None:
        """Row count of a span's result, under a group no span owns."""
        t0 = time.perf_counter()
        if isinstance(out, DataFrame):
            self._set_group(f"perfbench-{self.run_id}-bookkeeping")
            span.rows_out = out.count()
            self._set_group(self._stack[-1].group if self._stack else None)
        elif hasattr(out, "n_pairs"):  # debug.evaluation.PairMetrics
            span.rows_out = out.n_pairs
        if self._stack:
            self._stack[-1].bookkeeping_s += time.perf_counter() - t0

    # -- counters -----------------------------------------------------------
    def collect(self) -> None:
        """Fill every span's Spark counters from the status store."""
        jsc = self.sc._jsc.sc()
        jsc.listenerBus().waitUntilEmpty()
        store = jsc.statusStore()
        jvm = self.sc._jvm
        mapper = jvm.com.fasterxml.jackson.databind.ObjectMapper()
        mapper.registerModule(
            getattr(getattr(jvm.com.fasterxml.jackson.module.scala, "DefaultScalaModule$"),
                    "MODULE$")
        )
        jobs = json.loads(mapper.writeValueAsString(store.jobsList(None)))
        stages: dict[int, list[dict]] = {}
        for st in json.loads(mapper.writeValueAsString(store.stageList(
            None, False, False, getattr(store, "stageList$default$4")(), None
        ))):
            stages.setdefault(st["stageId"], []).append(st)
        by_group = {s.group: s for s in self.spans}
        for job in jobs:
            span = by_group.get(job.get("jobGroup"))
            if span is None:
                continue
            span.jobs += 1
            if job.get("submissionTime") and job.get("completionTime"):
                span.job_intervals.append((
                    job["submissionTime"] / 1e3 - self._epoch_offset,
                    job["completionTime"] / 1e3 - self._epoch_offset,
                ))
            for stage_id in job["stageIds"]:
                if stage_id not in stages:
                    raise RuntimeError(
                        f"stage {stage_id} of span {span.name} left the status store; "
                        "raise spark.ui.retainedStages"
                    )
                for attempt in stages[stage_id]:
                    span.failed_tasks += attempt["numFailedTasks"]
                    if attempt["status"] == "COMPLETE":
                        span.exec_s += attempt["executorRunTime"] / 1e3
                        span.shuffle_bytes += attempt["shuffleWriteBytes"]

    def dump(self, path) -> None:
        with open(path, "w") as f:
            json.dump([asdict(s) for s in self.spans], f)


# -- aggregation ----------------------------------------------------------

def _union_length(intervals) -> float:
    total, cur_start, cur_end = 0.0, None, None
    for s, e in sorted(intervals):
        if cur_end is None or s > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = s, e
        else:
            cur_end = max(cur_end, e)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def span_times(spans: list[Span]) -> dict[int, tuple[float, float]]:
    """``span_id -> (self_s, driver_s)``.

    ``self_s`` is the span minus its children's spans and the row counts
    made inside it for them. ``driver_s`` is ``self_s`` minus the union of the
    run intervals of the span's own Spark jobs: planning, Python and
    collect time.
    """
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    out = {}
    for s in spans:
        kids = children.get(s.span_id, [])
        kid_ivs = [(k.start, k.end) for k in kids]
        self_s = (s.end - s.start) - _union_length(kid_ivs) - s.bookkeeping_s
        job_ivs = [(max(a, s.start), min(b, s.end)) for a, b in s.job_intervals]
        job_ivs = [(a, b) for a, b in job_ivs if b > a]
        busy = _union_length(kid_ivs + job_ivs) - _union_length(kid_ivs)
        out[s.span_id] = (max(self_s, 0.0), max(self_s - busy, 0.0))
    return out


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer sums over the spans of one traced iteration."""
    times = span_times(spans)
    by_id = {s.span_id: s for s in spans}
    out: dict[str, float] = {}
    for layer in LAYERS:
        mine = [s for s in spans if s.name == layer]
        # rows_out counts outermost calls only (a layer may call itself,
        # e.g. cluster_pair_metrics -> pair_metrics).
        top = [s for s in mine if s.parent is None or by_id[s.parent].name != layer]
        out[f"{layer}.self_s"] = sum(times[s.span_id][0] for s in mine)
        out[f"{layer}.driver_s"] = sum(times[s.span_id][1] for s in mine)
        out[f"{layer}.exec_s"] = sum(s.exec_s for s in mine)
        out[f"{layer}.jobs"] = sum(s.jobs for s in mine)
        out[f"{layer}.shuffle_mb"] = sum(s.shuffle_bytes for s in mine) / 1e6
        out[f"{layer}.rows_out"] = sum(s.rows_out for s in top)

    def rows(*fns: str) -> int:
        return sum(s.rows_out for s in spans if s.fn in fns)

    def ratio(num: int, den: int) -> float:
        return num / den if den else 0.0

    out["core.purging.keep_ratio"] = ratio(
        rows("purge_blocks"), rows("loose_schema_blocking", "token_blocking")
    )
    out["core.filtering.keep_ratio"] = ratio(rows("filter_blocks"), rows("purge_blocks"))
    out["core.meta_blocking.keep_ratio"] = ratio(rows("meta_blocking"), rows("build_graph"))
    out["matching.matcher.keep_ratio"] = ratio(
        rows("threshold_matcher"), rows("add_similarities")
    )
    out["failed_tasks"] = sum(s.failed_tasks for s in spans)
    return out
