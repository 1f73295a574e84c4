"""Benchmark workloads: inputs made from the seed, one iteration, its checks.

Both workloads are closed loops with one client and no think time: the
batch job, or the demo user, waits for each result before the next
request. The input is ``er_synth.generate(n_entities=N_ENTITIES,
seed=<seed>)``, loaded once per process.

``pipeline``       the default ``run_pipeline`` (blocker -> matcher ->
                   clusterer), the paper's Figure 3 job.
``debug_reprune``  the demo's Figure 6e loop on one loaded dataset whose
                   6b blocks (t=0.3, no meta-blocking) are built in set-up:
                   four re-prune steps, CBS, chi2 and chi2 x entropy through
                   ``meta_blocking`` and chi2 x entropy through the paper's
                   broadcast scheme (``broadcast_mb``), each followed by the
                   debug panel (recall, precision, lost pairs and their
                   shared tokens). The broadcast output must equal the
                   Catalyst one.

Predicted links, per-layer metric -> end-to-end metric:

- ``looseschema.partitioning``, ``graph.connected_components``,
  ``core.profiles``, ``core.tokens``, ``matching.*``, ``core.clusterer``:
  ``wall_s`` on ``pipeline`` only; ``debug_reprune`` never calls them
  during its measured pass, so it must not move.
- ``core.meta_blocking.*`` and ``debug.evaluation``: ``wall_s`` on both
  workloads (``debug_reprune`` runs meta-blocking three times).
- ``core.broadcast_mb``: ``wall_s`` on ``debug_reprune`` only.
- In every layer a per-job or per-plan saving shows in ``driver_s`` and a
  per-row saving in ``exec_s``. At this size per-job costs dominate.

Every call into ``repro`` goes through a module attribute, so the per-layer
tracer sees it.
"""
from __future__ import annotations

import time
import traceback
from dataclasses import dataclass, field

from pyspark.sql import DataFrame, SparkSession

from repro.core import blocking, broadcast_mb, meta_blocking, pipeline
from repro.data import er_synth
from repro.debug import evaluation

# A fifth of the Abt-Buy scale (about 520 profiles): one process per run
# pays a cold JVM and a cold first iteration, and both workloads' runs must
# fit the benchmark's time budget on 4 cores. Spark's per-job costs dominate
# from this size up to n_entities=1500.
N_ENTITIES = 300

# Figure 6e and its two ablations, all WNP over the 6b blocks.
REPRUNE_STEPS = (
    ("cbs", dict(scheme="cbs", use_entropy=False)),
    ("chi2", dict(scheme="chi2", use_entropy=False)),
    ("chi2_entropy", dict(scheme="chi2", use_entropy=True)),
)

# Output counts of this commit at seed 7 and N_ENTITIES. Other seeds are
# checked only by the seed-independent rules in each iteration.
PINNED_SEED = 7
PINNED = {
    "pipeline": {
        "profiles": 1772, "tokens": 10232, "attr_clusters": 7, "entropies": 3,
        "blocks_raw": 4972, "blocks_purged": 4203, "blocks": 3582,
        "candidates": 3551, "similarities": 3551, "matches": 210, "clusters": 395,
    },
    "debug_reprune": {
        "cbs.candidates": 3566, "cbs.lost_pairs": 2,
        "chi2.candidates": 3527, "chi2.lost_pairs": 1,
        "chi2_entropy.candidates": 3551, "chi2_entropy.lost_pairs": 1,
        "broadcast.candidates": 3551, "broadcast.lost_pairs": 1,
    },
}


@dataclass
class Inputs:
    a: DataFrame
    b: DataFrame
    gt: DataFrame
    seed: int
    # debug_reprune only: the 6b blocker output built in set-up.
    tokens: DataFrame | None = None
    blocks: DataFrame | None = None
    entropies: DataFrame | None = None


@dataclass
class Iteration:
    """What one iteration of a workload produced."""

    wall_s: float = 0.0
    step_s: dict[str, float] = field(default_factory=dict)
    counts: dict[str, int] = field(default_factory=dict)
    panel: dict[str, float] = field(default_factory=dict)
    failures: list[str] = field(default_factory=list)
    steps_attempted: int = 0
    steps_failed: int = 0


class Tally:
    """Attempts and failures over every iteration and debug step run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def run(self, fn, spark: SparkSession, inp: Inputs, *, panel: bool = False) -> Iteration:
        """One iteration of ``fn``; an exception counts as a failed iteration."""
        it = Iteration()
        try:
            fn(spark, inp, it, panel=panel)
        except Exception as e:  # reported and counted, the benchmark goes on
            traceback.print_exc()
            it.failures.append(f"raised {type(e).__name__}: {e}")
        self.attempted += 1 + it.steps_attempted
        self.failed += bool(it.failures) + it.steps_failed
        self.failures += it.failures
        return it

    def fail(self, message: str) -> None:
        self.failed += 1
        self.failures.append(message)


def load_inputs(spark: SparkSession, seed: int) -> Inputs:
    ds = er_synth.generate(n_entities=N_ENTITIES, seed=seed)
    a, b, gt = (df.localCheckpoint(eager=True) for df in er_synth.to_spark(spark, ds))
    return Inputs(a, b, gt, seed)


def _pairs(df: DataFrame) -> set[tuple[int, int]]:
    return {(int(r.p1), int(r.p2)) for r in df.select("p1", "p2").collect()}


def _check_pins(name: str, it: Iteration, seed: int) -> None:
    if seed != PINNED_SEED:
        return
    for key, want in PINNED[name].items():
        got = it.counts.get(key)
        if got != want:
            it.failures.append(f"{key}: {got} != pinned {want}")


def run_pipeline(spark: SparkSession, inp: Inputs, it: Iteration, *, panel: bool) -> None:
    """One default ``run_pipeline``, its row counts and checks."""
    t0 = time.perf_counter()
    out = pipeline.run_pipeline(spark, inp.a, inp.b)
    for key in ("profiles", "tokens", "attr_clusters", "entropies", "blocks_raw",
                "blocks_purged", "blocks", "candidates", "similarities",
                "matches", "clusters"):
        it.counts[key] = out[key].count()
    clustered = {int(r.pid) for r in out["clusters"].select("pid").collect()}
    endpoints = {p for pair in _pairs(out["matches"]) for p in pair}
    if clustered != endpoints:
        it.failures.append(
            f"clustered profiles ({len(clustered)}) != match endpoints ({len(endpoints)})"
        )
    it.wall_s = time.perf_counter() - t0
    _check_pins("pipeline", it, inp.seed)
    if panel:
        blk = evaluation.pair_metrics(blocking.candidate_pairs(out["blocks"]), inp.gt)
        mb = evaluation.pair_metrics(out["candidates"], inp.gt)
        cl = evaluation.cluster_pair_metrics(out["clusters"], inp.gt)
        it.panel = {
            "core.blocking.pair_recall": blk.recall,
            "core.blocking.pair_precision": blk.precision,
            "core.blocking.lost_pairs": blk.n_lost,
            "core.meta_blocking.pair_recall": mb.recall,
            "core.meta_blocking.pair_precision": mb.precision,
            "core.clusterer.pair_f1": cl.f1,
        }


def build_6b_blocks(spark: SparkSession, inp: Inputs) -> None:
    """Set-up of ``debug_reprune``: the 6b blocks the demo user re-prunes."""
    cfg = pipeline.BlockerConfig(lsh_threshold=0.3, run_meta_blocking=False)
    out = pipeline.run_blocker(spark, inp.a, inp.b, cfg)
    inp.tokens, inp.blocks, inp.entropies = out["tokens"], out["blocks"], out["entropies"]


def run_debug_reprune(spark: SparkSession, inp: Inputs, it: Iteration, *, panel: bool) -> None:
    """Four re-prune steps over the 6b blocks, each with the debug panel."""
    t0 = time.perf_counter()
    impls = [
        (label, lambda kw=kw: meta_blocking.meta_blocking(
            inp.blocks, entropies=inp.entropies, pruning="wnp", **kw))
        for label, kw in REPRUNE_STEPS
    ]
    impls.append(("broadcast", lambda: broadcast_mb.meta_blocking_broadcast(
        spark, inp.blocks, entropies=inp.entropies, pruning="wnp",
        **dict(REPRUNE_STEPS)["chi2_entropy"])))

    results = {}
    for label, impl in impls:
        it.steps_attempted += 1
        s0 = time.perf_counter()
        try:
            cands = impl().localCheckpoint(eager=True)
            m = evaluation.pair_metrics(cands, inp.gt)
            lost = evaluation.lost_pairs(cands, inp.gt).localCheckpoint(eager=True)
            n_lost = lost.count()
            explained = evaluation.explain_lost_pair(lost, inp.tokens)
            n_explained = explained.select("p1", "p2").distinct().count()
        except Exception:
            it.steps_failed += 1
            raise
        it.step_s[label] = time.perf_counter() - s0
        it.counts[f"{label}.candidates"] = m.n_pairs
        it.counts[f"{label}.lost_pairs"] = n_lost
        if n_lost != m.n_lost or n_explained > n_lost:
            it.steps_failed += 1
            it.failures.append(f"{label}: lost_pairs {n_lost}, pair_metrics lost "
                               f"{m.n_lost}, explained {n_explained}")
        results[label] = (cands, m)

    sym_diff = len(_pairs(results["broadcast"][0]) ^ _pairs(results["chi2_entropy"][0]))
    if sym_diff:
        it.steps_failed += 1
        it.failures.append(f"broadcast vs Catalyst chi2 x entropy: {sym_diff} pairs differ")
    it.wall_s = time.perf_counter() - t0
    _check_pins("debug_reprune", it, inp.seed)
    if panel:
        mb = results["chi2_entropy"][1]
        it.panel = {
            "core.blocking.pair_recall": 0.0,
            "core.blocking.pair_precision": 0.0,
            "core.blocking.lost_pairs": 0,
            "core.meta_blocking.pair_recall": mb.recall,
            "core.meta_blocking.pair_precision": mb.precision,
            "core.clusterer.pair_f1": 0.0,
        }


# name -> (set-up after loading the input, one iteration)
WORKLOADS = {
    "pipeline": (None, run_pipeline),
    "debug_reprune": (build_6b_blocks, run_debug_reprune),
}

# Traced-run cross-check: the rows a traced entry point returned, summed
# over its calls, must equal these untraced output counts.
SPAN_ROWS = {
    "pipeline": {
        "load_clean_clean": ("profiles",),
        "tokenize": ("tokens",),
        "partition_attributes": ("attr_clusters",),
        "cluster_entropies": ("entropies",),
        "loose_schema_blocking": ("blocks_raw",),
        "purge_blocks": ("blocks_purged",),
        "filter_blocks": ("blocks",),
        "meta_blocking": ("candidates",),
        "add_similarities": ("similarities",),
        "threshold_matcher": ("matches",),
        "cluster_entities": ("clusters",),
    },
    "debug_reprune": {
        "meta_blocking": tuple(f"{label}.candidates" for label, _ in REPRUNE_STEPS),
        "meta_blocking_broadcast": ("broadcast.candidates",),
        "lost_pairs": tuple(f"{label}.lost_pairs" for label, _ in REPRUNE_STEPS)
        + ("broadcast.lost_pairs",),
    },
}
