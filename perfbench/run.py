"""SparkER benchmark: run one workload, check it, print its metrics.

Run from the repository root; it needs nothing installed beyond PySpark:

    python3 perfbench/run.py --cores 4 --shuffle-partitions 4 --driver-memory 2g \\
        --workload pipeline --seed 7 --seconds 15 --trace 0

One process starts one local Spark session (``--cores``,
``--shuffle-partitions`` and ``--driver-memory`` fix its launch), makes the
input from ``--seed``, sets the workload up (including its cold first run)
and then repeats it while ``--seconds`` allow, at least once, reporting
medians. With ``--trace 1`` it then runs one more iteration with every
layer entry point wrapped in a span (see ``tracing.py``) and reports the
per-layer metrics instead of the end-to-end ones.

The metrics and their units are the ones ``BENCHMARK.json`` declares. A
human-readable table goes to standard output first; the last line is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
Scratch files (Spark's local dirs, the span dump) go to ``.perfbench/``.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Launch settings; BENCHMARK.json's command fixes them for both sides
    # of a comparison.
    p.add_argument("--cores", type=int, required=True)
    p.add_argument("--shuffle-partitions", type=int, required=True)
    p.add_argument("--driver-memory", required=True)
    return p.parse_args(argv)


def launch(args: argparse.Namespace):
    """Start the Spark session with every setting the results depend on.

    ``PYTHONPATH`` must hold ``src`` before the JVM starts: the Python
    workers that run ``mapInPandas`` inherit it and import ``repro``.
    """
    tmp = WORK / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    os.environ["PYSPARK_PYTHON"] = sys.executable
    os.environ["TMPDIR"] = str(tmp)
    os.environ["SPARK_LOCAL_DIRS"] = str(tmp)
    # The JVMs' perf-data files would go to /tmp, outside the checkout.
    os.environ["SPARK_LAUNCHER_OPTS"] = "-XX:-UsePerfData"
    os.environ["PYSPARK_SUBMIT_ARGS"] = (
        f"--master local[{args.cores}] --driver-memory {args.driver_memory} pyspark-shell"
    )
    tempfile.tempdir = None
    sys.path.insert(0, str(SRC))

    from pyspark.sql import SparkSession

    spark = (
        SparkSession.builder.appName("perfbench")
        .master(f"local[{args.cores}]")
        .config("spark.driver.memory", args.driver_memory)
        .config("spark.driver.host", "127.0.0.1")
        .config("spark.driver.extraJavaOptions", f"-XX:-UsePerfData -Djava.io.tmpdir={tmp}")
        .config("spark.local.dir", str(tmp))
        .config("spark.ui.enabled", "false")
        .config("spark.ui.showConsoleProgress", "false")
        # The tracer reads every stage of an iteration from the status store.
        .config("spark.ui.retainedJobs", "100000")
        .config("spark.ui.retainedStages", "100000")
        .config("spark.sql.shuffle.partitions", str(args.shuffle_partitions))
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", "-1")
        .getOrCreate()
    )
    spark.sparkContext.setLogLevel("ERROR")
    return spark


def _descendants(pid: int) -> list[int]:
    """Every process below ``pid``, read from ``/proc``."""
    children: dict[int, list[int]] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as f:
                ppid = int(f.read().rsplit(")", 1)[1].split()[1])
        except (OSError, IndexError, ValueError):
            continue
        children.setdefault(ppid, []).append(int(entry))
    out, todo = [], [pid]
    while todo:
        kids = children.get(todo.pop(), [])
        out += kids
        todo += kids
    return out


def _alive(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/stat") as f:
            return f.read().rsplit(")", 1)[1].split()[0] != "Z"
    except OSError:
        return False


def shutdown(spark) -> None:
    """Stop Spark, then the JVM and its Python workers, and wait for them."""
    from pyspark import SparkContext

    proc = SparkContext._gateway.proc
    spawned = _descendants(proc.pid)
    spark.stop()
    SparkContext._gateway.shutdown()
    proc.stdin.close()  # the JVM exits when the driver's pipe closes
    try:
        proc.wait(timeout=60)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
    deadline = time.monotonic() + 30
    for pid in spawned:
        while _alive(pid):
            if time.monotonic() > deadline:
                os.kill(pid, 9)
            time.sleep(0.05)


def bench(spark, args, t0: float) -> tuple[dict, dict, object]:
    """Run the workload; returns (metrics, human-only figures, tally)."""
    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        raise SystemExit(f"unknown workload {args.workload!r}; "
                         f"pick one of {sorted(workloads.WORKLOADS)}")
    prepare, fn = workloads.WORKLOADS[args.workload]
    tally = workloads.Tally()
    inputs = workloads.load_inputs(spark, args.seed)
    if prepare is not None:
        prepare(spark, inputs)
    tally.run(fn, spark, inputs)  # the cold first iteration is set-up
    setup_s = time.perf_counter() - t0

    # Closed loop: the next iteration starts when the last one is checked.
    runs = []
    start = time.perf_counter()
    while True:
        runs.append(tally.run(fn, spark, inputs, panel=bool(args.trace)))
        if time.perf_counter() - start + runs[-1].wall_s > args.seconds:
            break
    wall_s = statistics.median(r.wall_s for r in runs)
    info = {
        "iterations": len(runs),
        **{f"step.{k}_s": statistics.median(r.step_s[k] for r in runs if k in r.step_s)
           for k in runs[-1].step_s},
        **{f"count.{k}": v for k, v in runs[-1].counts.items()},
    }
    if not args.trace:
        return {
            "wall_s": wall_s,
            "setup_s": setup_s,
            "driver_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }, info, tally

    tracer = tracing.Tracer(spark)
    tracer.install()
    try:
        with tracer.span(args.workload, args.workload) as root:
            traced = tally.run(fn, spark, inputs)
    finally:
        tracer.uninstall()
    tracer.collect()
    tracer.dump(WORK / f"trace-{args.workload}-seed{args.seed}.json")
    per_layer = {**tracing.layer_metrics(tracer.spans), **runs[-1].panel}
    root_self = tracing.span_times(tracer.spans)[root.span_id][0]
    layer_self = sum(v for k, v in per_layer.items() if k.endswith(".self_s"))
    traced_wall = root.end - root.start
    per_layer["trace.wall_s"] = traced_wall
    per_layer["trace.overhead_s"] = traced_wall - wall_s
    per_layer["trace.outside_s"] = root_self
    per_layer["trace.bookkeeping_s"] = traced_wall - layer_self - root_self

    # The traced iteration must produce what the untraced one did.
    if traced.counts != runs[-1].counts:
        tally.fail(f"traced counts {traced.counts} != untraced {runs[-1].counts}")
    for fn_name, keys in workloads.SPAN_ROWS[args.workload].items():
        got = sum(s.rows_out for s in tracer.spans if s.fn == fn_name)
        want = sum(runs[-1].counts.get(k, -1) for k in keys)
        if got != want:
            tally.fail(f"traced {fn_name} rows {got} != untraced {want}")
    return per_layer, info, tally


def main(argv: list[str] | None = None) -> int:
    t0 = time.perf_counter()
    args = parse_args(argv)
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = declared["per_layer" if args.trace else "end_to_end"]
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro package under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    spark = launch(args)
    try:
        metrics, info, tally = bench(spark, args, t0)
    finally:
        shutdown(spark)
        shutil.rmtree(WORK / "tmp", ignore_errors=True)
    missing = [m["name"] for m in declared if m["name"] not in metrics]
    if missing:
        print(f"perfbench: metrics not measured: {missing}", file=sys.stderr)
        return 3

    print(f"workload={args.workload} seed={args.seed} trace={args.trace} "
          f"attempted={tally.attempted} failed={tally.failed}")
    rows = [(m["name"], metrics[m["name"]], m["unit"]) for m in declared]
    rows.append(("failed_share", tally.failed / tally.attempted, "share"))
    rows += [(k, v, "s" if k.endswith("_s") else "count") for k, v in info.items()]
    for name, value, unit in rows:
        print(f"  {name:<44} {value:>14.4f} {unit}")
    for failure in tally.failures:
        print(f"  FAILED CHECK: {failure}")
    print(json.dumps({
        "correct": not tally.failures,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in declared},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
