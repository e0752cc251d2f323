"""Benchmark of the contention-resolution reproduction, end to end and per layer.

Run from the root of a checkout::

    python3 perfbench/run.py --workload paper-suite --seed 1 --seconds 10 --trace 0

``--trace 0`` measures the workload untraced and prints the end-to-end
metrics named in BENCHMARK.json.  ``--trace 1`` measures it untraced, then
again with span-recording wrappers on every layer's entry points, and prints
the per-layer metrics (tracing overhead included); the spans and a table of
seconds per op and per rung go to ``.perfbench/`` in the checkout.  The last
line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import shutil
import statistics
import sys
import threading
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def metric_specs(kind: str):
    """``[(name, unit)]`` of ``end_to_end`` or ``per_layer`` in BENCHMARK.json."""
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [(entry["name"], entry["unit"]) for entry in config[kind]]


def run(
    workload_name: str,
    seed: int,
    seconds: float,
    trace: bool,
    work: Path,
    tiny: bool = False,
) -> dict:
    """Set up, measure and check one workload; the result object."""
    import layers
    from tracer import Tracer
    from workloads import WORKLOADS, measure

    work.mkdir(parents=True, exist_ok=True)
    workload = WORKLOADS[workload_name](seed, work, tiny=tiny)
    setup_s = workload.setup()
    untraced = measure(workload, seconds, None)
    passes = list(untraced)
    # The mean, not the median: warm passes are bimodal here, and the median
    # of a run jumps between the modes while the mean moves smoothly.
    values = {
        "setup_s": setup_s,
        "pass_s": statistics.fmean(p.seconds for p in untraced),
    }
    values["ops_per_s"] = workload.ops_per_pass / values["pass_s"]
    values["verdicts_consistent"] = workload.verdicts_consistent

    if trace:
        tracer = Tracer()
        patches = layers.install(tracer)
        try:
            traced = measure(workload, seconds, tracer)
        finally:
            patches.restore()
        passes.extend(traced)
        values.update(
            layers.layer_metrics(
                tracer.spans,
                len(traced),
                [p.seconds for p in traced],
                [p.seconds for p in untraced],
                workload.waits,
                threading.get_ident(),
                [f"E{i}" for i in range(1, 11)],
            )
        )
        values["serve.health_field_mismatches"] = workload.health_mismatches / len(
            passes
        )
        write_trace(work, workload_name, seed, tracer, layers.rung_table(tracer.spans))
    values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    specs = metric_specs("per_layer" if trace else "end_to_end")
    attempted = sum(p.ops for p in passes) + workload.setup_failed
    failed = sum(p.failed for p in passes) + workload.setup_failed
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": values[name], "unit": unit} for name, unit in specs
        },
    }


def write_trace(work: Path, workload: str, seed: int, tracer, table) -> None:
    """Spans and the per-op, per-rung seconds table, written once at the end."""
    path = work / f"trace-{workload}-{seed}.json"
    path.write_text(
        json.dumps(
            {
                "fields": ["id", "parent", "name", "op", "thread", "start", "end", "attrs"],
                "spans": [span.to_list() for span in tracer.spans],
                "seconds_per_op_and_rung": table,
            }
        )
    )
    rungs = sorted({rung for row in table.values() for rung in row})
    print(f"seconds per op and rung ({path}):", file=sys.stderr)
    print("  op            " + "".join(f"{rung:>14}" for rung in rungs), file=sys.stderr)
    for op in sorted(table):
        cells = "".join(f"{table[op].get(rung, 0.0):14.3f}" for rung in rungs)
        print(f"  {op[:12]:<14}{cells}", file=sys.stderr)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print("error: no src/repro beside perfbench/; run from a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    # The benchmark measures the library's defaults: no fault injection,
    # no tuning knobs from the caller's environment.
    for key in [key for key in os.environ if key.startswith("REPRO_")]:
        del os.environ[key]
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    work = Path.cwd() / ".perfbench" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace), work)
    finally:
        for leftover in work.glob("*"):
            if leftover.is_dir():
                shutil.rmtree(leftover, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.rmdir()  # kept when it holds a trace
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
