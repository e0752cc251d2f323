"""Where the benchmark traces the library, and the per-layer metrics.

Every wrapper sits on a public entry point of one layer:

* experiments -- ``run_experiment`` (a span the workload opens itself);
* sim.runner  -- ``TrialRunner.run``, preceded by an ``explain_backend``
  dry run whose selected rung is compared with the rung that executed;
* sim.backends -- the per-trial slot kernels, the three study kernels and
  ``run_fused_group``; the rung is read from ``SimulationResult.backend``;
* metrics     -- ``MetricPipeline.update``;
* spec        -- ``StudySpec.run``, ``StudySpec.spec_hash``,
  ``StudyStore.get`` / ``put``;
* serve       -- ``ServeJournal.record`` / ``replay``, the protocol's
  ``encode_message`` / ``decode_line`` in both the client and the server
  module, and the client's ``study_from_payload``.
"""

from __future__ import annotations

import math
from collections import defaultdict
from typing import Dict, Iterable, List

from tracer import Patches, Span, Tracer, self_times

RUNGS = (
    "reference",
    "vectorized",
    "batched-study",
    "lockstep",
    "lockstep-jit",
    "fused",
)
KERNEL_SPANS = ("sim.backends.trial", "sim.backends.study", "sim.backends.fused")


def _slots(result) -> int:
    summary = getattr(result, "summary", None)
    return int(summary.total_slots) if summary is not None else int(result.horizon)


def _mismatch(selected: str, executed: set) -> bool:
    """Whether ``explain_backend``'s selected rung differs from what ran."""
    if selected.startswith("per-trial ("):
        inner = selected[len("per-trial (") : -1]
        allowed = {"reference", "vectorized"} if inner == "auto" else {inner}
        return not executed <= allowed
    return executed != {selected}


def install(tracer: Tracer) -> Patches:
    """Wrap every traced entry point; call ``restore()`` on the result."""
    from repro.metrics.pipeline import MetricPipeline
    from repro.serve import client as client_module
    from repro.serve import server as server_module
    from repro.serve.wal import ServeJournal
    from repro.sim import runner as runner_module
    from repro.sim.backends import fused as fused_module
    from repro.sim.backends.batched import BatchedStudyKernel
    from repro.sim.backends.compiled import CompiledStudyKernel
    from repro.sim.backends.lockstep import LockstepStudyKernel
    from repro.sim.backends.reference import ReferenceKernel
    from repro.sim.backends.vectorized import VectorizedKernel
    from repro.spec.store import StudyStore
    from repro.spec.study import StudySpec

    patches = Patches(tracer)
    # The op ids and fused-group hashes use the unwrapped hash, so that
    # tracing adds nothing to spec.spec_hash_calls.
    spec_hash = StudySpec.__dict__["spec_hash"]

    def trial_after(span, result, *args, **kwargs):
        span.attrs.update(rung=result.backend, trials=1, slots=_slots(result))

    for kernel in (ReferenceKernel, VectorizedKernel):
        patches.wrap(kernel, "run", "sim.backends.trial", after=trial_after)

    def study_after(name):
        def after(span, results, *args, **kwargs):
            if results is None:
                span.attrs.update(rung=name, trials=0, slots=0, bail=True)
                return
            span.attrs.update(
                rung=results[0].backend if results else name,
                trials=len(results),
                slots=sum(_slots(result) for result in results),
            )

        return after

    for kernel in (BatchedStudyKernel, CompiledStudyKernel, LockstepStudyKernel):
        patches.wrap(
            kernel, "run_study", "sim.backends.study", after=study_after(kernel.name)
        )

    def fused_after(span, studies, specs):
        span.attrs.update(
            rung="fused",
            group=len(specs),
            hashes=[spec_hash(spec) for spec in specs],
        )
        if studies is None:
            span.attrs.update(trials=0, slots=0, bail=True)
            return
        results = [result for study in studies for result in study.results]
        span.attrs.update(
            trials=len(results), slots=sum(_slots(result) for result in results)
        )

    patches.wrap(
        fused_module,
        "run_fused_group",
        "sim.backends.fused",
        op=lambda specs: spec_hash(specs[0]) if specs else None,
        after=fused_after,
    )

    original_run = runner_module.TrialRunner.__dict__["run"]

    def runner_run(self, trials, seed=None):
        with tracer.span("trace.explain_backend"):
            rows = self.explain_backend(trials)
        selected = next(row["backend"] for row in rows if row["status"] == "selected")
        span = tracer.start("sim.runner.run")
        try:
            study = original_run(self, trials, seed)
        finally:
            tracer.finish(span)
        executed = {result.backend for result in study.results}
        span.attrs.update(
            selected=selected,
            executed=sorted(executed),
            mismatch=_mismatch(selected, executed),
        )
        return study

    patches.replace(runner_module.TrialRunner, "run", runner_run)

    patches.wrap(MetricPipeline, "update", "metrics.pipeline_update")
    patches.wrap(
        StudySpec, "run", "spec.study_run", op=lambda spec, *a, **k: spec_hash(spec)
    )
    patches.wrap(StudySpec, "spec_hash", "spec.spec_hash")

    def get_after(span, study, *args, **kwargs):
        span.attrs["hit"] = study is not None

    patches.wrap(StudyStore, "get", "spec.store.get", after=get_after)
    patches.wrap(StudyStore, "put", "spec.store.put")
    patches.wrap(ServeJournal, "record", "serve.wal.record")
    patches.wrap(ServeJournal, "replay", "serve.wal.replay")
    for module in (client_module, server_module):
        patches.wrap(module, "encode_message", "serve.protocol.encode")
        patches.wrap(module, "decode_line", "serve.protocol.decode")
    patches.wrap(client_module, "study_from_payload", "serve.client.rehydrate")
    return patches


def queue_waits(spans: Iterable[Span], submit_start: float) -> List[float]:
    """Per job: submit to the start of the first call that executes it."""
    first: Dict[str, float] = {}
    for span in spans:
        if span.name == "spec.study_run":
            hashes = [span.op]
        elif span.name == "sim.backends.fused":
            hashes = span.attrs.get("hashes", [])
        else:
            continue
        for digest in hashes:
            first[digest] = min(first.get(digest, math.inf), span.start)
    return [start - submit_start for start in first.values()]


def _percentile(values: List[float], pct: float) -> float:
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1]


def tail_percentile(samples: int) -> float:
    """The highest whole percentile with at least ten samples beyond it."""
    if samples < 20:
        return 50.0
    return float(math.floor(100.0 * (1.0 - 10.0 / samples)))


def layer_metrics(
    spans: List[Span],
    passes: int,
    traced_seconds: List[float],
    untraced_seconds: List[float],
    waits: List[float],
    main_thread: int,
    experiment_ids: Iterable[str],
) -> Dict[str, float]:
    """Per-layer metrics of the traced passes, per pass where additive."""
    own = self_times(spans)
    per_pass = 1.0 / max(1, passes)
    total: Dict[str, float] = defaultdict(float)
    count: Dict[str, int] = defaultdict(int)
    for span in spans:
        total[span.name] += span.duration
        count[span.name] += 1

    metrics: Dict[str, float] = {}
    for experiment_id in experiment_ids:
        metrics[f"experiments.{experiment_id}_s"] = (
            total[f"experiments.{experiment_id}"] * per_pass
        )
    metrics["experiments.self_s"] = per_pass * sum(
        own[span.id] for span in spans if span.name.startswith("experiments.")
    )

    runner = [span for span in spans if span.name == "sim.runner.run"]
    metrics["sim.runner.studies"] = len(runner) * per_pass
    metrics["sim.runner.dispatch_self_s"] = (
        sum(own[span.id] for span in runner) * per_pass
    )
    metrics["sim.runner.explain_mismatches"] = (
        sum(1 for span in runner if span.attrs.get("mismatch")) * per_pass
    )

    outer = outer_kernel_spans(spans)
    rung_s: Dict[str, float] = defaultdict(float)
    rung_trials: Dict[str, int] = defaultdict(int)
    rung_slots: Dict[str, int] = defaultdict(int)
    for span in outer:
        rung = span.attrs.get("rung", "unknown")
        rung_s[rung] += span.duration
        rung_trials[rung] += span.attrs.get("trials", 0)
        rung_slots[rung] += span.attrs.get("slots", 0)
    for rung in RUNGS:
        metrics[f"sim.backends.{rung}.s"] = rung_s[rung] * per_pass
        metrics[f"sim.backends.{rung}.trials"] = rung_trials[rung] * per_pass
        metrics[f"sim.backends.{rung}.slots_per_s"] = (
            rung_slots[rung] / rung_s[rung] if rung_s[rung] > 0 else 0.0
        )
    traced_total = sum(traced_seconds)
    metrics["sim.backends.reference_share"] = (
        rung_s["reference"] / traced_total if traced_total > 0 else 0.0
    )
    studies = [span for span in outer if span.name == "sim.backends.study"]
    bails = sum(1 for span in studies if span.attrs.get("bail"))
    metrics["sim.backends.study_bails"] = bails * per_pass
    metrics["sim.backends.study_hit_ratio"] = (
        (len(studies) - bails) / len(studies) if studies else 0.0
    )

    metrics["metrics.pipeline_update_s"] = total["metrics.pipeline_update"] * per_pass
    metrics["spec.study_run_s"] = total["spec.study_run"] * per_pass
    metrics["spec.spec_hash_calls"] = count["spec.spec_hash"] * per_pass
    gets = [span for span in spans if span.name == "spec.store.get"]
    metrics["spec.store.get_s"] = total["spec.store.get"] * per_pass
    metrics["spec.store.get_calls"] = len(gets) * per_pass
    metrics["spec.store.hit_ratio"] = (
        sum(1 for span in gets if span.attrs.get("hit")) / len(gets) if gets else 0.0
    )
    metrics["spec.store.put_s"] = total["spec.store.put"] * per_pass
    metrics["spec.store.put_calls"] = count["spec.store.put"] * per_pass

    metrics["serve.wal.record_s"] = total["serve.wal.record"] * per_pass
    metrics["serve.wal.records"] = count["serve.wal.record"] * per_pass
    metrics["serve.wal.replay_s"] = total["serve.wal.replay"] * per_pass
    metrics["serve.server.start_s"] = total["serve.server.start"] * per_pass
    tail = tail_percentile(len(waits))
    metrics["serve.server.queue_wait_p50_s"] = _percentile(waits, 50) if waits else 0.0
    metrics["serve.server.queue_wait_tail_s"] = (
        _percentile(waits, tail) if waits else 0.0
    )
    metrics["serve.server.queue_wait_tail_pct"] = tail
    metrics["serve.server.queue_wait_samples"] = len(waits)
    groups = [
        span.attrs["group"] for span in spans if span.name == "sim.backends.fused"
    ]
    metrics["serve.server.fused_jobs_per_group"] = (
        sum(groups) / len(groups) if groups else 0.0
    )
    metrics["serve.client.rehydrate_s"] = total["serve.client.rehydrate"] * per_pass
    metrics["serve.protocol.encode_s"] = total["serve.protocol.encode"] * per_pass
    metrics["serve.protocol.decode_s"] = total["serve.protocol.decode"] * per_pass

    traced = sum(traced_seconds) / max(1, len(traced_seconds))
    untraced = sum(untraced_seconds) / max(1, len(untraced_seconds))
    main = [span for span in spans if span.thread == main_thread]
    metrics["trace.traced_pass_s"] = traced
    metrics["trace.untraced_pass_s"] = untraced
    metrics["trace.overhead_s"] = traced - untraced
    metrics["trace.overhead_share"] = (traced - untraced) / untraced if untraced else 0.0
    metrics["trace.self_coverage"] = (
        sum(own[span.id] for span in main) / traced_total if traced_total else 0.0
    )
    metrics["trace.spans"] = len(spans) * per_pass
    return metrics


def outer_kernel_spans(spans: List[Span]) -> List[Span]:
    """Kernel spans not nested in another kernel span.

    A rung is charged with its outermost kernel span only: a lockstep-jit
    attempt that demotes to numpy lockstep is one lockstep call.
    """
    names = {span.id: span.name for span in spans}
    return [
        span
        for span in spans
        if span.name in KERNEL_SPANS and names.get(span.parent) not in KERNEL_SPANS
    ]


def rung_table(spans: List[Span]) -> Dict[str, Dict[str, float]]:
    """Seconds per op (experiment id or spec hash) and per rung."""
    table: Dict[str, Dict[str, float]] = defaultdict(lambda: defaultdict(float))
    for span in outer_kernel_spans(spans):
        table[str(span.op)][span.attrs.get("rung", "unknown")] += span.duration
    return {op: dict(row) for op, row in table.items()}
