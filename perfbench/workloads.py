"""The benchmark's workloads: inputs, one timed pass, and output checks.

Every workload is a closed loop with a single caller.  A pass is the
workload's unit of work:

* ``paper-suite`` -- the ten registered experiments through
  ``run_experiment`` in id order, after ``clear_artifacts()``, so every pass
  pays what a fresh ``repro report`` pays.  An op is one experiment.
* ``served-sweep-cold`` -- a fresh ``BackgroundServer`` (default settings,
  a journal) over an empty store, the whole grid in one
  ``ServeClient.submit`` call, then shutdown.  An op is one grid point.
* ``served-sweep-warm`` -- the same grid, resubmitted to a fresh server
  that replays the journal and reopens the store the set-up filled.  Every
  point must come back ``cached``.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, NamedTuple, Optional

from layers import queue_waits
from tracer import Tracer

SRC = Path(__file__).resolve().parent.parent / "src"
RECORD = Path(__file__).resolve().parent / "RECORD.json"

#: Fields that measure time rather than results, stripped before comparing
#: rows (the same set the library's fused-sweep bench strips).
TIMING_FIELDS = {
    "mean_wall_time_s",
    "mean_slots_per_s",
    "dispatch_seconds",
    "run_seconds",
}
#: Findings keys that hold timings, not results.
TIMING_FINDINGS = {"wall_time_seconds"}
GRID_PROTOCOLS = ("cjz", "sawtooth-backoff")
SETUP_REPEATS = 3


def _span(tracer: Optional[Tracer], name: str, op: Optional[str] = None):
    return tracer.span(name, op) if tracer is not None else contextlib.nullcontext()


def fresh_import_seconds(modules: str) -> float:
    """Wall time of a fresh interpreter importing ``modules``."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    start = time.perf_counter()
    subprocess.run(
        [sys.executable, "-c", f"import {modules}"],
        env=env,
        check=True,
        stdout=subprocess.DEVNULL,
        timeout=120,
    )
    return time.perf_counter() - start


def recorded(seed: int, workload: str) -> dict:
    """What RECORD.json holds for ``workload`` at ``seed`` (may be empty)."""
    try:
        data = json.loads(RECORD.read_text())
    except (OSError, json.JSONDecodeError):
        return {}
    return data.get("seeds", {}).get(str(seed), {}).get(workload, {})


def digest(data) -> str:
    text = json.dumps(data, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


class Pass(NamedTuple):
    """One timed pass: its wall time and how many of its ops failed."""

    seconds: float
    ops: int
    failed: int


# --------------------------------------------------------------- paper suite


def findings_digest(findings: Dict[str, float]) -> str:
    return digest(
        {key: value for key, value in findings.items() if key not in TIMING_FINDINGS}
    )


def experiment_ok(result, expected_digest: Optional[str]) -> bool:
    """A finished experiment's output checks: a verdict, numeric findings,
    and findings equal to the expected ones when those are known."""
    if not isinstance(result.consistent_with_paper, bool) or not result.findings:
        return False
    if not all(isinstance(v, (int, float)) for v in result.findings.values()):
        return False
    return expected_digest is None or findings_digest(result.findings) == expected_digest


class PaperSuite:
    name = "paper-suite"

    def __init__(self, seed: int, work: Path, tiny: bool = False) -> None:
        from repro.experiments import ExperimentConfig, all_experiments

        self.config = (
            ExperimentConfig(scale="smoke", trials=2, seed=seed)
            if tiny
            else ExperimentConfig(scale="quick", seed=seed)
        )
        self.experiment_ids = sorted(all_experiments(), key=lambda e: int(e[1:]))
        self.ops_per_pass = len(self.experiment_ids)
        # Expected digests: the recorded ones at a recorded seed, else the
        # first pass's (later passes must reproduce it exactly).
        self.expected: Dict[str, str] = (
            {} if tiny else dict(recorded(seed, self.name).get("digests", {}))
        )
        self.digests: Dict[str, str] = {}
        self.verdicts_consistent = 0
        self.setup_failed = 0
        self.health_mismatches = 0
        self.waits: List[float] = []

    def setup(self) -> float:
        return statistics.median(
            [fresh_import_seconds("repro.experiments") for _ in range(SETUP_REPEATS)]
        )

    def run_pass(self, tracer: Optional[Tracer]) -> Pass:
        from repro.experiments import run_experiment
        from repro.sim.artifacts import clear_artifacts

        clear_artifacts()
        results = {}
        start = time.perf_counter()
        for experiment_id in self.experiment_ids:
            try:
                with _span(tracer, f"experiments.{experiment_id}", experiment_id):
                    results[experiment_id] = run_experiment(experiment_id, self.config)
            except Exception as exc:  # noqa: BLE001 -- a raising experiment is a failed op
                print(f"{experiment_id} raised {exc!r}", file=sys.stderr)
        seconds = time.perf_counter() - start
        return Pass(seconds, self.ops_per_pass, self.check(results))

    def check(self, results) -> int:
        """Failed ops of one pass; remembers digests and verdicts."""
        failed = 0
        consistent = 0
        for experiment_id in self.experiment_ids:
            result = results.get(experiment_id)
            if result is None or not experiment_ok(
                result, self.expected.get(experiment_id)
            ):
                failed += 1
                continue
            self.digests[experiment_id] = findings_digest(result.findings)
            self.expected.setdefault(experiment_id, self.digests[experiment_id])
            consistent += result.consistent_with_paper
        self.verdicts_consistent = consistent
        return failed


# ------------------------------------------------------------- served sweeps


def grid(seed: int, tiny: bool = False):
    """The four standard scenarios x {cjz, sawtooth-backoff} x 8 seeds."""
    from repro.spec import ProtocolSpec
    from repro.workloads import STANDARD_SCENARIOS

    scenarios = list(STANDARD_SCENARIOS.values())[: 1 if tiny else None]
    seeds = [seed * 8 + index for index in range(2 if tiny else 8)]
    horizon = 256 if tiny else 2048
    return [
        scenario.study_spec(
            protocol=ProtocolSpec(kind=kind), trials=2, seed=point_seed
        ).with_overrides({"horizon": horizon})
        for scenario in scenarios
        for kind in GRID_PROTOCOLS
        for point_seed in seeds
    ]


def row(study) -> Dict[str, float]:
    """A study's sweep row without timings or run-health provenance."""
    return {
        key: value
        for key, value in study.summary_row().items()
        if key not in TIMING_FIELDS and not key.startswith("health_")
    }


def health(study) -> Dict[str, float]:
    return {
        key: value
        for key, value in study.summary_row().items()
        if key.startswith("health_")
    }


def point_ok(outcome, expected_row, status: str) -> bool:
    # Compared as JSON so that a NaN mean (no finished node) equals itself.
    return (
        outcome.status == status
        and outcome.study is not None
        and json.dumps(row(outcome.study), sort_keys=True)
        == json.dumps(expected_row, sort_keys=True)
    )


class ServedSweep:
    """Shared set-up and pass logic of the cold and warm served sweeps."""

    warm = False

    def __init__(self, seed: int, work: Path, tiny: bool = False) -> None:
        self.seed = seed
        self.work = work
        self.tiny = tiny
        self.specs = []
        self.reference_rows: List[Dict[str, float]] = []
        self.reference_health: List[Dict[str, float]] = []
        self.ops_per_pass = 0
        self.verdicts_consistent = 0
        self.health_mismatches = 0
        self.setup_failed = 0
        self.waits: List[float] = []
        self._passes = 0

    def setup(self) -> float:
        """Fresh-interpreter import (median of several) plus the one-time
        in-process set-up: the grid, its local reference rows and, for the
        warm sweep, filling the store and journal."""
        imports = statistics.median(
            [
                fresh_import_seconds("repro.serve, repro.workloads")
                for _ in range(SETUP_REPEATS)
            ]
        )
        from repro.spec import StudyPlan

        start = time.perf_counter()
        self.specs = grid(self.seed, self.tiny)
        self.ops_per_pass = len(self.specs)
        results = StudyPlan(self.specs).run(fuse=False)
        self.reference_rows = [row(result.study) for result in results]
        self.reference_health = [health(result.study) for result in results]
        expected = recorded(self.seed, "served-sweep")
        if not self.tiny and expected.get("rows_digest") not in (
            None,
            digest(self.reference_rows),
        ):
            self.setup_failed += len(self.specs)
        if self.warm:
            fill = self.serve(self.work / "warm", "done", None)
            self.setup_failed += fill.failed
            self.health_mismatches = 0
            self.journal_bytes = (self.work / "warm" / "wal.jsonl").read_bytes()
        return imports + time.perf_counter() - start

    def serve(self, directory: Path, status: str, tracer: Optional[Tracer]) -> Pass:
        """One server life: start, submit the grid, stop; checks outside."""
        from repro.serve import BackgroundServer, ServeClient
        from repro.sim.artifacts import clear_artifacts

        clear_artifacts()
        mark = len(tracer.spans) if tracer is not None else 0
        start = time.perf_counter()
        with _span(tracer, "serve.server.start"):
            server = BackgroundServer(
                directory / "store", journal=directory / "wal.jsonl"
            ).__enter__()
        try:
            client = ServeClient(*server.address)
            with _span(tracer, "serve.client.submit") as submit:
                outcomes = client.submit(self.specs)
        finally:
            with _span(tracer, "serve.server.stop"):
                server.stop()
        seconds = time.perf_counter() - start
        if tracer is not None:
            self.waits.extend(queue_waits(tracer.spans[mark:], submit.start))
        return Pass(seconds, len(self.specs), self.check(outcomes, status))

    def check(self, outcomes, status: str) -> int:
        """Failed points: not ``status``, or a row unlike the reference."""
        failed = 0
        for outcome, expected, expected_health in zip(
            outcomes, self.reference_rows, self.reference_health
        ):
            if point_ok(outcome, expected, status):
                self.health_mismatches += health(outcome.study) != expected_health
            else:
                failed += 1
        self.verdicts_consistent = len(self.specs) - failed
        return failed


class ServedSweepCold(ServedSweep):
    name = "served-sweep-cold"

    def run_pass(self, tracer: Optional[Tracer]) -> Pass:
        directory = self.work / f"cold-{self._passes}"
        self._passes += 1
        try:
            return self.serve(directory, "done", tracer)
        finally:
            shutil.rmtree(directory, ignore_errors=True)


class ServedSweepWarm(ServedSweep):
    name = "served-sweep-warm"
    warm = True

    def run_pass(self, tracer: Optional[Tracer]) -> Pass:
        # Every pass replays the journal exactly as the set-up left it.
        (self.work / "warm" / "wal.jsonl").write_bytes(self.journal_bytes)
        return self.serve(self.work / "warm", "cached", tracer)


WORKLOADS = {
    cls.name: cls for cls in (PaperSuite, ServedSweepCold, ServedSweepWarm)
}


def measure(workload, seconds: float, tracer: Optional[Tracer]) -> List[Pass]:
    """Whole passes for about ``seconds``: at least one, and no pass that
    would start too late to finish in time."""
    passes: List[Pass] = []
    start = time.perf_counter()
    while True:
        passes.append(workload.run_pass(tracer))
        elapsed = time.perf_counter() - start
        if elapsed + passes[-1].seconds > seconds:
            return passes
