"""Self-test of the benchmark itself.

Run from the root of a checkout::

    python3 perfbench/selftest.py

It checks that BENCHMARK.json keeps to its schema, that a tiny pass of every
workload emits every named metric with its unit (traced and untraced), that
a corrupted findings value and a corrupted served row each count as a failed
op, and that the command fails cleanly in a directory holding only the
benchmark.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = Path.cwd() / ".perfbench" / "selftest"
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def check_schema() -> None:
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(config) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }
    assert isinstance(config["run_seconds"], int) and 1 <= config["run_seconds"] <= 60
    assert 2 <= len(config["workloads"]) <= 8
    assert 1 <= len(config["end_to_end"]) <= 16
    assert 1 <= len(config["per_layer"]) <= 128
    names = []
    for workload in config["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
        names.append(workload["name"])
    for metric in config["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in config["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    for metric in config["end_to_end"] + config["per_layer"]:
        assert UNIT.match(metric["unit"]), metric
        assert metric["better"] in ("lower", "higher"), metric
        names.append(metric["name"])
    assert all(NAME.match(name) for name in names)
    assert len(names) == len(set(names)), "a name is used twice"
    setup = next(m for m in config["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in config["end_to_end"])
    assert len(json.dumps(config)) <= 64 * 1024


def check_tiny_passes() -> None:
    import run
    from workloads import WORKLOADS

    for workload in WORKLOADS:
        for trace in (False, True):
            result = run.run(
                workload, 3, 0.5, trace, WORK / f"{workload}-{int(trace)}", tiny=True
            )
            expected = run.metric_specs("per_layer" if trace else "end_to_end")
            emitted = [(n, m["unit"]) for n, m in result["metrics"].items()]
            assert emitted == expected, (workload, trace)
            assert all(
                isinstance(m["value"], (int, float)) for m in result["metrics"].values()
            )
            assert result["correct"] and result["failed"] == 0, (workload, result)
            assert result["attempted"] >= 1
            if not trace:
                assert all(m["value"] != 0 for m in result["metrics"].values()), result
            print(f"ok  tiny {workload} trace={int(trace)}")


def check_corrupted_findings() -> None:
    from repro.experiments import run_experiment
    from workloads import PaperSuite

    suite = PaperSuite(3, WORK, tiny=True)
    suite.experiment_ids = ["E10"]
    results = {"E10": run_experiment("E10", suite.config)}
    assert suite.check(results) == 0
    key = next(k for k in results["E10"].findings if k != "wall_time_seconds")
    results["E10"].findings[key] += 1.0
    assert suite.check(results) == 1, "a corrupted findings value must fail"
    assert suite.check({}) == 1, "an experiment that raised must fail"
    print("ok  corrupted findings value is a failed op")


def check_corrupted_row() -> None:
    from repro.serve import BackgroundServer, ServeClient
    from workloads import ServedSweepCold

    sweep = ServedSweepCold(3, WORK / "corrupt", tiny=True)
    sweep.setup()
    with BackgroundServer(WORK / "corrupt" / "store") as server:
        client = ServeClient(*server.address)
        outcomes = client.submit(sweep.specs)
        resubmitted = client.submit(sweep.specs)
    assert sweep.check(outcomes, "done") == 0
    assert sweep.check(outcomes, "cached") == len(outcomes), "status is checked"
    resubmitted[0].study.results[0].total_successes += 1
    assert sweep.check(resubmitted, "done") == 1, "a corrupted served row must fail"
    print("ok  corrupted served row is a failed op")


def check_fails_without_program() -> None:
    bare = WORK / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    command = json.loads((ROOT / "BENCHMARK.json").read_text())["command"]
    completed = subprocess.run(
        [sys.executable if command[0] == "python3" else command[0], *command[1:],
         "--workload", "paper-suite", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare,
        capture_output=True,
        text=True,
        timeout=180,
    )
    assert completed.returncode != 0, completed
    assert '"correct"' not in completed.stdout, completed.stdout
    shutil.rmtree(bare, ignore_errors=True)
    print("ok  fails cleanly without the program")


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    shutil.rmtree(WORK, ignore_errors=True)
    check_schema()
    print("ok  BENCHMARK.json schema")
    check_fails_without_program()
    check_corrupted_findings()
    check_corrupted_row()
    check_tiny_passes()
    shutil.rmtree(WORK, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
