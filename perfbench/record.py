"""Refresh the recorded outputs in RECORD.json.

Run from the root of a checkout::

    python3 perfbench/record.py

For the default experiment seed and the held-out seed listed in RECORD.json
it runs one paper-suite pass and the served sweeps' local reference run,
then rewrites their verdict counts and output digests and the machine
fingerprint.  ``run.py`` checks outputs against these digests whenever it
is given one of the recorded seeds.  Findings are seed-for-seed
deterministic, so a digest changes only when the library's results do.
"""

from __future__ import annotations

import json
import os
import platform
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from workloads import RECORD, PaperSuite, ServedSweepCold, digest  # noqa: E402


def fingerprint() -> dict:
    import numpy

    try:
        import numba  # noqa: F401
    except ImportError:
        numba_state = "absent"
    else:
        numba_state = numba.__version__
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "numba": numba_state,
        "platform": platform.platform(),
    }


def main() -> int:
    data = json.loads(RECORD.read_text())
    work = Path.cwd() / ".perfbench" / "record"
    seeds = {}
    for seed in data["recorded_seeds"]:
        suite = PaperSuite(seed, work)
        suite.expected = {}
        measured = suite.run_pass(None)
        if measured.failed:
            print(f"seed {seed}: {measured.failed} experiments failed", file=sys.stderr)
            return 1
        sweep = ServedSweepCold(seed, work)
        sweep.setup()
        seeds[str(seed)] = {
            "paper-suite": {
                "verdicts_consistent": suite.verdicts_consistent,
                "digests": suite.digests,
            },
            "served-sweep": {"rows_digest": digest(sweep.reference_rows)},
        }
        print(f"seed {seed}: {suite.verdicts_consistent}/10 verdicts consistent")
    data["machine"] = fingerprint()
    data["seeds"] = seeds
    RECORD.write_text(json.dumps(data, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
