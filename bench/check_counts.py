"""The benchmark's own test: computed counts repeat exactly for a fixed seed.

Runs every workload's traced mode twice with the same seed and the shortest
measuring time, then requires identical counts and a clean run (every
correctness and determinism check passed).  Run from the checkout root:

    python3 bench/check_counts.py

Exits 0 when every workload repeats, 1 otherwise.  Takes about two minutes
on two CPUs.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SEED = 3
EXACT_COUNTS = (
    "gmodel.eval.calls",
    "coupling.blocks",
    "coupling.words_per_block",
    "coupling.dn.states",
    "transfer.stationary.iters",
    "cli.bytes_written",
)


def traced_counts(workload: str) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(SEED), "--seconds", "0", "--trace", "1"],
        cwd=HERE.parent, capture_output=True, text=True, timeout=300, check=True,
    )
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        raise SystemExit(f"{workload}: run failed its checks\n{proc.stderr}")
    return {name: result["metrics"][name]["value"] for name in EXACT_COUNTS}


def main() -> int:
    sys.path.insert(0, str(HERE))
    from run import declared_workloads

    ok = True
    for workload in declared_workloads():
        first, second = (traced_counts(workload) for _ in range(2))
        same = first == second
        ok &= same
        print(f"{'PASS' if same else 'FAIL'}  {workload}: {first}"
              + ("" if same else f" then {second}"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
