"""gmeasure benchmark: end-to-end metrics, or per-layer metrics with --trace 1.

Run from the root of a source checkout:

    python3 bench/run.py --workload mc_short_blocks --seed 1 --seconds 20 --trace 0

The package is imported from ``src/`` of the checkout this file sits in.
With ``--trace 0`` the run warms up with one iteration, then repeats the
workload's iteration for ``--seconds``, measuring set-up time in fresh
interpreters at even intervals between iterations, and reports medians of
times rescaled by the machine-speed probe of ``speed.py``.  With
``--trace 1`` it alternates untraced and traced iterations on the same CLI
seed; per-layer metrics come from the traced ones, unscaled, and
``trace.overhead_frac`` from the pairs.
Every operation's artifacts are checked, and the manifest checksums must
repeat for a repeated seed and change with the seed.  The last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  Scratch files and the trace
go to ``.bench_build/gmeasure-bench/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_build" / "gmeasure-bench"

MIN_ITERATIONS = 5   # distinct CLI seeds for the seed-change check
MIN_TRACED_PAIRS = 2
SETUP_REPEATS = 9   # set-up samples, spread evenly over the measuring time
SETUP_CODE = """\
import sys, time
started = time.perf_counter()
import gmeasure.cli
from gmeasure.gmodel import load_model
for path in sys.argv[1:]:
    load_model(path)
print(time.perf_counter() - started)
"""


def _import_program():
    """Import gmeasure from this checkout's src/, or exit 2 if it is absent."""
    if not (SRC / "gmeasure" / "__init__.py").is_file():
        print(f"gmeasure sources not found under {SRC}", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(SRC))
    import gmeasure

    if Path(gmeasure.__file__).resolve().parent != SRC / "gmeasure":
        print(f"imported gmeasure from {gmeasure.__file__}, not {SRC}", file=sys.stderr)
        raise SystemExit(2)


def machine_facts() -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def measure_setup(model_path: Path) -> float:
    """Import plus model load in a fresh interpreter, in seconds."""
    proc = subprocess.run(
        [sys.executable, "-c", SETUP_CODE, str(model_path)],
        env=dict(os.environ, PYTHONPATH=str(SRC)), cwd=ROOT,
        capture_output=True, text=True, timeout=60, check=True,
    )
    return float(proc.stdout.strip().splitlines()[-1])


def cli_seed(seed: int, i: int) -> int:
    """CLI seed of timed iteration i; the warm-up repeats iteration 0's."""
    return seed * 1000 + i


class Ledger:
    """Operation outcomes plus the determinism checks across iterations."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self._by_seed: dict[tuple, dict] = {}
        self._seeded: dict[str, dict[int, str]] = {}

    def record(self, ops) -> None:
        for op in ops:
            self.attempted += 1
            if op.ok and op.outputs:
                op.ok, op.note = self._deterministic(op)
            if not op.ok:
                self.failed += 1
                print(f"FAILED {op.name} (seed {op.seed}): {op.note}", file=sys.stderr)

    def _deterministic(self, op) -> tuple[bool, str]:
        # a seed-independent operation must repeat on every seed
        key = (op.name, op.seed if op.seeded_artifact else None)
        first = self._by_seed.setdefault(key, op.outputs)
        if first != op.outputs:
            return False, "manifest checksums differ from an earlier run with the same seed"
        if op.seeded_artifact:
            self._seeded.setdefault(op.name, {})[op.seed] = op.outputs[op.seeded_artifact]
        return True, ""

    def check_seed_changes(self) -> None:
        """Distinct seeds must not all give the same Monte Carlo artifact.

        Made on untraced runs only, which see at least MIN_ITERATIONS seeds:
        on mc_long_blocks a few seeds can all sample no disagreement."""
        for name, by_seed in self._seeded.items():
            if len(by_seed) >= 2 and len(set(by_seed.values())) == 1:
                self.failed += 1
                print(f"FAILED {name}: {len(by_seed)} seeds gave identical Monte Carlo "
                      "checksums", file=sys.stderr)


def run_iteration(workload, seed: int, scratch: Path, ledger: Ledger, tracer=None):
    outdir = scratch / f"iter-{seed}"
    try:
        if tracer is None:
            ops = workload.iteration(seed, outdir)
        else:
            with tracer.installed():
                ops = workload.iteration(seed, outdir, tracer)
    finally:
        shutil.rmtree(outdir, ignore_errors=True)
    ledger.record(ops)
    return ops


def _wall(ops) -> float:
    return sum(op.wall_s for op in ops)


def end_to_end(workload, seed, seconds, scratch, ledger) -> dict:
    """Times are rescaled to the reference speed of ``speed.py`` by probes
    taken between iterations and around every set-up sample."""
    from speed import probe, scale

    run_iteration(workload, cli_seed(seed, 0), scratch, ledger)  # warm-up
    walls, raw_walls, traj_walls, setups = [], [], [], []
    before = probe()
    started = time.perf_counter()
    i = 0
    while i < MIN_ITERATIONS or time.perf_counter() - started < seconds:
        ops = run_iteration(workload, cli_seed(seed, i), scratch, ledger)
        after = probe()
        factor = scale(before, after)
        walls.append(_wall(ops) * factor)
        raw_walls.append(_wall(ops))
        traj_walls.extend(op.wall_s * factor for op in ops if op.seeded_artifact)
        before = after
        i += 1
        # set-up sample k is due at k/SETUP_REPEATS of the measuring time, so
        # all are taken once the loop ends
        while (len(setups) < SETUP_REPEATS and time.perf_counter() - started
               >= len(setups) * seconds / SETUP_REPEATS):
            setup = measure_setup(workload.model_path)
            after = probe()
            setups.append(setup * scale(before, after))
            before = after
    wall_s = statistics.median(walls)
    print(f"{workload.name}: wall_s median {wall_s:.4f} s over {len(walls)} iterations "
          f"(unscaled {statistics.median(raw_walls):.4f} s), "
          f"setup_s over {len(setups)} interpreters")
    return {
        "setup_s": statistics.median(setups),
        "wall_s": wall_s,
        "traj_per_s": workload.trajectories / statistics.median(traj_walls),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def per_layer(workload, seed, seconds, scratch, ledger, trace_path: Path) -> dict:
    from tracing import Tracer, layer_metrics

    run_iteration(workload, cli_seed(seed, 0), scratch, ledger)  # warm-up
    traces, ratios = [], []
    bytes_written = 0
    started = time.perf_counter()
    i = 0
    while i < MIN_TRACED_PAIRS or time.perf_counter() - started < seconds:
        tracer = Tracer()
        walls = {}
        # alternate which side of the pair runs first
        for traced in ((False, True) if i % 2 == 0 else (True, False)):
            ops = run_iteration(workload, cli_seed(seed, i), scratch, ledger,
                                tracer if traced else None)
            walls[traced] = _wall(ops)
            if traced and i == 0:
                bytes_written = sum(op.bytes_written for op in ops)
        traces.append(tracer)
        ratios.append(walls[True] / walls[False])
        i += 1
    metrics = layer_metrics(traces)
    metrics["cli.bytes_written"] = bytes_written
    metrics["trace.overhead_frac"] = statistics.median(ratios) - 1.0
    trace_path.write_text(json.dumps({
        "workload": workload.name,
        "seed": seed,
        "machine": machine_facts(),
        "iterations": [{"cli_seed": cli_seed(seed, k), **t.to_json()}
                       for k, t in enumerate(traces)],
    }))
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    _import_program()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    facts = machine_facts()
    print("machine:", json.dumps(facts, sort_keys=True))
    WORK.mkdir(parents=True, exist_ok=True)
    scratch = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    scratch.mkdir()
    ledger = Ledger()
    try:
        workload = WORKLOADS[args.workload](scratch)
        if args.trace:
            trace_path = WORK / f"trace-{args.workload}-seed{args.seed}.json"
            metrics = per_layer(workload, args.seed, args.seconds, scratch, ledger,
                                trace_path)
        else:
            metrics = end_to_end(workload, args.seed, args.seconds, scratch, ledger)
            ledger.check_seed_changes()
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    units = declared_units("per_layer" if args.trace else "end_to_end")
    if set(units) != set(metrics):
        raise RuntimeError(f"measured metrics differ from BENCHMARK.json: "
                           f"{sorted(set(units) ^ set(metrics))}")
    print(json.dumps({
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


def _spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def declared_units(kind: str) -> dict[str, str]:
    """Metric name -> unit, in the order BENCHMARK.json declares them."""
    return {m["name"]: m["unit"] for m in _spec()[kind]}


def declared_workloads() -> list[str]:
    return [w["name"] for w in _spec()["workloads"]]


if __name__ == "__main__":
    sys.exit(main())
