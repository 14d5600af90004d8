"""The benchmark's workloads: inputs, one iteration of CLI calls, and checks.

Every workload runs in-process through ``gmeasure.cli.main(argv)`` (plus one
library call in ``exact_bounds``), so argument parsing, validation, CSV
writing and SHA-256 checksums are all timed.  An *operation* is one CLI
invocation or library call; it fails on a nonzero exit code or a failed
correctness check on its artifacts or return value.
"""

from __future__ import annotations

import csv
import json
import math
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

from gmeasure import cli, gmodel, transfer
from gmeasure.criteria import coupling_bound_ratio
from gmeasure.errors import GMeasureError

POWER_MODEL = """\
variant = long_range_linear
alphabet = 0,1
theta = 0.25
coeff_law = power_law
coeff_p = 2
coeff_mass = 0.5
"""

EXPONENTIAL_MODEL = """\
variant = long_range_linear
alphabet = 0,1
theta = 0.25
coeff_law = exponential
coeff_r = 0.7
coeff_mass = 0.5
"""

# the defaults of coupling.sample_block_coupling and transfer.stationary
TRUNC_TOL = 0.05
STATIONARY_TOL = 1e-13
SURROGATE_MEMORY = 14
OSCILLATION_ROUNDOFF = 4 * 2.0**-52

# a non-increasing dbar and growing block lengths, shaped like a pipeline's;
# the renewal run's cost is its n_max-row CSV, not these values
RENEWAL_D = (0.5, 0.4, 0.3, 0.25, 0.2, 0.15, 0.1, 0.08)
RENEWAL_B = (1, 1, 2, 2, 3, 3, 4, 4, 5)
RENEWAL_K = 8


@dataclass
class OpResult:
    name: str
    seed: int | None      # CLI seed when the operation is stochastic
    wall_s: float
    ok: bool
    note: str = ""
    outputs: dict = field(default_factory=dict)  # artifact -> sha256 (manifest)
    bytes_written: int = 0
    seeded_artifact: str | None = None  # artifact that must change with the seed


def _data_rows(path: Path) -> list[list[str]]:
    """CSV rows after the comment lines and the header."""
    lines = [ln for ln in path.read_text().splitlines() if not ln.startswith("#")]
    return list(csv.reader(lines[1:]))


def _number(text: str) -> float:
    """A float cell of a CLI CSV.  ``couple_dn.csv`` writes its dn_upper
    column as ``np.float64(x)`` under numpy 2 (``cli._write_csv`` applies
    ``repr`` to numpy scalars); the value inside is still checked."""
    if text.startswith("np.float64(") and text.endswith(")"):
        text = text[len("np.float64("):-1]
    return float(text)


def _cli(name: str, argv: list[str], outdir: Path, seed: int | None = None,
         seeded_artifact: str | None = None, check=None) -> OpResult:
    started = time.perf_counter()
    try:
        code = cli.main(argv + ["--out", str(outdir)])
    except Exception:  # an uncaught error is a traceback and exit 1 for a user
        traceback.print_exc()
        code = 1
    wall = time.perf_counter() - started
    result = OpResult(name, seed, wall, code == 0, seeded_artifact=seeded_artifact)
    if code != 0:
        result.note = f"exit code {code}"
        return result
    result.outputs = json.loads((outdir / "manifest.json").read_text())["outputs"]
    result.bytes_written = sum((outdir / a).stat().st_size for a in result.outputs)
    if check is not None:
        result.note = check(outdir)
        result.ok = not result.note
    return result


class Workload:
    """Base class: the model file lives in ``workdir``; subclasses define the
    operations of one iteration.  Loading the model is set-up work."""

    name = ""
    model = ""  # text of the workload's model file
    trajectories = 0  # sampled by the iteration's seeded operation

    def __init__(self, workdir: Path):
        self.model_path = workdir / f"{self.name}.gmodel"
        self.model_path.write_text(self.model)

    def iteration(self, seed: int, outdir: Path, tracer=None) -> list[OpResult]:
        raise NotImplementedError


class MonteCarloWorkload(Workload):
    """``pipeline``: bounds, then the Monte Carlo block coupling."""

    schedule = ""
    depth = 0
    context_len = 0
    k_max = 8

    def iteration(self, seed, outdir, tracer=None):
        argv = [
            "pipeline", "--model", str(self.model_path),
            "--schedule", self.schedule, "--K-max", str(self.k_max),
            "--depth", str(self.depth), "--trajectories", str(self.trajectories),
            "--seed", str(seed), "--context-x", "1" * self.context_len,
            "--context-y", "0" * self.context_len,
        ]
        return [_cli("pipeline", argv, outdir / "pipeline", seed,
                     "pipeline_mc.csv", self._check)]

    def _check(self, outdir: Path) -> str:
        summary = json.loads((outdir / "pipeline_summary.json").read_text())
        best = summary["best_bound"]
        if not summary["max_block_truncation"] < TRUNC_TOL:
            return f"block truncation {summary['max_block_truncation']} >= {TRUNC_TOL}"
        # deep coordinates, as in acceptance criterion 07
        sigma = math.sqrt(best * (1 - best) / self.trajectories)
        for coord, freq, _stderr, _bound in _data_rows(outdir / "pipeline_mc.csv"):
            if -int(coord) >= self.depth // 2 and float(freq) > best + 3 * sigma:
                return f"disagreement {freq} at {coord} exceeds bound {best} + 3 sigma"
        return ""


class ShortBlocks(MonteCarloWorkload):
    name = "mc_short_blocks"
    model = POWER_MODEL
    schedule = "const:1"
    depth = 64
    context_len = 64
    trajectories = 200


class LongBlocks(MonteCarloWorkload):
    name = "mc_long_blocks"
    model = EXPONENTIAL_MODEL
    schedule = "geom:l=1.5"
    depth = 34  # deepest depth the sampler's block_cap=12 admits
    context_len = 48
    trajectories = 8


class ExactBounds(Workload):
    """Exact bound routes, no sampler work beyond a small ``couple`` run."""

    name = "exact_bounds"
    model = POWER_MODEL
    trajectories = 20  # of the couple run
    couple_depth = 16

    def __init__(self, workdir):
        super().__init__(workdir)
        self.expected_limit = coupling_bound_ratio(RENEWAL_D, RENEWAL_B, [RENEWAL_K])[0][1]

    def iteration(self, seed, outdir, tracer=None):
        power = str(self.model_path)
        depth = self.couple_depth
        return [
            _cli("transfer", ["transfer", "--model", power, "--trunc-memory",
                              str(SURROGATE_MEMORY), "--n-max", "200"],
                 outdir / "transfer", check=self._check_transfer),
            _cli("couple", ["couple", "--model", power, "--schedule", "const:1",
                            "--depth", str(depth), "--trajectories",
                            str(self.trajectories), "--seed", str(seed),
                            "--context-x", "1" * depth, "--context-y", "0" * depth,
                            "--dn-max", "6", "--tail-len", "6"],
                 outdir / "couple", seed, "couple_mc.csv", self._check_dn),
            _cli("renewal", ["renewal", "--d", ",".join(map(str, RENEWAL_D)),
                             "--b", ",".join(map(str, RENEWAL_B)),
                             "--K", str(RENEWAL_K), "--n-max", "200000"],
                 outdir / "renewal", check=self._check_renewal),
            _cli("criteria", ["criteria", "--variation", "power_law:c=1,p=2"],
                 outdir / "criteria", check=self._check_criteria),
            self._stationary(tracer),
        ]

    def _stationary(self, tracer) -> OpResult:
        """Library call: no subcommand exposes the stationary solve."""
        started = time.perf_counter()
        try:
            model = gmodel.load_model(self.model_path)
            surrogate, _, _ = gmodel.finite_memory_surrogate(model, SURROGATE_MEMORY)
            op = transfer.TransferOperator(surrogate)
            if tracer is not None:
                tracer.count_calls(op, "apply_dual", "transfer.apply_dual")
            measure = transfer.stationary(op, tol=STATIONARY_TOL)
        except GMeasureError as exc:
            return OpResult("stationary", None, time.perf_counter() - started, False,
                            f"{type(exc).__name__}: {exc}")
        wall = time.perf_counter() - started
        note = ""
        if not measure.residual < STATIONARY_TOL:
            note = f"residual {measure.residual} >= {STATIONARY_TOL}"
        elif abs(float(measure.probs.sum()) - 1.0) > 1e-12:
            note = f"probabilities sum to {float(measure.probs.sum())!r}"
        elif not measure.unique:
            note = "stationary measure not flagged unique"
        return OpResult("stationary", None, wall, not note, note)

    @staticmethod
    def _check_transfer(outdir: Path) -> str:
        # L is a sup-norm contraction, so the oscillation cannot grow; at
        # roundoff level it may exceed its running minimum by a few ulps of 1
        # (L^n f takes values in [0, 1] and each step rounds each entry twice),
        # and comparing with the minimum keeps such moves from adding up
        osc = [float(row[1]) for row in _data_rows(outdir / "transfer.csv")]
        lowest = osc[0]
        for n, value in enumerate(osc[1:], start=1):
            if value > lowest + OSCILLATION_ROUNDOFF:
                return f"oscillation {value!r} at n={n} exceeds its minimum {lowest!r}"
            lowest = min(lowest, value)
        return ""

    @staticmethod
    def _check_dn(outdir: Path) -> str:
        for n, lower, upper in _data_rows(outdir / "couple_dn.csv"):
            if _number(lower) > _number(upper):
                return f"dn_lower {lower} > dn_upper {upper} at n={n}"
        return ""

    def _check_renewal(self, outdir: Path) -> str:
        limits = {int(k): float(v) for k, v in _data_rows(outdir / "renewal_limit.csv")}
        if abs(limits[RENEWAL_K] - self.expected_limit) > 1e-12:
            return f"K={RENEWAL_K} limit {limits[RENEWAL_K]!r} != {self.expected_limit!r}"
        return ""

    @staticmethod
    def _check_criteria(outdir: Path) -> str:
        reports = json.loads((outdir / "criteria.json").read_text())["reports"]
        return "" if len(reports) == 4 else f"{len(reports)} criteria reports, expected 4"


WORKLOADS = {w.name: w for w in (ShortBlocks, LongBlocks, ExactBounds)}
