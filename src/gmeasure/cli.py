"""Reproducible experiment runner.

Subcommands: ``transfer``, ``couple``, ``renewal``, ``criteria``,
``pipeline``, ``selftest``.  Each run validates its configuration, executes
with an explicit seed where randomness is involved, and publishes CSV/JSON
artifacts into the output directory together with a manifest holding a
config hash and per-output checksums.  Identical configuration and seed
reproduce byte-identical artifacts.

Exit codes: 0 success; 1 any other gmeasure error (a truncation or
convergence failure, a failed selftest or ratio/renewal cross-check);
2 configuration error, every argparse error included; 3 enumeration budget
exceeded.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import sys
import tempfile
import time
from dataclasses import asdict, dataclass, field
from functools import partial
from pathlib import Path

import numpy as np
import scipy

from . import __version__
from .coupling import (
    BlockSchedule,
    check_dn_budget,
    check_mc_budget,
    constant_schedule,
    dbar,
    dn_bruteforce,
    estimate_disagreement,
    maximal_coupling,
)
from .criteria import (
    CUBIC_REMAINDER_K2,
    block_tv_bounds,
    certify_cubic_remainder,
    check_geometric_window_sums,
    check_rho_product_series,
    check_square_summable_variation,
    check_variation_o_sqrt,
    coupling_bound_ratio,
    geometric_blocks,
)
from .errors import DEFAULT_BUDGET, BudgetError, ConfigError, GMeasureError
from .gmodel import binary_alphabet, iid_model, load_model, variation_profile
from .renewal import (
    RenewalSpec,
    build_alphabeta,
    disagreement_bound_sweep,
    renewal_limit,
    renewal_solve,
)
from .tails import Exponential, FiniteRange, PowerLaw
from .transfer import TransferOperator, apply_Ln, stationary, uniqueness_diagnostic

__all__ = ["ExperimentConfig", "RunManifest", "run", "main"]


@dataclass
class ExperimentConfig:
    experiment: str
    params: dict
    outdir: Path
    seed: int | None = None

    def canonical(self) -> str:
        record = {"experiment": self.experiment, "params": self.params, "seed": self.seed}
        if "model" in self.params:
            # the model file's contents, not only its path, define the run
            record["model_sha256"] = _sha256(Path(self.params["model"]).read_bytes())
        return json.dumps(record, sort_keys=True)


@dataclass
class RunManifest:
    config_hash: str
    version: str
    wall_clock_s: float
    outputs: dict = field(default_factory=dict)
    environment: dict = field(default_factory=dict)


def _cells(column):
    """The cells of one column: ``str`` of each value.  A float64 array's
    distinct bit patterns are formatted once each, as Python floats; keying
    by bits, not by value, keeps 0.0 apart from -0.0."""
    if not (isinstance(column, np.ndarray) and column.dtype == np.float64):
        return map(str, column)
    _, first, inverse = np.unique(column.view(np.int64), return_index=True, return_inverse=True)
    return np.array([str(v) for v in column[first].tolist()], dtype=object)[inverse].tolist()


def _csv(comments: list[str], header: list[str], columns) -> bytes:
    """CSV artifact: '# ' comment lines, the header, then one row per index
    of the equal-length ``columns``.  A cell is ``str`` of its value, so a
    float's cell is its shortest round-trip repr whatever container it came
    in; a float64 array formats each distinct bit pattern once."""
    lines = [f"# {c}" for c in comments]
    lines.append(",".join(header))
    lines.extend(map(",".join, zip(*map(_cells, columns), strict=True)))
    return ("\n".join(lines) + "\n").encode()


def _json(record) -> bytes:
    return (json.dumps(record, indent=2, sort_keys=True) + "\n").encode()


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _convert(convert, text: str, what: str):
    try:
        value = convert(text)
    except ValueError:
        raise ConfigError(f"cannot parse {what} {text!r}") from None
    if isinstance(value, float) and not math.isfinite(value):
        raise ConfigError(f"{what} must be finite, got {text!r}")
    return value


def _numbers(text: str, convert, what: str) -> list:
    """Comma-separated list of numbers."""
    return [_convert(convert, v, what) for v in text.split(",")]


def _key_values(text: str, types: dict, optional=()) -> dict:
    """'k=v,...' with each value converted by ``types[k]``; the keys not in
    ``optional`` are required."""
    params = {}
    for part in text.split(","):
        key, sep, value = part.partition("=")
        if not sep or key not in types:
            raise ConfigError(f"cannot parse {part!r}: expected key=value, keys {sorted(types)}")
        params[key] = _convert(types[key], value, key)
    missing = sorted(types.keys() - params.keys() - set(optional))
    if missing:
        raise ConfigError(f"{text!r} is missing key(s) {', '.join(missing)}")
    return params


def _parse_schedule(text: str) -> BlockSchedule:
    """Schedule grammar: 'const:2', 'geom:l=1.5', or an explicit list '1,2,4'
    that must cover the run."""
    if text.startswith("const:"):
        return constant_schedule(_convert(int, text[len("const:"):], "block length"))
    if text.startswith("geom:"):
        return geometric_blocks(_key_values(text[len("geom:"):], {"l": float})["l"])
    return BlockSchedule(_numbers(text, int, "schedule"))


# kind -> (law, key types, optional keys); criteria index var_n from n = 0,
# so the power law is c * (n+1)**(-p)
_VARIATIONS = {
    "power_law": (lambda c, p: PowerLaw(c, p, offset=1), {"c": float, "p": float}, ()),
    "exponential": (Exponential, {"c": float, "r": float}, ()),
    "finite_range": (FiniteRange, {"M": int, "level": float}, ("level",)),
}


def _parse_variation(text: str):
    """Variation grammar: 'power_law:c=1,p=2' | 'exponential:c=1,r=0.5' |
    'finite_range:M=3'."""
    kind, sep, rest = text.partition(":")
    if not sep or kind not in _VARIATIONS:
        raise ConfigError(f"cannot parse variation model {text!r}")
    law, types, optional = _VARIATIONS[kind]
    return law(**_key_values(rest, types, optional))


def _seed(cfg: ExperimentConfig) -> int:
    if cfg.seed is None or cfg.seed < 0:
        raise ConfigError(f"{cfg.experiment} is stochastic: a non-negative seed is mandatory")
    return cfg.seed


def _positive(value, name: str):
    if value is None or value <= 0:
        raise ConfigError(f"{name} must be positive, got {value}")
    return value


def _rows(n_max: int) -> int:
    """n_max, once its n_max + 1 CSV rows (one per n) fit the budget."""
    if n_max + 1 > DEFAULT_BUDGET:
        raise BudgetError(f"n_max + 1 = {n_max + 1} rows exceeds budget {DEFAULT_BUDGET}")
    return n_max


# ---------------------------------------------------------------------------
# experiment bodies: each maps a configuration to {artifact name: bytes}


def _run_transfer(cfg: ExperimentConfig) -> dict[str, bytes]:
    p = cfg.params
    n_max = _rows(_positive(p["n_max"], "n_max"))
    rows = uniqueness_diagnostic(load_model(p["model"]), n_max, trunc_memory=p["trunc_memory"])
    return {"transfer.csv": _csv(
        ["oscillation: sup L^n f - inf L^n f for the transfer operator L",
         "truncation_error: bound on the surrogate-vs-true oscillation drift"],
        ["n", "oscillation", "truncation_error"],
        [[r.n for r in rows], *np.array([(r.oscillation, r.truncation_error) for r in rows]).T],
    )}


def _run_couple(cfg: ExperimentConfig) -> dict[str, bytes]:
    p = cfg.params
    schedule = _parse_schedule(p["schedule"])
    depth = _positive(p["depth"], "depth")
    n_traj = check_mc_budget(depth, _positive(p["trajectories"], "trajectories"))
    model = load_model(p["model"])
    dn_max = p["dn_max"]
    if dn_max < 0:
        raise ConfigError(f"dn_max must be >= 0, got {dn_max}")
    for n in range(1, dn_max + 1):  # budgets first: no sampling for a run that cannot finish
        check_dn_budget(model, schedule, n, p["tail_len"])
    summary = estimate_disagreement(
        model, schedule, depth, p["context_x"], p["context_y"], n_traj, _seed(cfg)
    )
    outputs = {"couple_mc.csv": _csv(
        ["empirical_disagreement: fraction of coupled pairs differing at coordinate -n"],
        ["coordinate", "empirical_disagreement", "stderr"],
        [range(0, -depth - 1, -1), summary.freq, summary.stderr],
    )}
    if dn_max:
        bounds = [dn_bruteforce(model, schedule, n, p["tail_len"]) for n in range(1, dn_max + 1)]
        outputs["couple_dn.csv"] = _csv(
            ["dn bounds: worst-case block-n total variation after B_{n-1} agreements"],
            ["n", "dn_lower", "dn_upper"],
            [range(1, dn_max + 1), *zip(*bounds)],
        )
    return outputs


def _run_renewal(cfg: ExperimentConfig) -> dict[str, bytes]:
    p = cfg.params
    d, b, K = p["d"], p["b"], _positive(p["K"], "K")
    ab = build_alphabeta(RenewalSpec(tuple(d[:K]), tuple(b[: K + 1]), K))
    n_max = 50 * ab.boundaries[-1] if p["n_max"] is None else p["n_max"]
    n_max = _rows(_positive(n_max, "n_max"))
    return {
        "renewal_u.csv": _csv(
            ["u_n: probability the dominating block chain disagrees at coordinate -n"],
            ["n", "u_n"],
            [range(n_max + 1), renewal_solve(ab, n_max)],
        ),
        "renewal_limit.csv": _csv(
            ["limit: renewal-theorem limit of u along the boundary lattice, per truncation K"],
            ["K", "limit"],
            zip(*disagreement_bound_sweep(tuple(d), tuple(b), range(1, K + 1))),
        ),
    }


def _run_criteria(cfg: ExperimentConfig) -> dict[str, bytes]:
    p = cfg.params
    vm = _parse_variation(p["variation"])
    reports = [
        check_square_summable_variation(vm),
        check_rho_product_series(vm, p["epsilon"]),
        check_variation_o_sqrt(vm),
        check_geometric_window_sums(vm, p["lam"]),
    ]
    return {
        "criteria.json": _json({
            "variation": p["variation"],
            "epsilon": p["epsilon"],
            "lambda": p["lam"],
            "reports": [asdict(r) for r in reports],
        }),
        "criteria_evidence.csv": _csv(
            ["verdict per criterion with scalar evidence where available"],
            ["criterion", "verdict", "evidence_limit"],
            zip(*((r.criterion, r.verdict, float(r.evidence.get("limit", math.nan)))
                  for r in reports)),
        ),
    }


def _run_pipeline(cfg: ExperimentConfig) -> dict[str, bytes]:
    """Variation profile -> block TV bounds -> dbar -> ratio/renewal bounds
    -> Monte Carlo comparison."""
    p = cfg.params
    schedule = _parse_schedule(p["schedule"])
    K_max = _positive(p["K_max"], "K_max")
    work = 0  # the closed-form and renewal sweeps cost K + B_{K+1} at each K
    for K in range(1, K_max + 1):
        work += K + schedule.B(K + 1)
        if work > DEFAULT_BUDGET:
            raise BudgetError(f"the K sweep to K_max = {K_max} exceeds budget {DEFAULT_BUDGET}")
    depth = _positive(p["depth"], "depth")
    n_traj = check_mc_budget(depth, _positive(p["trajectories"], "trajectories"))
    model = load_model(p["model"])
    seed = _seed(cfg)
    profile = variation_profile(model, schedule.B(K_max + 2))
    bounds = []
    for n in range(1, K_max + 2):
        btb = block_tv_bounds(profile, schedule, n)
        if btb.site_product is None:
            raise ConfigError(
                f"site ratios at block {n} exceed the Hellinger validity bound"
            )
        bounds.append(btb.site_product)
    dbar_seq = dbar(bounds[:-1], bounds[-1])
    lengths = [schedule.b(i) for i in range(1, K_max + 2)]
    sweep_ratio = coupling_bound_ratio(dbar_seq, lengths, range(1, K_max + 1))
    sweep_renewal = disagreement_bound_sweep(dbar_seq, lengths, range(1, K_max + 1))
    for (k1, r1), (k2, r2) in zip(sweep_ratio, sweep_renewal):
        if abs(r1 - r2) > 1e-12:
            raise GMeasureError(
                f"ratio/renewal cross-check failed at K={k1}: {r1!r} vs {r2!r}"
            )
    Ks, ratio_bounds = zip(*sweep_ratio)
    renewal_bounds = [r for _, r in sweep_renewal]
    best = min(renewal_bounds)
    summary = estimate_disagreement(
        model, schedule, depth, p["context_x"], p["context_y"], n_traj, seed
    )
    return {
        "pipeline_bounds.csv": _csv(
            ["R_K: asymptotic disagreement bound (closed form and renewal route agree)"],
            ["K", "ratio_bound", "renewal_bound"],
            [Ks, ratio_bounds, renewal_bounds],
        ),
        "pipeline_mc.csv": _csv(
            ["empirical disagreement vs the best asymptotic bound over the K sweep"],
            ["coordinate", "empirical_disagreement", "stderr", "bound"],
            [range(0, -depth - 1, -1), summary.freq, summary.stderr, np.full(depth + 1, best)],
        ),
        "pipeline_summary.json": _json({
            "dbar": [float(v) for v in dbar_seq],
            "bounds": {str(k): r for k, r in sweep_renewal},
            "best_bound": best,
            "max_block_truncation": summary.max_block_slack,
        }),
    }


def _run_selftest(cfg: ExperimentConfig) -> dict[str, bytes]:
    rng = np.random.default_rng(0)
    checks: list[tuple[str, bool]] = []

    ok = True
    for _ in range(200):
        p = rng.random(int(rng.integers(2, 64))) + 1e-9
        q = rng.random(len(p)) + 1e-9
        pair = maximal_coupling(p / p.sum(), q / q.sum())
        tv = 0.5 * float(np.abs(pair.p - pair.q).sum())
        ok &= abs(pair.tv - tv) < 1e-12
        ok &= np.abs(pair.joint.sum(axis=1) - pair.p).max() < 1e-12
        ok &= np.abs(pair.joint.sum(axis=0) - pair.q).max() < 1e-12
    checks.append(("maximal coupling TV identity", ok))

    ok = True
    for _ in range(20):
        K = int(rng.integers(1, 4))
        d = tuple(sorted(rng.uniform(0.05, 0.95, K), reverse=True))
        b = tuple(int(v) for v in rng.integers(1, 5, K + 1))
        spec = RenewalSpec(d, b, K)
        ab = build_alphabeta(spec)
        ok &= abs(sum(ab.alpha.values()) - 1.0) < 1e-12
        ratio = coupling_bound_ratio(d, b, [K])[0][1]
        ok &= abs(ratio - renewal_limit(ab)) < 1e-12
    checks.append(("renewal limit matches closed-form ratio", ok))

    model = iid_model(binary_alphabet(), (0.3, 0.7))
    op = TransferOperator(model)
    ones = np.ones(op.dim)
    checks.append(
        ("transfer operator preserves constants",
         float(np.abs(apply_Ln(op, ones, 5) - 1.0).max()) < 1e-14)
    )
    measure = stationary(op)
    checks.append(("stationary residual", measure.residual < 1e-12))
    checks.append(
        ("cubic remainder constant certified",
         certify_cubic_remainder(2.0, 20_000) >= 0.0 and CUBIC_REMAINDER_K2 > 0.125)
    )

    report = "\n".join(f"{'PASS' if ok else 'FAIL'}  {name}" for name, ok in checks)
    print(report)
    if not all(ok for _, ok in checks):
        raise GMeasureError("selftest failed")
    return {"selftest.txt": (report + "\n").encode()}


_RUNNERS = {
    "transfer": _run_transfer,
    "couple": _run_couple,
    "renewal": _run_renewal,
    "criteria": _run_criteria,
    "pipeline": _run_pipeline,
    "selftest": _run_selftest,
}


def run(cfg: ExperimentConfig) -> RunManifest:
    """Run one experiment and publish its artifacts.  The artifacts are
    checksummed in memory, written into a temporary directory beside
    ``cfg.outdir`` and renamed into place, manifest last, so a failed run
    leaves no partial artifacts."""
    if cfg.experiment not in _RUNNERS:
        raise ConfigError(f"unknown experiment {cfg.experiment!r}")
    started = time.perf_counter()
    outputs = _RUNNERS[cfg.experiment](cfg)
    manifest = RunManifest(
        config_hash=_sha256(cfg.canonical().encode()),
        version=__version__,
        wall_clock_s=time.perf_counter() - started,
        outputs={name: _sha256(data) for name, data in sorted(outputs.items())},
        environment={
            "python": platform.python_version(),
            "numpy": np.__version__,
            "scipy": scipy.__version__,
        },
    )
    # the manifest moves last: it never describes outputs not yet in place
    outputs["manifest.json"] = _json(asdict(manifest))
    cfg.outdir.parent.mkdir(parents=True, exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f".{cfg.outdir.name}.", dir=cfg.outdir.parent))
    try:
        for name, data in outputs.items():
            (work / name).write_bytes(data)
        cfg.outdir.mkdir(exist_ok=True)
        for name in outputs:
            os.replace(work / name, cfg.outdir / name)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return manifest


# ---------------------------------------------------------------------------
# argument parsing


class _Parser(argparse.ArgumentParser):
    """Reports a parse error as a ConfigError: one line and exit code 2."""

    def error(self, message):
        raise ConfigError(message)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="gmeasure",
        description="Numerics for g-function chains: couplings, renewal bounds, criteria.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    t = sub.add_parser("transfer", help="oscillation diagnostic of L^n f")
    t.add_argument("--model", required=True)
    t.add_argument("--n-max", type=int, default=30)
    t.add_argument("--trunc-memory", type=int, default=None)
    t.add_argument("--out", required=True)

    c = sub.add_parser("couple", help="Monte Carlo block coupling")
    c.add_argument("--model", required=True)
    c.add_argument("--schedule", default="const:1")
    c.add_argument("--depth", type=int, default=32)
    c.add_argument("--trajectories", type=int, default=1000)
    c.add_argument("--seed", type=int, required=True)
    c.add_argument("--context-x", default="1" * 32)
    c.add_argument("--context-y", default="0" * 32)
    c.add_argument("--dn-max", type=int, default=0)
    c.add_argument("--tail-len", type=int, default=3)
    c.add_argument("--out", required=True)

    r = sub.add_parser("renewal", help="renewal sequence and limits")
    r.add_argument("--d", type=partial(_numbers, convert=float, what="--d"), required=True,
                   help="comma-separated d_1..d_K")
    r.add_argument("--b", type=partial(_numbers, convert=int, what="--b"), required=True,
                   help="comma-separated b_1..b_{K+1}")
    r.add_argument("--K", type=int, required=True)
    r.add_argument("--n-max", type=int, default=None)
    r.add_argument("--out", required=True)

    k = sub.add_parser("criteria", help="closed-form uniqueness criteria")
    k.add_argument("--variation", required=True,
                   help="power_law:c=1,p=2 | exponential:c=1,r=0.5 | finite_range:M=3")
    k.add_argument("--epsilon", type=partial(_convert, float, what="--epsilon"), default=0.1)
    k.add_argument("--lam", type=partial(_convert, float, what="--lam"), default=2.0)
    k.add_argument("--out", required=True)

    pl = sub.add_parser("pipeline", help="bounds pipeline + Monte Carlo comparison")
    pl.add_argument("--model", required=True)
    pl.add_argument("--schedule", default="const:1")
    pl.add_argument("--K-max", type=int, default=8)
    pl.add_argument("--depth", type=int, default=48)
    pl.add_argument("--trajectories", type=int, default=2000)
    pl.add_argument("--seed", type=int, required=True)
    pl.add_argument("--context-x", default="1" * 48)
    pl.add_argument("--context-y", default="0" * 48)
    pl.add_argument("--out", required=True)

    st = sub.add_parser("selftest", help="quick internal consistency checks")
    st.add_argument("--out", default="selftest_out")

    return parser


def main(argv=None) -> int:
    try:
        params = vars(_build_parser().parse_args(argv))
        command, out, seed = params.pop("command"), params.pop("out"), params.pop("seed", None)
        run(ExperimentConfig(command, params, Path(out), seed))
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except BudgetError as exc:
        print(f"budget error: {exc}", file=sys.stderr)
        return 3
    except GMeasureError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
