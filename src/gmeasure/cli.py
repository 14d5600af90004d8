"""Reproducible experiment runner.

Subcommands: ``transfer``, ``couple``, ``renewal``, ``criteria``,
``pipeline``, ``selftest``.  Each run validates its configuration, executes
with an explicit seed where randomness is involved, writes CSV/JSON
artifacts into the output directory, and records a manifest with a config
hash and per-output checksums.  Identical configuration and seed reproduce
byte-identical artifacts.

Exit codes: 0 success, 2 configuration error, 3 enumeration budget exceeded.
"""

from __future__ import annotations

import argparse
import dataclasses
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
from pathlib import Path

import numpy as np
import scipy

from . import __version__
from .coupling import (
    BlockSchedule,
    check_dn_budget,
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
from .errors import BudgetError, ConfigError, GMeasureError
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
            record["model_sha256"] = _sha256(Path(self.params["model"]))
        return json.dumps(record, sort_keys=True)


@dataclass
class RunManifest:
    config_hash: str
    version: str
    wall_clock_s: float
    outputs: dict = field(default_factory=dict)
    environment: dict = field(default_factory=dict)


def _write_csv(path: Path, comments: list[str], header: list[str], rows) -> None:
    lines = [f"# {c}" for c in comments]
    lines.append(",".join(header))
    for row in rows:
        # repr(float(v)) writes numpy floats as plain numbers, not np.float64(...)
        lines.append(",".join(repr(float(v)) if isinstance(v, float) else str(v) for v in row))
    path.write_text("\n".join(lines) + "\n")


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _convert(convert, text: str, what: str):
    try:
        return convert(text)
    except ValueError:
        raise ConfigError(f"cannot parse {what} {text!r}") from None


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


# ---------------------------------------------------------------------------
# experiment bodies


def _run_transfer(cfg: ExperimentConfig) -> dict[str, Path]:
    p = cfg.params
    model = load_model(p["model"])
    rows = uniqueness_diagnostic(
        model,
        _positive(p["n_max"], "n_max"),
        trunc_memory=p.get("trunc_memory"),
    )
    out = cfg.outdir / "transfer.csv"
    _write_csv(
        out,
        ["oscillation: sup L^n f - inf L^n f for the transfer operator L",
         "truncation_error: bound on the surrogate-vs-true oscillation drift"],
        ["n", "oscillation", "truncation_error"],
        [(r.n, r.oscillation, r.truncation_error) for r in rows],
    )
    return {"transfer.csv": out}


def _run_couple(cfg: ExperimentConfig) -> dict[str, Path]:
    p = cfg.params
    model = load_model(p["model"])
    schedule = _parse_schedule(p["schedule"])
    depth = _positive(p["depth"], "depth")
    n_traj = _positive(p["trajectories"], "trajectories")
    dn_max = p.get("dn_max", 0)
    if dn_max < 0:
        raise ConfigError(f"dn_max must be >= 0, got {dn_max}")
    tail_len = p.get("tail_len", 3)
    for n in range(1, dn_max + 1):  # budgets first: no sampling for a run that cannot finish
        check_dn_budget(model, schedule, n, tail_len)
    summary = estimate_disagreement(
        model, schedule, depth, p["context_x"], p["context_y"], n_traj, _seed(cfg)
    )
    mc_path = cfg.outdir / "couple_mc.csv"
    _write_csv(
        mc_path,
        ["empirical_disagreement: fraction of coupled pairs differing at coordinate -n"],
        ["coordinate", "empirical_disagreement", "stderr"],
        [(-n, float(summary.freq[n]), float(summary.stderr[n])) for n in range(depth + 1)],
    )
    outputs = {"couple_mc.csv": mc_path}
    if dn_max:
        rows = []
        for n in range(1, dn_max + 1):
            lo, hi = dn_bruteforce(model, schedule, n, tail_len)
            rows.append((n, lo, hi))
        dn_path = cfg.outdir / "couple_dn.csv"
        _write_csv(
            dn_path,
            ["dn bounds: worst-case block-n total variation after B_{n-1} agreements"],
            ["n", "dn_lower", "dn_upper"],
            rows,
        )
        outputs["couple_dn.csv"] = dn_path
    return outputs


def _run_renewal(cfg: ExperimentConfig) -> dict[str, Path]:
    p = cfg.params
    d = tuple(float(v) for v in p["d"])
    b = tuple(int(v) for v in p["b"])
    K = _positive(p["K"], "K")
    spec = RenewalSpec(d[:K], b[: K + 1], K)
    ab = build_alphabeta(spec)
    n_max = _positive(p.get("n_max", 50 * ab.boundaries[-1]), "n_max")
    u = renewal_solve(ab, n_max)
    u_path = cfg.outdir / "renewal_u.csv"
    _write_csv(
        u_path,
        ["u_n: probability the dominating block chain disagrees at coordinate -n"],
        ["n", "u_n"],
        [(n, float(u[n])) for n in range(n_max + 1)],
    )
    sweep = disagreement_bound_sweep(d, b, range(1, K + 1))
    lim_path = cfg.outdir / "renewal_limit.csv"
    _write_csv(
        lim_path,
        ["limit: renewal-theorem limit of u along the boundary lattice, per truncation K"],
        ["K", "limit"],
        sweep,
    )
    return {"renewal_u.csv": u_path, "renewal_limit.csv": lim_path}


def _run_criteria(cfg: ExperimentConfig) -> dict[str, Path]:
    p = cfg.params
    vm = _parse_variation(p["variation"])
    epsilon = p.get("epsilon", 0.1)
    lam = p.get("lam", 2.0)
    reports = [
        check_square_summable_variation(vm),
        check_rho_product_series(vm, epsilon),
        check_variation_o_sqrt(vm),
        check_geometric_window_sums(vm, lam),
    ]
    json_path = cfg.outdir / "criteria.json"
    json_path.write_text(
        json.dumps(
            {
                "variation": p["variation"],
                "epsilon": epsilon,
                "lambda": lam,
                "reports": [r.to_dict() for r in reports],
            },
            indent=2,
            sort_keys=True,
        )
        + "\n"
    )
    csv_path = cfg.outdir / "criteria_evidence.csv"
    _write_csv(
        csv_path,
        ["verdict per criterion with scalar evidence where available"],
        ["criterion", "verdict", "evidence_limit"],
        [
            (r.criterion, r.verdict, float(r.evidence.get("limit", math.nan)))
            for r in reports
        ],
    )
    return {"criteria.json": json_path, "criteria_evidence.csv": csv_path}


def _run_pipeline(cfg: ExperimentConfig) -> dict[str, Path]:
    """Variation profile -> block TV bounds -> dbar -> ratio/renewal bounds
    -> Monte Carlo comparison."""
    p = cfg.params
    model = load_model(p["model"])
    schedule = _parse_schedule(p["schedule"])
    K_max = _positive(p.get("K_max", 8), "K_max")
    depth = _positive(p.get("depth", 48), "depth")
    n_traj = _positive(p.get("trajectories", 2000), "trajectories")
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
    bounds_path = cfg.outdir / "pipeline_bounds.csv"
    _write_csv(
        bounds_path,
        ["R_K: asymptotic disagreement bound (closed form and renewal route agree)"],
        ["K", "ratio_bound", "renewal_bound"],
        [(k, r1, r2) for (k, r1), (_, r2) in zip(sweep_ratio, sweep_renewal)],
    )
    best = min(r for _, r in sweep_renewal)
    summary = estimate_disagreement(
        model, schedule, depth, p["context_x"], p["context_y"], n_traj, seed
    )
    mc_path = cfg.outdir / "pipeline_mc.csv"
    _write_csv(
        mc_path,
        ["empirical disagreement vs the best asymptotic bound over the K sweep"],
        ["coordinate", "empirical_disagreement", "stderr", "bound"],
        [
            (-n, float(summary.freq[n]), float(summary.stderr[n]), best)
            for n in range(depth + 1)
        ],
    )
    json_path = cfg.outdir / "pipeline_summary.json"
    json_path.write_text(
        json.dumps(
            {
                "dbar": [float(v) for v in dbar_seq],
                "bounds": {str(k): r for k, r in sweep_renewal},
                "best_bound": best,
                "max_block_truncation": summary.max_block_slack,
            },
            indent=2,
            sort_keys=True,
        )
        + "\n"
    )
    return {
        "pipeline_bounds.csv": bounds_path,
        "pipeline_mc.csv": mc_path,
        "pipeline_summary.json": json_path,
    }


def _run_selftest(cfg: ExperimentConfig) -> dict[str, Path]:
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

    lines = [f"{'PASS' if ok else 'FAIL'}  {name}" for name, ok in checks]
    report = cfg.outdir / "selftest.txt"
    report.write_text("\n".join(lines) + "\n")
    print("\n".join(lines))
    if not all(ok for _, ok in checks):
        raise GMeasureError("selftest failed")
    return {"selftest.txt": report}


_RUNNERS = {
    "transfer": _run_transfer,
    "couple": _run_couple,
    "renewal": _run_renewal,
    "criteria": _run_criteria,
    "pipeline": _run_pipeline,
    "selftest": _run_selftest,
}


def run(cfg: ExperimentConfig) -> RunManifest:
    """Run one experiment.  Outputs are written into a temporary directory
    beside ``cfg.outdir`` and renamed into place only when the run succeeds,
    so a failed run leaves no partial artifacts."""
    if cfg.experiment not in _RUNNERS:
        raise ConfigError(f"unknown experiment {cfg.experiment!r}")
    cfg.outdir.parent.mkdir(parents=True, exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f".{cfg.outdir.name}.", dir=cfg.outdir.parent))
    try:
        started = time.perf_counter()
        outputs = _RUNNERS[cfg.experiment](dataclasses.replace(cfg, outdir=work))
        manifest = RunManifest(
            config_hash=hashlib.sha256(cfg.canonical().encode()).hexdigest(),
            version=__version__,
            wall_clock_s=time.perf_counter() - started,
            outputs={name: _sha256(path) for name, path in sorted(outputs.items())},
            environment={
                "python": platform.python_version(),
                "numpy": np.__version__,
                "scipy": scipy.__version__,
            },
        )
        (work / "manifest.json").write_text(
            json.dumps(asdict(manifest), indent=2, sort_keys=True) + "\n"
        )
        cfg.outdir.mkdir(exist_ok=True)
        # the manifest moves last: it never describes outputs not yet in place
        for path in sorted(work.iterdir(), key=lambda path: path.name == "manifest.json"):
            os.replace(path, cfg.outdir / path.name)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return manifest


# ---------------------------------------------------------------------------
# argument parsing


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
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
    r.add_argument("--d", required=True, help="comma-separated d_1..d_K")
    r.add_argument("--b", required=True, help="comma-separated b_1..b_{K+1}")
    r.add_argument("--K", type=int, required=True)
    r.add_argument("--n-max", type=int, default=None)
    r.add_argument("--out", required=True)

    k = sub.add_parser("criteria", help="closed-form uniqueness criteria")
    k.add_argument("--variation", required=True,
                   help="power_law:c=1,p=2 | exponential:c=1,r=0.5 | finite_range:M=3")
    k.add_argument("--epsilon", type=float, default=0.1)
    k.add_argument("--lam", type=float, default=2.0)
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


def _config_from_args(args: argparse.Namespace) -> ExperimentConfig:
    params: dict = {}
    seed = getattr(args, "seed", None)
    if args.command == "transfer":
        params = {"model": args.model, "n_max": args.n_max,
                  "trunc_memory": args.trunc_memory}
    elif args.command == "couple":
        params = {
            "model": args.model, "schedule": args.schedule, "depth": args.depth,
            "trajectories": args.trajectories, "context_x": args.context_x,
            "context_y": args.context_y, "dn_max": args.dn_max,
            "tail_len": args.tail_len,
        }
    elif args.command == "renewal":
        params = {
            "d": _numbers(args.d, float, "--d"),
            "b": _numbers(args.b, int, "--b"),
            "K": args.K,
        }
        if args.n_max is not None:
            params["n_max"] = args.n_max
    elif args.command == "criteria":
        params = {"variation": args.variation, "epsilon": args.epsilon, "lam": args.lam}
    elif args.command == "pipeline":
        params = {
            "model": args.model, "schedule": args.schedule, "K_max": args.K_max,
            "depth": args.depth, "trajectories": args.trajectories,
            "context_x": args.context_x, "context_y": args.context_y,
        }
    return ExperimentConfig(args.command, params, Path(args.out), seed)


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args, unknown = parser.parse_known_args(argv)
        if unknown:
            raise ConfigError(f"unrecognized arguments: {' '.join(unknown)}")
        run(_config_from_args(args))
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
