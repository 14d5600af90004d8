"""Reproducible experiment runner.

Subcommands: ``transfer``, ``couple``, ``renewal``, ``criteria``,
``pipeline``, ``selftest``.  Each run validates its configuration, executes
with an explicit seed where randomness is involved, and publishes CSV/JSON
artifacts into the output directory together with a manifest holding a
config hash and per-output checksums.  Identical configuration and seed
reproduce byte-identical artifacts.

Exit codes: 0 success; 1 any other gmeasure error (a truncation or
convergence failure, a failed selftest);
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
from dataclasses import asdict, dataclass
from functools import cache, partial
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
    geometric_blocks,
)
from .errors import BudgetError, ConfigError, GMeasureError, check_budget
from .gmodel import binary_alphabet, iid_model, load_model, variation_profile
from .renewal import RenewalSpec, build_alphabeta, disagreement_bound_sweep, renewal_solve
from .tails import Exponential, FiniteRange, PowerLaw
from .transfer import TransferOperator, apply_Ln, stationary, uniqueness_diagnostic

__all__ = ["ExperimentConfig", "run", "main"]


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


# rows of a CSV artifact built and encoded at a time
_CSV_ROWS = 16384


def _cell_table(cells) -> np.ndarray:
    """The cells of one chunk of a column as a ``(rows, width)`` uint8 table,
    each cell's bytes right-aligned after NUL padding.  An integer array or
    a ``range`` (ends within int64) is written digit by digit; a float64 array
    formats each distinct bit pattern once, as a Python float, so 0.0 stays
    apart from -0.0; any other cell is ``str`` of its value, UTF-8 encoded."""
    if isinstance(cells, range):
        cells = np.arange(cells.start, cells.stop, cells.step, dtype=np.int64)
    if isinstance(cells, np.ndarray) and cells.dtype.kind in "iu":
        negative = cells < 0
        # the magnitude as uint64: negation wraps, so iinfo(int64).min stays exact
        magnitude = cells.astype(np.uint64)
        np.negative(magnitude, out=magnitude, where=negative)
        width = len(str(int(magnitude.max()))) + bool(negative.any())
        if width <= 9:
            magnitude = magnitude.astype(np.uint32)  # halves the cost of each division
        # '-' waits in `sign` until the column before a cell's first digit
        sign = np.where(negative, np.uint8(ord("-")), np.uint8(0))
        table = np.empty((width, len(cells)), np.uint8)
        live = np.ones(len(cells), bool)  # digits left; a 0 still gets its one digit
        for col in range(width - 1, -1, -1):
            quotient = magnitude // 10
            np.add(magnitude - quotient * 10, ord("0"), out=table[col], casting="unsafe")
            np.copyto(table[col], sign, where=~live)
            sign[~live] = 0
            magnitude, live = quotient, quotient > 0
        return table.T
    if isinstance(cells, np.ndarray) and cells.dtype == np.float64:
        _, first, inverse = np.unique(cells.view(np.int64), return_index=True, return_inverse=True)
        text = np.array([str(v) for v in cells[first].tolist()], dtype="S")[inverse]
    else:
        encoded = [str(v).encode() for v in cells]
        if any(b"\0" in t for t in encoded):
            raise ValueError("a CSV cell holds a NUL character")
        text = np.array(encoded, dtype="S")
    return text.view(np.uint8).reshape(len(text), -1)


def _csv(comments: list[str], header: list[str], columns) -> bytes:
    """CSV artifact: '# ' comment lines, the header, then one row per index
    of the equal-length ``columns``.  A cell's bytes are those of ``str`` of
    its value, so a float's cell is its shortest round-trip repr whatever
    container it came in.  Rows are encoded ``_CSV_ROWS`` at a time: each
    column's chunk becomes a NUL-padded cell table (``_cell_table``), the
    tables sit side by side in one uint8 row matrix with ',' and '\\n' in
    fixed columns, and the chunk's bytes are that matrix without its NULs.
    No cell holds a NUL of its own: cells are digits, float reprs or the
    program's own labels, and a string cell that holds one raises
    ``ValueError``."""
    columns = list(columns)
    lengths = {len(c) for c in columns}
    if len(lengths) > 1:
        raise ValueError(f"CSV columns have different lengths {sorted(lengths)}")
    head = "".join(f"# {c}\n" for c in comments) + ",".join(header) + "\n"
    parts = [head.encode()]
    for lo in range(0, max(lengths, default=0), _CSV_ROWS):
        tables = [_cell_table(c[lo : lo + _CSV_ROWS]) for c in columns]
        rows = np.zeros((len(tables[0]), sum(t.shape[1] + 1 for t in tables)), np.uint8)
        end = 0
        for t in tables:
            rows[:, end : end + t.shape[1]] = t
            end += t.shape[1] + 1
            rows[:, end - 1] = ord(",")
        rows[:, -1] = ord("\n")
        flat = rows.reshape(-1)
        parts.append(flat[flat != 0].tobytes())
    return b"".join(parts)


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


# ---------------------------------------------------------------------------
# experiment bodies: each maps a configuration to {artifact name: bytes}


def _run_transfer(cfg: ExperimentConfig) -> dict[str, bytes]:
    p = cfg.params
    n_max = _positive(p["n_max"], "n_max")
    check_budget(n_max + 1, f"n_max + 1 = {n_max + 1} rows")
    columns = uniqueness_diagnostic(load_model(p["model"]), n_max, trunc_memory=p["trunc_memory"])
    return {"transfer.csv": _csv(
        ["oscillation: sup L^n f - inf L^n f for the transfer operator L",
         "truncation_error: bound on the surrogate-vs-true oscillation drift"],
        ["n", "oscillation", "truncation_error"],
        [range(n_max + 1), *columns],
    )}


def _run_couple(cfg: ExperimentConfig) -> dict[str, bytes]:
    p = cfg.params
    schedule = _parse_schedule(p["schedule"])
    depth = _positive(p["depth"], "depth")
    n_traj = check_mc_budget(depth, _positive(p["trajectories"], "trajectories"))
    if p["tail_len"] < 0:
        raise ConfigError(f"tail_len must be >= 0, got {p['tail_len']}")
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
    work = (_positive(n_max, "n_max") + 1) * (K + 1)  # tap reads of renewal_solve
    check_budget(work, f"renewal work (n_max + 1)(K + 1) = {work} tap reads")
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
    """Variation profile -> block TV bounds -> dbar -> R_K bounds -> Monte
    Carlo comparison."""
    p = cfg.params
    schedule = _parse_schedule(p["schedule"])
    K_max = _positive(p["K_max"], "K_max")
    # the work is the K sweep's K_max steps plus the profile's B_{K_max+2}
    # sites.  B_n >= n bounds it below before any partial sum is taken; the
    # partial sums are then checked at doubling n, so an over-budget
    # geometric schedule is refused before B_n leaves float range
    work = f"K_max + B_(K_max+2) for K_max = {K_max}"
    check_budget(2 * K_max + 2, work)
    n = 1
    while n < K_max + 2:
        n = min(2 * n, K_max + 2)
        check_budget(K_max + schedule.B(n), work)
    depth = _positive(p["depth"], "depth")
    n_traj = check_mc_budget(depth, _positive(p["trajectories"], "trajectories"))
    model = load_model(p["model"])
    seed = _seed(cfg)
    profile = variation_profile(model, schedule.B(K_max + 2))
    bounds = []
    for n in range(1, K_max + 2):
        bound = block_tv_bounds(profile, schedule, n)
        if bound is None:
            raise ConfigError(
                f"site ratios at block {n} exceed the Hellinger validity bound"
            )
        bounds.append(bound)
    dbar_seq = dbar(bounds[:-1], bounds[-1])
    lengths = [schedule.b(i) for i in range(1, K_max + 2)]
    sweep = disagreement_bound_sweep(dbar_seq, lengths, range(1, K_max + 1))
    Ks, ratio_bounds = zip(*sweep)
    best = min(ratio_bounds)
    summary = estimate_disagreement(
        model, schedule, depth, p["context_x"], p["context_y"], n_traj, seed
    )
    return {
        "pipeline_bounds.csv": _csv(
            ["R_K: asymptotic disagreement bound of the dominating chain, per truncation K"],
            ["K", "ratio_bound"],
            [Ks, ratio_bounds],
        ),
        "pipeline_mc.csv": _csv(
            ["empirical disagreement vs the best asymptotic bound over the K sweep"],
            ["coordinate", "empirical_disagreement", "stderr", "bound"],
            [range(0, -depth - 1, -1), summary.freq, summary.stderr, np.full(depth + 1, best)],
        ),
        "pipeline_summary.json": _json({
            "dbar": [float(v) for v in dbar_seq],
            "bounds": {str(k): r for k, r in sweep},
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
        ratio = disagreement_bound_sweep(d, b, [K])[0][1]
        # the renewal limit as mean boundary-layer mass over mean cycle length
        mean_cycle = sum(i * a for i, a in ab.alpha.items())
        ok &= abs(ratio - float(ab.beta.sum()) / mean_cycle) < 1e-12
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


def run(cfg: ExperimentConfig) -> dict:
    """Run one experiment, publish its artifacts and return the manifest
    that ``manifest.json`` holds.  The artifacts are checksummed in memory,
    written into a temporary directory beside ``cfg.outdir`` and renamed
    into place, manifest last, so a failed run leaves no partial artifacts."""
    if cfg.experiment not in _RUNNERS:
        raise ConfigError(f"unknown experiment {cfg.experiment!r}")
    started = time.perf_counter()
    outputs = _RUNNERS[cfg.experiment](cfg)
    manifest = {
        "config_hash": _sha256(cfg.canonical().encode()),
        "version": __version__,
        "wall_clock_s": time.perf_counter() - started,
        "outputs": {name: _sha256(data) for name, data in sorted(outputs.items())},
        "environment": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "scipy": scipy.__version__,
        },
    }
    # the manifest moves last: it never describes outputs not yet in place
    outputs["manifest.json"] = _json(manifest)
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


@cache  # built on first use, not at import; parsing leaves it unchanged
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
