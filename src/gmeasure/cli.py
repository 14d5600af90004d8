"""Reproducible experiment runner; ``main`` is its only entry.

Subcommands: ``transfer``, ``couple``, ``renewal``, ``criteria``,
``pipeline``, ``selftest``.  argparse owns every option: each integer
option's range is checked as its value is parsed, and each subcommand binds
its runner.  A run executes with an explicit seed where randomness is
involved, and publishes CSV/JSON artifacts into the output directory
together with a manifest holding a config hash and per-output checksums.
Identical configuration and seed reproduce byte-identical artifacts.

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
from collections.abc import Iterable, Iterator
from dataclasses import asdict
from functools import cache, partial
from pathlib import Path

import numpy as np

from . import __version__
from .coupling import (
    BlockSchedule,
    check_dn_budget,
    check_mc_budget,
    constant_schedule,
    dbar,
    dn_bruteforce,
    estimate_disagreement,
    geometric_blocks,
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
)
from .errors import DEFAULT_BUDGET, BudgetError, ConfigError, GMeasureError, check_budget
from .gmodel import binary_alphabet, iid_model, load_model, variation_profile
from .renewal import RenewalSpec, build_alphabeta, disagreement_bound_sweep, renewal_solve
from .tails import Exponential, FiniteRange, PowerLaw
from .transfer import TransferOperator, apply_Ln, stationary, uniqueness_diagnostic

__all__ = ["main"]


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


def _csv(comments: list[str], header: list[str], columns) -> Iterator[bytes]:
    """CSV artifact as chunks of bytes: first the '# ' comment lines and the
    header, then the rows, one per index of the equal-length ``columns``,
    ``_CSV_ROWS`` rows to a chunk.  Only one chunk is held at a time, so the
    artifact is never whole in memory.  A cell's bytes are those of ``str``
    of its value, so a float's cell is its shortest round-trip repr whatever
    container it came in.  Each column's chunk becomes a NUL-padded cell
    table (``_cell_table``), the tables sit side by side in one uint8 row
    matrix with ',' and '\\n' in fixed columns, and the chunk's bytes are
    that matrix without its NULs.  No cell holds a NUL of its own: cells
    are digits, float reprs or the program's own labels, and a string cell
    that holds one raises ``ValueError``."""
    columns = list(columns)
    lengths = {len(c) for c in columns}
    if len(lengths) > 1:
        raise ValueError(f"CSV columns have different lengths {sorted(lengths)}")
    yield ("".join(f"# {c}\n" for c in comments) + ",".join(header) + "\n").encode()
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
        yield flat[flat != 0].tobytes()


def _json(record) -> tuple[bytes]:
    """JSON artifact as one chunk.  RFC 8259 has no NaN or infinity, so a
    non-finite float raises ``ValueError`` instead of writing one."""
    return ((json.dumps(record, indent=2, sort_keys=True, allow_nan=False) + "\n").encode(),)


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _write(path: Path, chunks: Iterable[bytes]) -> str:
    """Write the chunks to ``path`` one at a time and return the SHA-256 of
    the file's bytes, hashed as they are written."""
    digest = hashlib.sha256()
    with path.open("wb") as f:
        for chunk in chunks:
            f.write(chunk)
            digest.update(chunk)
    return digest.hexdigest()


def _convert(convert, text: str, what: str):
    try:
        value = convert(text)
    except ValueError:
        raise ConfigError(f"cannot parse {what} {text!r}") from None
    if isinstance(value, float) and not math.isfinite(value):
        raise ConfigError(f"{what} must be finite, got {text!r}")
    return value


def _count(text: str, lo: int, what: str) -> int:
    """An integer option's value, once it is at least ``lo``."""
    value = _convert(int, text, what)
    if value < lo:
        raise ConfigError(f"{what} must be >= {lo}, got {value}")
    return value


def _numbers(text: str, convert, what: str) -> list:
    """Comma-separated list of numbers."""
    return [_convert(convert, v, what) for v in text.split(",")]


def _key_values(text: str, types: dict, optional=()) -> dict:
    """'k=v,...' with each value converted by ``types[k]``; the keys not in
    ``optional`` are required, and no key may repeat."""
    params = {}
    for part in text.split(","):
        key, sep, value = part.partition("=")
        if not sep or key not in types:
            raise ConfigError(f"cannot parse {part!r}: expected key=value, keys {sorted(types)}")
        if key in params:
            raise ConfigError(f"{text!r} repeats key {key!r}")
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


# ---------------------------------------------------------------------------
# experiment bodies: each maps the parsed options to {artifact name: chunks},
# the chunks an iterable of bytes that is consumed once, as it is written


def _run_transfer(a: argparse.Namespace) -> dict[str, Iterable[bytes]]:
    check_budget(a.n_max + 1, f"n_max + 1 = {a.n_max + 1} rows")
    columns = uniqueness_diagnostic(load_model(a.model), a.n_max, trunc_memory=a.trunc_memory)
    return {"transfer.csv": _csv(
        ["oscillation: sup L^n f - inf L^n f for the transfer operator L",
         "truncation_error: bound on the surrogate-vs-true oscillation drift"],
        ["n", "oscillation", "truncation_error"],
        [range(a.n_max + 1), *columns],
    )}


def _run_couple(a: argparse.Namespace) -> dict[str, Iterable[bytes]]:
    schedule = _parse_schedule(a.schedule)
    check_mc_budget(a.depth, a.trajectories)
    model = load_model(a.model)
    for n in range(1, a.dn_max + 1):  # budgets first: no sampling for a run that cannot finish
        check_dn_budget(model, schedule, n, a.tail_len)
    summary = estimate_disagreement(model, schedule, a.depth, a.context_x, a.context_y,
                                    a.trajectories, a.seed)
    outputs = {"couple_mc.csv": _csv(
        ["empirical_disagreement: fraction of coupled pairs differing at coordinate -n"],
        ["coordinate", "empirical_disagreement", "stderr"],
        [range(0, -a.depth - 1, -1), summary.freq, summary.stderr],
    )}
    if a.dn_max:
        bounds = [dn_bruteforce(model, schedule, n, a.tail_len) for n in range(1, a.dn_max + 1)]
        outputs["couple_dn.csv"] = _csv(
            ["dn bounds: worst-case block-n total variation after B_{n-1} agreements"],
            ["n", "dn_lower", "dn_upper"],
            [range(1, a.dn_max + 1), *zip(*bounds)],
        )
    return outputs


def _run_renewal(a: argparse.Namespace) -> dict[str, Iterable[bytes]]:
    d, b, K = a.d, a.b, a.K
    if len(d) != K or len(b) != K + 1:
        raise ConfigError(f"--K {K} takes exactly {K} --d and {K + 1} --b values")
    ab = build_alphabeta(RenewalSpec(d, b, K))
    n_max = 50 * ab.boundaries[-1] if a.n_max is None else a.n_max
    work = (n_max + 1) * (K + 1)  # tap reads of renewal_solve
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
            [range(1, K + 1), disagreement_bound_sweep(d, b, range(1, K + 1))[:, 1]],
        ),
    }


def _run_criteria(a: argparse.Namespace) -> dict[str, Iterable[bytes]]:
    vm = _parse_variation(a.variation)
    reports = [
        check_square_summable_variation(vm),
        check_rho_product_series(vm, a.epsilon),
        check_variation_o_sqrt(vm),
        check_geometric_window_sums(vm, a.lam),
    ]
    records = [asdict(r) for r in reports]
    for record in records:  # a divergent window-sum limit is JSON null
        if record["evidence"].get("limit") == math.inf:
            record["evidence"]["limit"] = None
    return {
        "criteria.json": _json({
            "variation": a.variation,
            "epsilon": a.epsilon,
            "lambda": a.lam,
            "reports": records,
        }),
        "criteria_evidence.csv": _csv(
            ["verdict per criterion with scalar evidence where available"],
            ["criterion", "verdict", "evidence_limit"],
            zip(*((r.criterion, r.verdict, float(r.evidence.get("limit", math.nan)))
                  for r in reports)),
        ),
    }


def _run_pipeline(a: argparse.Namespace) -> dict[str, Iterable[bytes]]:
    """Variation profile -> block TV bounds -> dbar -> R_K bounds -> Monte
    Carlo comparison."""
    schedule = _parse_schedule(a.schedule)
    K_max = a.K_max
    # the work is the sweep's K_max steps plus the B_(K_max+1) profile sites
    # that the bounds on blocks 1..K_max+1 read; the sums stop at the first
    # past the budget, so no B_n of an over-budget schedule leaves int64
    lengths = np.diff(schedule.partial_sums(K_max + 1, past=DEFAULT_BUDGET - K_max))
    sites = int(lengths.sum())  # B_(K_max+1), or an earlier sum past the budget
    check_budget(K_max + sites, f"K_max + B_(K_max+1) for K_max = {K_max}")
    check_mc_budget(a.depth, a.trajectories)
    model = load_model(a.model)
    profile = variation_profile(model, sites - 1)
    bounds = block_tv_bounds(profile, schedule, K_max + 1)
    dbar_seq = dbar(bounds[:-1], bounds[-1])
    ratio_bounds = disagreement_bound_sweep(dbar_seq, lengths, range(1, K_max + 1))[:, 1]
    best_K = int(np.argmin(ratio_bounds)) + 1
    best = float(ratio_bounds[best_K - 1])
    summary = estimate_disagreement(model, schedule, a.depth, a.context_x, a.context_y,
                                    a.trajectories, a.seed)
    return {
        "pipeline_bounds.csv": _csv(
            ["dbar: non-increasing bound on the worst-case block total variation d_K",
             "R_K: asymptotic disagreement bound of the dominating chain, per truncation K"],
            ["K", "dbar", "ratio_bound"],
            [range(1, K_max + 1), dbar_seq, ratio_bounds],
        ),
        "pipeline_mc.csv": _csv(
            ["empirical disagreement vs the best asymptotic bound over the K sweep"],
            ["coordinate", "empirical_disagreement", "stderr", "bound"],
            [range(0, -a.depth - 1, -1), summary.freq, summary.stderr,
             np.full(a.depth + 1, best)],
        ),
        "pipeline_summary.json": _json({
            "best_K": best_K,
            "best_bound": best,
            "max_block_truncation": summary.max_block_slack,
        }),
    }


def _run_selftest(a: argparse.Namespace) -> dict[str, Iterable[bytes]]:
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
        ab = build_alphabeta(RenewalSpec(d, b, K))
        ok &= abs(ab.masses.sum() - 1.0) < 1e-12
        ratio = disagreement_bound_sweep(d, b, [K])[0, 1]
        # the renewal limit as mean boundary-layer mass over mean cycle length
        mean_cycle = ab.boundaries @ ab.masses
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
    return {"selftest.txt": [(report + "\n").encode()]}


def _publish(a: argparse.Namespace) -> None:
    """Run the parsed subcommand and publish its artifacts and
    ``manifest.json``.  Each artifact streams chunk by chunk into a
    temporary directory beside ``--out`` and is checksummed as it is
    written, so no artifact is held whole in memory.  The files are then
    renamed into place, manifest last, so a failed run, one that fails
    while writing included, leaves no partial artifacts.  The manifest's
    ``wall_clock_s`` covers the run and the writing of its artifacts."""
    outdir = Path(a.out)
    # the nearest existing path (a dangling symlink too): --out or an ancestor
    existing = next(p for p in (outdir, *outdir.parents) if os.path.lexists(p))
    if not existing.is_dir():
        raise ConfigError(f"--out {a.out}: {existing} is not a directory")
    started = time.perf_counter()
    outputs = a.runner(a)
    params = {k: v for k, v in vars(a).items() if k not in ("command", "out", "runner", "seed")}
    record = {"experiment": a.command, "params": params, "seed": getattr(a, "seed", None)}
    if "model" in params:
        # the model file's contents, not only its path, define the run
        record["model_sha256"] = _sha256(Path(a.model).read_bytes())
    outdir.parent.mkdir(parents=True, exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f".{outdir.name}.", dir=outdir.parent))
    try:
        digests = {name: _write(work / name, chunks) for name, chunks in outputs.items()}
        manifest = {
            "config_hash": _sha256(json.dumps(record, sort_keys=True).encode()),
            "version": __version__,
            "wall_clock_s": time.perf_counter() - started,
            "outputs": digests,
            "environment": {
                "python": platform.python_version(),
                "numpy": np.__version__,
            },
        }
        _write(work / "manifest.json", _json(manifest))
        outdir.mkdir(exist_ok=True)
        # the manifest moves last: it never describes outputs not yet in place
        for name in [*digests, "manifest.json"]:
            os.replace(work / name, outdir / name)
    finally:
        shutil.rmtree(work, ignore_errors=True)


# ---------------------------------------------------------------------------
# argument parsing


class _Parser(argparse.ArgumentParser):
    """Reports a parse error as a ConfigError: one line and exit code 2."""

    def error(self, message):
        raise ConfigError(message)


def _add_mc_options(sub, depth: int, trajectories: int, context: int) -> None:
    """The Monte Carlo options of ``couple`` and ``pipeline``, with the
    subcommand's defaults.  Each subparser gets Action objects of its own:
    a shared parent's defaults would follow the last ``set_defaults``."""
    sub.add_argument("--model", required=True)
    sub.add_argument("--schedule", default="const:1")
    sub.add_argument("--depth", type=partial(_count, lo=1, what="--depth"), default=depth)
    sub.add_argument("--trajectories", type=partial(_count, lo=1, what="--trajectories"),
                     default=trajectories)
    sub.add_argument("--seed", type=partial(_count, lo=0, what="--seed"), required=True)
    sub.add_argument("--context-x", default="1" * context)
    sub.add_argument("--context-y", default="0" * context)
    sub.add_argument("--out", required=True)


@cache  # built on first use, not at import; parsing leaves it unchanged
def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="gmeasure",
        description="Numerics for g-function chains: couplings, renewal bounds, criteria.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    t = sub.add_parser("transfer", help="oscillation diagnostic of L^n f")
    t.add_argument("--model", required=True)
    t.add_argument("--n-max", type=partial(_count, lo=1, what="--n-max"), default=30)
    t.add_argument("--trunc-memory", type=int, default=None)
    t.add_argument("--out", required=True)
    t.set_defaults(runner=_run_transfer)

    c = sub.add_parser("couple", help="Monte Carlo block coupling")
    _add_mc_options(c, depth=32, trajectories=1000, context=32)
    c.add_argument("--dn-max", type=partial(_count, lo=0, what="--dn-max"), default=0)
    c.add_argument("--tail-len", type=partial(_count, lo=0, what="--tail-len"), default=3)
    c.set_defaults(runner=_run_couple)

    r = sub.add_parser("renewal", help="renewal sequence and limits")
    r.add_argument("--d", type=partial(_numbers, convert=float, what="--d"), required=True,
                   help="comma-separated d_1..d_K")
    r.add_argument("--b", type=partial(_numbers, convert=int, what="--b"), required=True,
                   help="comma-separated b_1..b_{K+1}")
    r.add_argument("--K", type=partial(_count, lo=1, what="--K"), required=True)
    r.add_argument("--n-max", type=partial(_count, lo=1, what="--n-max"), default=None)
    r.add_argument("--out", required=True)
    r.set_defaults(runner=_run_renewal)

    k = sub.add_parser("criteria", help="closed-form uniqueness criteria")
    k.add_argument("--variation", required=True,
                   help="power_law:c=1,p=2 | exponential:c=1,r=0.5 | finite_range:M=3")
    k.add_argument("--epsilon", type=partial(_convert, float, what="--epsilon"), default=0.1)
    k.add_argument("--lam", type=partial(_convert, float, what="--lam"), default=2.0)
    k.add_argument("--out", required=True)
    k.set_defaults(runner=_run_criteria)

    pl = sub.add_parser("pipeline", help="bounds pipeline + Monte Carlo comparison")
    _add_mc_options(pl, depth=48, trajectories=2000, context=48)
    pl.add_argument("--K-max", type=partial(_count, lo=1, what="--K-max"), default=8)
    pl.set_defaults(runner=_run_pipeline)

    st = sub.add_parser("selftest", help="quick internal consistency checks")
    st.add_argument("--out", default="selftest_out")
    st.set_defaults(runner=_run_selftest)

    return parser


def main(argv=None) -> int:
    try:
        _publish(_build_parser().parse_args(argv))
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
