"""Maximal couplings, block schedules, and the leftward block coupling.

``maximal_coupling`` builds the joint table that puts the largest possible
mass on the diagonal, so its off-diagonal (disagreement) mass equals the
total-variation distance between the marginals.

The block coupling grows a pair of histories leftward from coordinate 0,
block by block.  Block lengths come from a schedule b_1, b_2, ...: after a
run of k consecutive agreeing blocks the next block has length b_{k+1}, and
any disagreement resets the run (the first block uses b_1).  Each block is
drawn from the maximal coupling of the two conditional block distributions
given everything sampled so far plus the initial tail contexts.

``dn_bruteforce`` computes the worst-case block total variation after
agreement on the previous B_{n-1} coordinates by exhaustive enumeration of
agreeing parts and truncated tail pairs, with truncation slack reported as
an interval.
"""

from __future__ import annotations

import functools
import itertools
import operator
from dataclasses import dataclass

import numpy as np

from .errors import BudgetError, ConfigError, DEFAULT_BUDGET, TruncationError
from .gmodel import Alphabet, Word, decode, encode

__all__ = [
    "FiniteDist",
    "CouplingTable",
    "maximal_coupling",
    "BlockSchedule",
    "constant_schedule",
    "BlockRecord",
    "BlockCouplingSample",
    "sample_block_coupling",
    "MonteCarloSummary",
    "estimate_disagreement",
    "dn_bruteforce",
    "dbar",
]


# ---------------------------------------------------------------------------
# finite distributions and the maximal coupling


@dataclass
class FiniteDist:
    """Probability vector over words on an integer interval.

    ``probs`` is indexed lexicographically (leftmost coordinate most
    significant).  ``anchor`` is the leftmost coordinate of the support
    interval; the word length is implied by the vector size.
    """

    anchor: int
    alphabet: Alphabet
    probs: np.ndarray

    def __post_init__(self):
        self.probs = np.asarray(self.probs, dtype=float)
        if (self.probs < 0).any():
            raise ConfigError("probabilities must be non-negative")
        if abs(self.probs.sum() - 1.0) > 1e-12:
            raise ConfigError(f"probabilities sum to {self.probs.sum()!r}, not 1")
        length = round(np.log(len(self.probs)) / np.log(self.alphabet.size))
        if self.alphabet.size**length != len(self.probs):
            raise ConfigError("vector size must be a power of the alphabet size")
        self.word_len = length

    @property
    def interval(self) -> tuple[int, int]:
        return (self.anchor, self.anchor + self.word_len - 1)


@dataclass
class CouplingTable:
    """Joint law over word pairs with prescribed marginals."""

    joint: np.ndarray
    mu: FiniteDist
    nu: FiniteDist

    @property
    def diagonal_mass(self) -> float:
        return float(np.trace(self.joint))

    @property
    def disagreement_mass(self) -> float:
        return 1.0 - self.diagonal_mass


def maximal_coupling(mu: FiniteDist, nu: FiniteDist) -> CouplingTable:
    """Couple two distributions with min(mu, nu) on the diagonal.

    Off the diagonal, mass is spread as the product of the two residuals
    renormalised by the disagreement mass; when the marginals coincide the
    off-diagonal part is identically zero.  The disagreement mass equals
    the total-variation distance (1/2) * sum |mu - nu|.
    """
    if mu.interval != nu.interval or len(mu.probs) != len(nu.probs):
        raise ConfigError(
            f"marginal supports differ: {mu.interval} vs {nu.interval}"
        )
    p, q = mu.probs, nu.probs
    m = np.minimum(p, q)
    joint = np.diag(m)
    disagreement = 1.0 - m.sum()
    if disagreement > 0:
        joint += np.outer(p - m, q - m) / disagreement
    return CouplingTable(joint, mu, nu)


# ---------------------------------------------------------------------------
# block schedules


class BlockSchedule:
    """Block lengths b_1, b_2, ... through their partial sums B_0 = 0 and
    B_n = b_1 + ... + b_n; the n-th block interval is J_n.

    ``BlockSchedule(lengths)`` takes an explicit list: B_n is its cumulative
    sum, and an index past its end raises ConfigError, so a run never
    silently reuses a length.  ``constant_schedule`` (B_n = b*n) and
    ``criteria.geometric_blocks`` are closed forms defined for every n.
    """

    def __init__(self, lengths):
        lengths = tuple(int(b) for b in lengths)
        if not lengths:
            raise ConfigError("schedule needs at least one block length")
        if any(b < 1 for b in lengths):
            raise ConfigError("block lengths must be positive integers")
        sums = (0, *itertools.accumulate(lengths))
        self._partial_sum = functools.partial(_explicit_partial_sum, sums)

    @classmethod
    def closed_form(cls, partial_sum) -> "BlockSchedule":
        """Schedule from a strictly increasing map n -> B_n with B_0 = 0
        (a module-level function or a partial of one keeps it picklable)."""
        schedule = cls.__new__(cls)
        schedule._partial_sum = partial_sum
        return schedule

    def b(self, n: int) -> int:
        """Length of the n-th block, n >= 1."""
        if n < 1:
            raise ConfigError("block index starts at 1")
        return self.B(n) - self.B(n - 1)

    def B(self, n: int) -> int:
        """Partial sum b_1 + ... + b_n, with B(0) = 0."""
        if n < 0:
            raise ConfigError("partial-sum index must be >= 0")
        return self._partial_sum(n)

    def J(self, n: int) -> tuple[int, int]:
        """The n-th block interval [1 - B_n, -B_{n-1}], n >= 1."""
        return (1 - self.B(n), -self.B(n - 1))


def _explicit_partial_sum(sums: tuple[int, ...], n: int) -> int:
    if n >= len(sums):
        raise ConfigError(
            f"block {n} lies past the end of an explicit schedule of {len(sums) - 1} lengths"
        )
    return sums[n]


def constant_schedule(b: int = 1) -> BlockSchedule:
    b = int(b)
    if b < 1:
        raise ConfigError("block lengths must be positive integers")
    return BlockSchedule.closed_form(functools.partial(operator.mul, b))


# ---------------------------------------------------------------------------
# conditional block distributions


def _block_conditional(model, block_len: int, known: np.ndarray):
    """Midpoint probabilities and truncation slack for one block.

    ``known`` holds the symbol indices of all coordinates to the right of the
    block (sampled history followed by the tail context).  Returns
    ``(probs, slack)`` where ``probs`` are the normalised midpoints over the
    alphabet^block_len words and ``slack`` is the summed half-widths.
    """
    size = model.alphabet.size
    n_words = size**block_len
    buf = np.empty(block_len + len(known), dtype=np.intp)
    buf[block_len:] = known
    mids = np.empty(n_words)
    slack = 0.0
    for code in range(n_words):
        buf[:block_len] = decode(code, size, block_len)
        lo = hi = 1.0
        for j in range(block_len):
            mid, rad = model.eval_indices(buf[j:])
            lo *= max(mid - rad, 0.0)
            hi *= min(mid + rad, 1.0)
        mids[code] = 0.5 * (lo + hi)
        slack += 0.5 * (hi - lo)
    total = mids.sum()
    if slack == 0.0:
        # exact factors: the vector sums to 1 up to float roundoff only
        return mids / total, 0.0
    return mids / total, slack + abs(total - 1.0)


def _sample_pair(p: np.ndarray, q: np.ndarray, rng) -> tuple[int, int, float]:
    """Draw one pair from the maximal coupling of two probability vectors."""
    m = np.minimum(p, q)
    omega = m.sum()
    tv = 1.0 - omega
    u = rng.random()
    if u < omega:
        j = int(np.searchsorted(np.cumsum(m), u, side="right"))
        j = min(j, len(p) - 1)
        return j, j, tv
    # disagreement branch: the residuals are sampled independently
    rx = rng.random() * tv
    ry = rng.random() * tv
    jx = min(int(np.searchsorted(np.cumsum(p - m), rx, side="right")), len(p) - 1)
    jy = min(int(np.searchsorted(np.cumsum(q - m), ry, side="right")), len(q) - 1)
    return jx, jy, tv


@dataclass(frozen=True)
class BlockRecord:
    interval: tuple[int, int]
    run_before: int
    agreed: bool
    tv: float
    truncation_error: float


@dataclass
class BlockCouplingSample:
    """One coupled trajectory on [a+1, 0] plus per-coordinate indicators."""

    coords: np.ndarray  # coordinates a+1..0, ascending
    x: np.ndarray       # symbol indices per coordinate
    y: np.ndarray
    disagree: np.ndarray  # bool per coordinate
    blocks: list[BlockRecord]

    def disagree_at(self, n: int) -> bool:
        """Indicator of disagreement at coordinate -n."""
        return bool(self.disagree[len(self.disagree) - 1 - n])


def _context_indices(model, context) -> np.ndarray:
    if isinstance(context, Word):
        if context.anchor != 1:
            raise ConfigError("tail contexts must be anchored at coordinate 1")
        symbols = context.symbols
    elif isinstance(context, str):
        symbols = tuple(context)
    else:
        symbols = tuple(context)
    return np.asarray(model.alphabet.indices(symbols), dtype=np.intp)


def sample_block_coupling(
    model,
    schedule: BlockSchedule,
    depth: int,
    x_context,
    y_context,
    rng,
    block_cap: int = 12,
    trunc_tol: float = 0.05,
) -> BlockCouplingSample:
    """Grow one block-coupled trajectory leftward past coordinate ``-depth``.

    Each block is drawn from the maximal coupling of the two conditional
    block laws given history + context, computed via cylinder products with
    truncation slack recorded per block.  Raises BudgetError when a block
    length exceeds ``block_cap`` and TruncationError when a block's slack
    exceeds ``trunc_tol``.
    """
    if not model.is_positive:
        raise ConfigError("block coupling requires a positive model")
    if isinstance(rng, (int, np.integer)):
        rng = np.random.default_rng(rng)
    ctx_x = _context_indices(model, x_context)
    ctx_y = _context_indices(model, y_context)
    if len(ctx_x) != len(ctx_y):
        raise ConfigError("tail contexts must have equal length")
    size = model.alphabet.size

    # history buffers: position i holds coordinate (a + 1 + i) .. 0 reversed;
    # simplest correct layout is right-to-left growth in python lists.
    hist_x: list[int] = []  # hist[0] is the leftmost sampled coordinate
    hist_y: list[int] = []
    dis: list[bool] = []
    blocks: list[BlockRecord] = []
    run = 0
    a = 0
    while a > -depth - 1:
        b = schedule.b(run + 1)
        if b > block_cap:
            raise BudgetError(
                f"block length {b} exceeds block_cap {block_cap} "
                f"({size}^{b} joint words)"
            )
        known_x = np.concatenate([np.asarray(hist_x, dtype=np.intp), ctx_x])
        known_y = np.concatenate([np.asarray(hist_y, dtype=np.intp), ctx_y])
        p, slack_x = _block_conditional(model, b, known_x)
        q, slack_y = _block_conditional(model, b, known_y)
        slack = slack_x + slack_y
        if slack > trunc_tol:
            raise TruncationError(
                f"block truncation slack {slack:.3e} exceeds tolerance {trunc_tol}"
            )
        jx, jy, tv = _sample_pair(p, q, rng)
        wx = decode(jx, size, b)
        wy = decode(jy, size, b)
        agreed = jx == jy
        blocks.append(BlockRecord((a - b + 1, a), run, agreed, tv, slack))
        hist_x = list(wx) + hist_x
        hist_y = list(wy) + hist_y
        dis = [sx != sy for sx, sy in zip(wx, wy)] + dis
        run = run + 1 if agreed else 0
        a -= b
    return BlockCouplingSample(
        coords=np.arange(a + 1, 1),
        x=np.asarray(hist_x, dtype=np.intp),
        y=np.asarray(hist_y, dtype=np.intp),
        disagree=np.asarray(dis, dtype=bool),
        blocks=blocks,
    )


@dataclass
class MonteCarloSummary:
    """Aggregated disagreement statistics over many coupled trajectories."""

    n_traj: int
    depth: int
    freq: np.ndarray     # index n -> empirical P(disagree at -n), n = 0..depth
    stderr: np.ndarray
    run_stats: dict      # run k -> [blocks seen, blocks disagreed]
    max_block_slack: float

    def run_freq(self, k: int) -> tuple[int, float]:
        count, bad = self.run_stats.get(k, (0, 0))
        return count, (bad / count if count else 0.0)


def estimate_disagreement(
    model,
    schedule: BlockSchedule,
    depth: int,
    x_context,
    y_context,
    n_traj: int,
    seed: int,
    block_cap: int = 12,
    trunc_tol: float = 0.05,
) -> MonteCarloSummary:
    """Monte Carlo disagreement frequencies from independent trajectories.

    Per-trajectory generators are spawned from a single seed sequence, so
    results are reproducible and trajectories could be drawn in parallel
    without changing the output.
    """
    if n_traj < 1:
        raise ConfigError("need at least one trajectory")
    # a trajectory asks for b_k only while B_{k-1} <= depth, so an explicit
    # schedule too short for the run fails here, before any sampling
    n = 0
    while schedule.B(n) <= depth:
        n += 1
    counts = np.zeros(depth + 1, dtype=np.int64)
    run_stats: dict[int, list[int]] = {}
    max_slack = 0.0
    children = np.random.SeedSequence(seed).spawn(n_traj)
    for child in children:
        sample = sample_block_coupling(
            model, schedule, depth, x_context, y_context,
            np.random.default_rng(child), block_cap, trunc_tol,
        )
        flipped = sample.disagree[::-1]  # index n -> coordinate -n
        counts += flipped[: depth + 1]
        for rec in sample.blocks:
            stats = run_stats.setdefault(rec.run_before, [0, 0])
            stats[0] += 1
            stats[1] += not rec.agreed
            max_slack = max(max_slack, rec.truncation_error)
    freq = counts / n_traj
    stderr = np.sqrt(freq * (1 - freq) / n_traj)
    return MonteCarloSummary(
        n_traj, depth, freq, stderr,
        {k: tuple(v) for k, v in run_stats.items()}, max_slack,
    )


# ---------------------------------------------------------------------------
# worst-case block total variation


def dn_bruteforce(
    model,
    schedule: BlockSchedule,
    n: int,
    tail_len: int,
    budget: int = DEFAULT_BUDGET,
) -> tuple[float, float]:
    """Bounds for the worst-case block-n total variation d_n.

    Enumerates every agreeing part on the B_{n-1} coordinates right of the
    block and every pair of tail words of length ``tail_len`` beyond them,
    computing the total variation between the two conditional block laws.
    Returns ``(lower, upper)``: the lower bound is the largest midpoint
    total variation found; the upper bound additionally absorbs the largest
    accumulated truncation slack, and dominates the true supremum over all
    infinite tail completions.
    """
    if n < 1:
        raise ConfigError("block index must be >= 1")
    if tail_len < 0:
        raise ConfigError("tail_len must be >= 0")
    size = model.alphabet.size
    agree_len = schedule.B(n - 1)
    block_len = schedule.b(n)
    states = size**agree_len * (size**tail_len) ** 2 * size**block_len
    if states > budget:
        raise BudgetError(
            f"{states} joint states exceed enumeration budget {budget} "
            f"(agree {agree_len}, tails 2x{tail_len}, block {block_len})"
        )
    n_agree = size**agree_len
    n_tails = size**tail_len
    lower = 0.0
    upper = 0.0
    for code_a in range(n_agree):
        agree = np.asarray(decode(code_a, size, agree_len), dtype=np.intp)
        dists = []
        for code_t in range(n_tails):
            tail = np.asarray(decode(code_t, size, tail_len), dtype=np.intp)
            dists.append(_block_conditional(model, block_len, np.concatenate([agree, tail])))
        for i in range(n_tails):
            p, slack_p = dists[i]
            for j in range(i + 1, n_tails):
                q, slack_q = dists[j]
                tv = 0.5 * float(np.abs(p - q).sum())
                lower = max(lower, tv)
                upper = max(upper, tv + 0.5 * (slack_p + slack_q))
    return lower, max(upper, lower)


def dbar(d_values, tail_bound: float) -> np.ndarray:
    """Suffix suprema sup_{i >= n} d_i, with a caller-supplied tail bound.

    ``tail_bound`` must dominate every d_i beyond the tabulated horizon;
    the output is non-increasing and dominates the input pointwise.
    """
    d = np.asarray(d_values, dtype=float)
    if tail_bound < 0:
        raise ConfigError("tail bound must be >= 0")
    out = np.empty_like(d)
    running = tail_bound
    for i in range(len(d) - 1, -1, -1):
        running = max(running, d[i])
        out[i] = running
    return out
