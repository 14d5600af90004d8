"""Maximal couplings, block schedules, and the leftward block coupling.

``maximal_coupling(p, q)`` is the one maximal-coupling primitive.  The
``MaximalCoupling`` it returns has two views of one law per row: the dense
joint table ``.joint`` (mass min(p, q) on the diagonal, so the disagreement
mass is the total variation) and ``.draw``, with which the sampler below
draws every block.

The block coupling grows a pair of histories leftward from coordinate 0,
block by block.  Block lengths come from a schedule b_1, b_2, ...: after a
run of k consecutive agreeing blocks the next block has length b_{k+1}, and
any disagreement resets the run (the first block uses b_1).  Each block is
drawn from the maximal coupling of the two conditional block distributions
given everything sampled so far plus the initial tail contexts.

The sampler runs all trajectories of a batch together.  Histories and
long-range context sums sit in right-aligned ``(side, trajectory, width)``
buffers; the sums are updated as each block is prepended, so a site reads
its context sum instead of rereading the history.  Trajectories due a block
of the same length, on both sides, share kernel calls of at most
``_MAX_ROWS`` (context, word) rows, reading word terms computed once a batch.
Uniform-order contract: trajectory i draws its uniforms from its own
generator (the i-th child of the seed sequence in ``estimate_disagreement``)
and consumes them in order, one per block drawn on the diagonal and three
per block drawn off it (the diagonal test, then the two residual draws).
``rng.random(n)`` gives the same doubles as n calls to ``rng.random()``, so
pre-drawing them keeps every trajectory, and every artifact, independent of
the batch size; ``sample_block_coupling`` is the batch of one.

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
from .gmodel import Word, all_words, interval_product

__all__ = [
    "MaximalCoupling",
    "maximal_coupling",
    "BLOCK_CAP",
    "TRUNC_TOL",
    "BlockSchedule",
    "constant_schedule",
    "BlockRecord",
    "BlockCouplingSample",
    "sample_block_coupling",
    "MonteCarloSummary",
    "estimate_disagreement",
    "check_mc_budget",
    "check_dn_budget",
    "dn_bruteforce",
    "dbar",
]


# ---------------------------------------------------------------------------
# the maximal coupling


@dataclass
class MaximalCoupling:
    """Maximal coupling of ``p`` and ``q``, one law per row (last axis):
    ``common = min(p, q)`` stays on the diagonal; ``tv = 1 - overlap``, with
    ``overlap = common.sum(-1)``, is the total variation.  ``scan`` holds the
    running sums of ``common``, ``p - common`` and ``q - common`` over words
    (axis 1, rows last, so one scan serves all rows); ``draw`` searches it."""

    p: np.ndarray
    q: np.ndarray
    common: np.ndarray
    overlap: np.ndarray  # kept: 1 - tv need not round back to it
    tv: np.ndarray
    scan: np.ndarray

    @property
    def joint(self) -> np.ndarray:
        """Dense joint law per row, ``diag(common) + outer(p - common,
        q - common) / tv``: off the diagonal the two residuals are drawn
        independently; for small supports only."""
        off = (self.p - self.common)[..., :, None] * (self.q - self.common)[..., None, :]
        # equal marginals leave no residual to spread
        tv = np.where(self.tv > 0, self.tv, np.inf)[..., None, None]
        return self.common[..., None, :] * np.eye(self.p.shape[-1]) + off / tv

    def draw(self, u: np.ndarray):
        """One draw per row from the joint law.

        ``u[..., :3]`` holds the row's next three uniforms.  The first decides
        the diagonal branch and picks the common word; only off the diagonal
        are the other two used, to draw the two residuals independently.
        Returns ``(jx, jy, used)`` with ``used`` = 1 or 3 uniforms consumed.
        """
        v = np.array((u[..., 0], u[..., 1] * self.tv, u[..., 2] * self.tv))
        # searchsorted(scan, v, side="right") for the three at once
        last = self.p.shape[-1] - 1
        j, jx, jy = np.minimum((self.scan <= v[:, None]).sum(axis=1), last)
        diagonal = u[..., 0] < self.overlap
        jx, jy = np.where(diagonal, j, (jx, jy))
        return jx, jy, np.where(diagonal, 1, 3)


def maximal_coupling(p, q) -> MaximalCoupling:
    """The maximal coupling of two laws, or of two batches of laws row by
    row.  Raises ConfigError unless ``p`` and ``q`` have one shape, with
    non-negative entries and every row summing to 1 within 1e-12."""
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    if p.shape != q.shape or p.ndim not in (1, 2) or not p.shape[-1]:
        raise ConfigError(f"laws need one non-empty 1-D or 2-D shape, got {p.shape}, {q.shape}")
    common = np.minimum(p, q)
    # min(p, q) >= 0 exactly when both laws are; `not >=` also rejects NaN
    if not common.min() >= 0:
        raise ConfigError("probabilities must be non-negative")
    overlap = common.sum(axis=-1)
    tv = 1.0 - overlap
    scan = np.cumsum(np.array((common.T, (p - common).T, (q - common).T)), axis=1)
    # a row of p sums to 1 exactly when its residual p - common sums to tv
    defect = np.abs(scan[1:, -1] - tv).max()
    if not defect <= 1e-12:
        raise ConfigError(f"probabilities sum to 1 only within {defect!r}")
    return MaximalCoupling(p, q, common, overlap, tv, scan)


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

# (context, word) rows per kernel call: a fixed cap, so each kernel array
# holds at most _MAX_ROWS x block length floats whatever the batch
_MAX_ROWS = 1024
# longest block the sampler enumerates: both block laws hold |S|^b words
BLOCK_CAP = 12
# largest truncation slack of a block law the sampler draws from
TRUNC_TOL = 0.05
# trajectories x (depth + 1) sampled together: uniforms, histories, context
# sums and block records of a batch grow with this product
_BATCH_SITES = 1 << 16


def _block_laws(model, words: np.ndarray, field: np.ndarray, known_len, terms=None):
    """Midpoint block laws and truncation slacks, one per context row.

    ``words`` are all the words of one block length (``all_words``),
    ``terms`` their ``word_terms`` unless computed here, ``field`` (..., reach)
    rows summarise the known right contexts (``context_field``) and
    ``known_len`` gives their lengths, broadcast to the leading axes, which
    share kernel calls.  Returns ``(probs, slack)``: ``probs`` (..., words)
    are the normalised midpoints of the per-word interval products,
    ``slack`` the summed half-widths plus the normalisation defect.
    """
    lead, terms = field.shape[:-1], model.word_terms(words) if terms is None else terms
    known_len = np.broadcast_to(known_len, lead).ravel()
    n_rows, n_words = len(known_len), len(words)
    field = field.reshape(n_rows, field.shape[-1])
    mids = np.empty((n_rows, n_words))
    halves = np.empty((n_rows, n_words))
    rows_per_call = max(1, _MAX_ROWS // n_words)
    for r in range(0, n_rows, rows_per_call):
        for w in range(0, n_words, _MAX_ROWS):
            tile = np.s_[r : r + rows_per_call, w : w + _MAX_ROWS]
            lo, hi = interval_product(*model.site_intervals(
                terms[..., tile[1], :], field[tile[0], None], known_len[tile[0], None]
            ))
            mids[tile] = 0.5 * (lo + hi)
            halves[tile] = 0.5 * (hi - lo)
    total = mids.sum(axis=1)
    slack = halves.sum(axis=1)
    # exact factors: the midpoints sum to 1 up to float roundoff only
    slack = np.where(slack == 0.0, 0.0, slack + np.abs(total - 1.0))
    return (mids / total[:, None]).reshape(lead + (n_words,)), slack.reshape(lead)


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


def _context_indices(model, context) -> np.ndarray:
    if isinstance(context, Word):
        if context.anchor != 1:
            raise ConfigError("tail contexts must be anchored at coordinate 1")
        symbols = context.symbols
    else:
        symbols = tuple(context)
    return np.asarray(model.alphabet.indices(symbols), dtype=np.intp)


def _max_uniforms(depth: int) -> int:
    # a block covers at least one site, so a trajectory draws at most
    # depth + 1 blocks, each consuming at most 3 uniforms
    return 3 * (depth + 1)


def _reachable_lengths(schedule: BlockSchedule, depth: int) -> np.ndarray:
    """b_{k+1} for every run k a trajectory can reach.  A run of k agreeing
    blocks covers B_k sites, so b_{k+1} is asked for only while
    B_k <= depth.  An explicit schedule too short for the run, or a
    reachable block longer than ``BLOCK_CAP``, fails here, before any
    sampling."""
    lengths = []
    while schedule.B(len(lengths)) <= depth:
        lengths.append(schedule.b(len(lengths) + 1))
        if lengths[-1] > BLOCK_CAP:
            raise BudgetError(
                f"run {len(lengths) - 1} reaches a block of length {lengths[-1]}; "
                f"the sampler enumerates blocks of at most {BLOCK_CAP} sites"
            )
    return np.asarray(lengths)


_BLOCK_FIELDS = ("start", "length", "run_before", "agreed", "tv", "slack")


@dataclass
class _Batch:
    """Coupled trajectories, one per row.  Histories are right-aligned:
    column ``width - 1 - n`` holds coordinate -n.  ``blocks`` maps each of
    ``_BLOCK_FIELDS`` to one entry per drawn block, in drawing order per
    trajectory."""

    x: np.ndarray
    y: np.ndarray
    covered: np.ndarray  # sites sampled per trajectory
    used: np.ndarray     # uniforms consumed per trajectory
    blocks: dict


def _couple(model, lengths, depth, x_context, y_context, uniforms) -> _Batch:
    """Grow one coupled pair of histories per row of ``uniforms`` leftward
    past coordinate ``-depth``, all rows together; ``lengths`` are the
    block lengths by run (``_reachable_lengths``).

    Each step draws the next block of every unfinished trajectory; those
    with the same block length share kernel calls.  The long-range context
    sums are updated as blocks are prepended, so no site rereads the
    history.  Trajectory i reads ``uniforms[i]`` in order, one per diagonal
    draw and three per off-diagonal draw, so its path does not depend on
    the batch it is drawn in.
    """
    if not model.is_positive:
        raise ConfigError("block coupling requires a positive model")
    contexts = [_context_indices(model, c) for c in (x_context, y_context)]
    if len(contexts[0]) != len(contexts[1]):
        raise ConfigError("tail contexts must have equal length")
    size = model.alphabet.size
    n_traj = len(uniforms)
    # the last block starts at most depth sites in, so width covers every
    # site and context distance
    width = depth + int(lengths.max())
    words_of = {b: all_words(size, b) for b in set(lengths.tolist())}
    terms_of = {b: model.word_terms(words) for b, words in words_of.items()}
    hist = np.zeros((2, n_traj, width), dtype=np.min_scalar_type(size - 1))
    fields = np.repeat(model.context_field(np.stack(contexts), width)[:, None], n_traj, axis=1)
    covered = np.zeros(n_traj, dtype=np.intp)
    run = np.zeros(n_traj, dtype=np.intp)
    used = np.zeros(n_traj, dtype=np.intp)
    log = []
    while (active := np.flatnonzero(covered <= depth)).size:
        active_len = lengths[run[active]]
        for b in np.unique(active_len).tolist():
            group, words = active[active_len == b], words_of[b]
            step = max(1, _MAX_ROWS // len(words))
            for rows in (group[i : i + step] for i in range(0, len(group), step)):
                known_len = len(contexts[0]) + covered[rows]
                # take: a C-ordered copy, unlike fields[:, rows]
                (p, q), slack = _block_laws(model, words, np.take(fields, rows, axis=1),
                                            known_len, terms_of[b])
                slack = slack[0] + slack[1]
                if slack.max() > TRUNC_TOL:
                    raise TruncationError(
                        f"block truncation slack {slack.max():.3e} exceeds tolerance {TRUNC_TOL}"
                    )
                u = np.take_along_axis(uniforms[rows], used[rows, None] + np.arange(3), axis=1)
                pair = maximal_coupling(p, q)
                jx, jy, n_used = pair.draw(u)
                cols = width - b - covered[rows, None] + np.arange(b)
                drawn = words[np.array((jx, jy))]
                hist[:, rows[:, None], cols] = drawn
                fields[:, rows] = model.extend_field(np.take(fields, rows, axis=1), drawn)
                agreed = jx == jy
                log.append((covered[rows], np.full(len(rows), b), run[rows], agreed, pair.tv, slack))
                covered[rows] += b
                run[rows] = np.where(agreed, run[rows] + 1, 0)
                used[rows] += n_used
    blocks = {name: np.concatenate(column) for name, column in zip(_BLOCK_FIELDS, zip(*log))}
    return _Batch(hist[0], hist[1], covered, used, blocks)


def sample_block_coupling(
    model,
    schedule: BlockSchedule,
    depth: int,
    x_context,
    y_context,
    rng,
) -> BlockCouplingSample:
    """Grow one block-coupled trajectory leftward past coordinate ``-depth``.

    Each block is drawn from the maximal coupling of the two conditional
    block laws given history + context, computed via cylinder products with
    truncation slack recorded per block.  Raises BudgetError, before any
    uniform is drawn, when a reachable block is longer than ``BLOCK_CAP``,
    and TruncationError when a block's slack exceeds ``TRUNC_TOL``.  This is
    the batch of one of the sampler behind ``estimate_disagreement``: ``rng``
    supplies one uniform per diagonal draw and three per off-diagonal draw,
    and is left advanced by exactly the uniforms used.
    """
    lengths = _reachable_lengths(schedule, depth)
    if isinstance(rng, (int, np.integer)):
        rng = np.random.default_rng(rng)
    state = rng.bit_generator.state
    batch = _couple(model, lengths, depth, x_context, y_context,
                    rng.random((1, _max_uniforms(depth))))
    rng.bit_generator.state = state
    rng.random(int(batch.used[0]))
    covered = int(batch.covered[0])
    x, y = batch.x[0, -covered:].astype(np.intp), batch.y[0, -covered:].astype(np.intp)
    records = [BlockRecord((-start - length + 1, -start), run, agreed, tv, slack)
               for start, length, run, agreed, tv, slack
               in zip(*(batch.blocks[k].tolist() for k in _BLOCK_FIELDS))]
    return BlockCouplingSample(np.arange(1 - covered, 1), x, y, x != y, records)


@dataclass
class MonteCarloSummary:
    """Aggregated disagreement statistics over many coupled trajectories."""

    freq: np.ndarray     # index n -> empirical P(disagree at -n), n = 0..depth
    stderr: np.ndarray
    run_stats: dict      # run k -> [blocks seen, blocks disagreed]
    max_block_slack: float


def estimate_disagreement(
    model,
    schedule: BlockSchedule,
    depth: int,
    x_context,
    y_context,
    n_traj: int,
    seed: int,
) -> MonteCarloSummary:
    """Monte Carlo disagreement frequencies from independent trajectories.

    Per-trajectory generators are spawned, a batch at a time, from a single
    seed sequence and each trajectory's uniforms are drawn from its own
    generator, so the result equals that of ``n_traj`` separate
    ``sample_block_coupling`` calls on the spawned children, whatever the
    batching.  ``check_mc_budget`` comes first."""
    check_mc_budget(depth, n_traj)
    lengths = _reachable_lengths(schedule, depth)
    n_runs = len(lengths)
    counts = np.zeros(depth + 1, dtype=np.int64)
    seen = np.zeros(n_runs, dtype=np.int64)
    bad = np.zeros(n_runs, dtype=np.int64)
    max_slack = 0.0
    seeds = np.random.SeedSequence(seed)  # each spawn continues the child count
    per_batch = max(1, _BATCH_SITES // (depth + 1))
    for start in range(0, n_traj, per_batch):
        uniforms = np.array([
            np.random.default_rng(child).random(_max_uniforms(depth))
            for child in seeds.spawn(min(per_batch, n_traj - start))
        ])
        batch = _couple(model, lengths, depth, x_context, y_context, uniforms)
        # column n of the flipped histories is coordinate -n
        counts += (batch.x != batch.y)[:, ::-1][:, : depth + 1].sum(axis=0)
        runs = batch.blocks["run_before"]
        seen += np.bincount(runs, minlength=n_runs)
        bad += np.bincount(runs[~batch.blocks["agreed"]], minlength=n_runs)
        max_slack = max(max_slack, float(batch.blocks["slack"].max()))
    freq = counts / n_traj
    stderr = np.sqrt(freq * (1 - freq) / n_traj)
    run_stats = {k: (int(seen[k]), int(bad[k])) for k in np.flatnonzero(seen).tolist()}
    return MonteCarloSummary(freq, stderr, run_stats, max_slack)


def check_mc_budget(depth: int, n_traj: int) -> int:
    """``n_traj``, once it is >= 1 and its 3 * (depth + 1) uniforms each fit the budget."""
    if n_traj < 1:
        raise ConfigError("need at least one trajectory")
    if n_traj * _max_uniforms(depth) > DEFAULT_BUDGET:
        raise BudgetError(f"{n_traj} trajectories x {_max_uniforms(depth)} uniforms "
                          f"exceed budget {DEFAULT_BUDGET}")
    return n_traj


# ---------------------------------------------------------------------------
# worst-case block total variation


def check_dn_budget(model, schedule: BlockSchedule, n: int, tail_len: int) -> int:
    """Joint states ``dn_bruteforce`` enumerates for block n; raises
    BudgetError when they exceed ``DEFAULT_BUDGET``, before any work is done."""
    if n < 1:
        raise ConfigError("block index must be >= 1")
    if tail_len < 0:
        raise ConfigError("tail_len must be >= 0")
    size = model.alphabet.size
    agree_len = schedule.B(n - 1)
    block_len = schedule.b(n)
    states = size**agree_len * (size**tail_len) ** 2 * size**block_len
    if states > DEFAULT_BUDGET:
        raise BudgetError(
            f"{states} joint states exceed enumeration budget {DEFAULT_BUDGET} "
            f"(agree {agree_len}, tails 2x{tail_len}, block {block_len})"
        )
    return states


def dn_bruteforce(model, schedule: BlockSchedule, n: int, tail_len: int) -> tuple[float, float]:
    """Bounds for the worst-case block-n total variation d_n.

    Enumerates every agreeing part on the B_{n-1} coordinates right of the
    block and every pair of tail words of length ``tail_len`` beyond them,
    computing the total variation between the two conditional block laws.
    Returns ``(lower, upper)``: the lower bound is the largest midpoint
    total variation found; the upper bound additionally absorbs the largest
    accumulated truncation slack, and dominates the true supremum over all
    infinite tail completions.
    """
    check_dn_budget(model, schedule, n, tail_len)
    size = model.alphabet.size
    agree_len = schedule.B(n - 1)
    block_len = schedule.b(n)
    n_tails, n_agree = size**tail_len, size**agree_len
    if n_tails == 1:
        return 0.0, 0.0  # one tail: no pair of laws to compare
    words = all_words(size, block_len)
    terms = model.word_terms(words)  # once: every step reads the same words
    left, right = np.triu_indices(n_tails, 1)
    # agreeing parts per step, so that the step's pairs of laws stay small
    step = max(1, _MAX_ROWS // (len(left) * len(words)))
    lower = upper = 0.0
    for a in range(0, n_agree, step):
        # context rows: agreeing part followed by tail, for every tail
        codes = np.arange(a * n_tails, min(a + step, n_agree) * n_tails).reshape(-1, n_tails)
        known = all_words(size, agree_len + tail_len, codes)
        laws, slacks = _block_laws(model, words, model.context_field(known, block_len),
                                   known.shape[-1], terms)
        tv = 0.5 * np.abs(laws[:, left] - laws[:, right]).sum(axis=2)
        lower = max(lower, float(tv.max()))
        upper = max(upper, float((tv + 0.5 * (slacks[:, left] + slacks[:, right])).max()))
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
