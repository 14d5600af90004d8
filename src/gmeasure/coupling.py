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
context states (``gmodel.context_state``) sit in right-aligned
``(width, side, trajectory)`` buffers, sites first as in the kernel.
Trajectories due a block of one length at one frontier form a group,
indexed by a slice when its rows are consecutive: the block reads only its
own state columns, for a slice one (b, 2, rows) slab that the kernel reads
in place, and once drawn adds each site into the slab of the columns left
of it; a schedule of one reachable length keeps the whole batch one group
at every step, and other steps whose trajectories form one group take it
without a sort.  A group is drawn in parts of at most ``_MAX_ROWS``
(trajectory, word) cells, or of one trajectory, both sides sharing each
kernel call.  The words and word terms of every block length
are slices of one table of the longest reachable length, built once a run
with the initial context state (``_Run``).  A block law evaluates site j only on the |S|^(b-j)
distinct suffixes it reads and multiplies it in place into the product
over all words, repeated over the word prefixes, so a 12-site binary
block costs about 2 x 4096 kernel cells, not 12 x 4096; its last sites
share one call on ``_TAIL_WORDS`` words.  A block of fewer than 8 words
is laid out along the rows, so numpy's loops run over the rows, not over
the few words; longer blocks keep the words innermost (see
``_block_laws``).
Uniform-order contract: a run reads one stream, ``default_rng(seed)``, and
trajectory i reads its window i, uniforms [iU, (i+1)U) with U = 3(depth + 1),
in order: one per block drawn on the diagonal and three per block drawn off
it (the diagonal test, then the two residual draws); the rest is unread.
``rng.random((rows, U))`` gives the same doubles as ``rows`` calls to
``rng.random(U)``, so every trajectory, and every artifact, is independent
of the batch size; ``sample_block_coupling`` is the batch of one.  PCG64
seeks, so advancing it by iU also starts trajectory i.

``dn_bruteforce`` computes the worst-case block total variation after
agreement on the previous B_{n-1} coordinates by exhaustive enumeration of
agreeing parts and truncated tail pairs, with truncation slack reported as
an interval.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import BudgetError, ConfigError, TruncationError, _check_power, check_budget
from .gmodel import add_context, all_words, context_state, interval_product, word_terms

__all__ = [
    "MaximalCoupling",
    "maximal_coupling",
    "BLOCK_CAP",
    "TRUNC_TOL",
    "BlockSchedule",
    "constant_schedule",
    "geometric_blocks",
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
    ``overlap = common.sum(-1)``, is the total variation.  ``scan`` (3, ...,
    words) holds the running sums of ``common``, ``p - common`` and
    ``q - common`` over the words, in one buffer laid out as ``p`` is;
    ``draw`` searches it."""

    p: np.ndarray
    q: np.ndarray
    overlap: np.ndarray  # kept: 1 - tv need not round back to it
    tv: np.ndarray
    scan: np.ndarray

    @property
    def common(self) -> np.ndarray:
        """min(p, q), recomputed: ``scan`` holds only its running sums."""
        return np.minimum(self.p, self.q)

    @property
    def joint(self) -> np.ndarray:
        """Dense joint law per row, ``diag(common) + outer(p - common,
        q - common) / tv``: off the diagonal the two residuals are drawn
        independently; for small supports only."""
        common = self.common
        off = (self.p - common)[..., :, None] * (self.q - common)[..., None, :]
        # equal marginals leave no residual to spread
        tv = np.where(self.tv > 0, self.tv, np.inf)[..., None, None]
        return common[..., None, :] * np.eye(self.p.shape[-1]) + off / tv

    def draw(self, u: np.ndarray):
        """One draw per row from the joint law.

        ``u[..., :3]``, 1-D or one row per law, holds the row's next three
        uniforms.  The first decides the diagonal branch and picks the
        common word; only off the diagonal are the other two used, to draw
        the two residuals independently.
        Returns ``(j, used)``: ``j`` (2, ...) the x and y words, ``used`` = 1
        or 3 uniforms consumed.
        """
        u = np.asarray(u)[..., :3].T
        v = np.multiply(u, self.tv)  # the two residual draws scaled by tv
        v[0] = u[0]
        # searchsorted(scan, v, side="right") for the three at once: the
        # running sums do not decrease, so counting the first words - 1
        # caps the index at the last word
        j = (self.scan[..., :-1] <= v[..., None]).sum(axis=-1)
        diagonal = u[0] < self.overlap
        return np.where(diagonal, j[0], j[1:]), np.where(diagonal, 1, 3)


def maximal_coupling(p, q) -> MaximalCoupling:
    """The maximal coupling of two laws, or of two batches of laws row by
    row.  Raises ConfigError unless ``p`` and ``q`` have one shape, with
    non-negative entries and every row summing to 1 within 1e-12."""
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    if p.shape != q.shape or p.ndim not in (1, 2) or not p.shape[-1]:
        raise ConfigError(f"laws need one non-empty 1-D or 2-D shape, got {p.shape}, {q.shape}")
    # one buffer in the memory order of p, so that the overlap below adds
    # each row's words as a sum over p's own layout does
    words_outer = p.ndim == 2 and p.strides[0] < p.strides[1]
    if words_outer:
        scan = np.empty((3,) + p.shape[::-1]).transpose(0, 2, 1)
    else:
        scan = np.empty((3,) + p.shape)
    common = np.minimum(p, q, out=scan[0])
    # min(p, q) >= 0 exactly when both laws are; `not >=` also rejects NaN
    if not common.min() >= 0:
        raise ConfigError("probabilities must be non-negative")
    overlap = common.sum(axis=-1)
    tv = 1.0 - overlap
    np.subtract(p, common, out=scan[1])
    np.subtract(q, common, out=scan[2])
    if words_outer:
        # one add per word over all rows, where numpy's accumulate would
        # make one call per row
        for w in range(1, p.shape[-1]):
            scan[..., w] += scan[..., w - 1]
    else:
        np.cumsum(scan, axis=-1, out=scan)
    # a row of p sums to 1 exactly when its residual p - common sums to tv
    defect = np.abs(scan[1:, ..., -1] - tv).max()
    if not defect <= 1e-12:
        raise ConfigError(f"probabilities sum to 1 only within {defect!r}")
    return MaximalCoupling(p, q, overlap, tv, scan)


# ---------------------------------------------------------------------------
# block schedules


class BlockSchedule:
    """Block lengths b_1, b_2, ... through their partial sums B_0 = 0 and
    B_n = b_1 + ... + b_n; block n covers the coordinates [1 - B_n, -B_{n-1}].

    ``BlockSchedule(lengths)`` takes an explicit list, which ends the
    schedule, so a run never silently reuses a length; ``constant_schedule``
    and ``geometric_blocks`` are closed forms, which end before their first
    sum of 2^63.  Each holds one picklable ``_sums(n, past)``: the array
    ``partial_sums`` returns, computed no further, short of it only where
    the schedule ends; ``partial_sums`` is the one route to callers.
    """

    def __init__(self, lengths):
        lengths = list(lengths)
        # written as "not all allowed", so that NaN fails it
        if not all(1 <= b < math.inf and b % 1 == 0 for b in lengths):
            raise ConfigError("block lengths must be positive integers")
        sums = (0, *itertools.accumulate(int(b) for b in lengths))
        if len(sums) == 1 or sums[-1] >= 2**63:
            raise ConfigError("a schedule needs one or more block lengths, summing below 2^63")
        self._sums = functools.partial(_explicit_sums, np.array(sums, dtype=np.int64))

    def partial_sums(self, n: int, past: float = math.inf) -> np.ndarray:
        """B_0..B_m as one int64 array: through m = n, or through the first
        m with B_m > ``past`` if that comes first."""
        sums = self._sums(n, past)
        if len(sums) <= n and sums[-1] <= past:
            raise ConfigError(f"partial sum B_{len(sums)} lies past the end of the schedule "
                              "(an explicit list's last length, or 2^63)")
        return sums

    def b(self, n: int) -> int:
        """Length of the n-th block, n >= 1, as a Python int."""
        return self.B(n) - self.B(n - 1)

    def B(self, n: int) -> int:
        """Partial sum b_1 + ... + b_n, with B(0) = 0, as a Python int."""
        if n < 0:
            raise ConfigError("block and partial-sum indices start at 1 and 0")
        return int(self.partial_sums(n)[-1])


def _explicit_sums(sums: np.ndarray, n: int, past: float) -> np.ndarray:
    return sums[: min(n, np.searchsorted(sums, past, side="right")) + 1]


def constant_schedule(b: int = 1) -> BlockSchedule:
    """Every block of length b: B_n = b*n."""
    schedule = BlockSchedule([b])  # checks b as an explicit list would
    schedule._sums = functools.partial(_constant_sums, schedule.B(1))
    return schedule


def _constant_sums(b: int, n: int, past: float) -> np.ndarray:
    # through n, the first B_m = b*m past the bound (B_0 for one below 0) or the last below 2^63
    m = min(n, max(past // b + 1, 0), (2**63 - 1) // b)
    return np.arange(int(m) + 1, dtype=np.int64) * b


def geometric_blocks(growth: float) -> BlockSchedule:
    """Schedule with partial sums B_0 = 0 and B_n = ceil(growth**n / (growth - 1)),
    so that b_n lies within 1 of growth**(n-1) for n >= 2.  A growth of 2^63
    or more would end the schedule at B_1, so it raises ConfigError."""
    if not 1 < growth < 2.0**63:
        raise ConfigError("growth must lie strictly between 1 and 2^63")
    schedule = BlockSchedule.__new__(BlockSchedule)
    schedule._sums = functools.partial(_geometric_sums, growth)
    return schedule


def _geometric_sums(growth: float, n: int, past: float) -> np.ndarray:
    # index by index in Python floats: numpy's array ** may round otherwise
    # (at growth 1.468689060639555 it gives B_68 one less than math.ceil).
    # B_(m-1) < 2^63 and growth < 2^63 keep growth**m below 2^189
    sums = [0]
    while len(sums) <= n and sums[-1] <= past:
        if (value := growth ** len(sums) / (growth - 1.0)) >= 2.0**63:
            break
        sums.append(math.ceil(value))
    return np.array(sums, dtype=np.int64)


# ---------------------------------------------------------------------------
# conditional block distributions

# (trajectory, word) cells of one sampler part: a group is drawn in parts
# of at most _MAX_ROWS // words trajectories (one, for a longer block), and
# a block-law kernel call takes at most the rows of one part, both sides,
# so each kernel array stays flat whatever the batch or dn_bruteforce step
_MAX_ROWS = 1024
# suffix words of the kernel call that a block's last sites share: a site
# with fewer suffixes is evaluated on this many words, so that its in-place
# product over the word prefixes is never only a few words long (a sweep of
# 16 to 512 is in CHANGES.md)
_TAIL_WORDS = 256
# cells (agreeing parts x tail pairs x words) of one dn_bruteforce step, so
# that each of its pair arrays holds at most 2^16 floats (0.5 MB)
_MAX_CELLS = 1 << 16
# longest block the sampler enumerates: both block laws hold |S|^b words
BLOCK_CAP = 12
# largest truncation slack of a block law the sampler draws from
TRUNC_TOL = 0.05
# lo times these, plus hi: hi + lo and hi - lo, exactly
_PLUS_MINUS = np.array([1.0, -1.0])[:, None, None]
# trajectories x (depth + 1) sampled together: uniforms, histories, context
# sums and block records of a batch grow with this product
_BATCH_SITES = 1 << 16


def _block_laws(model, terms: np.ndarray, state: np.ndarray, known_len: int):
    """Midpoint block laws and truncation slacks, one per context row.

    ``terms`` are the ``word_terms`` of all the words of one block length
    (``all_words``), words on the last axis; ``state`` (b, ...) holds the
    context state of the block's columns, sites first
    (``gmodel.context_state``), one context row per trailing index, each
    followed by a known context of ``known_len`` symbols; rows share
    kernel calls of at most both sides of one sampler part (``_MAX_ROWS``).
    The rows are read as one (b, rows) array: a view when the trailing
    axes are contiguous, as the sampler's slab of a whole group is.
    Returns ``(probs, slack)``: ``probs`` (..., words) are the normalised
    midpoints of the per-word interval products, ``slack`` the summed
    half-widths plus the normalisation defect.

    Site j's factor reads only the suffix w_j..w_{b-1}, and the first
    m = |S|^(b-j) words of the lexicographic table hold each suffix once:
    site j is evaluated on those m words only and multiplied in place into
    the product of the sites left of it, repeated over the word prefixes
    (``gmodel.interval_product``), the multiplications of a product over
    all words in the same order.  The last sites, of at most
    ``_TAIL_WORDS`` suffixes, share one kernel call on that many words, so
    a block of at most that many words is one call.  Fewer than 8 words
    are laid out along the rows: the kernel runs on (sites, words, rows)
    arrays, a word sum adds whole row slices in word order, and ``probs``
    is a view of a (words, rows) array.  numpy sums 8 or more contiguous
    floats pairwise, not in order, so longer blocks keep the words
    innermost.  The layout reads the word count only, so no batch or tile
    size changes a bit.
    """
    lead = state.shape[1:]
    state = state.reshape(len(state), -1)
    n_rows, n_words = state.shape[1], terms.shape[-1]
    rows_per_call = 2 * max(1, _MAX_ROWS // n_words)  # both sides of one sampler part
    if n_rows <= rows_per_call:
        bounds = _interval_bounds(model, terms, state, known_len)
    else:
        bounds = np.concatenate([
            _interval_bounds(model, terms, state[:, r : r + rows_per_call], known_len)
            for r in range(0, n_rows, rows_per_call)], axis=-1 if n_words < 8 else 1)
    # the midpoints and half-widths 0.5 (hi + lo) and 0.5 (hi + (-lo)),
    # stacked, (2, words, rows) in the memory order of ``bounds``: views
    # with the words innermost for 8 or more words
    mid_half = np.empty_like(bounds)
    if n_words >= 8:
        bounds, mid_half = bounds.transpose(0, 2, 1), mid_half.transpose(0, 2, 1)
    np.multiply(_PLUS_MINUS, bounds[0], out=mid_half)
    mid_half += bounds[1]
    mid_half *= 0.5
    total, slack = mid_half.sum(axis=1)
    # exact factors: the midpoints sum to 1 up to float roundoff only
    np.add(slack, np.abs(total - 1.0), out=slack, where=slack != 0.0)
    return (mid_half[0] / total).T.reshape(lead + (n_words,)), slack.reshape(lead)


def _interval_bounds(model, terms: np.ndarray, state: np.ndarray, known_len: int):
    """The stacked ``(lo, hi)`` interval products of ``_block_laws`` for the
    context rows of ``state`` (b, rows): (2, words, rows) for fewer than 8
    words, else (2, rows, words).  A site with more than ``_TAIL_WORDS``
    suffixes is evaluated alone, as a one-site block with b - j - 1 more
    symbols known."""
    if terms.shape[-1] < 8:
        return interval_product(*model.site_intervals(terms[..., None], state[:, None], known_len))
    b = len(state)
    bounds, j, m = None, 0, terms.shape[-1]
    while m > _TAIL_WORDS:
        bounds = interval_product(*model.site_intervals(
            terms[:, j : j + 1, None, :m], state[j : j + 1, :, None], known_len + b - j - 1),
            bounds)
        j, m = j + 1, m // model.alphabet.size
    return interval_product(*model.site_intervals(
        terms[:, j:, None, :m], state[j:, :, None], known_len), bounds)


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


def _max_uniforms(depth: int) -> int:
    # a block covers at least one site, so a trajectory draws at most
    # depth + 1 blocks, each consuming at most 3 uniforms
    return 3 * (depth + 1)


def _reachable_lengths(schedule: BlockSchedule, depth: int) -> np.ndarray:
    """b_{k+1} for every run k a trajectory can reach.  A run of k agreeing
    blocks covers B_k sites, so b_{k+1} is asked for only while
    B_k <= depth: the lengths are the steps of B_0..B_m, m the first index
    with B_m > depth.  A negative depth, an explicit schedule too short for
    the run, or a reachable block longer than ``BLOCK_CAP``, fails here,
    before any sampling."""
    if depth < 0:
        raise ConfigError(f"depth must be >= 0, got {depth}")
    # B_n >= n, so the first B_m > depth has m <= depth + 1
    lengths = np.diff(schedule.partial_sums(depth + 1, past=depth))
    if lengths.max() > BLOCK_CAP:
        k = int(np.argmax(lengths > BLOCK_CAP))
        raise BudgetError(
            f"run {k} reaches a block of length {lengths[k]}; "
            f"the sampler enumerates blocks of at most {BLOCK_CAP} sites"
        )
    return lengths


_BLOCK_FIELDS = ("start", "length", "run_before", "agreed", "tv", "slack")
# offsets of a trajectory's next three uniforms, one row each
_NEXT_THREE = np.arange(3)[:, None]


@dataclass
class _Batch:
    """Coupled trajectories, sites first: ``x`` and ``y`` are (width,
    trajectory) histories, right-aligned, row ``width - 1 - n`` holding
    coordinate -n.  ``blocks`` maps each of ``_BLOCK_FIELDS`` to one entry
    per drawn block, in drawing order per trajectory."""

    x: np.ndarray
    y: np.ndarray
    covered: np.ndarray  # sites sampled per trajectory
    blocks: dict


class _Run:
    """What every batch of one run shares, built once per run: the model and
    block lengths by run (``_reachable_lengths``), the depth, the buffer
    width, the words of the longest reachable length and their
    ``word_terms``, of which ``table`` slices every shorter length, the
    (width, side) context state of the two tail contexts, and per
    reachable length what a step reads (``blocks``).  Raises ConfigError
    for a model that is not positive or contexts of unequal length."""

    def __init__(self, model, lengths, depth, x_context, y_context):
        if not model.is_positive:
            raise ConfigError("block coupling requires a positive model")
        contexts = [np.asarray(model.alphabet.indices(c), dtype=np.intp)
                    for c in (x_context, y_context)]
        if len(contexts[0]) != len(contexts[1]):
            raise ConfigError("tail contexts must have equal length")
        self.model, self.lengths, self.depth = model, lengths, depth
        self.known_len = len(contexts[0])
        # the last block starts at most depth sites in, so width covers every site
        self.width = depth + int(lengths.max())
        self.words = all_words(model.alphabet.size, int(lengths.max()))
        self.terms = word_terms(model, self.words.T)
        self.state = context_state(model, np.stack(contexts), self.width)
        # per length: the words sites first, their terms, trajectories per part
        self.blocks = {}
        for b in set(lengths.tolist()):
            words, terms = self.table(b)
            self.blocks[b] = words.T, terms, max(1, _MAX_ROWS // len(words))

    def table(self, b: int):
        """The words of b sites and their ``word_terms``, bit for bit: the
        first |S|^b words of the longest length end in every word of b
        sites, in order, and a site's terms read only the symbols from it
        rightward."""
        n_words = self.model.alphabet.size ** b
        return self.words[:n_words, -b:], self.terms[:, -b:, :n_words]


def _couple(run: _Run, uniforms) -> _Batch:
    """Grow one coupled pair of histories per row of ``uniforms`` leftward
    past coordinate ``-run.depth``, all rows together.

    Each step draws the next block of every unfinished trajectory; those
    with the same block length and frontier form a group, which shares
    kernel calls and one context-state update.  Where every reachable
    block has one length, as in a constant schedule, every trajectory is
    at one frontier at every step, which is one group of the whole batch;
    otherwise a step whose unfinished trajectories form one group takes it
    without a sort.  Trajectory i reads ``uniforms[i]`` in order, one per
    diagonal and three per off-diagonal draw, so its path does not depend
    on the batch it is drawn in.
    """
    model, lengths, depth, n_traj = run.model, run.lengths, run.depth, len(uniforms)
    # trajectory i's uniforms start at flat[i * U]; cursor points at its next one
    flat = np.ascontiguousarray(uniforms).reshape(-1)
    cursor = np.arange(n_traj) * uniforms.shape[1]
    everyone = np.arange(n_traj)
    hist = np.zeros((run.width, 2, n_traj), dtype=np.min_scalar_type(model.alphabet.size - 1))
    state = np.repeat(run.state[..., None], n_traj, axis=-1)
    covered = np.zeros(n_traj, dtype=np.intp)
    runs = np.zeros(n_traj, dtype=np.intp)
    log = []
    while True:
        if len(run.blocks) == 1:  # one length: every trajectory at one frontier
            if covered[0] > depth:
                break
            groups = (everyone,)
        elif (active := np.flatnonzero(covered <= depth)).size:
            # one group per (block length, frontier), rows ascending
            key = lengths[runs[active]] * (depth + 1) + covered[active]
            if key.min() == key.max():
                groups = (active,)
            else:
                order = np.argsort(key, kind="stable")
                groups = np.split(active[order], np.flatnonzero(np.diff(key[order])) + 1)
        else:
            break
        for group in groups:
            b, front = int(lengths[runs[group[0]]]), int(covered[group[0]])
            words, terms, step = run.blocks[b]
            c0 = run.width - b - front
            cols = slice(c0, c0 + b)
            for part in (group[i : i + step] for i in range(0, len(group), step)):
                # the part's rows: a slice (a view) when they are consecutive
                rows = slice(part[0], part[-1] + 1) if part[-1] - part[0] < len(part) else part
                (p, q), slack = _block_laws(model, terms, state[cols, :, rows],
                                            run.known_len + front)
                slack = slack[0] + slack[1]
                if slack.max() > TRUNC_TOL:
                    raise TruncationError(
                        f"block truncation slack {slack.max():.3e} exceeds tolerance {TRUNC_TOL}"
                    )
                pair = maximal_coupling(p, q)
                j, n_used = pair.draw(flat[cursor[rows] + _NEXT_THREE].T)
                hist[cols, :, rows] = drawn = words[:, j]
                add_context(model, state, (slice(None), rows), drawn, c0)
                agreed = j[0] == j[1]
                before = runs[rows].copy()  # a view of a slice is overwritten below
                log.append((front, b, before, agreed, pair.tv, slack))
                covered[rows] += b
                runs[rows] = np.where(agreed, before + 1, 0)
                cursor[rows] += n_used
    # one tuple per field, each array freed once its column is built
    fronts, sizes, *log = zip(*log)
    counts = [len(before) for before in log[0]]
    blocks = {"start": np.repeat(fronts, counts), "length": np.repeat(sizes, counts)}
    blocks.update((name, np.concatenate(log.pop(0))) for name in _BLOCK_FIELDS[2:])
    return _Batch(hist[:, 0], hist[:, 1], covered, blocks)


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
    truncation slack recorded per block.  Raises, before any uniform is
    drawn, ConfigError for a negative depth or integer seed and BudgetError
    when a reachable block is longer than ``BLOCK_CAP``; raises
    TruncationError when a block's slack exceeds ``TRUNC_TOL``.  This is
    the batch of one of the sampler behind ``estimate_disagreement``: it
    reads the next window of 3 * (depth + 1) uniforms of ``rng``, so n
    consecutive calls on ``default_rng(seed)`` draw the n trajectories of
    ``estimate_disagreement(..., n, seed)``, one for one.
    """
    lengths = _reachable_lengths(schedule, depth)
    if isinstance(rng, (int, np.integer)):
        if rng < 0:
            raise ConfigError(f"seed must be >= 0, got {rng}")
        rng = np.random.default_rng(rng)
    batch = _couple(_Run(model, lengths, depth, x_context, y_context),
                    rng.random((1, _max_uniforms(depth))))
    covered = int(batch.covered[0])
    x, y = batch.x[-covered:, 0].astype(np.intp), batch.y[-covered:, 0].astype(np.intp)
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

    Trajectory i reads window i of one stream, ``default_rng(seed)``, drawn
    a batch at a time, so the result equals that of ``n_traj`` consecutive
    ``sample_block_coupling`` calls on one ``default_rng(seed)``, whatever
    the batching.  The seed's sign and ``check_mc_budget`` are checked
    first."""
    if seed < 0:
        raise ConfigError(f"seed must be >= 0, got {seed}")
    check_mc_budget(depth, n_traj)
    lengths = _reachable_lengths(schedule, depth)
    n_runs = len(lengths)
    counts = np.zeros(depth + 1, dtype=np.int64)
    seen = np.zeros(n_runs, dtype=np.int64)
    bad = np.zeros(n_runs, dtype=np.int64)
    max_slack = 0.0
    rng = np.random.default_rng(seed)
    run = _Run(model, lengths, depth, x_context, y_context)
    per_batch = max(1, _BATCH_SITES // (depth + 1))
    for start in range(0, n_traj, per_batch):
        uniforms = rng.random((min(per_batch, n_traj - start), _max_uniforms(depth)))
        batch = _couple(run, uniforms)
        # row n of the flipped histories is coordinate -n
        counts += (batch.x != batch.y)[::-1][: depth + 1].sum(axis=1)
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
    check_budget(n_traj * _max_uniforms(depth),
                 f"drawing {n_traj} trajectories x {_max_uniforms(depth)} uniforms")
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
    agree_len, end = schedule.partial_sums(n)[-2:].tolist()
    block_len = end - agree_len
    return _check_power(
        size, agree_len + 2 * tail_len + block_len,
        f"enumerating {size}^{agree_len + 2 * tail_len + block_len} joint states "
        f"(agree {agree_len}, tails 2x{tail_len}, block {block_len})",
    )


def dn_bruteforce(model, schedule: BlockSchedule, n: int, tail_len: int) -> tuple[float, float]:
    """Bounds for the worst-case block-n total variation d_n.

    Enumerates every agreeing part on the B_{n-1} coordinates right of the
    block and every pair of tail words of length ``tail_len`` beyond them,
    a tail with itself included, computing the total variation between the
    two conditional block laws.  Returns ``(lower, upper)``: the lower bound
    is the largest midpoint total variation found; the upper bound
    additionally absorbs the largest accumulated truncation slack, and
    dominates the true supremum over all infinite tail completions.
    Each step takes the agreeing parts whose pair table (parts x tail pairs
    x words) fits in ``_MAX_CELLS`` cells, or one part, and adds the pair
    differences one word slice at a time, in word order, whatever the step.
    """
    check_dn_budget(model, schedule, n, tail_len)
    size = model.alphabet.size
    agree_len, end = schedule.partial_sums(n)[-2:].tolist()
    block_len = end - agree_len
    n_tails, n_agree = size**tail_len, size**agree_len
    words = all_words(size, block_len)
    terms = word_terms(model, words.T)  # once: every step reads the same words
    # each tail paired with itself too: two completions beyond a shared tail
    left, right = np.triu_indices(n_tails)
    # [a, t]: agreeing part a followed by tail t; the budget caps its rows
    # at 2^22 / (n_tails * len(words)) <= 2^20
    contexts = all_words(size, agree_len + tail_len).reshape(n_agree, n_tails, -1)
    step = max(1, _MAX_CELLS // (len(left) * len(words)))  # agreeing parts
    lower = upper = 0.0
    for a in range(0, n_agree, step):
        known = contexts[a : a + step]
        laws, slacks = _block_laws(model, terms, context_state(model, known, block_len),
                                   known.shape[-1])
        # words first, [w, a, t]: the sum adds whole word slices in word order;
        # numpy sums one-cell slices pairwise, but those (tail_len 0) are all 0
        laws = np.moveaxis(laws, -1, 0).copy()
        diffs = laws[..., left]
        diffs -= laws[..., right]
        tv = 0.5 * np.abs(diffs, out=diffs).sum(axis=0)
        lower = max(lower, float(tv.max()))
        upper = max(upper, float((tv + 0.5 * (slacks[:, left] + slacks[:, right])).max()))
    return lower, max(upper, lower)


def dbar(d_values, tail_bound: float) -> np.ndarray:
    """Suffix suprema sup_{i >= n} d_i, with a caller-supplied tail bound.

    ``tail_bound`` must dominate every d_i beyond the tabulated horizon;
    the output is non-increasing and dominates the input pointwise.  A NaN
    d_i dominates nothing, so it raises ConfigError.
    """
    d = np.asarray(d_values, dtype=float)
    if not tail_bound >= 0:
        raise ConfigError("tail bound must be >= 0")
    if np.isnan(d).any():
        raise ConfigError("d values must not be NaN")
    # running maxima from the far end, tail_bound first, whose own entry is dropped
    return np.maximum.accumulate(np.append(d, tail_bound)[::-1])[:0:-1]
