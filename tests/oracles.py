"""Independent oracles used by the test suite.

Each oracle recomputes a quantity along a different route than the library
code it checks: direct chain enumeration and an all-pole IIR filter for the
renewal sequence, the renewal-theorem limit of the alpha/beta arrays and a
closed-form loop that restarts at every K for the R_K sweep, scipy's
Hurwitz zeta for the power-law tail sums, dense matrix powers and
per-symbol index lists for the transfer operator, boolean reachability for
its closed classes, full eigendecomposition for the stationary vector, and
plain summation for total variation.  The cylinder,
surrogate and d_n oracles loop over words with the scalar ``eval_indices``
and never call the batched kernel.  The interval-product and context-sum
oracles add and multiply one term at a time, in the kernel's order.  The CSV
oracle formats cell by cell.
"""

import math
from functools import reduce

import numpy as np
import scipy.linalg
from scipy.signal import lfilter
from scipy.special import zeta

from gmeasure.errors import ConfigError
from gmeasure.gmodel import decode, encode
from gmeasure.renewal import RenewalSpec


def chain_disagreement(spec: RenewalSpec, n_max: int) -> np.ndarray:
    """P(disagree at coordinate -n) for the truncated dominating chain.

    Evolves the chain's (coverage, run) states forward, block pattern by
    block pattern, accumulating all-ones block probabilities on the
    coordinates each block covers.  Interval mass is added through a
    difference array so the cost is O(n_max * K).
    """
    K, d, b = spec.K, spec.d, spec.b
    diff = np.zeros(n_max + 2)
    # states[cover] maps run -> probability of reaching that state
    states: dict[int, dict[int, float]] = {0: {0: 1.0}}
    for cover in range(0, n_max + 1):
        runs = states.pop(cover, None)
        if not runs:
            continue
        for run, prob in runs.items():
            length = b[run]  # block index run+1, 0-based storage
            if run <= K - 1:
                branches = ((1.0 - d[run], run + 1, False), (d[run], 0, True))
            else:
                branches = ((1.0, 0, True),)
            for weight, next_run, all_ones in branches:
                if weight == 0.0:
                    continue
                mass = prob * weight
                if all_ones:
                    lo = cover
                    hi = min(cover + length - 1, n_max)
                    if lo <= n_max:
                        diff[lo] += mass
                        diff[hi + 1] -= mass
                nxt = states.setdefault(cover + length, {})
                nxt[next_run] = nxt.get(next_run, 0.0) + mass
    return np.cumsum(diff)[: n_max + 1]


def renewal_lfilter(ab, n_max: int) -> np.ndarray:
    """u_0..u_{n_max} of u = beta + alpha * u as one all-pole filter with the
    dense denominator 1 - alpha(z), one recursion step per entry."""
    beta = np.zeros(n_max + 1)
    m = min(n_max + 1, len(ab.beta))
    beta[:m] = ab.beta[:m]
    den = np.zeros(ab.boundaries[-1] + 1)
    den[0] = 1.0
    for i, a in ab.alpha.items():
        den[i] -= a
    return lfilter([1.0], den, beta)


def effective_lattice(ab) -> int:
    """gcd of the boundaries that carry strictly positive alpha mass.

    When some d_k vanish this can be coarser than ``AlphaBeta.period``; the
    renewal sequence then converges only along multiples of this lattice.
    """
    support = [i for i, a in ab.alpha.items() if a > 0.0]
    return reduce(math.gcd, support)


def renewal_limit(ab, lattice: int | None = None) -> float:
    """Renewal-theorem limit sum_n beta_{mn} / sum_n n*alpha_{mn} of u along
    the lattice m, by default the boundary gcd ``AlphaBeta.period``.

    With the default lattice every block length is a multiple of m, and the
    limit is the closed-form R_K.  When some d_k are zero the sequence u
    converges only along ``effective_lattice``; pass it explicitly to get
    the limit the renewal theorem actually provides there.
    """
    m = ab.period if lattice is None else int(lattice)
    if m < 1:
        raise ConfigError("lattice must be >= 1")
    num = float(ab.beta[::m].sum())
    den = 0.0
    for i, a in ab.alpha.items():
        if a == 0.0:
            continue
        if i % m:
            raise ConfigError(
                f"alpha mass at {i} is off the lattice {m}; no limit along it"
            )
        den += (i // m) * a
    if den <= 0.0:
        raise ConfigError("degenerate renewal: mean inter-arrival time is zero")
    return num / den


def closed_form_ratio(dbar_seq, b_seq, K_sweep) -> list[tuple[int, float]]:
    """R_K for each K of ``K_sweep``, each summed afresh from k = 1:

        R_K = [ sum_{k<=K} b_k d_k prod_{j<k}(1-d_j) + b_{K+1} prod_{j<=K}(1-d_j) ]
              / [ sum_{k<=K+1} b_k prod_{j<k}(1-d_j) ].

    Checks sequence lengths only."""
    dbar_seq = tuple(float(v) for v in dbar_seq)
    b_seq = tuple(int(v) for v in b_seq)
    out = []
    for K in K_sweep:
        if K < 1 or len(dbar_seq) < K or len(b_seq) < K + 1:
            raise ConfigError(f"need K >= 1, {K} d values and {K + 1} block lengths")
        survive = 1.0
        num = 0.0
        den = 0.0
        for k in range(1, K + 1):
            num += b_seq[k - 1] * dbar_seq[k - 1] * survive
            den += b_seq[k - 1] * survive
            survive *= 1.0 - dbar_seq[k - 1]
        num += b_seq[K] * survive
        den += b_seq[K] * survive
        out.append((K, num / den))
    return out


def hurwitz_zeta(p: float, q) -> np.ndarray:
    """sum_{k >= 0} (q + k)**(-p) by scipy (Cephes), elementwise over q."""
    return zeta(p, np.asarray(q, dtype=float))


def dense_transfer_matrix(model, window: int) -> np.ndarray:
    """Row-stochastic matrix of the transfer operator, built by explicit
    word decoding (independent of the operator's index arithmetic)."""
    size = model.alphabet.size
    dim = size**window
    A = np.zeros((dim, dim))
    for u_code in range(dim):
        u = decode(u_code, size, window)
        for s in range(size):
            extended = (s,) + u
            weight, err = model.eval_indices(extended[: model.memory + 1])
            assert err == 0.0
            v_code = encode(extended[:window], size)
            A[u_code, v_code] += weight
    return A


def _index_lists(model, window: int):
    """Per symbol s, the lexicographic index of the extension s.u[:window-1]
    of every word u of length ``window``, and its weight g(s.u[:memory]),
    by integer division of codes."""
    size, memory = model.alphabet.size, model.memory
    u = np.arange(size**window)
    src = [s * size ** (window - 1) + u // size for s in range(size)]
    weight = [model.table[s * size**memory + u // size ** (window - memory)] for s in range(size)]
    return zip(src, weight)


def transfer_apply_loop(model, window: int, f: np.ndarray) -> np.ndarray:
    """(L f)(u) = sum_s g(s.u) f(s.u), one symbol at a time."""
    out = np.zeros(len(f))
    for src, w in _index_lists(model, window):
        out += w * f[src]
    return out


def transfer_apply_dual_loop(model, window: int, pi: np.ndarray) -> np.ndarray:
    """The dual action: each word's mass scattered to its extensions, one
    symbol at a time and in word order within a symbol."""
    out = np.zeros(len(pi))
    for src, w in _index_lists(model, window):
        np.add.at(out, src, w * pi)
    return out


def closed_class_count(A: np.ndarray) -> int:
    """Closed communicating classes of the chain with transition matrix A,
    from the transitive closure of its support by repeated squaring."""
    reach = (A > 0) | np.eye(len(A), dtype=bool)
    while True:
        closure = reach.astype(np.int64) @ reach.astype(np.int64) > 0
        if (closure == reach).all():
            break
        reach = closure
    mutual = reach & reach.T
    # u lies in a closed class iff every state it reaches reaches it back
    return len({tuple(np.flatnonzero(mutual[u])) for u in range(len(A))
                if (mutual[u] == reach[u]).all()})


def left_perron_vector(A: np.ndarray) -> np.ndarray:
    """Stationary row vector from a full eigendecomposition."""
    values, vectors = scipy.linalg.eig(A.T)
    k = int(np.argmin(np.abs(values - 1.0)))
    v = np.real(vectors[:, k])
    v = np.abs(v)
    return v / v.sum()


def total_variation(p, q) -> float:
    return 0.5 * float(sum(abs(a - b) for a, b in zip(p, q)))


def dobrushin_coefficient(model) -> float:
    """Contraction coefficient of a memory-1 model's transition table."""
    assert model.memory == 1
    size = model.alphabet.size
    P = model.table.reshape(size, size).T  # row = context, column = new symbol
    worst = 0.0
    for i in range(size):
        for j in range(size):
            worst = max(worst, total_variation(P[i], P[j]))
    return worst


def conditional_product_measure(kernels: list[np.ndarray]) -> np.ndarray:
    """Joint law on S^len from per-site conditional kernels.

    kernels[i][s, eta_code] = P(site_i = s | sites i+1.. = eta); the last
    kernel has a single context column.  Sites are ordered left to right and
    each site conditions on everything to its right.
    """
    size = kernels[0].shape[0]
    length = len(kernels)
    probs = np.empty(size**length)
    for code in range(size**length):
        word = decode(code, size, length)
        p = 1.0
        for i in range(length):
            eta_code = encode(word[i + 1 :], size)
            p *= kernels[i][word[i], eta_code]
        probs[code] = p
    return probs


def cylinder_interval(model, block, context) -> tuple[float, float]:
    """Interval product over the block's sites, one ``eval_indices`` call per
    site; ``block`` and ``context`` are symbol-index sequences."""
    combined = tuple(block) + tuple(context)
    lo = hi = 1.0
    for j in range(len(block)):
        mid, rad = model.eval_indices(combined[j:])
        lo *= max(mid - rad, 0.0)
        hi *= min(mid + rad, 1.0)
    return 0.5 * (lo + hi), 0.5 * (hi - lo)


def interval_product_loop(mid, rad):
    """Bounds ``(lo, hi)`` on products over the last axis of factors in
    [mid - rad, mid + rad], each clipped to [0, 1], multiplied column by
    column from the left."""
    lo = hi = 1.0
    for j in range(mid.shape[-1]):
        lo = lo * np.maximum(mid[..., j] - rad[..., j], 0.0)
        hi = hi * np.minimum(mid[..., j] + rad[..., j], 1.0)
    return lo, hi


def context_sums(model, context, hist, blocks, width: int) -> np.ndarray:
    """Long-range context sums of one side of one trajectory at every column
    of a right-aligned history of ``width`` columns.

    ``context`` holds the symbols at columns width, width + 1, ...;
    ``blocks`` the ``(c0, b)`` of each drawn block in drawing order, with
    symbols ``hist[c0:c0 + b]``.  Column c sums a_{c'-c} s(x_{c'}) over the
    context and the blocks that start right of c, one scalar term at a
    time: context first, then blocks in drawing order, sites left to right.
    The a_k are the model's stored coefficients.
    """
    a = model.context_weights(width + len(context)).tolist()
    sign = model.symbol_values.tolist()
    sums = []
    for c in range(width):
        total = 0.0
        for i, symbol in enumerate(context):
            total += sign[symbol] * a[width + i - c]
        for c0, b in blocks:
            if c0 > c:
                for col in range(c0, c0 + b):
                    total += sign[hist[col]] * a[col - c]
        sums.append(total)
    return np.array(sums)


def surrogate_table(model, memory: int) -> tuple[np.ndarray, float, float]:
    """Midpoint table over words of length memory+1, normalised per context,
    the largest normalisation correction and the largest half-width."""
    size = model.alphabet.size
    evals = np.array([model.eval_indices(decode(code, size, memory + 1))
                      for code in range(size ** (memory + 1))])
    grouped = evals[:, 0].reshape(size, size**memory)
    rowsums = grouped.sum(axis=0)
    return ((grouped / rowsums).reshape(-1), float(np.abs(rowsums - 1.0).max()),
            float(evals[:, 1].max()))


def block_law(model, block_len: int, known) -> tuple[np.ndarray, float]:
    """Normalised midpoint block law and its truncation slack, word by word."""
    size = model.alphabet.size
    mids, slack = [], 0.0
    for code in range(size**block_len):
        mid, half = cylinder_interval(model, decode(code, size, block_len), known)
        mids.append(mid)
        slack += half
    total = sum(mids)
    return np.array(mids) / total, (slack + abs(total - 1.0) if slack else 0.0)


def dn_enumerate(model, schedule, n: int, tail_len: int) -> tuple[float, float]:
    """Worst-case block-n total variation by enumerating agreeing parts and
    pairs of tails, as ``(lower, upper)``."""
    size = model.alphabet.size
    agree_len, block_len = schedule.B(n - 1), schedule.b(n)
    lower = upper = 0.0
    for code_a in range(size**agree_len):
        agree = decode(code_a, size, agree_len)
        laws = [block_law(model, block_len, agree + decode(code_t, size, tail_len))
                for code_t in range(size**tail_len)]
        for i, (p, slack_p) in enumerate(laws):
            for q, slack_q in laws[i:]:
                tv = total_variation(p, q)
                lower = max(lower, tv)
                upper = max(upper, tv + 0.5 * (slack_p + slack_q))
    return lower, max(upper, lower)


def csv_cell_by_cell(comments, header, columns) -> bytes:
    """A CLI CSV artifact built with one ``str`` call per cell, with no
    sharing between equal values."""
    lines = [f"# {c}" for c in comments]
    lines.append(",".join(header))
    lines.extend(map(",".join, zip(*(map(str, c) for c in columns), strict=True)))
    return ("\n".join(lines) + "\n").encode()
