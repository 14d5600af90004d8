"""Renewal analysis of the dominating block chain.

A block coupling with schedule b_1, b_2, ... and non-increasing worst-case
block disagreement probabilities d_1 >= d_2 >= ... is stochastically
dominated by an auxiliary chain that, after a run of k agreeing blocks,
disagrees on the whole next block with probability d_{k+1} (k < K) and is
forced to disagree once the run reaches the truncation level K.

Writing u_n for the probability that the auxiliary chain disagrees at
coordinate -n, u satisfies a discrete renewal equation

    u_n = sum_{i=1}^{n} alpha_i * u_{n-i} + beta_n,      u_0 = beta_0,

where alpha is supported on the block boundaries B_1..B_{K+1} (alpha at B_k
is the probability that the first disagreeing block ends after k blocks)
and beta is piecewise constant between boundaries.  By the renewal theorem
u converges along the boundary lattice to sum_n beta_n / sum_n n*alpha_n,
the asymptotic upper bound R_K for the coupling's per-coordinate
disagreement probability.  ``disagreement_bound_sweep`` evaluates R_K in
closed form for every K in one pass over k; the renewal-theorem route
that it replaced is an oracle in ``tests/oracles.py``.

Note the summation in the recursion runs up to i = n (the i = n term pairs
alpha_n with u_0); direct enumeration of the chain confirms this indexing,
e.g. d_1 = 1, b = (1, 1) forces u_n = 1 for every n.

``renewal_solve`` uses numpy only: fixed-length chunks, each a few slice
additions for the boundary lags that reach back before the chunk and one
convolution with the truncated series 1 / (1 - alpha(z)).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import reduce

import numpy as np

from .errors import ConfigError, check_budget

__all__ = [
    "RenewalSpec",
    "AlphaBeta",
    "build_alphabeta",
    "renewal_solve",
    "disagreement_bound_sweep",
]


@dataclass(frozen=True)
class RenewalSpec:
    """Truncated chain data: d_1..d_K (non-increasing), b_1..b_{K+1}."""

    d: tuple[float, ...]
    b: tuple[int, ...]
    K: int

    def __post_init__(self):
        if self.K < 1:
            raise ConfigError("truncation level K must be >= 1")
        if len(self.d) < self.K:
            raise ConfigError(f"need at least K={self.K} disagreement bounds")
        if len(self.b) < self.K + 1:
            raise ConfigError(f"need at least K+1={self.K + 1} block lengths")
        if any(not 0.0 <= v <= 1.0 for v in self.d):
            raise ConfigError("d values must lie in [0, 1]")
        if any(self.d[i] < self.d[i + 1] - 1e-12 for i in range(self.K - 1)):
            raise ConfigError("d values must be non-increasing")
        if any(not v >= 1 or v % 1 for v in self.b):  # NaN and inf fail too
            raise ConfigError("block lengths must be positive integers")


@dataclass(frozen=True)
class AlphaBeta:
    """Renewal data: alpha on the boundaries B_1..B_{K+1}, beta below B_{K+1}.

    ``alpha`` maps each boundary to its mass (zero entries are kept so the
    structural support is explicit); ``beta[n]`` covers 0 <= n < B_{K+1} and
    is zero beyond.  ``period`` is the gcd of the boundary set, the largest
    m with every boundary in m*N; it divides every index carrying alpha mass.
    """

    alpha: dict[int, float]
    beta: np.ndarray
    period: int
    boundaries: tuple[int, ...]


def build_alphabeta(spec: RenewalSpec) -> AlphaBeta:
    """First-disagreement law alpha and boundary-layer term beta.

    alpha_{B_k} = d_k * prod_{j<k} (1 - d_j) for k <= K, and the leftover
    prod_{j<=K} (1 - d_j) sits at B_{K+1}; the masses telescope to 1.
    beta_n repeats the alpha value of the block containing n.  Block lengths
    are at least 1, so the boundaries are distinct.  beta holds B_{K+1}
    floats, so B_{K+1} is checked against the budget before it is built.
    """
    lengths = [int(v) for v in spec.b[: spec.K + 1]]
    boundaries = tuple(itertools.accumulate(lengths))
    check_budget(boundaries[-1], f"boundary layer of B_{spec.K + 1} = {boundaries[-1]} entries")
    masses = []
    survive = 1.0
    for d in spec.d[: spec.K]:
        masses.append(d * survive)
        survive *= 1.0 - d
    masses.append(survive)
    alpha = dict(zip(boundaries, masses))
    beta = np.repeat(masses, lengths)
    total = sum(alpha.values())
    if abs(total - 1.0) > 1e-12:
        raise ConfigError(f"alpha masses sum to {total!r}, not 1")
    m = reduce(math.gcd, boundaries)
    return AlphaBeta(alpha, beta, m, boundaries)


def renewal_solve(ab: AlphaBeta, n_max: int) -> np.ndarray:
    """Exact renewal sequence u_0..u_{n_max}.

    The recursion u = beta + alpha * u is solved in chunks of ``_CHUNK``
    entries.  A chunk first adds the alpha terms that read finished
    entries, one slice per boundary; its own part of the recursion is then
    one convolution with h, the first ``_CHUNK`` terms of 1 / (1 - alpha(z)),
    which is built once by the same scheme with chunk lengths doubling from
    1.  The work is (n_max + 1)(K + 1) tap reads plus one convolution per
    chunk.  The CLI budget counts the tap reads only: a chunk's convolution
    costs O(C log C) by FFT, C = ``_CHUNK`` (the direct route is taken only
    below that cost), so all convolutions together cost at most a fixed
    multiple of the tap reads.  The test suite validates the result against
    direct enumeration of the chain and against an all-pole IIR filter.
    """
    if n_max < 0:
        raise ConfigError("n_max must be >= 0")
    taps = [(i, a) for i, a in ab.alpha.items() if a != 0.0]
    u = np.zeros(n_max + 1)
    m = min(n_max + 1, len(ab.beta))
    u[:m] = ab.beta[:m]
    h = np.zeros(min(_CHUNK, n_max + 1))
    h[0] = 1.0
    done = 1
    while done < len(h):
        stop = min(2 * done, len(h))
        _solve_chunk(h, taps, done, stop, h[: stop - done])
        done = stop
    for start in range(0, n_max + 1, _CHUNK):
        _solve_chunk(u, taps, start, min(start + _CHUNK, n_max + 1), h)
    return u


# entries per chunk of the renewal solve; h holds this many terms
_CHUNK = 8192
# largest (trimmed support) x (length) product convolved directly; larger
# ones go through the FFT, which costs about as much as 2^21 direct terms
_DIRECT_MAX = 1 << 21


def _solve_chunk(u: np.ndarray, taps, start: int, stop: int, h: np.ndarray) -> None:
    """Solve u[start:stop] of u = rhs + alpha * u in place, given every
    entry before ``start``; on entry u[start:stop] holds the chunk's rhs.
    ``h`` holds at least the chunk's length of terms of 1 / (1 - alpha(z))."""
    rhs = u[start:stop]
    for i, a in taps:
        lo = max(start - i, 0)
        hi = min(stop - i, start)
        if lo < hi:
            rhs[lo + i - start : hi + i - start] += a * u[lo:hi]
    _convolve_head(rhs, h)


def _convolve_head(x: np.ndarray, h: np.ndarray) -> None:
    """Replace x in place by the first len(x) terms of the convolution x * h.

    Leading and trailing zeros of x are trimmed first.  A small product of
    the support and the length is convolved directly, so 0/1 data give
    exact results; a larger one goes through ``rfft``/``irfft``.
    """
    support = np.flatnonzero(x)
    if support.size == 0:
        return
    lo, hi = int(support[0]), int(support[-1]) + 1
    n = len(x) - lo
    if (hi - lo) * n <= _DIRECT_MAX:
        x[lo:] = np.convolve(x[lo:hi], h[:n])[:n]
    else:
        size = 1 << (hi - lo + n - 2).bit_length()  # the full length: no wrap into the head
        x[lo:] = np.fft.irfft(np.fft.rfft(x[lo:hi], size) * np.fft.rfft(h[:n], size), size)[:n]


def disagreement_bound_sweep(dbar_seq, b_seq, K_sweep) -> list[tuple[int, float]]:
    """Asymptotic disagreement bound R_K for each truncation level K:

        R_K = [ sum_{k<=K} b_k d_k S_k + b_{K+1} S_{K+1} ]
              / [ sum_{k<=K} b_k S_k + b_{K+1} S_{K+1} ],   S_k = prod_{j<k}(1-d_j),

    the renewal-theorem limit of the chain built from the first K entries
    of ``dbar_seq`` and K+1 entries of ``b_seq``.  The inputs are validated
    once, as a ``RenewalSpec`` at the largest K; one pass over k then
    carries S_k and the two partial sums and emits R_K at every K, so a
    sweep to K_max costs O(K_max).  The full sweep is reported so the
    caller can take the minimum over K.
    """
    K_sweep = list(K_sweep)
    if not K_sweep:
        return []
    if min(K_sweep) < 1:
        raise ConfigError("truncation level K must be >= 1")
    K_max = max(K_sweep)
    d = tuple(float(v) for v in dbar_seq[:K_max])
    spec = RenewalSpec(d, tuple(b_seq[: K_max + 1]), K_max)
    b = [int(v) for v in spec.b]
    ratios = []
    survive, num, den = 1.0, 0.0, 0.0
    for k, d_k in enumerate(d):
        num += b[k] * d_k * survive
        den += b[k] * survive
        survive *= 1.0 - d_k
        tail = b[k + 1] * survive
        ratios.append((num + tail) / (den + tail))
    return [(K, ratios[K - 1]) for K in K_sweep]
