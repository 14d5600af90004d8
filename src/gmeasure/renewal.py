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
disagreement probability.  Both alpha and the closed-form R_K of
``disagreement_bound_sweep`` are built on the chain's survival product
S_k = prod_{j<k} (1 - d_j), computed once per call by ``_survival``.

Note the summation in the recursion runs up to i = n (the i = n term pairs
alpha_n with u_0); direct enumeration of the chain confirms this indexing,
e.g. d_1 = 1, b = (1, 1) forces u_n = 1 for every n.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BudgetError, ConfigError, check_budget

__all__ = ["RenewalSpec", "AlphaBeta", "build_alphabeta", "renewal_solve",
           "disagreement_bound_sweep"]


@dataclass(frozen=True, eq=False)
class RenewalSpec:
    """Truncated chain data: d_1..d_K (non-increasing) as a float64 array
    and b_1..b_{K+1} as an int64 array; longer inputs are cut to these
    lengths.  A B_{K+1} of 2^62 or more, past what int64 safely holds,
    raises BudgetError like any other oversized run."""

    d: np.ndarray
    b: np.ndarray
    K: int

    def __post_init__(self):
        K = self.K
        if K < 1:
            raise ConfigError("truncation level K must be >= 1")
        if len(self.d) < K or len(self.b) < K + 1:
            raise ConfigError(f"need at least K={K} disagreement bounds and K+1 block lengths")
        d = np.array(self.d[:K], dtype=np.float64)
        # each check is written as "not all allowed", so that NaN fails it
        if not ((d >= 0.0) & (d <= 1.0)).all():
            raise ConfigError("d values must lie in [0, 1]")
        if not (np.diff(d) <= 0.0).all():
            raise ConfigError("d values must be non-increasing")
        lengths = np.asarray(self.b[: K + 1], dtype=np.float64)
        if not (np.isfinite(lengths).all() and (lengths >= 1).all() and (lengths % 1 == 0).all()):
            raise ConfigError("block lengths must be positive integers")
        if lengths.sum() >= 2.0**62:
            raise BudgetError(f"boundary B_{K + 1} = {lengths.sum():.6g} is beyond the int64 range")
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "b", np.array(self.b[: K + 1], dtype=np.int64))


@dataclass(frozen=True, eq=False)
class AlphaBeta:
    """Renewal data: alpha on the boundaries B_1..B_{K+1}, beta below B_{K+1}.

    ``masses[k]`` is alpha's mass at ``boundaries[k]`` (zero masses are kept
    so the structural support is explicit); ``beta[n]`` covers
    0 <= n < B_{K+1} and is zero beyond.  ``period`` is the gcd of the
    boundary set, the largest m with every boundary in m*N; it divides
    every index carrying alpha mass.
    """

    masses: np.ndarray
    beta: np.ndarray
    period: int
    boundaries: np.ndarray


def _survival(d: np.ndarray) -> np.ndarray:
    """S_0..S_K, S_k = prod_{j<k} (1 - d_j), multiplied in order from S_0 = 1."""
    return np.cumprod(np.concatenate(([1.0], 1.0 - d)))


def build_alphabeta(spec: RenewalSpec) -> AlphaBeta:
    """First-disagreement law alpha and boundary-layer term beta.

    alpha_{B_k} = d_k * S_k for k <= K, and the leftover S_{K+1} sits at
    B_{K+1}; beta_n repeats the alpha value of the block containing n.
    Block lengths are at least 1, so the boundaries are distinct.  beta
    holds B_{K+1} floats, so B_{K+1} is checked against the budget first.

    The masses telescope to 1; their float sum is checked against the
    rounding of that telescoping.  Each operation errs by a factor
    (1 + delta), |delta| <= eps/2 with eps = 2^-52, and each computed S_k
    lies in [0, 1].  Step k computes m_k = d_k S_k (1 + delta_1) and
    S_{k+1} = S_k (1 - d_k)(1 + delta_2)(1 + delta_3), so
    |m_k + S_{k+1} - S_k| <= S_k (eps + eps^2/4), and the exact sum of the
    computed masses, 1 + sum_{k<=K} (m_k + S_{k+1} - S_k), is within
    K (eps + eps^2/4) of 1.  Adding the K + 1 non-negative masses errs by
    at most K (eps/2)(1 + K eps) times their sum.  For K eps <= 1/4 the
    total is below 3 K eps, inside the bound 4 (K + 1) eps checked.
    """
    K = spec.K
    boundaries = np.cumsum(spec.b)
    check_budget(int(boundaries[-1]), f"boundary layer of B_{K + 1} = {boundaries[-1]} entries")
    masses = _survival(spec.d)
    masses[:K] *= spec.d
    total = float(masses.sum())
    if abs(total - 1.0) > 4 * (K + 1) * 2.0**-52:
        raise ConfigError(f"alpha masses sum to {total!r}, not 1")
    beta = np.repeat(masses, spec.b)
    return AlphaBeta(masses, beta, int(np.gcd.reduce(boundaries)), boundaries)


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
    carried = ab.masses != 0.0
    taps = list(zip(ab.boundaries[carried].tolist(), ab.masses[carried].tolist()))
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


def disagreement_bound_sweep(dbar_seq, b_seq, K_sweep) -> np.ndarray:
    """Asymptotic disagreement bound R_K for each truncation level K:

        R_K = [ sum_{k<=K} b_k d_k S_k + b_{K+1} S_{K+1} ]
              / [ sum_{k<=K} b_k S_k + b_{K+1} S_{K+1} ],   S_k = prod_{j<k}(1-d_j),

    the renewal-theorem limit of the chain built from the first K entries
    of ``dbar_seq`` and K+1 entries of ``b_seq``.  The inputs are validated
    once, as a ``RenewalSpec`` at the largest K; both partial sums are then
    one cumulative sum over k, so a sweep to K_max costs O(K_max).  Returns
    the rows (K, R_K) in the order of ``K_sweep``, as a float64 array of
    shape (len(K_sweep), 2), so the caller can take the minimum over K.
    """
    Ks = np.fromiter(K_sweep, dtype=np.int64)
    if not Ks.size:
        return np.empty((0, 2))
    if Ks.min() < 1:
        raise ConfigError("truncation level K must be >= 1")
    spec = RenewalSpec(dbar_seq, b_seq, int(Ks.max()))
    b, S = spec.b, _survival(spec.d)
    tail = b[1:] * S[1:]
    # the numerator's terms are (b_k d_k) S_k, as the chain's recursion rounds them
    R = (np.cumsum(b[:-1] * spec.d * S[:-1]) + tail) / (np.cumsum(b[:-1] * S[:-1]) + tail)
    return np.column_stack((Ks, R[Ks - 1]))
