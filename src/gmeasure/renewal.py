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
and beta is piecewise constant between boundaries.  The renewal theorem
then yields the limiting disagreement probability along the boundary
lattice, which is the asymptotic upper bound for the coupling's
per-coordinate disagreement probability.

Note the summation in the recursion runs up to i = n (the i = n term pairs
alpha_n with u_0); direct enumeration of the chain confirms this indexing,
e.g. d_1 = 1, b = (1, 1) forces u_n = 1 for every n.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import reduce

import numpy as np

from .errors import ConfigError

__all__ = [
    "RenewalSpec",
    "AlphaBeta",
    "build_alphabeta",
    "period",
    "effective_lattice",
    "renewal_solve",
    "renewal_limit",
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
        if any(int(v) != v or v < 1 for v in self.b):
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
    are at least 1, so the boundaries are distinct.
    """
    lengths = [int(v) for v in spec.b[: spec.K + 1]]
    boundaries = tuple(itertools.accumulate(lengths))
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


def period(ab: AlphaBeta) -> int:
    """gcd of the boundary support of alpha."""
    return ab.period


def effective_lattice(ab: AlphaBeta) -> int:
    """gcd of the boundaries that carry strictly positive alpha mass.

    When some d_k vanish this can be coarser than ``period``; the renewal
    sequence then converges only along multiples of this lattice.
    """
    support = [i for i, a in ab.alpha.items() if a > 0.0]
    return reduce(math.gcd, support)


def renewal_solve(ab: AlphaBeta, n_max: int) -> np.ndarray:
    """Exact renewal sequence u_0..u_{n_max}.

    The recursion is a linear constant-coefficient filter
    u_n - sum_i alpha_i u_{n-i} = beta_n, evaluated with scipy's IIR filter;
    the test suite validates it against direct enumeration of the chain.
    """
    if n_max < 0:
        raise ConfigError("n_max must be >= 0")
    beta = np.zeros(n_max + 1)
    m = min(n_max + 1, len(ab.beta))
    beta[:m] = ab.beta[:m]
    den = np.zeros(ab.boundaries[-1] + 1)
    den[0] = 1.0
    for i, a in ab.alpha.items():
        den[i] -= a
    from scipy.signal import lfilter  # ~0.4-0.6 s to import; only this solve needs it

    return lfilter([1.0], den, beta)


def renewal_limit(ab: AlphaBeta, lattice: int | None = None) -> float:
    """Renewal-theorem limit sum_n beta_{mn} / sum_n n*alpha_{mn}.

    With the default lattice m = period (the boundary gcd) the sums have the
    closed form

        [ sum_k b_k d_k prod_{j<k}(1-d_j) + b_{K+1} prod_{j<=K}(1-d_j) ]
        / [ sum_{k<=K+1} b_k prod_{j<k}(1-d_j) ],

    because every block length is then a multiple of m.  When some d_k are
    zero the sequence u converges only along ``effective_lattice``; pass it
    explicitly to get the limit the renewal theorem actually provides there.
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


def disagreement_bound_sweep(dbar_seq, b_seq, K_sweep) -> list[tuple[int, float]]:
    """Asymptotic disagreement bound for each truncation level K.

    For each K the bound is the renewal limit of the chain built from the
    first K entries of ``dbar_seq`` and K+1 entries of ``b_seq``.  The full
    sweep is reported so the caller can take the minimum over K.
    """
    dbar_seq = tuple(float(v) for v in dbar_seq)
    b_seq = tuple(int(v) for v in b_seq)
    out = []
    for K in K_sweep:
        spec = RenewalSpec(dbar_seq[:K], b_seq[: K + 1], K)
        out.append((K, renewal_limit(build_alphabeta(spec))))
    return out
