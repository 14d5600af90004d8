"""Uniqueness criteria for g-chains over parametric variation models.

The criteria act on the log-oscillation sequence var_n = var_{[0,n]}(log g),
or on an upper bound with its asymptotic class, such as a variation
profile's x_n = rho_n - 1.  Closed-form tail laws (``tails``) are classified
from that class; tabulated profiles are reported inconclusive, since a
numeric prefix cannot certify divergence of a series.  ``block_tv_bounds``
bounds block total variations by the exact per-site affinity floor; the
cubic-remainder floor of the older Hellinger floor is the paper's own.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .coupling import BlockSchedule
from .errors import BudgetError, ConfigError, DEFAULT_BUDGET
from .tails import Exponential, FiniteRange, PowerLaw

# The one R_K pass lives in ``renewal``.  This second name stays public only
# because the benchmark imports it (bench/workloads.py) and times it
# (bench/tracing.py, whose hooks tests/test_exports.py resolves); it goes
# with the benchmark change that drops those uses.
from .renewal import disagreement_bound_sweep as coupling_bound_ratio

__all__ = [
    "SATISFIED",
    "VIOLATED",
    "INCONCLUSIVE",
    "CriterionReport",
    "check_square_summable_variation",
    "check_rho_product_series",
    "check_variation_o_sqrt",
    "check_geometric_window_sums",
    "check_single_site_series",
    "tv_bound_from_site_ratios",
    "cubic_remainder_constant",
    "CUBIC_REMAINDER_K2",
    "affinity_product_floor",
    "certify_cubic_remainder",
    "block_tv_bounds",
    "coupling_bound_ratio",
]

SATISFIED = "satisfied"
VIOLATED = "violated"
INCONCLUSIVE = "inconclusive"


@dataclass
class CriterionReport:
    criterion: str
    verdict: str
    evidence: dict = field(default_factory=dict)


def _tabulated_report(name: str, vm) -> CriterionReport:
    terms = 64
    partial = float(sum(vm.var_at(n) ** 2 for n in range(terms)))
    return CriterionReport(
        name,
        INCONCLUSIVE,
        {"kind": "tabulated", "square_partial_sum": partial, "terms": terms},
    )


def _verdict(holds: bool) -> str:
    return SATISFIED if holds else VIOLATED


def _product_series(c: float, p: float, scale: float) -> tuple[str, dict]:
    """Does sum_n exp(-scale * sum_{i<=n} x_i) diverge for x_i ~ c * i**(-p)?

      * bounded partial sums (summable x) -> terms bounded below -> diverges;
      * x_i ~ c/i -> terms ~ n**(-scale*c) -> diverges iff scale*c <= 1;
      * partial sums growing like a power of n -> stretched-exponential terms
        -> converges.
    """
    if c == 0 or p > 1:
        return SATISFIED, {"kind": "bounded_product"}
    if p == 1:
        return _verdict(scale * c <= 1), {"kind": "harmonic", "term_exponent": scale * c}
    return VIOLATED, {"kind": "stretched_exponential", "sum_exponent": 1 - p}


# ---------------------------------------------------------------------------
# series criteria
#
# Each criterion reads the variation law's asymptotic class (c, p), var_n ~
# c * n**(-p); p = inf marks laws below every power, which satisfy all four.
# Anything without a class (a tabulated profile) is inconclusive.


def check_square_summable_variation(vm) -> CriterionReport:
    """Does sum_n var_n**2 converge?"""
    name = "square_summable_variation"
    if not hasattr(vm, "asymptotic"):
        return _tabulated_report(name, vm)
    c, p = vm.asymptotic
    if p == math.inf:
        return CriterionReport(name, SATISFIED, {"kind": "closed_form"})
    return CriterionReport(
        name, _verdict(c == 0 or 2 * p > 1), {"kind": "p_series", "exponent": 2 * p}
    )


def check_rho_product_series(vm, epsilon: float) -> CriterionReport:
    """Does sum_n prod_{i<=n} rho_i**(-(1/2+epsilon)) diverge?

    The n-th term is exp(-(1/2+eps) * sum_{i<=n} var_i), so the verdict is
    governed by the growth of the partial sums of var.
    """
    name = "rho_product_series"
    if not epsilon > 0:
        raise ConfigError("epsilon must be positive")
    if not hasattr(vm, "asymptotic"):
        return _tabulated_report(name, vm)
    c, p = vm.asymptotic
    return CriterionReport(name, *_product_series(c, p, 0.5 + epsilon))


def check_variation_o_sqrt(vm) -> CriterionReport:
    """Is var_n = o(n**(-1/2))?"""
    name = "variation_o_sqrt"
    if not hasattr(vm, "asymptotic"):
        return _tabulated_report(name, vm)
    c, p = vm.asymptotic
    if p == math.inf:
        return CriterionReport(name, SATISFIED, {"kind": "closed_form"})
    return CriterionReport(name, _verdict(c == 0 or p > 0.5), {"kind": "power", "p": p})


def check_geometric_window_sums(vm, lam: float) -> CriterionReport:
    """Do the window sums sum_{i=ceil(lam^(n-1))}^{ceil(lam^n)} var_i**2 vanish?

    For var_i = c*(i+1)**(-1/2) the window sums converge to c**2 * log(lam)
    (the geometric windows of the harmonic series), so the verdict cannot
    depend on which lam > 1 is used.  The windows end at ceil(lam^8), so
    BudgetError is raised, before any term is summed, when that exceeds
    ``DEFAULT_BUDGET``.
    """
    name = "geometric_window_sums"
    if not 1 < lam < math.inf:
        raise ConfigError("lambda must be finite and exceed 1")
    # compared in logs: lam**8 itself overflows for large lam
    if 8 * math.log(lam) > math.log(DEFAULT_BUDGET):
        raise BudgetError(
            f"window end ceil(lambda^8) for lambda={lam} exceeds budget {DEFAULT_BUDGET}"
        )
    if not hasattr(vm, "asymptotic"):
        return _tabulated_report(name, vm)
    windows = {}
    for n in (4, 6, 8):
        lo, hi = math.ceil(lam ** (n - 1)), math.ceil(lam**n)
        try:  # Python floats: a square past the float range raises, a sum goes to inf
            windows[n] = float(sum(float(vm.var_at(i)) ** 2 for i in range(lo, hi + 1)))
        except OverflowError:
            windows[n] = math.inf
    if math.inf in windows.values():
        raise ConfigError(f"window sums of var_i**2 overflow floats for {vm}")
    c, p = vm.asymptotic
    if p == math.inf:
        return CriterionReport(
            name, SATISFIED, {"kind": "closed_form", "limit": 0.0, "windows": windows}
        )
    holds = c == 0 or p > 0.5
    limit = 0.0 if holds else c**2 * math.log(lam) if p == 0.5 else math.inf
    return CriterionReport(
        name, _verdict(holds), {"kind": "power", "limit": limit, "windows": windows}
    )


# ---------------------------------------------------------------------------
# single-site coupling series


def check_single_site_series(
    values: Sequence[float] = (),
    tail: PowerLaw | Exponential | FiniteRange = FiniteRange(0),
) -> CriterionReport:
    """Does sum_n prod_{i<=n} (1 - d_i) diverge, for single-site disagreement
    bounds d_1, d_2, ...: the explicit prefix ``values``, then the closed-form
    ``tail`` law (identically zero by default)?

    Divergence of this series is a sufficient condition for a unique
    g-measure.  prod (1 - d_i) behaves like exp(-sum d_i) (for d_i ~ a/i,
    like n**(-a)), so the tail law's class decides as for the rho-product
    series with scale 1.
    """
    name = "single_site_series"
    if any(not 0 <= v <= 1 for v in values):
        raise ConfigError("d values must lie in [0, 1]")
    if any(v >= 1.0 for v in values):
        return CriterionReport(name, VIOLATED, {"kind": "prefix_hits_one"})
    c, p = tail.asymptotic
    return CriterionReport(name, *_product_series(c, p, 1.0))


# ---------------------------------------------------------------------------
# site-ratio bounds


def tv_bound_from_site_ratios(xs: Sequence[float], starts: Sequence[int] = (0,)) -> np.ndarray:
    """Total-variation bounds d = sqrt(1 - prod_i sech(t_i/2)**2), one per
    block of sites ``xs[starts[j]:starts[j + 1]]``, the last running to the
    end (by default one block of every site; only the last may be empty, with
    bound 0), for any per-site oscillation ratios e**t_i = 1 + x_i, x = ``xs``.
    With y_i = (x_i/(2 + x_i))**2, d**2 = sum_i y_i prod_{j<i} (1 - y_j) in
    nonnegative terms, summed in site order bit for bit as a scalar loop, by
    ``np.cumprod`` and ``np.cumsum`` along one (blocks, b) array per block
    length b.  The squares are of z scaled by an exact power of 2, so a
    positive x cannot underflow to a bound of 0."""
    xs = np.asarray(xs, dtype=float)
    if not ((xs >= 0) & (xs < np.inf)).all():  # NaN fails too
        raise ConfigError("site ratio excesses x = rho - 1 must be finite and >= 0")
    z = xs / (2.0 + xs)
    starts = np.asarray(starts)
    lengths = np.diff(starts, append=len(xs))
    bounds = np.zeros(len(starts))
    for b in (np.flatnonzero(np.bincount(lengths)[1:]) + 1).tolist():
        blocks = np.flatnonzero(lengths == b)
        zb = z[starts[blocks, None] + np.arange(b)]
        scale = np.frexp(zb.max(axis=1, keepdims=True))[1]  # max zb < 2**scale
        terms = np.ldexp(zb, -scale) ** 2
        terms[:, 1:] *= np.cumprod(1.0 - zb[:, :-1] ** 2, axis=1)
        bounds[blocks] = np.ldexp(np.sqrt(np.cumsum(terms, axis=1)[:, -1]), scale[:, 0])
    return bounds


def cubic_remainder_constant(lam: float) -> float:
    """Explicit constant K(lam) with (sqrt(rho)-1)**2 <= t**2/4 + K*t**3,
    t = log rho, for all rho in [1, lam].

    Derivation: with x = t/2, exp(x) - 1 - x <= x**2 * exp(x) / 2, so
    (e**(t/2)-1)**2 <= t**2/4 + t**3 * (e**(T/2)/8 + T*e**T/64) on [0, T].
    """
    top = 3.0 + 2.0 * math.sqrt(2.0)  # (1 + sqrt(2))**2, where 1 - (sqrt(rho)-1)**2/2 is 0
    if not 1 < lam < top:
        raise ConfigError(f"lambda must lie in (1, {top:.6f})")
    T = math.log(lam)
    return math.exp(0.5 * T) / 8.0 + T * math.exp(T) / 64.0


CUBIC_REMAINDER_K2 = cubic_remainder_constant(2.0)


def certify_cubic_remainder(lam: float, grid: int = 100_000) -> float:
    """Smallest margin of t**2/4 + K*t**3 - (sqrt(rho)-1)**2 over a dense
    t-grid on (0, log lam]; non-negative output certifies the constant."""
    K = cubic_remainder_constant(lam)
    t = np.linspace(0.0, math.log(lam), grid + 1)[1:]
    margin = t**2 / 4 + K * t**3 - np.expm1(t / 2.0) ** 2
    return float(margin.min())


def affinity_product_floor(rhos: Sequence[float]) -> float:
    """Lower bound for prod_i (1 - (sqrt(rho_i)-1)**2/2)**2 via log-ratios:

        1 - sum_i ( (log rho_i)**2 / 4 + K(2) * (log rho_i)**3 ),

    valid for 1 <= rho_i <= 2.  The product floor itself never exceeds the
    exact product (Weierstrass inequality plus the cubic remainder bound).
    """
    acc = 0.0
    for rho in rhos:
        if not 1.0 <= rho <= 2.0 + 1e-12:
            raise ConfigError(f"rho={rho} outside [1, 2]")
        t = math.log(rho)
        acc += t * t / 4.0 + CUBIC_REMAINDER_K2 * t**3
    return 1.0 - acc


# ---------------------------------------------------------------------------
# block total-variation bounds


def block_tv_bounds(vm, schedule: BlockSchedule, n: int) -> np.ndarray:
    """Closed-form upper bounds for the worst-case block total variations
    d_1..d_n, as one float64 array: d_k is ``tv_bound_from_site_ratios`` over
    the x_i = rho_i - 1 of the sites [B_{k-1}, B_k - 1] that separate block k
    from the agreement region, read from ``vm.var_at`` (a variation profile
    holds x; a tail law is read as a law for x).  If p/q lies in [1/rho, rho],
    rho = e**t, then sum sqrt(p*q) = E_q[sqrt(p/q)] >= 2 sqrt(rho)/(1 + rho)
    = sech(t/2), attained on the two-point law at 1/rho and rho (Le Cam &
    Yang 2000); 1 - sech(t/2)**2 = (x/(2 + x))**2, and one site's bound
    tanh(t/2) is sharp (Birkhoff 1957).  The floor is positive for every
    ratio, so every finite x >= 0 is accepted."""
    if n < 1:
        raise ConfigError("block index must be >= 1")
    starts = schedule.partial_sums(n)
    return tv_bound_from_site_ratios(vm.var_at(np.arange(starts[-1])), starts[:-1])
