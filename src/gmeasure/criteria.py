"""Uniqueness criteria for g-chains over parametric variation models.

The criteria act on the log-oscillation sequence var_n = var_{[0,n]}(log g)
(equivalently rho_n = exp(var_n)).  Closed-form tail laws (``tails``) are
classified from their asymptotic class; tabulated profiles can only be
reported as inconclusive with diagnostics, since a numeric prefix cannot
certify divergence of a series.

The Hellinger toolchain provides the affinity floor for a single
distribution pair, a total-variation bound built from per-site conditional
oscillation ratios, a certified cubic-remainder product floor, and the
resulting upper bounds for the worst-case block total variation d_n.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .coupling import BlockSchedule
from .errors import BudgetError, ConfigError, DEFAULT_BUDGET
from .tails import Exponential, FiniteRange, OneMinusPower, PowerLaw

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
    "hellinger_floor",
    "MAX_SITE_RATIO",
    "tv_bound_from_site_ratios",
    "cubic_remainder_constant",
    "CUBIC_REMAINDER_K2",
    "affinity_product_floor",
    "certify_cubic_remainder",
    "block_tv_bounds",
    "geometric_blocks",
    "coupling_bound_ratio",
]

SATISFIED = "satisfied"
VIOLATED = "violated"
INCONCLUSIVE = "inconclusive"

# Largest per-site oscillation ratio for which the Hellinger floor is
# non-negative: (1 + sqrt(2))**2.
MAX_SITE_RATIO = 3.0 + 2.0 * math.sqrt(2.0)


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
        windows[n] = float(sum(vm.var_at(i) ** 2 for i in range(lo, hi + 1)))
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
    tail: PowerLaw | Exponential | FiniteRange | OneMinusPower = FiniteRange(0),
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
# Hellinger toolchain


def hellinger_floor(rho: float) -> float:
    """Lower bound 1 - (sqrt(rho)-1)**2 / 2 for the Hellinger affinity
    sum sqrt(mu*nu) of two distributions with oscillation ratio rho."""
    if not rho >= 1:
        raise ConfigError("oscillation ratio must be >= 1")
    return 1.0 - 0.5 * (math.sqrt(rho) - 1.0) ** 2


def tv_bound_from_site_ratios(rhos: Sequence[float]) -> float:
    """Total-variation bound sqrt(1 - prod_i (1 - (sqrt(rho_i)-1)**2/2)**2).

    Valid for measures on a product of sites whose per-site conditional
    oscillation ratios are rho_i; each rho_i must lie in [1, MAX_SITE_RATIO]
    so the per-site affinity floor is non-negative.
    """
    prod = 1.0
    for rho in rhos:
        if rho > MAX_SITE_RATIO + 1e-12:
            raise ConfigError(
                f"site ratio {rho:.6f} exceeds the validity bound {MAX_SITE_RATIO:.6f}"
            )
        prod *= hellinger_floor(rho) ** 2
    return math.sqrt(max(1.0 - prod, 0.0))


def cubic_remainder_constant(lam: float) -> float:
    """Explicit constant K(lam) with (sqrt(rho)-1)**2 <= t**2/4 + K*t**3,
    t = log rho, for all rho in [1, lam].

    Derivation: with x = t/2, exp(x) - 1 - x <= x**2 * exp(x) / 2, so
    (e**(t/2)-1)**2 <= t**2/4 + t**3 * (e**(T/2)/8 + T*e**T/64) on [0, T].
    """
    if not 1 < lam < MAX_SITE_RATIO:
        raise ConfigError(f"lambda must lie in (1, {MAX_SITE_RATIO:.6f})")
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


def block_tv_bounds(vm, schedule: BlockSchedule, n: int) -> float | None:
    """The closed-form upper bound for the worst-case block-n total
    variation d_n from a variation model: sqrt(1 - prod (affinity floor)**2)
    over the sites [B_{n-1}, B_n - 1] separating the block from the agreement
    region, or None when some site ratio exceeds MAX_SITE_RATIO.

    ``vm`` is anything exposing var_at(n) (a variation profile or a
    parametric variation model).
    """
    if n < 1:
        raise ConfigError("block index must be >= 1")
    window = range(schedule.B(n - 1), schedule.B(n))
    rhos = [math.exp(vm.var_at(i)) for i in window]
    if all(r <= MAX_SITE_RATIO for r in rhos):
        return tv_bound_from_site_ratios(rhos)
    return None


# ---------------------------------------------------------------------------
# block schedules with geometric growth


def geometric_blocks(growth: float) -> BlockSchedule:
    """Schedule with partial sums B_0 = 0 and B_n = ceil(growth**n / (growth - 1)).

    The increments then satisfy floor(growth**(n-1)) <= b_n <=
    ceil(growth**(n-1)) for n >= 2 (the gap between consecutive partial sums
    is growth**(n-1) before rounding).
    """
    if not 1 < growth < math.inf:
        raise ConfigError("growth must be a finite number above 1")
    return BlockSchedule.closed_form(functools.partial(_geometric_partial_sum, growth))


def _geometric_partial_sum(growth: float, n: int) -> int:
    if n == 0:
        return 0
    try:
        return math.ceil(growth**n / (growth - 1.0))
    except OverflowError:
        raise ConfigError(
            f"partial sum B_{n} of the growth-{growth} schedule exceeds float range"
        ) from None
