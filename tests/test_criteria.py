import math

import numpy as np
import pytest

from gmeasure import (
    CUBIC_REMAINDER_K2,
    ConfigError,
    Exponential,
    FiniteRange,
    MAX_SITE_RATIO,
    OneMinusPower,
    PowerLaw,
    RenewalSpec,
    TransferOperator,
    VariationProfile,
    affinity_product_floor,
    block_tv_bounds,
    build_alphabeta,
    check_geometric_window_sums,
    check_rho_product_series,
    check_single_site_series,
    check_square_summable_variation,
    check_variation_o_sqrt,
    constant_schedule,
    dbar,
    disagreement_bound_sweep,
    dn_bruteforce,
    geometric_blocks,
    hellinger_floor,
    stationary,
    tv_bound_from_site_ratios,
    variation_profile,
)
from gmeasure.criteria import (
    INCONCLUSIVE,
    SATISFIED,
    VIOLATED,
    certify_cubic_remainder,
    coupling_bound_ratio,
    cubic_remainder_constant,
)
from oracles import conditional_product_measure, renewal_limit, total_variation


# --- series criteria -----------------------------------------------------------


def test_square_summable_classification():
    assert check_square_summable_variation(PowerLaw(1, 2, offset=1)).verdict == SATISFIED
    assert check_square_summable_variation(PowerLaw(1, 0.5, offset=1)).verdict == VIOLATED
    assert check_square_summable_variation(FiniteRange(3)).verdict == SATISFIED
    assert check_square_summable_variation(Exponential(1, 0.5)).verdict == SATISFIED


def test_rho_product_series_classification():
    assert check_rho_product_series(FiniteRange(2), 0.1).verdict == SATISFIED
    assert check_rho_product_series(PowerLaw(1, 2, offset=1), 0.1).verdict == SATISFIED
    # harmonic boundary: terms ~ n**(-(1/2+eps)c)
    assert check_rho_product_series(PowerLaw(1.0, 1, offset=1), 0.25).verdict == SATISFIED
    assert check_rho_product_series(PowerLaw(1.4, 1, offset=1), 0.25).verdict == VIOLATED
    assert check_rho_product_series(PowerLaw(1, 0.6, offset=1), 0.1).verdict == VIOLATED
    with pytest.raises(ConfigError):
        check_rho_product_series(PowerLaw(1, 2, offset=1), 0.0)


def test_variation_o_sqrt_classification():
    assert check_variation_o_sqrt(PowerLaw(1, 1, offset=1)).verdict == SATISFIED
    assert check_variation_o_sqrt(PowerLaw(1, 0.5, offset=1)).verdict == VIOLATED
    assert check_variation_o_sqrt(Exponential(2, 0.9)).verdict == SATISFIED


def test_window_sums_classification_and_evidence():
    report = check_geometric_window_sums(PowerLaw(1, 1, offset=1), 2.0)
    assert report.verdict == SATISFIED and report.evidence["limit"] == 0.0
    report = check_geometric_window_sums(PowerLaw(1, 0.5, offset=1), 2.0)
    assert report.verdict == VIOLATED
    assert report.evidence["limit"] == pytest.approx(math.log(2.0), abs=1e-12)
    report = check_geometric_window_sums(PowerLaw(2, 0.5, offset=1), 3.0)
    assert report.evidence["limit"] == pytest.approx(4 * math.log(3.0), abs=1e-12)
    assert check_geometric_window_sums(PowerLaw(1, 0.3, offset=1), 2.0).verdict == VIOLATED
    with pytest.raises(ConfigError):
        check_geometric_window_sums(PowerLaw(1, 1, offset=1), 1.0)


def test_window_sums_numeric_windows_approach_limit():
    report = check_geometric_window_sums(PowerLaw(1, 0.5, offset=1), 2.0)
    windows = report.evidence["windows"]
    assert abs(windows[8] - math.log(2.0)) < abs(windows[4] - math.log(2.0))


def test_lambda_invariance_of_verdicts():
    for vm in (PowerLaw(1, 2, offset=1), PowerLaw(1, 0.5, offset=1),
               PowerLaw(1, 0.3, offset=1), Exponential(1, 0.7)):
        verdicts = {check_geometric_window_sums(vm, lam).verdict for lam in (1.5, 2, 4)}
        assert len(verdicts) == 1


def test_tabulated_is_inconclusive():
    vm = VariationProfile((0.5, 0.4, 0.3), PowerLaw(0.3, 2, offset=1))
    for report in (
        check_square_summable_variation(vm),
        check_rho_product_series(vm, 0.1),
        check_variation_o_sqrt(vm),
        check_geometric_window_sums(vm, 2.0),
    ):
        assert report.verdict == INCONCLUSIVE
        assert "square_partial_sum" in report.evidence


def test_tabulated_window_sums_sum_no_window(monkeypatch):
    # a tabulated profile gets the inconclusive report before any window is
    # summed: the only var_at calls left are the report's own partial sum
    vm = VariationProfile((0.5, 0.4, 0.3), PowerLaw(0.3, 2, offset=1))
    seen = []
    var_at = VariationProfile.var_at

    def counted(self, n):
        seen.append(n)
        return var_at(self, n)

    monkeypatch.setattr(VariationProfile, "var_at", counted)
    report = check_geometric_window_sums(vm, 6.7)
    assert report.verdict == INCONCLUSIVE and "windows" not in report.evidence
    assert sum(n >= report.evidence["terms"] for n in seen) == 0


def test_tabulated_validation():
    with pytest.raises(ConfigError):
        VariationProfile((0.1, 0.5))
    with pytest.raises(ConfigError):
        VariationProfile((0.5, 0.1)).var_at(5)


# --- single-site series -----------------------------------------------------------


def test_single_site_series_examples():
    assert check_single_site_series().verdict == SATISFIED
    report = check_single_site_series(tail=OneMinusPower(1, 1))
    assert report.verdict == VIOLATED  # d_n = 1 - 1/n, products decay factorially
    # d_n = a/n with a < 1
    assert check_single_site_series(tail=PowerLaw(0.5, 1)).verdict == SATISFIED
    assert check_single_site_series(tail=PowerLaw(2.0, 1)).verdict == VIOLATED
    assert check_single_site_series(tail=PowerLaw(0.9, 0.5)).verdict == VIOLATED
    assert check_single_site_series(tail=PowerLaw(5.0, 2)).verdict == SATISFIED
    assert check_single_site_series(tail=PowerLaw(0.2, 0)).verdict == VIOLATED
    # a prefix entry of 1 kills every product
    assert check_single_site_series(values=(1.0,), tail=FiniteRange(0)).verdict == VIOLATED


def test_single_site_tv_bound_dominates_exact(longrange, rng):
    # half the summed first-symbol differences vs rho - 1, on random pairs
    for n in (1, 2, 4):
        rho_upper = longrange.rho(n)
        for _ in range(100):
            common = rng.integers(0, 2, n)
            tx = rng.integers(0, 2, 60)
            ty = rng.integers(0, 2, 60)
            half_sum = 0.0
            slack = 0.0
            for s in (0, 1):
                vx, ex = longrange.eval_indices(np.concatenate([[s], common, tx]))
                vy, ey = longrange.eval_indices(np.concatenate([[s], common, ty]))
                half_sum += 0.5 * abs(vx - vy)
                slack += ex + ey
            assert half_sum <= rho_upper - 1.0 + slack + 1e-12


# --- Hellinger toolchain ------------------------------------------------------


def test_hellinger_floor_values():
    assert hellinger_floor(1.0) == 1.0
    assert hellinger_floor(MAX_SITE_RATIO) == pytest.approx(0.0, abs=1e-12)
    assert hellinger_floor(4.0) == pytest.approx(0.5, abs=1e-15)
    with pytest.raises(ConfigError):
        hellinger_floor(0.5)


def test_hellinger_floor_on_random_distributions(rng):
    for _ in range(2000):
        size = int(rng.integers(2, 17))
        base = rng.uniform(0.05, 1.0, size)
        ratios = rng.uniform(1.0, 5.0, size)
        nu = base / base.sum()
        mu = base * ratios
        mu /= mu.sum()
        rho = float(max((mu / nu).max(), (nu / mu).max()))
        assert rho <= 5.0 + 1e-9
        affinity = float(np.sqrt(mu * nu).sum())
        assert affinity >= hellinger_floor(rho) - 1e-12


NAN_ARGUMENTS = {
    "stationary tol": lambda iid: stationary(TransferOperator(iid), tol=math.nan),
    "dbar tail bound": lambda iid: dbar((0.3, 0.1), math.nan),
    "hellinger_floor ratio": lambda iid: hellinger_floor(math.nan),
    "tv_bound_from_site_ratios ratio": lambda iid: tv_bound_from_site_ratios([math.nan]),
}


@pytest.mark.parametrize("case", sorted(NAN_ARGUMENTS))
def test_nan_fails_the_sign_checks(case, iid):
    with pytest.raises(ConfigError):
        NAN_ARGUMENTS[case](iid)


def test_tv_bound_values():
    assert tv_bound_from_site_ratios([1.0, 1.0, 1.0]) == 0.0
    assert tv_bound_from_site_ratios([4.0]) == pytest.approx(math.sqrt(0.75), abs=1e-12)
    with pytest.raises(ConfigError):
        tv_bound_from_site_ratios([MAX_SITE_RATIO + 0.1])
    with pytest.raises(ConfigError):
        tv_bound_from_site_ratios([0.5])


def random_kernel_pair(rng, length, ratio_cap):
    """Conditional kernels for two measures with per-site ratios <= ratio_cap."""
    mu_k, nu_k = [], []
    for i in range(length):
        n_ctx = 2 ** (length - 1 - i)
        base = rng.uniform(0.1, 1.0, (2, n_ctx))
        base /= base.sum(axis=0)
        pert = base * rng.uniform(1.0, ratio_cap, (2, n_ctx))
        pert /= pert.sum(axis=0)
        nu_k.append(base)
        mu_k.append(pert)
    return mu_k, nu_k


def site_ratios(mu_k, nu_k):
    out = []
    for a, b in zip(mu_k, nu_k):
        out.append(float(max((a / b).max(), (b / a).max())))
    return out


def test_tv_bound_dominates_exact_tv(rng):
    for _ in range(200):
        length = int(rng.integers(1, 7))
        mu_k, nu_k = random_kernel_pair(rng, length, 3.0)
        rhos = site_ratios(mu_k, nu_k)
        assert max(rhos) <= MAX_SITE_RATIO
        mu = conditional_product_measure(mu_k)
        nu = conditional_product_measure(nu_k)
        assert total_variation(mu, nu) <= tv_bound_from_site_ratios(rhos) + 1e-12


def test_cubic_remainder_certification():
    assert CUBIC_REMAINDER_K2 == pytest.approx(cubic_remainder_constant(2.0))
    assert CUBIC_REMAINDER_K2 > 0.125  # strictly above the tight cubic coefficient
    for lam in (1.2, 2.0, 3.0, 5.0):
        assert certify_cubic_remainder(lam) >= 0.0
    with pytest.raises(ConfigError):
        cubic_remainder_constant(MAX_SITE_RATIO + 0.5)


def test_affinity_floor_values():
    assert affinity_product_floor([1.0, 1.0]) == 1.0
    with pytest.raises(ConfigError):
        affinity_product_floor([2.5])


def test_affinity_floor_below_exact_product(rng):
    for _ in range(2000):
        n = int(rng.integers(1, 9))
        rhos = rng.uniform(1.0, 2.0, n)
        exact = float(np.prod([(1 - 0.5 * (math.sqrt(r) - 1) ** 2) ** 2 for r in rhos]))
        assert affinity_product_floor(rhos) <= exact + 1e-12


def test_affinity_floor_gap_vanishes_near_one():
    for rho in (1.0001, 1.001, 1.01):
        exact = (1 - 0.5 * (math.sqrt(rho) - 1) ** 2) ** 2
        gap = exact - affinity_product_floor([rho])
        assert 0 <= gap < (rho - 1) ** 2


# --- block bounds ---------------------------------------------------------------


def test_block_bounds_zero_for_finite_range():
    vm = FiniteRange(2, level=0.3)
    sched = constant_schedule(1)
    assert block_tv_bounds(vm, sched, 4) == 0.0  # window sites {3}: var = 0


def test_block_bounds_dominate_bruteforce(longrange):
    profile = variation_profile(longrange, 40)
    sched = constant_schedule(1)
    for n in (1, 2, 3):
        lower, upper = dn_bruteforce(longrange, sched, n, 4)
        bound = block_tv_bounds(profile, sched, n)
        assert lower <= bound + (upper - lower) + 1e-12


def test_every_block_bound_field_dominates_the_bruteforce_witness(longrange):
    # the power-law benchmark model on const:1: a bound on d_n can never
    # fall below the largest total variation dn_bruteforce finds
    profile = variation_profile(longrange, 40)
    sched = constant_schedule(1)
    for n in range(1, 5):
        lower, _ = dn_bruteforce(longrange, sched, n, 6)
        bound = block_tv_bounds(profile, sched, n)
        assert bound >= lower, (n, bound, lower)


def test_block_bounds_validity_windows():
    vm = FiniteRange(3, level=2.0)  # rho = e^2 > (1+sqrt(2))^2 early on
    sched = constant_schedule(1)
    assert block_tv_bounds(vm, sched, 1) is None
    assert block_tv_bounds(vm, sched, 5) == 0.0


# --- geometric schedules and the closed-form ratio -------------------------------


def test_geometric_blocks_doubling():
    sched = geometric_blocks(2.0)
    assert [sched.B(n) for n in range(1, 5)] == [2, 4, 8, 16]
    assert [sched.b(n) for n in range(1, 5)] == [2, 2, 4, 8]


def test_geometric_blocks_increasing():
    lengths = [geometric_blocks(1.5).b(n) for n in range(1, 7)]
    assert all(b >= 1 for b in lengths)
    assert lengths[-1] > lengths[1]


def test_geometric_blocks_bracketing_shifted():
    # increments track growth**(n-1): floor(g^(n-1)) <= b_n <= ceil(g^(n-1))
    for growth in (1.25, 1.5, 2.0, 3.0):
        sched = geometric_blocks(growth)
        for n in range(2, 13):
            step = growth ** (n - 1)
            assert math.floor(step) <= sched.b(n) <= math.ceil(step)


@pytest.mark.xfail(
    strict=True,
    reason="with B_n = ceil(growth^n/(growth-1)) the increments track "
    "growth^(n-1), not growth^n; see docs/decisions.md",
)
def test_geometric_blocks_bracketing_literal():
    sched = geometric_blocks(2.0)
    for n in range(2, 9):
        assert math.floor(2.0**n) <= sched.b(n) <= math.ceil(2.0**n)


def test_ratio_unit_blocks_numerator_is_one(rng):
    for _ in range(20):
        K = int(rng.integers(1, 5))
        d = tuple(sorted(rng.uniform(0, 1, K), reverse=True))
        ratio = disagreement_bound_sweep(d, (1,) * (K + 1), [K])[0][1]
        den = 0.0
        survive = 1.0
        for k in range(K):
            den += survive
            survive *= 1 - d[k]
        den += survive
        assert ratio == pytest.approx(1 / den, abs=1e-12)


def test_ratio_equals_renewal_limit(rng):
    for _ in range(50):
        K = int(rng.integers(1, 6))
        d = tuple(sorted(rng.uniform(0.02, 0.98, K), reverse=True))
        b = tuple(int(v) for v in rng.integers(1, 6, K + 1))
        ratio = disagreement_bound_sweep(d, b, [K])[0][1]
        ab = build_alphabeta(RenewalSpec(d, b, K))
        assert ratio == pytest.approx(renewal_limit(ab), abs=1e-12)


def test_ratio_zero_d_geometric_limit_corrected():
    # share of the final block: (growth - 1) / growth
    for growth in (1.25, 1.5, 2.0):
        sched = geometric_blocks(growth)
        lengths = [sched.b(n) for n in range(1, 25)]
        ratio = disagreement_bound_sweep((0.0,) * 20, lengths, [20])[0][1]
        assert ratio == pytest.approx((growth - 1) / growth, abs=1e-3)


@pytest.mark.xfail(
    strict=True,
    reason="the final-block share of a geometric schedule converges to "
    "(growth-1)/growth, not growth-1; see docs/decisions.md",
)
def test_ratio_zero_d_geometric_limit_literal():
    sched = geometric_blocks(1.5)
    lengths = [sched.b(n) for n in range(1, 25)]
    ratio = coupling_bound_ratio((0.0,) * 20, lengths, [20])[0][1]
    assert ratio == pytest.approx(0.5, abs=1e-3)


def test_ratio_input_validation():
    with pytest.raises(ConfigError):
        disagreement_bound_sweep((0.5,), (1,), [1])
    with pytest.raises(ConfigError):
        disagreement_bound_sweep((0.5,), (1, 1), [2])


@pytest.mark.parametrize("make", [
    lambda: PowerLaw(math.nan, 2.0),
    lambda: PowerLaw(1.0, math.nan),
    lambda: Exponential(math.nan, 0.5),
    lambda: Exponential(1.0, math.nan),
    lambda: FiniteRange(3, math.nan),
], ids=["power_c", "power_p", "exponential_c", "exponential_r", "finite_range_level"])
def test_tail_laws_reject_nan(make):
    with pytest.raises(ConfigError):
        make()
