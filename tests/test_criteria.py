import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gmeasure import (
    CUBIC_REMAINDER_K2,
    ConfigError,
    Exponential,
    FiniteMemoryModel,
    FiniteRange,
    LongRangeLinearModel,
    PowerLaw,
    RenewalSpec,
    TransferOperator,
    VariationProfile,
    affinity_product_floor,
    binary_alphabet,
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
from oracles import (
    OneMinusPower,
    block_bound_scalar,
    closed_form_ratio,
    conditional_product_measure,
    hellinger_bound_decimal,
    hellinger_floor,
    profile_scalar,
    ratio_excess_scalar,
    renewal_limit,
    suffix_max,
    total_variation,
)
from test_gmodel import _ulps


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


def test_tabulated_profile_rejects_negative_sites():
    # a negative site would read from the end of the table, as in ratio_excess
    vm = VariationProfile((0.5, 0.2, 0.1))
    for n in (-1, [-1, 0], np.arange(-2, 5)):
        with pytest.raises(ConfigError, match="n >= 0"):
            vm.var_at(n)


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
        x_upper = longrange.ratio_excess(n)
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
            assert half_sum <= x_upper + slack + 1e-12


# --- site-ratio bounds ---------------------------------------------------------


def test_hellinger_floor_values():
    # the Hellinger floor the block bounds used before, kept as a reference:
    # it reaches 0 at rho = (1 + sqrt(2))**2, while the sech floor
    # 2 sqrt(rho) / (1 + rho) stays positive for every ratio and above it
    cap = 3.0 + 2.0 * math.sqrt(2.0)
    assert hellinger_floor(1.0) == 1.0
    assert hellinger_floor(cap) == pytest.approx(0.0, abs=1e-12)
    assert hellinger_floor(4.0) == pytest.approx(0.5, abs=1e-15)
    rho = np.linspace(1.0, cap, 1001)
    assert (2 * np.sqrt(rho) / (1 + rho) >= hellinger_floor(rho)).all()


def test_hellinger_floor_on_random_distributions(rng):
    # affinity >= sech floor >= Hellinger floor
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
        sech_floor = 2 * math.sqrt(rho) / (1 + rho)
        assert affinity >= sech_floor - 1e-12
        assert sech_floor >= hellinger_floor(rho) - 1e-12


NAN_ARGUMENTS = {
    "stationary tol": lambda iid: stationary(TransferOperator(iid), tol=math.nan),
    "dbar tail bound": lambda iid: dbar((0.3, 0.1), math.nan),
    # max(running, nan) keeps running, so a NaN d value would vanish
    "dbar value": lambda iid: dbar((0.5, math.nan, 0.2), 0.1),
    "dbar only value": lambda iid: dbar((math.nan,), 0.1),
    "VariationProfile first value": lambda iid: VariationProfile((math.nan, 0.1)),
    "VariationProfile only value": lambda iid: VariationProfile((math.nan,)),
    "tv_bound_from_site_ratios ratio": lambda iid: tv_bound_from_site_ratios([math.nan]),
}


@pytest.mark.parametrize("case", sorted(NAN_ARGUMENTS))
def test_nan_fails_the_sign_checks(case, iid):
    with pytest.raises(ConfigError):
        NAN_ARGUMENTS[case](iid)


def test_tv_bound_values():
    assert tv_bound_from_site_ratios([0.0, 0.0, 0.0]) == 0.0
    assert tv_bound_from_site_ratios([]) == 0.0  # no site, no disagreement
    # one site: tanh(t/2) = x / (2 + x), the sharp bound given the ratio
    assert tv_bound_from_site_ratios([3.0]) == 0.6
    assert tv_bound_from_site_ratios([44.0]) == 44 / 46
    # no ratio is refused: far past (1 + sqrt(2))**2 the bound stays below 1
    big = tv_bound_from_site_ratios([1e6, 1e6])
    assert 0.99 < big < 1.0
    # sum y_i prod_{j<i} (1 - y_j) for y = (0.5, 0.2)**2, one block per start
    assert tv_bound_from_site_ratios([2.0, 0.5, 2.0], [0, 2]).tolist() == [
        math.sqrt(0.25 + 0.04 * 0.75), 0.5]
    for x in (-0.5, math.inf):
        with pytest.raises(ConfigError):
            tv_bound_from_site_ratios([x])


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
        mu_k, nu_k = random_kernel_pair(rng, length, 20.0)  # far past any old cap
        xs = np.array(site_ratios(mu_k, nu_k)) - 1.0
        mu = conditional_product_measure(mu_k)
        nu = conditional_product_measure(nu_k)
        assert total_variation(mu, nu) <= tv_bound_from_site_ratios(xs) + 1e-12


def test_cubic_remainder_certification():
    assert CUBIC_REMAINDER_K2 == pytest.approx(cubic_remainder_constant(2.0))
    assert CUBIC_REMAINDER_K2 > 0.125  # strictly above the tight cubic coefficient
    for lam in (1.2, 2.0, 3.0, 5.0):
        assert certify_cubic_remainder(lam) >= 0.0
    with pytest.raises(ConfigError):
        cubic_remainder_constant(3.0 + 2.0 * math.sqrt(2.0) + 0.5)


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
    assert block_tv_bounds(vm, sched, 4)[3] == 0.0  # window sites {3}: var = 0


def test_block_bounds_dominate_bruteforce(longrange):
    profile = variation_profile(longrange, 40)
    sched = constant_schedule(1)
    bounds = block_tv_bounds(profile, sched, 3)
    for n in (1, 2, 3):
        lower, upper = dn_bruteforce(longrange, sched, n, 4)
        bound = bounds[n - 1]
        assert lower <= bound + (upper - lower) + 1e-12


def test_every_block_bound_field_dominates_the_bruteforce_witness(longrange):
    # the power-law benchmark model on const:1: a bound on d_n can never
    # fall below the largest total variation dn_bruteforce finds
    profile = variation_profile(longrange, 40)
    sched = constant_schedule(1)
    bounds = block_tv_bounds(profile, sched, 4)
    for n in range(1, 5):
        lower, _ = dn_bruteforce(longrange, sched, n, 6)
        bound = bounds[n - 1]
        assert bound >= lower, (n, bound, lower)


EXPONENTIAL_BENCHMARK = LongRangeLinearModel(
    binary_alphabet(), 0.25, Exponential.from_mass(0.7, 0.5))


@pytest.mark.parametrize("model, K_max", [
    (LongRangeLinearModel(binary_alphabet(), 0.4, Exponential.from_mass(0.5, 0.5)), 299),
    (EXPONENTIAL_BENCHMARK, 2000),
], ids=["theta=0.4,r=0.5", "exponential-benchmark"])
def test_block_bounds_are_positive_wherever_x_is(model, K_max):
    # on const:1 block n reads site n - 1 alone.  x is positive at every
    # site, down to 1e-310 on the benchmark model, where x**2 underflows;
    # so is every published d_n, and the d-bar built from them
    profile = variation_profile(model, K_max)
    assert (profile.values > 0).all()
    bounds = block_tv_bounds(profile, constant_schedule(1), K_max + 1)
    assert (bounds > 0).all() and (dbar(bounds[:-1], bounds[-1]) > 0).all()


def test_block_bounds_accept_every_ratio():
    # rho = 1 + x far past (1 + sqrt(2))**2 on sites 0..2: no block is
    # refused, and each bound stays below 1
    sched = constant_schedule(1)
    bounds = block_tv_bounds(FiniteRange(3, level=1e6), sched, 5)
    assert bounds[:3].tolist() == [1e6 / (2 + 1e6)] * 3 and (bounds[3:] == 0.0).all()
    bounds = block_tv_bounds(FiniteRange(3, level=1.0), constant_schedule(2), 3)
    assert bounds.tolist() == [math.sqrt(1 / 9 + 1 / 9 * (1 - 1 / 9)), 1 / 3, 0.0]


def test_block_bounds_between_exact_dn_and_the_hellinger_formula(rng):
    # on random positive binary tables: the exact worst case d_n
    # (dn_bruteforce with the whole memory as tail) <= the sech-floor bound
    # <= the Hellinger-floor formula, evaluated in decimal on the same float
    # x where every site ratio lets that floor be nonnegative
    checked = compared = 0
    while checked < 2000:
        memory = int(rng.integers(1, 4))
        model = _finite_memory(memory, rng.uniform(0.05, 1.0, 2 ** (memory + 1)))
        profile = variation_profile(model, 8)
        for b in (1, 2):
            schedule = constant_schedule(b)
            bounds = block_tv_bounds(profile, schedule, 4)
            for n in range(1, 5):
                if schedule.B(n - 1) >= memory:
                    break
                checked += 1
                lower, upper = dn_bruteforce(model, schedule, n, memory)
                assert lower == upper <= bounds[n - 1]
                xs = profile.var_at(np.arange(schedule.B(n - 1), schedule.B(n)))
                if xs.max() <= 2.0 + 2.0 * math.sqrt(2.0):
                    compared += 1
                    assert float(bounds[n - 1]) <= hellinger_bound_decimal(xs)
    assert compared > 1000


_GUARD_MODELS = {
    "power-law": lambda rng: LongRangeLinearModel(
        binary_alphabet(), 0.25, PowerLaw.from_mass(2.0, 0.5)),
    "exponential": lambda rng: EXPONENTIAL_BENCHMARK,
    "memory-3": lambda rng: _finite_memory(3, rng.uniform(0.05, 1.0, 16)),
}


@pytest.mark.parametrize("name", sorted(_GUARD_MODELS))
def test_bound_path_takes_no_array_exp_or_log(name, monkeypatch, rng):
    # numpy's array exp and log may round differently on another CPU, so
    # the profile and the block bounds use neither
    model = _GUARD_MODELS[name](rng)

    def refuse(*args, **kwargs):
        raise AssertionError("the bound path called an array exp or log")

    for func in ("exp", "log", "log1p", "expm1"):
        monkeypatch.setattr(np, func, refuse)
    for schedule in (constant_schedule(1), geometric_blocks(1.5)):
        profile = variation_profile(model, schedule.B(9) - 1)
        assert (block_tv_bounds(profile, schedule, 9) >= 0).all()


_ONE_SITE_LAWS = [
    *(PowerLaw.from_mass(p, mass) for p in (1.01, 1.5, 2.0, 4.0) for mass in (0.05, 0.5, 1.0)),
    *(Exponential.from_mass(r, mass) for r in (0.05, 0.3, 0.5, 0.7, 0.95)
      for mass in (0.05, 0.5, 1.0)),
]


@pytest.mark.parametrize("theta", np.linspace(0.01, 0.49, 30).tolist())
def test_one_site_bound_is_the_exact_worst_case(theta):
    # d_1 = x_0 / (2 + x_0) = 2 theta tail(0): the binary linear model's
    # exact worst case
    for law in _ONE_SITE_LAWS:
        model = LongRangeLinearModel(binary_alphabet(), theta, law)
        d_1 = block_tv_bounds(variation_profile(model, 0), constant_schedule(1), 1)[0]
        assert _ulps(d_1, 2 * theta * law.tail(0)) <= 2, law


def _finite_memory(memory, entries):
    table = np.reshape(entries, (2, 2**memory))
    return FiniteMemoryModel(binary_alphabet(), memory, (table / table.sum(axis=0)).reshape(-1))


_bound_models = st.one_of(
    st.builds(lambda theta, p, mass: LongRangeLinearModel(
        binary_alphabet(), theta, PowerLaw.from_mass(p, mass)),
        st.floats(0.02, 0.45), st.floats(1.05, 4.0), st.floats(0.05, 1.0)),
    st.builds(lambda theta, r, mass: LongRangeLinearModel(
        binary_alphabet(), theta, Exponential.from_mass(r, mass)),
        st.floats(0.02, 0.45), st.floats(0.05, 0.95), st.floats(0.05, 1.0)),
    st.integers(1, 3).flatmap(lambda memory: st.builds(
        _finite_memory, st.just(memory),
        st.lists(st.floats(0.05, 1.0), min_size=2 ** (memory + 1), max_size=2 ** (memory + 1)))),
)
_bound_schedules = st.one_of(
    st.integers(1, 4).map(constant_schedule), st.floats(1.25, 3.0).map(geometric_blocks))


@st.composite
def _schedule_and_K_max(draw):
    """A schedule and a K_max up to 24 whose profile horizon B_(K_max+2)
    stays within 3000 sites, so the scalar routes stay quick."""
    schedule = draw(_bound_schedules)
    top = max(K for K in range(1, 25) if schedule.B(K + 2) <= 3000)
    return schedule, draw(st.integers(1, top))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_bound_models, _schedule_and_K_max())
def test_bound_path_arrays_match_the_scalar_oracles(model, schedule_and_K_max):
    schedule, K_max = schedule_and_K_max
    # the pipeline's bound path, each array stage against its scalar route,
    # in ulps of its own value: x_n is a product and a quotient of
    # nonnegative numbers, and a bound a sum of nonnegative terms, so
    # nothing cancels.  Bounds whose square nears the float minimum are
    # left out, since the scalar loop lets their terms underflow
    horizon = schedule.B(K_max + 2)
    x = np.array([ratio_excess_scalar(model, n) for n in range(horizon + 1)])
    assert _ulps(model.ratio_excess(np.arange(horizon + 1)), x).max() <= 4
    profile = variation_profile(model, horizon)
    values = profile_scalar(model, horizon)
    assert _ulps(profile.values, values).max() <= 4
    scalar = np.array([block_bound_scalar(VariationProfile(values, profile.tail), schedule, n)
                       for n in range(1, K_max + 2)])
    bounds = block_tv_bounds(profile, schedule, K_max + 1)
    assert bounds.dtype == np.float64 and bounds.shape == (K_max + 1,)
    normal = scalar > 1e-140
    assert _ulps(bounds[normal], scalar[normal]).max(initial=0) <= 8
    assert (bounds[~normal] <= 1e-140).all()
    dbar_seq = dbar(bounds[:-1], bounds[-1])
    scalar_dbar = np.array(suffix_max(scalar[:-1].tolist(), scalar[-1]))
    normal = scalar_dbar > 1e-140
    assert _ulps(dbar_seq[normal], scalar_dbar[normal]).max(initial=0) <= 8
    # R_K from the same d-bar: the check above bounds what the profile's
    # last bits move upstream of it
    lengths = [schedule.b(k) for k in range(1, K_max + 2)]
    sweep = disagreement_bound_sweep(dbar_seq, lengths, range(1, K_max + 1))
    oracle = closed_form_ratio(dbar_seq, lengths, range(1, K_max + 1))
    assert _ulps([r for _, r in sweep], [r for _, r in oracle]).max() <= 4


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
