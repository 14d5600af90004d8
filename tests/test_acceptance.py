"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
report lines and timings.

Two clauses of the written criteria are mathematically unattainable and are
kept as strict xfail tests next to corrected companions (full analysis in
docs/decisions.md): the renewal convergence tolerance at the stated horizon
over the degenerate part of the d-grid, and the geometric-schedule limit
``growth - 1`` whose true value is ``(growth - 1) / growth``.
"""

import itertools
import math
import time

import numpy as np
import pytest

from gmeasure import (
    Exponential,
    FiniteRange,
    FiniteMemoryModel,
    RenewalSpec,
    TransferOperator,
    PowerLaw,
    apply_Ln,
    build_alphabeta,
    constant_schedule,
    dbar,
    disagreement_bound_sweep,
    dn_bruteforce,
    estimate_disagreement,
    geometric_blocks,
    maximal_coupling,
    renewal_solve,
    stationary,
    variation_profile,
)
from gmeasure.criteria import (
    SATISFIED,
    VIOLATED,
    affinity_product_floor,
    block_tv_bounds,
    certify_cubic_remainder,
    check_geometric_window_sums,
    check_square_summable_variation,
    check_variation_o_sqrt,
    coupling_bound_ratio,
    tv_bound_from_site_ratios,
)
from conftest import random_positive_table
from oracles import (
    chain_disagreement,
    conditional_product_measure,
    dense_transfer_matrix,
    effective_lattice,
    hellinger_floor,
    left_perron_vector,
    renewal_limit,
    stationary_prob,
    total_variation,
)
from test_criteria import random_kernel_pair, site_ratios


def _report(num, name, t0, note=""):
    elapsed = time.perf_counter() - t0
    suffix = f"  [{note}]" if note else ""
    print(f"\n[acceptance] criterion {num:02d} {name}: PASS ({elapsed:.1f}s){suffix}")
    return elapsed


def _grid_specs():
    """K <= 3, b_i in 1..4, d non-increasing over {0, 0.25, 0.5, 1}."""
    for K in (1, 2, 3):
        d_grid = [
            d
            for d in itertools.product((0.0, 0.25, 0.5, 1.0), repeat=K)
            if all(d[i] >= d[i + 1] for i in range(K - 1))
        ]
        for d in d_grid:
            for b in itertools.product((1, 2, 3, 4), repeat=K + 1):
                yield RenewalSpec(d, b, K)


# --- criterion 1 -----------------------------------------------------------------


def test_criterion_01_maximal_coupling_tv():
    t0 = time.perf_counter()
    rng = np.random.default_rng(101)
    for _ in range(1000):
        size = 2 ** int(rng.integers(1, 7))  # supports up to 64
        p = rng.random(size) + 1e-9
        q = rng.random(size) + 1e-9
        # the primitive whose .draw the Monte Carlo sampler uses
        pair = maximal_coupling(p / p.sum(), q / q.sum())
        assert abs(pair.tv - total_variation(pair.p, pair.q)) < 1e-12
        assert np.abs(pair.joint.sum(axis=1) - pair.p).max() < 1e-12
        assert np.abs(pair.joint.sum(axis=0) - pair.q).max() < 1e-12
    elapsed = _report(1, "maximal coupling TV identity", t0)
    assert elapsed < 5.0


# --- criterion 2 -----------------------------------------------------------------


def test_criterion_02_renewal_vs_enumeration():
    t0 = time.perf_counter()
    checked = 0
    for spec in _grid_specs():
        ab = build_alphabeta(spec)
        n_max = 4 * ab.boundaries[-1]
        u = renewal_solve(ab, n_max)
        v = chain_disagreement(spec, n_max)
        assert np.abs(u - v).max() < 1e-12
        checked += 1
    elapsed = _report(2, "renewal solver vs chain enumeration", t0, f"{checked} specs")
    assert elapsed < 30.0


# --- criterion 3 -----------------------------------------------------------------


def test_criterion_03_renewal_limit():
    # Passing content: the unit-block closed form on the whole grid plus
    # convergence along the lattice on which the renewal theorem applies,
    # at a horizon large enough for the slowest grid kernels (the stated
    # 50*B_{K+1} horizon is checked by the literal companion below).
    t0 = time.perf_counter()
    unit_checked = 0
    for spec in _grid_specs():
        ab = build_alphabeta(spec)
        if set(spec.b[: spec.K + 1]) == {1}:
            den = 0.0
            survive = 1.0
            for k in range(spec.K):
                den += survive
                survive *= 1 - spec.d[k]
            den += survive
            assert abs(renewal_limit(ab) - 1.0 / den) < 1e-12
            unit_checked += 1
        m = ab.period if min(spec.d) > 0 else effective_lattice(ab)
        lim = renewal_limit(ab, lattice=m) if m != ab.period else renewal_limit(ab)
        horizon = 800 * ab.boundaries[-1]
        horizon += (-horizon) % m
        u = renewal_solve(ab, horizon + 30 * m)
        window = u[horizon :: m][:31]
        assert np.abs(window - lim).max() < 1e-6
    elapsed = _report(
        3, "renewal-theorem limit", t0, f"{unit_checked} unit-block specs at 1e-12"
    )
    assert elapsed < 120.0


@pytest.mark.xfail(
    strict=True,
    reason="renewal convergence within 50*B_{K+1} steps at 1e-6 fails for "
    "grid specs whose d-sequence has trailing zeros (and a handful of sparse "
    "two-point kernels); see docs/decisions.md",
)
def test_criterion_03_literal_horizon():
    for spec in _grid_specs():
        ab = build_alphabeta(spec)
        lim = renewal_limit(ab)
        m = ab.period
        n0 = 50 * ab.boundaries[-1]
        n0 += (-n0) % m
        u = renewal_solve(ab, n0 + 30 * m)
        assert np.abs(u[n0::m][:31] - lim).max() < 1e-6


# --- criterion 4 -----------------------------------------------------------------


def test_criterion_04_periodic_case():
    t0 = time.perf_counter()
    spec = RenewalSpec((0.5, 0.25), (2, 2, 2), 2)
    ab = build_alphabeta(spec)
    assert ab.period == 2
    lim = renewal_limit(ab)
    n0 = 50 * ab.boundaries[-1]
    u = renewal_solve(ab, n0 + 60)
    even = u[n0 : n0 + 61 : 2]
    assert np.abs(even - lim).max() < 1e-6
    oracle = chain_disagreement(spec, 4 * ab.boundaries[-1])
    solved = renewal_solve(ab, 4 * ab.boundaries[-1])
    odd = slice(1, None, 2)
    assert np.abs(solved[odd] - oracle[odd]).max() < 1e-12
    elapsed = _report(4, "periodic schedule", t0)
    assert elapsed < 5.0


# --- criterion 5 -----------------------------------------------------------------


def test_criterion_05_hellinger_suite():
    t0 = time.perf_counter()
    rng = np.random.default_rng(505)

    # affinity floor on 10^4 random distribution pairs with ratio <= 5
    for _ in range(10_000):
        size = int(rng.integers(2, 17))
        base = rng.uniform(0.05, 1.0, size)
        nu = base / base.sum()
        mu = base * rng.uniform(1.0, 5.0, size)
        mu /= mu.sum()
        rho = float(max((mu / nu).max(), (nu / mu).max()))
        assert float(np.sqrt(mu * nu).sum()) >= hellinger_floor(rho) - 1e-12

    # product-measure TV bound on enumerable conditional-product measures
    for _ in range(300):
        length = int(rng.integers(1, 7))  # supports up to 64 outcomes
        mu_k, nu_k = random_kernel_pair(rng, length, 5.82)
        xs = np.array(site_ratios(mu_k, nu_k)) - 1.0
        tv = total_variation(
            conditional_product_measure(mu_k), conditional_product_measure(nu_k)
        )
        assert tv <= tv_bound_from_site_ratios(xs) + 1e-12

    # certified cubic-remainder floor on 10^4 random tuples with lambda = 2
    assert certify_cubic_remainder(2.0) >= 0.0
    for _ in range(10_000):
        n = int(rng.integers(1, 9))
        rhos = rng.uniform(1.0, 2.0, n)
        exact = float(
            np.prod([(1 - 0.5 * (math.sqrt(r) - 1) ** 2) ** 2 for r in rhos])
        )
        assert affinity_product_floor(rhos) <= exact + 1e-12
    elapsed = _report(5, "Hellinger bound suite", t0)
    assert elapsed < 60.0


# --- criterion 6 -----------------------------------------------------------------


def test_criterion_06_dn_structure(alphabet, longrange):
    t0 = time.perf_counter()
    rng = np.random.default_rng(606)

    # finite memory: exact zeros once the agreement window covers the memory
    for memory in (1, 2, 3):
        model = FiniteMemoryModel(
            alphabet, memory, random_positive_table(alphabet, memory, rng)
        )
        for schedule, n in (
            (constant_schedule(1), memory + 1),
            (constant_schedule(2), memory // 2 + 2),
            (constant_schedule(memory), 2),
        ):
            assert schedule.B(n - 1) >= memory
            assert dn_bruteforce(model, schedule, n, memory) == (0.0, 0.0)

    # long-range model: brute-force lower bound below the site-ratio bound
    profile = variation_profile(longrange, 40)
    schedule = constant_schedule(1)
    bounds = block_tv_bounds(profile, schedule, 4)
    for n in (1, 2, 3, 4):
        bound = bounds[n - 1]
        for tail_len in (1, 2, 3, 4, 5):
            lower, upper = dn_bruteforce(longrange, schedule, n, tail_len)
            assert lower <= bound + (upper - lower) + 1e-12
    elapsed = _report(6, "worst-case block TV structure", t0)
    assert elapsed < 120.0


# --- criterion 7 -----------------------------------------------------------------


def test_criterion_07_coupling_vs_renewal_bound(longrange):
    t0 = time.perf_counter()
    depth, n_traj = 64, 10_000
    schedule = constant_schedule(1)
    profile = variation_profile(longrange, 80)
    ubs = block_tv_bounds(profile, schedule, 75)
    dbar_seq = dbar(ubs[:-1], ubs[-1])

    bound = disagreement_bound_sweep(dbar_seq, (1,) * 9, [8])[0][1]
    summary = estimate_disagreement(
        longrange, schedule, depth, "1" * depth, "0" * depth, n_traj, seed=707
    )
    sigma = math.sqrt(bound * (1 - bound) / n_traj)
    for n in range(32, depth + 1):
        assert summary.freq[n] <= bound + 3 * sigma

    # per-block domination: empirical disagreement at run k vs dbar_{k+1}
    for k, (count, bad) in summary.run_stats.items():
        target = float(dbar_seq[k])
        sigma_k = math.sqrt(max(target * (1 - target), 1e-12) / count)
        assert bad / count <= target + 3 * sigma_k
    elapsed = _report(
        7, "Monte Carlo coupling vs renewal bound", t0,
        f"bound {bound:.4f}, deep freq max {summary.freq[32:].max():.4f}",
    )
    assert elapsed < 600.0


# --- criterion 8 -----------------------------------------------------------------


def test_criterion_08_transfer_correctness(alphabet, iid):
    t0 = time.perf_counter()
    measure = stationary(TransferOperator(iid))
    assert stationary_prob(measure, ("0", "0")) == pytest.approx(0.09, abs=1e-15)

    rng = np.random.default_rng(808)
    for _ in range(5):
        model = FiniteMemoryModel(alphabet, 1, random_positive_table(alphabet, 1, rng))
        op = TransferOperator(model)
        expect = left_perron_vector(dense_transfer_matrix(model, 1))
        assert np.abs(stationary(op).probs - expect).max() < 1e-10
        assert np.abs(apply_Ln(op, np.ones(op.dim), 7) - 1.0).max() < 1e-14
    elapsed = _report(8, "transfer operator correctness", t0)
    assert elapsed < 5.0


# --- criterion 9 -----------------------------------------------------------------


def test_criterion_09_criteria_classification():
    t0 = time.perf_counter()
    sq, osq = check_square_summable_variation, check_variation_o_sqrt

    flat = PowerLaw(1.0, 2.0, offset=1)
    assert sq(flat).verdict == SATISFIED
    assert osq(flat).verdict == SATISFIED
    assert check_geometric_window_sums(flat, 2.0).verdict == SATISFIED

    rough = PowerLaw(1.0, 0.5, offset=1)
    assert osq(rough).verdict == VIOLATED
    report = check_geometric_window_sums(rough, 2.0)
    assert report.verdict == VIOLATED
    assert report.evidence["limit"] == pytest.approx(math.log(2.0), abs=1e-12)

    for vm in (flat, rough, PowerLaw(1, 0.3, offset=1), Exponential(1, 0.5)):
        verdicts = {
            check_geometric_window_sums(vm, lam).verdict for lam in (1.5, 2.0, 4.0)
        }
        assert len(verdicts) == 1

    # implication chain on a 20-point parameter grid
    grid = (
        [PowerLaw(1.0, p, offset=1) for p in np.linspace(0.3, 3.0, 12)]
        + [PowerLaw(0.5, 0.4, offset=1), PowerLaw(2.0, 0.8, offset=1)]
        + [Exponential(1.0, r) for r in (0.3, 0.6, 0.9)]
        + [FiniteRange(M) for M in (1, 4, 9)]
    )
    assert len(grid) == 20
    for vm in grid:
        window = check_geometric_window_sums(vm, 2.0).verdict
        if sq(vm).verdict == SATISFIED:
            assert window == SATISFIED
        if osq(vm).verdict == SATISFIED:
            assert window == SATISFIED
    elapsed = _report(9, "criteria classification grid", t0)
    assert elapsed < 10.0


# --- criterion 10 ----------------------------------------------------------------


def test_criterion_10_algebraic_cross_check():
    t0 = time.perf_counter()
    rng = np.random.default_rng(1010)
    for _ in range(100):
        K = int(rng.integers(1, 7))
        d = tuple(sorted(rng.uniform(0.02, 0.98, K), reverse=True))
        b = tuple(int(v) for v in rng.integers(1, 7, K + 1))
        ratio = disagreement_bound_sweep(d, b, [K])[0][1]
        assert abs(ratio - renewal_limit(build_alphabeta(RenewalSpec(d, b, K)))) < 1e-12

    # corrected geometric limit: the final-block share tends to (l-1)/l
    for growth in (1.25, 1.5, 2.0):
        sched = geometric_blocks(growth)
        lengths = [sched.b(n) for n in range(1, 25)]
        r20 = disagreement_bound_sweep((0.0,) * 20, lengths, [20])[0][1]
        assert abs(r20 - (growth - 1) / growth) < 1e-3
    elapsed = _report(10, "ratio vs renewal cross-check", t0)
    assert elapsed < 5.0


@pytest.mark.xfail(
    strict=True,
    reason="the geometric-schedule bound converges to (growth-1)/growth, not "
    "growth-1: the last block is a (growth-1)/growth share of its partial sum; "
    "see docs/decisions.md",
)
def test_criterion_10_literal_geometric_limit():
    for growth in (1.25, 1.5, 2.0):
        sched = geometric_blocks(growth)
        lengths = [sched.b(n) for n in range(1, 25)]
        r20 = coupling_bound_ratio((0.0,) * 20, lengths, [20])[0][1]
        assert abs(r20 - (growth - 1)) < 1e-3
