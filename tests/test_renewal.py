import itertools
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gmeasure import (
    ConfigError,
    RenewalSpec,
    build_alphabeta,
    disagreement_bound_sweep,
    renewal_solve,
)
from gmeasure import renewal
from gmeasure.criteria import coupling_bound_ratio, geometric_blocks
from oracles import (
    chain_disagreement,
    closed_form_ratio,
    effective_lattice,
    renewal_lfilter,
    renewal_limit,
)
from test_acceptance import _grid_specs


def test_spec_validation():
    with pytest.raises(ConfigError):
        RenewalSpec((0.5,), (1,), 1)  # too few block lengths
    with pytest.raises(ConfigError):
        RenewalSpec((0.25, 0.5), (1, 1, 1), 2)  # increasing d
    with pytest.raises(ConfigError):
        RenewalSpec((1.5,), (1, 1), 1)
    with pytest.raises(ConfigError):
        RenewalSpec((0.5,), (1, 0), 1)
    with pytest.raises(ConfigError):
        RenewalSpec((0.5,), (1, float("nan")), 1)


def test_build_forced_disagreement():
    ab = build_alphabeta(RenewalSpec((1.0,), (1, 1), 1))
    assert ab.alpha == {1: 1.0, 2: 0.0}
    assert ab.beta.tolist() == [1.0, 0.0]


def test_build_zero_disagreement():
    ab = build_alphabeta(RenewalSpec((0.0, 0.0), (1, 2, 2), 2))
    assert ab.alpha[5] == 1.0
    assert all(ab.alpha[b] == 0.0 for b in (1, 3))
    # beta is 1 exactly on [B_K, B_{K+1})
    assert ab.beta.tolist() == [0.0, 0.0, 0.0, 1.0, 1.0]


@settings(max_examples=200, deadline=None)
@given(
    st.integers(min_value=1, max_value=5),
    st.integers(min_value=0, max_value=10_000),
)
def test_alpha_telescopes_to_one(K, seed):
    rng = np.random.default_rng(seed)
    d = tuple(sorted(rng.uniform(0, 1, K), reverse=True))
    b = tuple(int(v) for v in rng.integers(1, 8, K + 1))
    ab = build_alphabeta(RenewalSpec(d, b, K))
    assert abs(sum(ab.alpha.values()) - 1.0) < 1e-12


def test_period_examples():
    ab = build_alphabeta(RenewalSpec((0.5, 0.25), (2, 2, 2), 2))
    assert ab.boundaries == (2, 4, 6)
    assert ab.period == 2
    ab = build_alphabeta(RenewalSpec((0.5,), (1, 5), 1))
    assert ab.period == 1
    ab = build_alphabeta(RenewalSpec((0.5, 0.25), (3, 3, 3), 2))
    assert ab.boundaries == (3, 6, 9)
    assert ab.period == 3


def test_effective_lattice_drops_zero_mass():
    ab = build_alphabeta(RenewalSpec((0.5, 0.0), (2, 1, 3), 2))
    assert ab.period == 1          # boundary set {2, 3, 6}
    assert effective_lattice(ab) == 2  # positive mass only at {2, 6}


# --- solver vs chain enumeration ---------------------------------------------


def test_all_blocks_disagree():
    ab = build_alphabeta(RenewalSpec((1.0,), (1, 1), 1))
    assert (renewal_solve(ab, 12) == 1.0).all()


def test_zero_d_periodic_pattern():
    spec = RenewalSpec((0.0, 0.0), (1, 2, 2), 2)
    u = renewal_solve(build_alphabeta(spec), 20)
    expect = chain_disagreement(spec, 20)
    assert np.abs(u - expect).max() < 1e-12
    # ones exactly on [B_K, B_{K+1}) mod B_{K+1}
    assert u[3] == u[4] == 1.0 and u[0] == u[1] == u[2] == 0.0
    assert u[8] == u[9] == 1.0


def test_solver_probabilities_in_unit_interval(rng):
    for _ in range(30):
        K = int(rng.integers(1, 4))
        d = tuple(sorted(rng.uniform(0, 1, K), reverse=True))
        b = tuple(int(v) for v in rng.integers(1, 5, K + 1))
        u = renewal_solve(build_alphabeta(RenewalSpec(d, b, K)), 100)
        assert (u >= -1e-12).all() and (u <= 1 + 1e-12).all()


def test_solver_matches_oracle_small_grid():
    for K in (1, 2):
        for d in itertools.product((0.0, 0.5, 1.0), repeat=K):
            if any(d[i] < d[i + 1] for i in range(K - 1)):
                continue
            for b in itertools.product((1, 2, 3), repeat=K + 1):
                spec = RenewalSpec(d, b, K)
                ab = build_alphabeta(spec)
                n_max = 4 * ab.boundaries[-1]
                assert np.abs(
                    renewal_solve(ab, n_max) - chain_disagreement(spec, n_max)
                ).max() < 1e-12


# the benchmark's renewal spec
BENCH_SPEC = RenewalSpec((0.5, 0.4, 0.3, 0.25, 0.2, 0.15, 0.1, 0.08),
                         (1, 1, 2, 2, 3, 3, 4, 4, 5), 8)


def test_solver_matches_lfilter_oracle_on_grid():
    for spec in _grid_specs():
        ab = build_alphabeta(spec)
        n_max = 4 * ab.boundaries[-1]
        assert np.abs(renewal_solve(ab, n_max) - renewal_lfilter(ab, n_max)).max() < 1e-12


def _spy(monkeypatch, owner, name):
    """Count the calls of ``owner.name`` and pass them through."""
    calls = []
    real = getattr(owner, name)

    def spy(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(owner, name, spy)
    return calls


@pytest.mark.parametrize("spec, n_max, branches", [
    # short taps: every chunk's rhs has a short support and is convolved directly
    (BENCH_SPEC, 200_000, {"direct"}),
    # a tap past the chunk length: whole chunks go through the FFT
    (RenewalSpec((0.5,), (1, 1000), 1), 50_050, {"direct", "fft"}),
    (RenewalSpec((0.5,), (1, 4000), 1), 200_050, {"direct", "fft"}),
], ids=["bench", "B2=1001", "B2=4001"])
def test_solver_matches_lfilter_oracle(spec, n_max, branches, monkeypatch):
    direct = _spy(monkeypatch, np, "convolve")
    fft = _spy(monkeypatch, np.fft, "rfft")
    ab = build_alphabeta(spec)
    u = renewal_solve(ab, n_max)
    ran = {name for name, calls in (("direct", direct), ("fft", fft)) if calls}
    assert ran == branches
    assert np.abs(u - renewal_lfilter(ab, n_max)).max() < 1e-12


def test_long_block_solve_is_fast():
    # B_2 = 40 001 at its default n_max = 50 * B_2; a dense filter takes ~100 s
    spec = RenewalSpec((0.5,), (1, 40_000), 1)
    ab = build_alphabeta(spec)
    n_max = 50 * ab.boundaries[-1]
    t0 = time.perf_counter()
    u = renewal_solve(ab, n_max)
    assert time.perf_counter() - t0 < 5.0
    assert len(u) == n_max + 1
    assert np.abs(u[:20_000] - chain_disagreement(spec, 19_999)).max() < 1e-12


def test_chunk_edges_match_lfilter_oracle(monkeypatch):
    # a short chunk, so that boundaries straddle several chunk edges
    monkeypatch.setattr(renewal, "_CHUNK", 16)
    for spec in (BENCH_SPEC, RenewalSpec((0.5, 0.25), (3, 20, 7), 2)):
        ab = build_alphabeta(spec)
        for n_max in (0, 14, 15, 16, 17, 100):
            u = renewal_solve(ab, n_max)
            assert np.abs(u - renewal_lfilter(ab, n_max)).max() < 1e-12


# --- limits -------------------------------------------------------------------


def test_limit_hand_value():
    # K=1, d=1/2, b=(2,2): numerator 2, denominator 3
    ab = build_alphabeta(RenewalSpec((0.5,), (2, 2), 1))
    assert renewal_limit(ab) == pytest.approx(2 / 3, abs=1e-15)


def test_limit_unit_blocks_closed_form(rng):
    # b = 1: the limit is 1 / sum_k prod_{j<k} (1 - d_j)
    for _ in range(20):
        K = int(rng.integers(1, 5))
        d = tuple(sorted(rng.uniform(0, 1, K), reverse=True))
        ab = build_alphabeta(RenewalSpec(d, (1,) * (K + 1), K))
        den = 0.0
        survive = 1.0
        for k in range(K + 1):
            den += survive
            survive *= 1 - d[k] if k < K else 1.0
        assert renewal_limit(ab) == pytest.approx(1 / den, abs=1e-12)


def test_limit_zero_d_final_block_fraction():
    # only the final-block terms survive: limit = b_{K+1} / B_{K+1}
    ab = build_alphabeta(RenewalSpec((0.0, 0.0), (1, 2, 4), 2))
    assert renewal_limit(ab) == pytest.approx(4 / 7, abs=1e-15)


def test_limit_converges_along_lattice():
    ab = build_alphabeta(RenewalSpec((0.5, 0.25), (2, 2, 2), 2))
    u = renewal_solve(ab, 400)
    lim = renewal_limit(ab)
    assert abs(u[400] - lim) < 1e-9
    assert abs(u[398] - lim) < 1e-9


def test_limit_on_effective_lattice_for_degenerate_d():
    # trailing zero d: u oscillates between lattice cosets; the renewal
    # theorem applies along the effective lattice only
    spec = RenewalSpec((0.5, 0.0), (2, 1, 3), 2)
    ab = build_alphabeta(spec)
    m = effective_lattice(ab)
    lim = renewal_limit(ab, lattice=m)
    u = renewal_solve(ab, 600)
    assert abs(u[600] - lim) < 1e-10           # 600 is a lattice multiple
    assert abs(u[599] - lim) > 0.1             # off-lattice coset differs
    assert renewal_limit(ab) == pytest.approx(0.625, abs=1e-15)  # ratio form


def test_limit_degenerate_denominator():
    ab = build_alphabeta(RenewalSpec((0.5,), (2, 2), 1))
    with pytest.raises(ConfigError):
        renewal_limit(ab, lattice=0)


def test_limit_rejects_off_lattice_mass():
    ab = build_alphabeta(RenewalSpec((0.5,), (2, 3), 1))
    with pytest.raises(ConfigError):
        renewal_limit(ab, lattice=2)  # alpha mass at 5 is off the lattice


# --- bound sweeps ---------------------------------------------------------------


def test_bound_sweep_unit_blocks_matches_closed_form():
    d = (0.4, 0.3, 0.2)
    sweep = disagreement_bound_sweep(d, (1, 1, 1, 1), [1, 2, 3])
    # K = 3 value: 1 / (1 + 0.6 + 0.6*0.7 + 0.6*0.7*0.8)
    assert sweep[2][1] == pytest.approx(1 / (1 + 0.6 + 0.42 + 0.336), abs=1e-12)


def test_bound_sweep_geometric_blocks_limit():
    # with vanishing d the bound tends to (l-1)/l, the share of the last block
    for growth in (1.25, 1.5, 2.0):
        sched = geometric_blocks(growth)
        lengths = [sched.b(n) for n in range(1, 27)]
        sweep = disagreement_bound_sweep((0.0,) * 24, lengths, [8, 16, 24])
        target = (growth - 1) / growth
        for _, value in sweep:
            assert abs(value - target) < 0.05
        assert abs(sweep[-1][1] - target) < 1e-3


def test_bound_sweep_pipeline_decreasing(longrange):
    from gmeasure import constant_schedule, dbar, variation_profile
    from gmeasure.criteria import block_tv_bounds

    prof = variation_profile(longrange, 40)
    sched = constant_schedule(1)
    ubs = [block_tv_bounds(prof, sched, n) for n in range(1, 14)]
    db = dbar(ubs[:-1], ubs[-1])
    sweep = disagreement_bound_sweep(db, (1,) * 13, range(1, 13))
    values = [v for _, v in sweep]
    assert all(values[i + 1] <= values[i] + 1e-12 for i in range(len(values) - 1))


# d values that mix exact 0s and 1s with interior ones; sorted, they are a
# non-increasing d_1..d_K
_d_values = st.one_of(st.just(0.0), st.just(1.0), st.floats(0.0, 1.0))


@settings(max_examples=300, deadline=None)
@given(st.integers(min_value=1, max_value=12).flatmap(lambda K: st.tuples(
    st.lists(_d_values, min_size=K, max_size=K),
    st.lists(st.integers(min_value=1, max_value=6), min_size=K + 1, max_size=K + 1),
)))
def test_bound_sweep_matches_oracles(d_and_b):
    # one pass over k against the renewal-theorem limit of each K's chain
    # and, bit for bit, against the closed form summed afresh at every K
    d, b = d_and_b
    d = tuple(sorted(d, reverse=True))
    K_max = len(d)
    sweep = disagreement_bound_sweep(d, b, range(1, K_max + 1))
    assert [K for K, _ in sweep] == list(range(1, K_max + 1))
    for K, value in sweep:
        ab = build_alphabeta(RenewalSpec(d[:K], b[: K + 1], K))
        assert abs(value - renewal_limit(ab)) <= 1e-12
    assert sweep == closed_form_ratio(d, b, range(1, K_max + 1))


def test_bound_sweep_keeps_the_requested_order():
    d, b = (0.5, 0.4, 0.3, 0.2), (1, 2, 3, 4, 5)
    assert disagreement_bound_sweep(d, b, [3, 1, 3]) == closed_form_ratio(d, b, [3, 1, 3])
    assert disagreement_bound_sweep(d, b, []) == []


@pytest.mark.parametrize("d, b, K_sweep", [
    ((1.5,), (1, 1), [1]),             # a "probability" above 1 gave R_1 = 2
    ((float("nan"),), (1, 1), [1]),    # gave NaN
    ((-0.2,), (1, 1), [1]),            # gave 0.4545
    ((0.25, 0.5), (1, 1, 1), [2]),     # increasing d
    ((0.5,), (1.5, 1), [1]),           # a non-integer block length
    ((0.5,), (1, float("inf")), [1]),  # an infinite block length
    ((0.5, 0.5), (1, 1, 1), [0, 2]),   # K = 0
], ids=["d above 1", "d nan", "d negative", "d increasing", "b fractional", "b infinite",
        "K zero"])
def test_bound_sweep_rejects_invalid_input(d, b, K_sweep):
    # the closed-form name is the same validated pass
    for sweep in (disagreement_bound_sweep, coupling_bound_ratio):
        with pytest.raises(ConfigError):
            sweep(d, b, K_sweep)
