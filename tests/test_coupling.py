import math
import pickle

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gmeasure import (
    Alphabet,
    BlockSchedule,
    BudgetError,
    ConfigError,
    Exponential,
    FiniteMemoryModel,
    LongRangeLinearModel,
    constant_schedule,
    dbar,
    dn_bruteforce,
    estimate_disagreement,
    geometric_blocks,
    maximal_coupling,
    sample_block_coupling,
)
from gmeasure import coupling
from gmeasure.coupling import TruncationError, _block_laws
from gmeasure.gmodel import all_words, context_state, word_terms
from conftest import random_positive_table, use_spawned_stream
from oracles import cylinder_interval, decode, spawned_uniforms, total_variation


# --- maximal coupling ---------------------------------------------------------


def test_identical_marginals_fully_diagonal():
    pair = maximal_coupling((0.4, 0.6), (0.4, 0.6))
    assert pair.tv == 0.0
    assert np.abs(pair.joint - np.diag((0.4, 0.6))).max() == 0.0


def test_hand_example():
    pair = maximal_coupling((0.5, 0.5), (0.75, 0.25))
    expect = np.array([[0.5, 0.0], [0.25, 0.25]])
    assert np.abs(pair.joint - expect).max() < 1e-15
    assert pair.tv == pytest.approx(0.25, abs=1e-15)


def test_disjoint_supports():
    assert maximal_coupling((1.0, 0.0), (0.0, 1.0)).tv == pytest.approx(1.0, abs=0)


@pytest.mark.parametrize("p,q", [
    ((-0.1, 1.1), (0.5, 0.5)),        # a negative entry
    ((0.5, 0.5), (0.5, 0.6)),         # a row not summing to 1
    ((0.5, 0.5), (0.5, 0.25, 0.25)),  # shapes differ
], ids=["negative entry", "row sum", "shape mismatch"])
def test_maximal_coupling_validation(p, q):
    with pytest.raises(ConfigError):
        maximal_coupling(p, q)


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.floats(min_value=1e-6, max_value=1.0), min_size=2, max_size=2),
    st.lists(st.floats(min_value=1e-6, max_value=1.0), min_size=2, max_size=2),
    st.integers(min_value=1, max_value=5),
)
def test_coupling_invariants(raw_p, raw_q, log_size):
    # random marginals over 2^log_size outcomes
    rng = np.random.default_rng(int(raw_p[0] * 1e6) + int(raw_q[1] * 1e3))
    size = 2**log_size
    p = rng.random(size) + 1e-9
    q = rng.random(size) + 1e-9
    pair = maximal_coupling(p / p.sum(), q / q.sum())
    assert (pair.joint >= -1e-15).all()
    assert np.abs(pair.joint.sum(axis=1) - pair.p).max() < 1e-12
    assert np.abs(pair.joint.sum(axis=0) - pair.q).max() < 1e-12
    assert np.trace(pair.joint) == pytest.approx(
        float(np.minimum(pair.p, pair.q).sum()), abs=1e-12
    )
    assert pair.tv == pytest.approx(total_variation(pair.p, pair.q), abs=1e-12)


def test_batched_tv_is_the_total_variation_per_row(rng):
    p, q = rng.random((2, 50, 16))
    pair = maximal_coupling(p / p.sum(1, keepdims=True), q / q.sum(1, keepdims=True))
    assert pair.tv.shape == (50,)
    for tv, p_row, q_row in zip(pair.tv, pair.p, pair.q):
        assert tv == pytest.approx(total_variation(p_row, q_row), abs=1e-12)


def test_draw_reproduces_the_joint_table():
    # the sampler's draws follow the table the acceptance suite certifies
    n = 200_000
    p, q = np.array([0.1, 0.4, 0.2, 0.3]), np.array([0.3, 0.1, 0.5, 0.1])
    pair = maximal_coupling(np.tile(p, (n, 1)), np.tile(q, (n, 1)))
    (jx, jy), used = pair.draw(np.random.default_rng(0).random((n, 3)))
    # one uniform on the diagonal; the residuals have disjoint supports
    assert ((used == 1) == (jx == jy)).all()
    empirical = np.bincount(4 * jx + jy, minlength=16).reshape(4, 4) / n
    joint = pair.joint[0]
    assert (np.abs(empirical - joint) <= 4 * np.sqrt(joint * (1 - joint) / n)).all()


# --- schedules and the interval recursion --------------------------------------


def test_schedule_partial_sums():
    sched = BlockSchedule((1, 2, 4))
    assert [sched.B(n) for n in range(4)] == [0, 1, 3, 7]
    for schedule in (sched, constant_schedule(2), geometric_blocks(1.5)):
        # schedules can be sent to worker processes
        copy = pickle.loads(pickle.dumps(schedule))
        assert [copy.B(n) for n in range(4)] == [schedule.B(n) for n in range(4)]
    # the n-th block interval [1 - B_n, -B_{n-1}]
    intervals = [(1 - sched.B(n), -sched.B(n - 1)) for n in (1, 2, 3)]
    assert intervals == [(0, 0), (-2, -1), (-6, -3)]


def test_schedule_validation():
    for make, length in [
        (BlockSchedule, ()),
        (BlockSchedule, (1, 0)),
        (BlockSchedule, (1.5, 2.7)),  # never truncated to (1, 2)
        (BlockSchedule, (1, math.nan)),
        (BlockSchedule, (math.inf,)),
        (BlockSchedule, (2**62, 2**62)),  # B_2 = 2^63
        (constant_schedule, 1.5),  # never truncated to const:1
        (constant_schedule, math.nan),
        (constant_schedule, math.inf),
        (constant_schedule, 0),
    ]:
        with pytest.raises(ConfigError):
            make(length)


def test_schedule_past_end_raises():
    sched = BlockSchedule((1, 2))
    assert sched.b(2) == 2
    with pytest.raises(ConfigError):
        sched.b(3)
    with pytest.raises(ConfigError):
        sched.B(3)
    assert constant_schedule(1).b(100) == 1  # closed forms cover every n
    assert constant_schedule(3).B(100) == 300


def _schedule(kind, param):
    return {"const": constant_schedule, "list": BlockSchedule, "geom": geometric_blocks}[kind](param)


def _defining_sum(kind, param, n):
    """B_n by its definition, in Python ints; None where the schedule has no
    B_n: past an explicit list, or at 2^63 or more."""
    if kind == "const":
        value = param * n
    elif kind == "list":
        value = sum(param[:n]) if n <= len(param) else None
    else:
        try:
            value = math.ceil(param**n / (param - 1)) if n else 0
        except OverflowError:
            value = None
    return value if value is not None and value < 2**63 else None


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    st.one_of(
        st.tuples(st.just("const"), st.integers(1, 64)),
        st.tuples(st.just("list"), st.lists(st.integers(1, 64), min_size=1, max_size=40)),
        st.tuples(st.just("geom"), st.floats(1.05, 3.0)),
    ),
    st.integers(0, 200),
    st.one_of(st.integers(-1, 10**6), st.just(math.inf)),
)
@example(("geom", 1.468689060639555), 120, math.inf)
@example(("geom", 1.468689060639555), 111, math.inf)
@example(("geom", 3.0), 200, 2**62)
@example(("list", [1, 2, 4]), 10, 3)  # past equal to a partial sum
@example(("const", 3), 7, 21)  # past == b * n
@example(("geom", 1.5), 0, math.inf)  # n = 0
@example(("const", 2), 5, -1)  # past below B_0
@example(("list", [1, 2, 4]), 10, 7)  # the list's last sum equals past
def test_partial_sums_match_the_scalar_route(spec, n, past):
    # B_0..B_m through m = n or the first B_m > past: the array route, the
    # scalar B and b, and the definition agree element for element, and a
    # sum the schedule does not have raises ConfigError on every route
    schedule = _schedule(*spec)
    expect = [0]
    while len(expect) <= n and expect[-1] <= past:
        expect.append(_defining_sum(*spec, len(expect)))
        if expect[-1] is None:
            with pytest.raises(ConfigError):
                schedule.partial_sums(n, past)
            with pytest.raises(ConfigError):
                schedule.B(len(expect) - 1)
            return
    sums = schedule.partial_sums(n, past)
    assert sums.dtype == np.int64 and sums.tolist() == expect
    scalar = [schedule.B(k) for k in range(len(expect))]
    assert scalar == expect and all(type(v) is int for v in scalar)
    assert np.diff(sums).tolist() == [schedule.b(k) for k in range(1, len(expect))]
    # schedules can be sent to worker processes
    assert pickle.loads(pickle.dumps(schedule)).partial_sums(n, past).tolist() == expect


def test_geometric_sums_are_python_float_ceilings():
    # numpy's array ** gives 479011201259 at n = 68; a naive int64 cast of
    # the float sums wraps to -2^63 from n = 112
    schedule = geometric_blocks(1.468689060639555)
    assert schedule.B(68) == schedule.partial_sums(68)[-1] == 479011201260
    assert (np.diff(schedule.partial_sums(111)) > 0).all()
    with pytest.raises(ConfigError, match="B_112"):
        schedule.partial_sums(112)


def test_partial_sums_stop_where_the_caller_needs():
    # an explicit list whose last sum is the first past the bound is enough,
    # and a bound past every sum it holds is not
    sched = BlockSchedule((1, 2, 4))
    assert sched.partial_sums(10, past=6).tolist() == [0, 1, 3, 7]
    assert sched.partial_sums(2).tolist() == [0, 1, 3]
    with pytest.raises(ConfigError, match="past the end"):
        sched.partial_sums(10, past=7)
    # B_3 = 2^124 is past int64; a caller that stops at B_2 never asks for it
    schedule = geometric_blocks(2.0**62)
    assert schedule.partial_sums(10, past=2).tolist() == [0, 1, 2**62]
    for make, arg, n in ((geometric_blocks, 2.0**62, 3), (constant_schedule, 2**62, 2)):
        with pytest.raises(ConfigError, match="past the end"):
            make(arg).partial_sums(n)
    with pytest.raises(ConfigError):
        geometric_blocks(2.0**63)  # B_2 >= 2^63: a schedule of one block
    # B_0 = 0 is past any negative bound, as for pipeline's budget at a K_max past it
    for schedule in (sched, constant_schedule(3), geometric_blocks(1.5)):
        assert schedule.partial_sums(10, past=-5).tolist() == [0]


def test_schedule_reachable_within_an_explicit_list(iid):
    # depth 5 reaches b_1..b_3 only: B_3 = 7 > 5, so no length past the list
    sched = BlockSchedule((1, 2, 4))
    assert coupling._reachable_lengths(sched, 5).tolist() == [1, 2, 4]
    summary = estimate_disagreement(iid, sched, 5, "1", "0", n_traj=4, seed=0)
    assert summary.run_stats == {0: (4, 0), 1: (4, 0), 2: (4, 0)}


def test_explicit_schedule_must_cover_the_run(longrange):
    # B_3 = 7 <= depth: a run of three agreeing blocks would overrun the list
    with pytest.raises(ConfigError):
        estimate_disagreement(longrange, BlockSchedule((1, 2, 4)), 7, "1" * 8, "0" * 8,
                              n_traj=1, seed=0)


# a direct caller's bad depth or seed: ConfigError before any generator
# exists, so before any uniform is drawn (the estimate's rows pass n_traj = 1)
@pytest.mark.parametrize("sampler, depth, seed", [
    (estimate_disagreement, -1, 0),
    (sample_block_coupling, -1, 0),
    (estimate_disagreement, 4, -1),
    (sample_block_coupling, 4, -1),
], ids=["estimate depth -1", "sample depth -1", "estimate seed -1", "sample rng -1"])
def test_bad_sampler_input_is_config_error(sampler, depth, seed, longrange, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a generator was made")

    monkeypatch.setattr(np.random, "default_rng", refuse)
    n_traj = (1,) if sampler is estimate_disagreement else ()
    with pytest.raises(ConfigError):
        sampler(longrange, constant_schedule(1), depth, "1" * 4, "0" * 4, *n_traj, seed)


def copy_model(alphabet, memory, eps=1e-9):
    """g copies coordinate ``memory``: x_0 = x_memory except with probability eps."""
    words = np.array([decode(code, 2, memory + 1) for code in range(2 ** (memory + 1))])
    return FiniteMemoryModel(alphabet, memory, np.where(words[:, 0] == words[:, -1], 1 - eps, eps))


def block_trace(sample, sched):
    """(length, run_before, agreed) per BlockRecord, after checking the run
    recursion: each block ends where the previous one began, has length
    b(run_before + 1), and a disagreement resets the run to 0."""
    run, end, trace = 0, 0, []
    for rec in sample.blocks:
        length = rec.interval[1] - rec.interval[0] + 1
        assert rec.run_before == run and rec.interval[1] == end
        assert length == sched.b(rec.run_before + 1)
        trace.append((length, rec.run_before, rec.agreed))
        run = run + 1 if rec.agreed else 0
        end = rec.interval[0] - 1
    return trace


def test_all_disagreeing_blocks_use_first_length(alphabet):
    # x copies its context 1s and y its 0s, so every block disagrees
    sched = BlockSchedule((1, 2, 4, 8))
    sample = sample_block_coupling(copy_model(alphabet, 1), sched, 5, "1", "0", rng=0)
    assert block_trace(sample, sched) == [(1, 0, False)] * 6


def test_two_agreements_then_third_length(iid):
    sched = BlockSchedule((1, 2, 4, 8))
    sample = sample_block_coupling(iid, sched, 6, "1", "0", rng=0)
    assert block_trace(sample, sched) == [(1, 0, True), (2, 1, True), (4, 2, True)]


def test_trace_agree_agree_disagree_agree(alphabet):
    # memory-7 copying: sites 0..-9 copy context positions 7,6,5,4,3,2,1,7,6,5,
    # and the contexts differ only at position 3, i.e. at site -4
    sched = BlockSchedule((1, 2, 4, 8))
    sample = sample_block_coupling(copy_model(alphabet, 7), sched, 9,
                                   "1111111", "1101111", rng=0)
    assert block_trace(sample, sched) == [
        (1, 0, True), (2, 1, True), (4, 2, False), (1, 0, True), (2, 1, True)
    ]


# --- block coupling sampler -----------------------------------------------------


def test_iid_identical_contexts_never_disagree(iid):
    sample = sample_block_coupling(iid, constant_schedule(1), 20, "1" * 4, "1" * 4, rng=0)
    assert not sample.disagree.any()
    assert (sample.x == sample.y).all()


def test_iid_any_contexts_never_disagree(iid):
    # i.i.d. conditionals are context-free, so the coupling is always diagonal
    sample = sample_block_coupling(iid, constant_schedule(2), 20, "1" * 4, "0" * 4, rng=0)
    assert not sample.disagree.any()


def test_finite_memory_agreeing_window_couples(mem1):
    # contexts equal on the last memory symbols force agreement a.s.
    sample = sample_block_coupling(mem1, BlockSchedule((1,) + (2,) * 12),
                                   24, "10", "10", rng=7)
    assert not sample.disagree.any()


def test_sample_covers_requested_depth(longrange):
    sample = sample_block_coupling(longrange, BlockSchedule((1, 2) + (3,) * 5),
                                   15, "1" * 24, "0" * 24, rng=3)
    assert sample.coords[0] <= -15
    assert sample.coords[-1] == 0
    assert len(sample.x) == len(sample.coords) == len(sample.disagree)


def test_block_cap_error(longrange):
    sched = BlockSchedule((20,))
    with pytest.raises(BudgetError):
        sample_block_coupling(longrange, sched, 8, "1" * 4, "0" * 4, rng=0)


def test_block_cap_is_checked_before_sampling(alphabet, monkeypatch):
    # every block disagrees, so no trajectory ever asks for the length-20
    # block; the cap still refuses the run before any block law or uniform
    def no_block_laws(*args):
        raise AssertionError("block laws computed before the cap check")

    monkeypatch.setattr(coupling, "_block_laws", no_block_laws)
    rng = np.random.default_rng(0)
    state = rng.bit_generator.state
    with pytest.raises(BudgetError):
        sample_block_coupling(copy_model(alphabet, 1), BlockSchedule((1, 20)), 5,
                              "1", "0", rng)
    assert rng.bit_generator.state == state


def test_truncation_tolerance_error(longrange):
    # a one-symbol context leaves the first block a slack of 0.196 > TRUNC_TOL
    with pytest.raises(TruncationError):
        sample_block_coupling(longrange, constant_schedule(1), 8, "1", "0", rng=0)


def test_sampler_marginal_law_matches_cylinder_probs(mem1):
    # finite memory: the exact conditional block law comes from the scalar
    # route, not from the kernel the sampler runs on
    n_traj = 4000
    ctx = "11"
    # one batch: trajectory i reads the generator of the i-th spawned child
    lengths = coupling._reachable_lengths(constant_schedule(1), 2)
    batch = coupling._couple(coupling._Run(mem1, lengths, 2, ctx, ctx),
                             spawned_uniforms(99, n_traj, 2))
    codes = batch.x[-3:].T @ [4, 2, 1]  # coordinates -2, -1, 0
    freq = np.bincount(codes, minlength=8) / n_traj
    for code in range(8):
        exact, err = cylinder_interval(mem1, decode(code, 2, 3), mem1.alphabet.indices(ctx))
        assert err == 0.0
        assert abs(freq[code] - exact) < 4 / np.sqrt(n_traj)


def test_estimate_disagreement_deterministic(longrange):
    a = estimate_disagreement(longrange, constant_schedule(1), 12, "1" * 12, "0" * 12,
                              n_traj=50, seed=5)
    b = estimate_disagreement(longrange, constant_schedule(1), 12, "1" * 12, "0" * 12,
                              n_traj=50, seed=5)
    assert (a.freq == b.freq).all()
    assert a.run_stats == b.run_stats


def _memory2_model():
    alphabet = Alphabet(("0", "1", "2"))
    return FiniteMemoryModel(alphabet, 2,
                             random_positive_table(alphabet, 2, np.random.default_rng(8)))


@pytest.mark.parametrize("per_batch", [1, 7, None], ids=["1", "7", "all"])
def test_estimate_equals_separate_samples(longrange, monkeypatch, per_batch):
    # trajectory i of the estimate is the path of the i-th of consecutive
    # sample_block_coupling calls on one generator, whatever the batch and
    # tile sizes; seeking the stream to window i draws it too
    sched, depth, n_traj = geometric_blocks(1.5), 14, 40
    if per_batch is not None:
        monkeypatch.setattr(coupling, "_BATCH_SITES", per_batch * (depth + 1))
    if per_batch == 7:  # and parts of 8 (trajectory, word) cells
        monkeypatch.setattr(coupling, "_MAX_ROWS", 8)
    batches, kinds = [], set()
    couple, add_context = coupling._couple, coupling.add_context

    def logged_couple(*args):
        batches.append(couple(*args))
        return batches[-1]

    def logged_add_context(model, state, rows, symbols, c0):
        if symbols.shape[-1] > 1:  # the row index of a group of several rows
            kinds.add(type(rows[1]).__name__)
        add_context(model, state, rows, symbols, c0)

    monkeypatch.setattr(coupling, "_couple", logged_couple)
    monkeypatch.setattr(coupling, "add_context", logged_add_context)
    for model in (longrange, _memory2_model()):
        batches.clear()
        summary = estimate_disagreement(model, sched, depth, "1" * 48, "0" * 48,
                                        n_traj=n_traj, seed=21)
        batched = list(batches)
        step = per_batch or n_traj
        assert [len(b.covered) for b in batched] == [
            min(step, n_traj - s) for s in range(0, n_traj, step)]
        x, y = (np.concatenate([getattr(b, side).T for b in batched]) for side in "xy")
        covered = np.concatenate([b.covered for b in batched])
        records = sorted(zip(*(np.concatenate([b.blocks[k] for b in batched]).tolist()
                               for k in coupling._BLOCK_FIELDS)))
        counts = np.zeros(depth + 1)
        run_stats, expect_records = {}, []
        rng = np.random.default_rng(21)
        for i in range(n_traj):
            sample = sample_block_coupling(model, sched, depth, "1" * 48, "0" * 48, rng)
            assert len(sample.x) == covered[i]
            assert np.array_equal(x[i, -covered[i]:], sample.x)
            assert np.array_equal(y[i, -covered[i]:], sample.y)
            counts += sample.disagree[::-1][: depth + 1]
            for rec in sample.blocks:
                seen, bad = run_stats.get(rec.run_before, (0, 0))
                run_stats[rec.run_before] = (seen + 1, bad + (not rec.agreed))
                start, end = -rec.interval[1], -rec.interval[0]
                expect_records.append((start, end - start + 1, rec.run_before, rec.agreed,
                                       rec.tv, rec.truncation_error))
        assert records == sorted(expect_records)
        assert (summary.freq == counts / n_traj).all()
        assert summary.run_stats == run_stats
        assert max(run_stats) >= 2  # blocks of three lengths were drawn together
        # window i of the stream starts i * 3(depth + 1) doubles in
        seek = np.random.Generator(np.random.PCG64(21))
        seek.bit_generator.advance(29 * coupling._max_uniforms(depth))
        sample = sample_block_coupling(model, sched, depth, "1" * 48, "0" * 48, seek)
        assert np.array_equal(x[29, -covered[29]:], sample.x)
        assert np.array_equal(y[29, -covered[29]:], sample.y)
    # groups of consecutive rows and of scattered rows were both drawn
    assert kinds == (set() if per_batch == 1 else {"slice", "ndarray"})


def test_sampler_reads_one_window_of_the_generator(iid):
    # i.i.d. blocks always agree, so 21 of the window's 3 * 21 uniforms are
    # used; the generator is left after the whole window all the same
    rng = np.random.default_rng(4)
    sample_block_coupling(iid, constant_schedule(1), 20, "1", "0", rng)
    assert rng.random() == np.random.default_rng(4).random(64)[-1]


@pytest.mark.parametrize("family", ["power_law", "exponential", "memory2"])
def test_spawned_and_one_stream_estimates_agree(family, longrange, alphabet, monkeypatch):
    # one stream per run changes the draws, not their law: at 20 000
    # trajectories every coordinate's frequency agrees with that of the
    # spawned per-trajectory stream within 4 combined standard errors
    model = {
        "power_law": longrange,
        "exponential": LongRangeLinearModel(alphabet, 0.25, Exponential.from_mass(0.7, 0.5)),
        "memory2": _memory2_model(),
    }[family]
    args = (model, constant_schedule(1), 16, "1" * 16, "0" * 16)
    one = estimate_disagreement(*args, n_traj=20_000, seed=7)
    use_spawned_stream(monkeypatch, 7, 20_000, 16)
    spawned = estimate_disagreement(*args, n_traj=20_000, seed=7)
    assert not (one.freq == spawned.freq).all()  # the draws did change
    assert (np.abs(one.freq - spawned.freq)
            <= 4 * np.hypot(one.stderr, spawned.stderr)).all()


def test_estimate_disagreement_rate_decreases(longrange):
    summary = estimate_disagreement(longrange, constant_schedule(1), 48,
                                    "1" * 48, "0" * 48, n_traj=400, seed=11)
    near = summary.freq[0:8].mean()
    far = summary.freq[40:49].mean()
    assert far < near


def test_block_conditional_normalised(longrange, rng):
    known = rng.integers(0, 2, (1, 20))
    words = all_words(2, 2)
    probs, slack = _block_laws(longrange, word_terms(longrange, words.T),
                               context_state(longrange, known, 2), 20)
    assert probs.sum() == pytest.approx(1.0, abs=1e-14)
    assert 0 < slack[0] < 0.1


# --- worst-case block total variation -------------------------------------------


def test_dn_zero_for_iid(iid):
    for n in (1, 2, 3):
        assert dn_bruteforce(iid, constant_schedule(1), n, 2) == (0.0, 0.0)


def test_dn_zero_once_memory_covered(alphabet, mem1, rng):
    assert dn_bruteforce(mem1, constant_schedule(1), 2, 1) == (0.0, 0.0)
    model = FiniteMemoryModel(alphabet, 2, random_positive_table(alphabet, 2, rng))
    sched = BlockSchedule((2, 1, 1))
    # B_{n-1} = 3 >= memory for n = 3
    assert dn_bruteforce(model, sched, 3, 2) == (0.0, 0.0)


def test_dn_positive_for_longrange(longrange):
    lower, upper = dn_bruteforce(longrange, constant_schedule(1), 2, 3)
    assert 0 < lower <= upper
    assert upper - lower < 0.2


def test_dn_budget_error(longrange):
    with pytest.raises(BudgetError):
        dn_bruteforce(longrange, constant_schedule(1), 20, 12)


def test_dn_budget_counts_in_python_ints(longrange):
    # 2^69 agreeing words: an np.int64 B_69 would wrap 2 ** 69 to 0
    with pytest.raises(BudgetError):
        coupling.check_dn_budget(longrange, constant_schedule(1), 70, 0)


def test_dn_monotone_in_tail_length(longrange):
    # deeper enumerated tails can only reveal more oscillation
    lowers = [dn_bruteforce(longrange, constant_schedule(1), 2, L)[0] for L in (1, 2, 3, 4)]
    assert all(lowers[i] <= lowers[i + 1] + 1e-15 for i in range(3))


# --- suffix suprema ----------------------------------------------------------


def test_dbar_examples():
    assert dbar((0.3, 0.1, 0.2), 0.0).tolist() == [0.3, 0.2, 0.2]
    assert dbar((0.5, 0.5), 0.0).tolist() == [0.5, 0.5]
    assert dbar((0.1,), 0.4).tolist() == [0.4]


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.floats(min_value=0, max_value=1), min_size=1, max_size=12),
    st.floats(min_value=0, max_value=1),
)
def test_dbar_properties(values, tail):
    out = dbar(values, tail)
    assert all(out[i] >= out[i + 1] for i in range(len(out) - 1))
    assert all(out[i] >= values[i] for i in range(len(values)))
    assert out[-1] >= tail
    assert out.tolist() == [max(tail, *values[i:]) for i in range(len(values))]
