"""The batched g-interval kernel against the scalar reference route.

``site_intervals`` must give, site by site, the interval ``eval_indices``
gives on the same word; the routes built on the kernel must match the
word-by-word oracles, which never call it.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gmeasure import (
    Alphabet,
    Exponential,
    FiniteMemoryModel,
    LongRangeLinearModel,
    PowerLaw,
    binary_alphabet,
    constant_schedule,
    dn_bruteforce,
)
from gmeasure import coupling, estimate_disagreement
from gmeasure.coupling import BlockSchedule, _block_laws, geometric_blocks
from gmeasure.gmodel import (add_context, all_words, context_state, finite_memory_surrogate,
                             interval_product, word_terms)
from oracles import (block_law, context_sums, cylinder_interval, dn_enumerate,
                     interval_product_loop, surrogate_table)

long_range = st.builds(
    lambda theta, law, p, r, mass: LongRangeLinearModel(
        binary_alphabet(), theta,
        PowerLaw.from_mass(p, mass) if law == "power"
        else Exponential.from_mass(r, mass),
    ),
    st.floats(0.05, 0.45), st.sampled_from(["power", "exponential"]),
    st.floats(1.2, 3.0), st.floats(0.2, 0.9), st.floats(0.1, 1.0),
)


@st.composite
def finite_memory(draw, max_memory=5):
    size = draw(st.integers(2, 3))
    memory = draw(st.integers(0, max_memory))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    raw = rng.uniform(0.05, 1.0, size=(size, size**memory))
    alphabet = Alphabet(tuple("abc"[:size]))
    return FiniteMemoryModel(alphabet, memory, (raw / raw.sum(axis=0)).reshape(-1))


models = st.one_of(long_range, finite_memory())


@settings(max_examples=150, deadline=None)
@given(models, st.integers(1, 5), st.integers(0, 8), st.integers(0, 2**32 - 1))
def test_kernel_matches_eval_indices(model, b, L, seed):
    # L = 0 and, for finite memory, b - j + L < memory + 1 give short windows
    rng = np.random.default_rng(seed)
    size = model.alphabet.size
    words = rng.integers(0, size, (4, b))
    known = rng.integers(0, size, (4, L))
    mid, rad = model.site_intervals(word_terms(model, words.T), context_state(model, known, b), L)
    rad = np.broadcast_to(rad, mid.shape)  # the long-range radius is one per site
    for row in range(4):
        sequence = tuple(words[row]) + tuple(known[row])
        for j in range(b):
            m, e = model.eval_indices(sequence[j:])
            assert abs((mid[j, row] - rad[j, row]) - (m - e)) <= 1e-15
            assert abs((mid[j, row] + rad[j, row]) - (m + e)) <= 1e-15


@settings(max_examples=30, deadline=None)
@given(st.one_of(long_range, finite_memory(max_memory=3)), st.integers(0, 8))
def test_surrogate_matches_oracle(model, memory):
    surrogate, defect, half_width = finite_memory_surrogate(model, memory)
    table, expect_defect, expect_half_width = surrogate_table(model, memory)
    assert np.abs(surrogate.table - table).max() <= 1e-15
    assert defect == pytest.approx(expect_defect, abs=1e-15)
    assert half_width == expect_half_width


@settings(max_examples=30, deadline=None)
@given(models, st.sampled_from([(1,), (2,), (1, 2, 1)]), st.integers(1, 3), st.integers(0, 3))
def test_dn_bruteforce_matches_oracle(model, lengths, n, tail_len):
    schedule = constant_schedule(lengths[0]) if len(lengths) == 1 else BlockSchedule(lengths)
    lower, upper = dn_bruteforce(model, schedule, n, tail_len)
    expect_lower, expect_upper = dn_enumerate(model, schedule, n, tail_len)
    assert lower == pytest.approx(expect_lower, abs=1e-15)
    assert upper == pytest.approx(expect_upper, abs=1e-15)


@pytest.mark.parametrize("tail_len", [0, 1, 2])
@pytest.mark.parametrize("name, b", [("power", 3), ("memory-2 on 3 symbols", 2)])
def test_dn_bruteforce_is_independent_of_its_steps(name, b, tail_len, monkeypatch):
    # 8 and 9 words: from 8 words on, numpy's pairwise sum has another order
    model = _stacked_models()[name]
    schedule = constant_schedule(b)
    size = model.alphabet.size
    n_pairs = size**tail_len * (size**tail_len + 1) // 2
    default = dn_bruteforce(model, schedule, 2, tail_len)
    expect_lower, expect_upper = dn_enumerate(model, schedule, 2, tail_len)
    # one agreeing part a step, then three of the size**b parts a step
    for cells in (1, 3 * n_pairs * size**b):
        monkeypatch.setattr(coupling, "_MAX_CELLS", cells)
        lower, upper = dn_bruteforce(model, schedule, 2, tail_len)
        assert (lower, upper) == default
        assert lower == pytest.approx(expect_lower, abs=1e-15)
        assert upper == pytest.approx(expect_upper, abs=1e-15)


@pytest.mark.parametrize("tail_len", [0, 2, 6])
@pytest.mark.parametrize("name", ["power", "exponential"])
def test_dn_bruteforce_brackets_the_closed_form(name, tail_len):
    # one-site blocks of the binary linear model: the agreeing part cancels
    # and d_n = 2 theta tail(n - 1), the supremum over all completions
    model = _stacked_models()[name]
    for n in range(1, 7):
        lower, upper = dn_bruteforce(model, constant_schedule(1), n, tail_len)
        closed_form = 2 * model.theta * model.coefficients.tail(n - 1)
        assert lower - 1e-15 <= closed_form <= upper + 1e-15


def _stacked_models():
    rng = np.random.default_rng(5)
    tables = {size: rng.uniform(0.05, 1.0, (size, size**2)) for size in (2, 3)}
    return {
        "power": LongRangeLinearModel(binary_alphabet(), 0.25, PowerLaw.from_mass(2.0, 0.5)),
        "exponential": LongRangeLinearModel(binary_alphabet(), 0.3,
                                            Exponential.from_mass(0.7, 0.6)),
        **{f"memory-2 on {size} symbols": FiniteMemoryModel(
            Alphabet(tuple("abc"[:size])), 2, (raw / raw.sum(axis=0)).reshape(-1))
           for size, raw in tables.items()},
    }


@pytest.mark.parametrize("b", [1, 2, 3, 4])
@pytest.mark.parametrize("name", list(_stacked_models()))
def test_stacked_block_laws_match_oracle(name, b, monkeypatch):
    # parts of three (trajectory, word) cells, so kernel calls of two rows,
    # and a tail of 3 words: a block of 4 or more words evaluates its first
    # sites one at a time on their suffixes
    monkeypatch.setattr(coupling, "_MAX_ROWS", 3)
    monkeypatch.setattr(coupling, "_TAIL_WORDS", 3)
    model = _stacked_models()[name]
    size = model.alphabet.size
    rng = np.random.default_rng(b)
    words = all_words(size, b)
    terms = word_terms(model, words.T)
    # one call per known context length, two context rows per side
    for L in (0, 1, 2, 5):
        known = rng.integers(0, size, (2, 2, L))
        state = context_state(model, known, b)
        probs, slack = _block_laws(model, terms, state, L)
        for side in range(2):
            one_probs, one_slack = _block_laws(model, terms, state[:, side], L)
            assert np.array_equal(probs[side], one_probs)
            assert np.array_equal(slack[side], one_slack)
            for row, context in enumerate(known[side]):
                lo, hi = interval_product(*model.site_intervals(terms, state[:, side, row, None], L))
                for w, word in enumerate(words):
                    mid, half = cylinder_interval(model, word, context)
                    assert abs(0.5 * (lo[w] + hi[w]) - mid) <= 1e-15
                    assert abs(0.5 * (hi[w] - lo[w]) - half) <= 1e-15
                expect_probs, expect_slack = block_law(model, b, tuple(context))
                assert np.abs(probs[side, row] - expect_probs).max() <= 1e-15
                assert slack[side, row] == pytest.approx(expect_slack, abs=1e-15)


@pytest.mark.parametrize("cap", [(coupling._MAX_ROWS, coupling._TAIL_WORDS), (3, 3)],
                         ids=["default cap", "cap 3"])
@pytest.mark.parametrize("name, b", [
    *((name, b) for name in ("power", "memory-2 on 2 symbols") for b in (1, 2, 3, 4)),
    ("memory-2 on 3 symbols", 1), ("memory-2 on 3 symbols", 2)])
def test_block_laws_do_not_depend_on_the_row_count(name, b, cap, monkeypatch):
    # 2, 4, 8 and 16 words on two symbols, 3 and 9 on three: from 8 words
    # on, numpy sums a contiguous row of words pairwise, so a layout chosen
    # by the row count would change the bits of some rows; under cap 3 the
    # 80 rows take kernel calls of two rows, and the first sites of 8, 16
    # and 9 words are evaluated one by one on their suffixes
    monkeypatch.setattr(coupling, "_MAX_ROWS", cap[0])
    monkeypatch.setattr(coupling, "_TAIL_WORDS", cap[1])
    model = _stacked_models()[name]
    size, L = model.alphabet.size, 6
    terms = word_terms(model, all_words(size, b).T)
    state = context_state(model, np.random.default_rng(b).integers(0, size, (2, 40, L)), b)
    probs, slack = _block_laws(model, terms, state, L)
    assert probs.shape == (2, 40, size**b) and slack.shape == (2, 40)
    for side, row in np.ndindex(2, 40):
        one_probs, one_slack = _block_laws(model, terms, state[:, side, row, None], L)
        assert np.array_equal(probs[side, row], one_probs[0])
        assert np.array_equal(slack[side, row], one_slack[0])


def test_short_blocks_take_the_row_layout(monkeypatch):
    # the mc_short_blocks benchmark configuration: one-site blocks, so every
    # step is one group of all 200 trajectories, both sides in one kernel
    # call on (sites, words, rows) arrays with the 400 rows innermost
    model = LongRangeLinearModel(binary_alphabet(), 0.25, PowerLaw.from_mass(2.0, 0.5))
    shapes, site_intervals = [], model.site_intervals

    def recorded(terms, state, known_len):
        mid, rad = site_intervals(terms, state, known_len)
        shapes.append((state.shape, mid.shape, mid.flags.c_contiguous))
        return mid, rad

    def no_sort(*args, **kwargs):
        raise AssertionError("a step of one group was sorted")

    monkeypatch.setattr(model, "site_intervals", recorded)
    monkeypatch.setattr(np, "argsort", no_sort)
    estimate_disagreement(model, constant_schedule(1), 64, "1" * 64, "0" * 64, 200, seed=1)
    assert shapes == [((1, 1, 400), (1, 2, 400), True)] * 65  # one call per step, 65 steps


def test_short_blocks_read_and_update_the_state_in_place(monkeypatch):
    # the mc_short_blocks configuration: each step's kernel call reads the
    # block's columns of the sampler's own context state, and each context
    # update adds into one contiguous slab of it, with no copy or transpose
    model = LongRangeLinearModel(binary_alphabet(), 0.25, PowerLaw.from_mass(2.0, 0.5))
    reads, slabs, states = [], [], []
    site_intervals, add_context = model.site_intervals, coupling.add_context

    def recorded(terms, state, known_len):
        reads.append(state)
        return site_intervals(terms, state, known_len)

    def logged(model, state, rows, symbols, c0):
        states.append(state)
        slabs.append(state[(slice(0, c0),) + rows])  # the power law reaches every column
        add_context(model, state, rows, symbols, c0)

    monkeypatch.setattr(model, "site_intervals", recorded)
    monkeypatch.setattr(coupling, "add_context", logged)
    estimate_disagreement(model, constant_schedule(1), 64, "1" * 64, "0" * 64, 200, seed=1)
    assert len(reads) == len(slabs) == 65 and all(s is states[0] for s in states)
    for state in reads:
        assert state.flags.c_contiguous and np.shares_memory(state, states[0])
    for slab in slabs[:-1]:  # the last block has no column left of it
        assert slab.size and slab.flags.c_contiguous and np.shares_memory(slab, states[0])


@pytest.mark.parametrize("lead", [(), (1,), (2, 3)], ids=["one row", "one of one", "2x3"])
@pytest.mark.parametrize("name", ["power", "exponential", "memory-2 on 3 symbols"])
def test_context_state_matches_the_add_context_loop(name, lead):
    # one in-order reduction over the symbols gives the bits of one
    # add_context pass per symbol, for contexts around the memory M = 2,
    # and for a single cell, which numpy would otherwise sum pairwise
    model = _stacked_models()[name]
    rng = np.random.default_rng(len(lead))
    for L in (0, 1, 2, 5, 64, 150):
        for width in sorted({0, 1, L // 2, L + 3}):
            known = rng.integers(0, model.alphabet.size, lead + (L,))
            expect = np.zeros((width,) + lead, dtype=model.symbol_values.dtype)
            for i in range(L):
                add_context(model, expect, (...,), known[None, ..., i], width + i)
            state = context_state(model, known, width)
            assert state.dtype == expect.dtype
            assert np.array_equal(_bits(state), _bits(expect))


def _count_word_terms(monkeypatch):
    calls = []

    def counted(model, words):
        calls.append(np.shape(words))
        return word_terms(model, words)

    monkeypatch.setattr(coupling, "word_terms", counted)
    return calls


def test_word_terms_computed_once_per_run(monkeypatch):
    # the mc_long_blocks benchmark configuration: one batch, whose runs reach
    # the block lengths 3, 2, 2, 4, 5, 7 and 12, all sliced from one table
    # of the longest
    model = LongRangeLinearModel(binary_alphabet(), 0.25, Exponential.from_mass(0.7, 0.5))
    calls = _count_word_terms(monkeypatch)
    estimate_disagreement(model, geometric_blocks(1.5), 34, "1" * 48, "0" * 48, 8, seed=3)
    assert calls == [(12, 4096)]  # sites first
    calls.clear()
    # three batches of at most 3 trajectories share the run's word terms
    monkeypatch.setattr(coupling, "_BATCH_SITES", 3 * 35)
    batches, couple = [], coupling._couple
    monkeypatch.setattr(coupling, "_couple", lambda *args: batches.append(couple(*args)) or batches[-1])
    estimate_disagreement(model, geometric_blocks(1.5), 34, "1" * 48, "0" * 48, 8, seed=3)
    assert [len(batch.covered) for batch in batches] == [3, 3, 2]
    assert calls == [(12, 4096)]
    calls.clear()
    # 16 agreeing parts x 36 tail pairs x 4 words, enumerated in two steps
    monkeypatch.setattr(coupling, "_MAX_CELLS", 8 * 36 * 4)
    dn_bruteforce(model, constant_schedule(2), 3, 3)
    assert len(calls) == 1


@pytest.mark.parametrize("name", list(_stacked_models()))
def test_run_table_slices_are_the_per_length_tables(name):
    # a run builds the words and word terms of its longest length once, and
    # every shorter length reads a slice of them, bit for bit
    model = _stacked_models()[name]
    size = model.alphabet.size
    longest = coupling.BLOCK_CAP if size == 2 else 7  # 3^12 words: 100 MB of terms
    run = coupling._Run(model, np.array([1, longest]), 0, "", "")
    for b in range(1, longest + 1):
        words, terms = run.table(b)
        expect = word_terms(model, all_words(size, b).T)
        assert np.array_equal(words, all_words(size, b))
        assert terms.dtype == expect.dtype and np.array_equal(_bits(terms), _bits(expect))


@pytest.mark.parametrize("name", ["power", "exponential", "memory-2 on 2 symbols"])
def test_long_block_laws_evaluate_each_suffix_once(name, monkeypatch):
    # site j of a 12-site block reads only its 2^(12 - j) suffixes: the
    # kernel evaluates 4096 + 2048 + ... cells a row, under 2 x 4096, plus
    # the last sites on one tile of words, not 12 x 4096 = 49 152
    model = _stacked_models()[name]
    b, n_rows, L = coupling.BLOCK_CAP, 3, 5
    cells, site_intervals = [], model.site_intervals

    def counted(terms, state, known_len):
        mid, rad = site_intervals(terms, state, known_len)
        cells.append(mid.size)
        return mid, rad

    monkeypatch.setattr(model, "site_intervals", counted)
    terms = word_terms(model, all_words(2, b).T)
    state = context_state(model, np.random.default_rng(b).integers(0, 2, (n_rows, L)), b)
    _block_laws(model, terms, state, L)
    assert sum(cells) <= n_rows * (2 * 2**b + b * coupling._TAIL_WORDS)


def _reference_block_laws(model, terms, state, known_len):
    """``_block_laws`` from one kernel call on every (site, row, word) cell
    and the loop oracle's product, words innermost, then the same word sums
    and normalisation."""
    lead, rows = state.shape[1:], state.reshape(len(state), -1)
    mid, rad = model.site_intervals(terms[:, :, None, :], rows[:, :, None], known_len)
    lo, hi = interval_product_loop(np.moveaxis(mid, 0, -1),
                                   np.moveaxis(np.broadcast_to(rad, mid.shape), 0, -1))
    mids, halves = 0.5 * (lo + hi), 0.5 * (hi - lo)
    # contiguous words: numpy sums fewer than 8 in order, as the row layout does
    total, slack = mids.sum(axis=-1), halves.sum(axis=-1)
    slack = np.where(slack == 0.0, 0.0, slack + np.abs(total - 1.0))
    return (mids / total[:, None]).reshape(lead + (-1,)), slack.reshape(lead)


@pytest.mark.parametrize("name, b", [
    *((name, b) for name in ("power", "exponential", "memory-2 on 2 symbols")
      for b in range(5, coupling.BLOCK_CAP + 1)),
    *(("memory-2 on 3 symbols", b) for b in range(1, 7))])
def test_block_laws_are_bit_exact_up_to_the_cap(name, b):
    # the suffix-by-suffix product makes the multiplications of the full
    # (sites, words) product in the same order, so every bit is kept
    model = _stacked_models()[name]
    size = model.alphabet.size
    terms = word_terms(model, all_words(size, b).T)
    rng = np.random.default_rng(b)
    for L in (0, 1, 7):
        state = context_state(model, rng.integers(0, size, (2, 3, L)), b)
        probs, slack = _block_laws(model, terms, state, L)
        expect_probs, expect_slack = _reference_block_laws(model, terms, state, L)
        assert np.array_equal(probs, expect_probs)
        assert np.array_equal(slack, expect_slack)


def _bits(x):
    return np.ascontiguousarray(x).view(np.uint64)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 12), st.integers(1, 5), st.integers(1, 6),
       st.sampled_from(["per word", "per row", "zero"]), st.booleans(), st.integers(0, 2**32 - 1))
def test_interval_product_matches_loop_oracle(b, n_rows, n_words, radii, strided, seed):
    # factors from [-0.1, 1.1] and radii up to 0.2: products clip at 0 and at 1
    rng = np.random.default_rng(seed)
    mid = rng.uniform(-0.1, 1.1, (b, n_rows, n_words))
    if strided:  # sites first as a view of a sites-last array
        mid = np.moveaxis(np.ascontiguousarray(np.moveaxis(mid, 0, -1)), -1, 0)
    rad = {"per word": rng.uniform(0, 0.2, (b, n_rows, n_words)),
           "per row": rng.uniform(0, 0.2, (b, n_rows, 1)),  # broadcast over words
           "zero": np.zeros((b, 1, 1))}[radii]
    lo, hi = interval_product(mid, rad)
    expect_lo, expect_hi = interval_product_loop(
        np.moveaxis(mid, 0, -1), np.moveaxis(np.broadcast_to(rad, mid.shape), 0, -1))
    assert np.array_equal(_bits(lo), _bits(expect_lo))
    assert np.array_equal(_bits(hi), _bits(expect_hi))


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 6), st.integers(1, 6), st.integers(1, 3), st.integers(1, 4),
       st.integers(1, 3), st.integers(0, 2**32 - 1))
def test_interval_product_into_bounds_matches_loop_oracle(head, tail, n_rows, m, n_prefixes,
                                                          seed):
    # the tail sites' factors on m words, repeated over n_prefixes word
    # prefixes, multiplied in place into the product of the head sites
    rng = np.random.default_rng(seed)
    n_words = n_prefixes * m
    mid = rng.uniform(-0.1, 1.1, (head, n_rows, n_words))
    rad = rng.uniform(0, 0.2, (head, n_rows, 1))
    tail_mid = rng.uniform(-0.1, 1.1, (tail, n_rows, m))
    tail_rad = rng.uniform(0, 0.2, (tail, 1, 1))
    bounds = interval_product(mid, rad)
    assert interval_product(tail_mid, tail_rad, bounds) is bounds
    full_mid = np.concatenate([mid, np.tile(tail_mid, n_prefixes)])
    full_rad = np.concatenate([np.broadcast_to(rad, mid.shape),
                               np.broadcast_to(tail_rad, (tail, n_rows, n_words))])
    expect = interval_product_loop(np.moveaxis(full_mid, 0, -1), np.moveaxis(full_rad, 0, -1))
    assert np.array_equal(_bits(bounds), _bits(np.array(expect)))


def _draw_blocks(model, rng, n_rows, width, L):
    """Random blocks of 1 to 3 sites, drawn as the sampler draws them: rows
    at the same frontier due the same length share one ``add_context`` call,
    indexed by a slice when they are consecutive.  Returns the contexts, the
    histories, each row's ``(c0, b)`` in drawing order, the in-place sums and
    the kinds of row index used."""
    contexts = rng.integers(0, 2, (2, L))
    state = np.repeat(context_state(model, contexts, width)[..., None], n_rows, axis=-1)
    hist = np.zeros((2, n_rows, width), dtype=np.intp)
    covered = np.zeros(n_rows, dtype=np.intp)
    blocks = [[] for _ in range(n_rows)]
    kinds = set()
    while (active := np.flatnonzero(covered < width)).size:
        lengths = np.minimum(rng.integers(1, 4, len(active)), width - covered[active])
        groups = {}
        for row, b in zip(active.tolist(), lengths.tolist()):
            groups.setdefault((b, int(covered[row])), []).append(row)
        for (b, front), rows in groups.items():
            rows = np.array(rows)
            index = slice(rows[0], rows[-1] + 1) if rows[-1] - rows[0] < len(rows) else rows
            if len(rows) > 1:
                kinds.add(type(index).__name__)
            c0 = width - b - front
            hist[:, rows, c0 : c0 + b] = drawn = rng.integers(0, 2, (2, len(rows), b))
            add_context(model, state, (slice(None), index), np.moveaxis(drawn, -1, 0), c0)
            for row in rows.tolist():
                blocks[row].append((c0, b))
            covered[rows] += b
    return contexts, hist, blocks, state, kinds


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("law", [PowerLaw.from_mass(2.0, 0.5), Exponential.from_mass(0.7, 0.5)],
                         ids=["power", "exponential"])
def test_in_place_context_sums_match_oracle(law, seed):
    model = LongRangeLinearModel(binary_alphabet(), 0.25, law)
    width, L = 30, 6
    contexts, hist, blocks, state, kinds = _draw_blocks(
        model, np.random.default_rng(seed), 9, width, L)
    assert kinds == {"slice", "ndarray"}  # consecutive and scattered groups both drawn
    for side in range(2):
        for row in range(9):
            expect = context_sums(model, contexts[side], hist[side, row], blocks[row], width)
            assert np.array_equal(_bits(state[:, side, row]), _bits(expect))
            # the plain sum over the symbols right of each column's block
            seq = hist[side, row].tolist() + contexts[side].tolist()
            for c0, b in blocks[row]:
                for c in range(c0, c0 + b):
                    plain = math.fsum(law.var_at(col - c) * model.symbol_values[seq[col]]
                                      for col in range(c0 + b, width + L))
                    assert abs(state[c, side, row] - plain) <= 1e-15
