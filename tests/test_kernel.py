"""The batched g-interval kernel against the scalar reference route.

``site_intervals`` must give, site by site, the interval ``eval_indices``
gives on the same word; the routes built on the kernel must match the
word-by-word oracles, which never call it.
"""

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
    Word,
    binary_alphabet,
    constant_schedule,
    cylinder_prob,
    dn_bruteforce,
)
from gmeasure import coupling, estimate_disagreement
from gmeasure.coupling import BlockSchedule, _block_laws
from gmeasure.criteria import geometric_blocks
from gmeasure.gmodel import all_words, finite_memory_surrogate, interval_product
from oracles import block_law, cylinder_interval, dn_enumerate, surrogate_table

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
    mid, rad = model.site_intervals(model.word_terms(words), model.context_field(known, b), L)
    for row in range(4):
        sequence = tuple(words[row]) + tuple(known[row])
        for j in range(b):
            m, e = model.eval_indices(sequence[j:])
            assert abs((mid[row, j] - rad[row, j]) - (m - e)) <= 1e-15
            assert abs((mid[row, j] + rad[row, j]) - (m + e)) <= 1e-15


@settings(max_examples=100, deadline=None)
@given(models, st.integers(1, 5), st.integers(0, 8), st.integers(0, 2**32 - 1))
def test_cylinder_prob_matches_oracle(model, b, L, seed):
    rng = np.random.default_rng(seed)
    symbols = model.alphabet.symbols
    block = rng.integers(0, len(symbols), b)
    context = rng.integers(0, len(symbols), L)
    value, err = cylinder_prob(model, Word(1 - b, tuple(symbols[s] for s in block)),
                               Word(1, tuple(symbols[s] for s in context)))
    expect_value, expect_err = cylinder_interval(model, block, context)
    assert value == pytest.approx(expect_value, abs=1e-15)
    assert err == pytest.approx(expect_err, abs=1e-15)


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
    # three (context, word) rows per kernel call: tiles split the words and
    # the context rows, and the two sides share every call
    monkeypatch.setattr(coupling, "_MAX_ROWS", 3)
    model = _stacked_models()[name]
    size = model.alphabet.size
    rng = np.random.default_rng(b)
    known_len = np.array([0, 1, 2, 5])
    known = rng.integers(0, size, (2, len(known_len), known_len.max()))
    # row r of each side knows the first known_len[r] symbols of its context
    field = np.array([[model.context_field(known[side, row, :L], b)
                       for row, L in enumerate(known_len)] for side in range(2)])
    words = all_words(size, b)
    probs, slack = _block_laws(model, words, field, known_len)
    terms = model.word_terms(words)
    for side in range(2):
        one_probs, one_slack = _block_laws(model, words, field[side], known_len)
        assert np.array_equal(probs[side], one_probs)
        assert np.array_equal(slack[side], one_slack)
        for row, L in enumerate(known_len.tolist()):
            context = known[side, row, :L]
            lo, hi = interval_product(*model.site_intervals(terms, field[side, row], L))
            for w, word in enumerate(words):
                mid, half = cylinder_interval(model, word, context)
                assert abs(0.5 * (lo[w] + hi[w]) - mid) <= 1e-15
                assert abs(0.5 * (hi[w] - lo[w]) - half) <= 1e-15
            expect_probs, expect_slack = block_law(model, b, tuple(context))
            assert np.abs(probs[side, row] - expect_probs).max() <= 1e-15
            assert slack[side, row] == pytest.approx(expect_slack, abs=1e-15)


def _count_word_terms(monkeypatch, model):
    calls = []
    word_terms = type(model).word_terms

    def counted(self, words):
        calls.append(np.shape(words))
        return word_terms(self, words)

    monkeypatch.setattr(type(model), "word_terms", counted)
    return calls


def test_word_terms_computed_once_per_block_length(monkeypatch):
    # the mc_long_blocks benchmark configuration: one batch, whose runs reach
    # the block lengths 3, 2, 2, 4, 5, 7 and 12
    model = LongRangeLinearModel(binary_alphabet(), 0.25, Exponential.from_mass(0.7, 0.5))
    calls = _count_word_terms(monkeypatch, model)
    estimate_disagreement(model, geometric_blocks(1.5), 34, "1" * 48, "0" * 48, 8, seed=3)
    assert sorted(shape[-1] for shape in calls) == [2, 3, 4, 5, 7, 12]
    calls.clear()
    # 16 agreeing parts x 8 tails, enumerated in two steps
    dn_bruteforce(model, constant_schedule(2), 3, 3)
    assert len(calls) == 1
