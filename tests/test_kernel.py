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
from gmeasure.coupling import BlockSchedule
from gmeasure.gmodel import finite_memory_surrogate
from oracles import cylinder_interval, dn_enumerate, surrogate_table

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
    mid, rad = model.site_intervals(words, model.context_field(known, b), L)
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
