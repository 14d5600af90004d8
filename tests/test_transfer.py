import hashlib
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gmeasure import (
    Alphabet,
    BudgetError,
    ConfigError,
    Exponential,
    FiniteMemoryModel,
    LongRangeLinearModel,
    PowerLaw,
    TransferOperator,
    apply_Ln,
    indicator,
    stationary,
    uniqueness_diagnostic,
)
from gmeasure import errors
from gmeasure.gmodel import finite_memory_surrogate
from gmeasure.transfer import _is_uniquely_ergodic
from oracles import (
    closed_class_count,
    dense_transfer_matrix,
    dobrushin_coefficient,
    left_perron_vector,
    stationary_prob,
    transfer_apply_dual_loop,
    transfer_apply_loop,
)


def models_with_zero_entries(rng):
    """2-4 symbols, memory 0-3, random tables with about a third of their
    entries zero."""
    for size in (2, 3, 4):
        alphabet = Alphabet(tuple("abcd"[:size]))
        for memory in range(4):
            table = rng.random((size, size**memory))
            table[rng.random(table.shape) < 0.3] = 0.0
            table[0, table.sum(axis=0) == 0.0] = 1.0
            yield FiniteMemoryModel(alphabet, memory, (table / table.sum(axis=0)).reshape(-1))


def test_preserves_constants(iid, mem1):
    for model in (iid, mem1):
        op = TransferOperator(model)
        ones = np.ones(op.dim)
        for n in (1, 5, 20):
            assert np.abs(apply_Ln(op, ones, n) - 1.0).max() < 1e-14


def test_positivity(rng):
    for model in models_with_zero_entries(rng):
        op = TransferOperator(model)
        f = rng.random(op.dim)
        assert (apply_Ln(op, f, 4) >= 0).all()


def test_apply_L0_is_identity(mem1):
    op = TransferOperator(mem1)
    f = np.array([2.0, -1.0])
    assert (apply_Ln(op, f, 0) == f).all()


def test_iid_one_step_smoothing(iid):
    op = TransferOperator(iid)
    f = indicator(iid.alphabet, "0")
    out = apply_Ln(op, f, 1)
    assert np.abs(out - 0.3).max() < 1e-15


def test_dimension_mismatch(mem1):
    op = TransferOperator(mem1)
    with pytest.raises(ConfigError):
        apply_Ln(op, np.ones(5), 1)


def test_matches_dense_matrix_power_oracle(rng):
    for model in models_with_zero_entries(rng):
        op = TransferOperator(model)
        A = dense_transfer_matrix(model, op.window)
        f = rng.random(op.dim)
        for n in (1, 3, 7):
            expect = np.linalg.matrix_power(A, n) @ f
            assert np.abs(apply_Ln(op, f, n) - expect).max() < 1e-12


def test_apply_and_dual_match_index_list_loops_bit_for_bit(rng):
    # signed inputs with about 30% -0.0: -0.0 + -0.0 is -0.0 but 0.0 + -0.0
    # is 0.0, so the sign of a zero result shows the order and the start of
    # the additions
    def signed(dim):
        x = rng.standard_normal(dim)
        x[rng.random(dim) < 0.3] = -0.0
        return x

    for draw in (rng.random, signed):
        for model in models_with_zero_entries(rng):
            op = TransferOperator(model)
            f, pi = draw(op.dim), draw(op.dim)
            assert op.apply(f).tobytes() == transfer_apply_loop(model, op.window, f).tobytes()
            assert (op.apply_dual(pi).tobytes()
                    == transfer_apply_dual_loop(model, op.window, pi).tobytes())


def test_apply_dual_refuses_a_wrong_shape(mem1):
    op = TransferOperator(mem1)
    for pi in (np.ones(1), np.ones((2, 2)), np.ones(4)):
        with pytest.raises(ConfigError, match=r"shape \(2,\)"):
            op.apply_dual(pi)


def test_apply_dual_is_the_dense_transpose(rng):
    for model in models_with_zero_entries(rng):
        op = TransferOperator(model)
        pi = rng.random(op.dim)
        pi /= pi.sum()
        expect = dense_transfer_matrix(model, op.window).T @ pi
        assert np.abs(op.apply_dual(pi) - expect).max() < 1e-12


@pytest.mark.parametrize("memory", [1, 2, 3])
def test_weight_is_a_view_of_the_table(alphabet, rng, memory):
    from conftest import random_positive_table

    model = FiniteMemoryModel(alphabet, memory, random_positive_table(alphabet, memory, rng))
    assert np.shares_memory(TransferOperator(model).weight, model.table)


def test_operator_allocates_one_scratch_table(longrange):
    # memory 14: the operator reads the surrogate's 2^15 entries in place
    # and allocates one scratch array of that size
    surrogate = finite_memory_surrogate(longrange, 14)[0]
    tracemalloc.start()
    try:
        TransferOperator(surrogate)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.1 * surrogate.table.nbytes, peak / surrogate.table.nbytes


def _two_absorbing_pairs():
    # 3 symbols, memory 2: x_1 = x_2 = 0 forces 0, x_1 = x_2 = 1 forces 1,
    # any other context draws uniformly
    table = np.full((3, 3, 3), 1 / 3)
    table[:, 0, 0] = table[:, 1, 1] = 0.0
    table[0, 0, 0] = table[1, 1, 1] = 1.0
    return FiniteMemoryModel(Alphabet(("0", "1", "2")), 2, table.reshape(-1))


UNIQUENESS_CASES = {
    # context 0 forces 0; context 1 draws either: {0} is the one closed class
    "zero entries, one closed class": (
        lambda a: FiniteMemoryModel(a, 1, {"00": 1.0, "10": 0.0, "01": 0.5, "11": 0.5}), True),
    "two closed classes, 3 symbols, memory 2": (lambda a: _two_absorbing_pairs(), False),
    # memory 0 read through its one-symbol window: only 0 stays reachable
    "iid with a zero entry": (lambda a: FiniteMemoryModel(a, 0, {"0": 1.0, "1": 0.0}), True),
    # context 1 forces 1: word 0 is transient, so the search leaves it
    "transient word 0": (
        lambda a: FiniteMemoryModel(a, 1, {"00": 0.5, "10": 0.5, "01": 0.0, "11": 1.0}), True),
}


@pytest.mark.parametrize("case", sorted(UNIQUENESS_CASES))
def test_unique_flag_matches_closed_class_oracle(case, alphabet):
    build, unique = UNIQUENESS_CASES[case]
    model = build(alphabet)
    op = TransferOperator(model)
    assert (closed_class_count(dense_transfer_matrix(model, op.window)) == 1) == unique
    assert stationary(op).unique == unique


@st.composite
def models_with_random_supports(draw):
    """2-3 symbols, memory 0-2; each context draws uniformly from a random
    non-empty set of symbols, so some chains have several closed classes."""
    size, memory = draw(st.integers(2, 3)), draw(st.integers(0, 2))
    masks = draw(st.lists(st.integers(1, 2**size - 1), min_size=size**memory,
                          max_size=size**memory))
    keep = (np.array(masks) >> np.arange(size)[:, None]) & 1  # [s, context]
    table = (keep / keep.sum(axis=0)).reshape(-1)
    return FiniteMemoryModel(Alphabet(tuple("abc"[:size])), memory, table)


@settings(max_examples=300, deadline=None)
@given(models_with_random_supports())
def test_unique_flag_matches_closed_class_oracle_on_random_supports(model):
    op = TransferOperator(model)
    oracle = closed_class_count(dense_transfer_matrix(model, op.window)) == 1
    assert _is_uniquely_ergodic(op) == oracle


def test_stationary_iid_product_measure(iid):
    measure = stationary(TransferOperator(iid))
    assert measure.unique
    assert stationary_prob(measure, ("0", "0")) == pytest.approx(0.09, abs=1e-15)
    assert stationary_prob(measure, ("0",)) == pytest.approx(0.3, abs=1e-14)


def test_stationary_matches_eigensolver(alphabet, rng):
    from conftest import random_positive_table

    for _ in range(5):
        model = FiniteMemoryModel(alphabet, 1, random_positive_table(alphabet, 1, rng))
        measure = stationary(TransferOperator(model))
        expect = left_perron_vector(dense_transfer_matrix(model, 1))
        assert np.abs(measure.probs - expect).max() < 1e-10
        assert measure.unique


def test_stationary_marginal_consistency(mem1):
    measure = stationary(TransferOperator(mem1))
    # length-1 marginal sums the length-2 cylinders over their right symbol,
    # which extend the window by the table: the fixed-point equation
    p0 = stationary_prob(measure, ("0",))
    assert p0 == pytest.approx(
        stationary_prob(measure, ("0", "0")) + stationary_prob(measure, ("0", "1")),
        abs=1e-14,
    )


def test_stationary_long_words_extend_by_the_table(mem1):
    # window 1 < word length: each symbol left of the window adds one table
    # factor, and summing out the leftmost symbol gives the shorter word
    measure = stationary(TransferOperator(mem1))
    assert (stationary_prob(measure, ("0", "1", "1"))
            == stationary_prob(measure, ("1",)) * 0.4 * 0.6)
    for word in (("1",), ("0", "1"), ("1", "0", "1")):
        total = sum(stationary_prob(measure, (s,) + word) for s in ("0", "1"))
        assert total == pytest.approx(stationary_prob(measure, word), abs=1e-15)


def test_reducible_table_flagged(alphabet):
    # two absorbing symbols: the stationary measure is not unique
    model = FiniteMemoryModel(alphabet, 1, {"00": 1.0, "10": 0.0, "01": 0.0, "11": 1.0})
    measure = stationary(TransferOperator(model))
    assert not measure.unique


def test_stationary_vs_simulation(mem1, rng):
    # cylinder probabilities against empirical frequencies of the chain
    measure = stationary(TransferOperator(mem1))
    N = 40000
    state = int(rng.choice(2, p=measure.probs))
    counts = np.zeros(2)
    for _ in range(N):
        state = 0 if rng.random() < mem1.table[state] else 1
        counts[state] += 1
    assert np.abs(counts / N - measure.probs).max() < 4 / np.sqrt(N)


# SHA-256 of the stationary probabilities and of the oscillation of
# uniqueness_diagnostic(model, 200, trunc_memory), with the stationary
# residual as float.hex, on surrogates of the benchmark's models; no CLI
# artifact carries the stationary vector
PINNED_SOLVES = {
    ("power_law", 8): (
        "193cea722d4b72abd567f6a63808c378aae202d574ce1979be5f129a3f73519d",
        "0x1.4736000000000p-44",
        "918124bd2cc675cdadc662dca0121b083c1d11711b9bd19bed9a1d9cbc5c4dc4"),
    ("power_law", 14): (
        "2498e82cbca4e1301be321ae890c906b18b5ce48fcfe6c071354b9373a713ddd",
        "0x1.70a8540000000p-44",
        "c45a77f451a0f56aa60cff3ba3f3ff34d0424409e7014264aa307a346247d88c"),
    ("exponential", 10): (
        "1a21c9b22216bf7e1ebb2f6402f9ba74f257bbe23cafb2dab3a4306dfc3301fa",
        "0x1.7f24c00000000p-44",
        "a585b68cac8566e908573042046cfe89ac3519d73d37b7da7a54fa30d2bb4158"),
}


@pytest.mark.parametrize("law, memory", sorted(PINNED_SOLVES))
def test_stationary_and_diagnostic_keep_their_bytes(alphabet, law, memory):
    laws = {"power_law": PowerLaw.from_mass(2.0, 0.5), "exponential": Exponential.from_mass(0.7, 0.5)}
    model = LongRangeLinearModel(alphabet, 0.25, laws[law])
    probs_digest, residual, oscillation_digest = PINNED_SOLVES[law, memory]
    measure = stationary(TransferOperator(finite_memory_surrogate(model, memory)[0]))
    oscillation, _ = uniqueness_diagnostic(model, 200, trunc_memory=memory)
    assert hashlib.sha256(measure.probs.tobytes()).hexdigest() == probs_digest
    assert measure.residual.hex() == residual
    assert measure.unique
    assert hashlib.sha256(oscillation.tobytes()).hexdigest() == oscillation_digest


# --- uniqueness diagnostic ----------------------------------------------------


def test_diagnostic_iid_flat_after_one_step(iid):
    oscillation, truncation_error = uniqueness_diagnostic(iid, 4)
    assert oscillation[0] == 1.0
    assert all(oscillation[1:] == 0.0)
    assert all(truncation_error == 0.0)


def test_diagnostic_memory1_dobrushin_decay(mem1):
    oscillation, _ = uniqueness_diagnostic(mem1, 12)
    delta = dobrushin_coefficient(mem1)
    for n, osc in enumerate(oscillation):
        assert osc <= oscillation[0] * delta**n + 1e-12


def test_diagnostic_longrange_surrogate_family(longrange):
    for mt in (4, 6, 8):
        osc, err = uniqueness_diagnostic(longrange, 10, trunc_memory=mt)
        assert all(osc[i + 1] <= osc[i] + 1e-15 for i in range(len(osc) - 1))
        # error bars grow linearly in n and shrink with the truncation memory
        assert err[2] == pytest.approx(2 * err[1])
    err4 = uniqueness_diagnostic(longrange, 1, trunc_memory=4)[1][1]
    err8 = uniqueness_diagnostic(longrange, 1, trunc_memory=8)[1][1]
    assert err8 < err4


def test_diagnostic_requires_trunc_memory(longrange):
    with pytest.raises(ConfigError):
        uniqueness_diagnostic(longrange, 5)


def test_diagnostic_budget_error_is_explicit(longrange):
    with pytest.raises(BudgetError):
        uniqueness_diagnostic(longrange, 5, trunc_memory=40)


def test_operator_budget(alphabet, rng, monkeypatch):
    # the state dimension 2^2 of a memory-2 model, over a budget of 3
    from conftest import random_positive_table

    model = FiniteMemoryModel(alphabet, 2, random_positive_table(alphabet, 2, rng))
    monkeypatch.setattr(errors, "DEFAULT_BUDGET", 3)
    with pytest.raises(BudgetError, match=r"state dimension 2\^2 exceeds budget 3"):
        TransferOperator(model)
