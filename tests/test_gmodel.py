import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gmeasure import (
    Alphabet,
    ConfigError,
    Exponential,
    FiniteMemoryModel,
    FiniteRange,
    LongRangeLinearModel,
    PowerLaw,
    VariationProfile,
    binary_alphabet,
    parse_model,
    variation_profile,
)
from gmeasure import tails
from gmeasure.gmodel import all_words, finite_memory_surrogate
from oracles import OneMinusPower, cylinder_interval, decode, hurwitz_zeta, ratio_excess_scalar


def test_alphabet_validation():
    with pytest.raises(ConfigError):
        Alphabet(("0",))
    with pytest.raises(ConfigError):
        Alphabet(("0", "0"))
    assert binary_alphabet().index("1") == 1
    with pytest.raises(ConfigError):
        binary_alphabet().index("2")


# --- eval_indices -----------------------------------------------------------


def test_eval_iid_reads_table(iid):
    assert iid.eval_indices(iid.alphabet.indices(("0",))) == (0.3, 0.0)
    assert iid.eval_indices(iid.alphabet.indices(("1",))) == (0.7, 0.0)


def test_eval_longrange_hand_formula(longrange):
    # word "11": value 1/2 + theta*a_1, error theta*(mass - a_1)
    value, err = longrange.eval_indices(longrange.alphabet.indices(("1", "1")))
    a1 = 0.5 / (np.pi**2 / 6)
    assert value == pytest.approx(0.5 + 0.25 * a1, abs=1e-14)
    assert err == pytest.approx(0.25 * (0.5 - a1), abs=1e-14)


def test_eval_longrange_interval_covers_completions(longrange):
    # brute force over all completions of the word up to a long horizon
    value, err = longrange.eval_indices(longrange.alphabet.indices(("1", "0", "1")))
    rng = np.random.default_rng(5)
    for _ in range(200):
        tail = rng.integers(0, 2, 40)
        full = np.concatenate([[1, 0, 1], tail])
        v, _ = longrange.eval_indices(full)
        assert value - err - 1e-12 <= v <= value + err + 1e-12


def test_eval_rejects_unknown_symbol(iid):
    with pytest.raises(ConfigError):
        iid.eval_indices(iid.alphabet.indices(("2",)))


def test_eval_short_word_signals_with_positive_bound(mem1):
    # a word shorter than memory+1 cannot be evaluated exactly
    value, err = mem1.eval_indices(mem1.alphabet.indices(("0",)))
    assert err > 0.0
    assert value - err <= 0.3 <= value + err
    assert value - err <= 0.6 <= value + err


def test_normalization_over_first_symbol(iid, mem1, longrange, rng):
    for model in (iid, mem1, longrange):
        for _ in range(1000):
            ctx = tuple(str(s) for s in rng.integers(0, 2, 6))
            total, slack = 0.0, 0.0
            for s in ("0", "1"):
                v, e = model.eval_indices(model.alphabet.indices((s,) + ctx))
                total += v
                slack += e
            assert abs(total - 1.0) <= slack + 1e-12


# --- cylinder laws, by the scalar route of oracles.cylinder_interval ---------
# (blocks and contexts as symbol indices: on the binary alphabet, "0" is 0)


def test_cylinder_iid_product(iid):
    value, err = cylinder_interval(iid, (0, 1), ())
    assert value == pytest.approx(0.21, abs=0)
    assert err == 0.0


def test_cylinder_mem1_two_table_entries(mem1):
    # block "01" on [-1, 0] with context "1" on [1, 1]:
    # g(0,1) * g(1,1) read off the table
    value, err = cylinder_interval(mem1, (0, 1), (1,))
    assert err == 0.0
    assert value == pytest.approx(0.6 * 0.4, abs=0)


def test_cylinder_consistency_identity(mem1, longrange, rng):
    # splitting the block at any interior point multiplies the two parts;
    # exact evaluations agree to 1e-12, truncated ones within their bounds
    for model in (mem1, longrange):
        for _ in range(50):
            syms = tuple(rng.integers(0, 2, 6).tolist())
            ctx = tuple(rng.integers(0, 2, 8).tolist())
            whole, e_whole = cylinder_interval(model, syms, ctx)
            i = int(rng.integers(1, 6))
            part_r, e_r = cylinder_interval(model, syms[i:], ctx)
            part_l, e_l = cylinder_interval(model, syms[:i], syms[i:] + ctx)
            slack = e_whole + e_l + e_r
            assert abs(whole - part_l * part_r) <= slack + 1e-12
            if slack == 0.0:
                assert whole == pytest.approx(part_l * part_r, abs=1e-12)


def test_cylinder_empty_block(mem1):
    assert cylinder_interval(mem1, (), ()) == (1.0, 0.0)


# --- ratio excesses and variation profiles ---------------------------------------------


def test_rho_iid_is_one(iid):
    assert iid.ratio_excess(0) == 0.0


def test_rho_finite_memory_cutoff(alphabet, rng):
    from conftest import random_positive_table

    model = FiniteMemoryModel(alphabet, 2, random_positive_table(alphabet, 2, rng))
    assert model.ratio_excess(4) == 0.0
    assert model.ratio_excess(1) >= 0.0


@pytest.mark.parametrize("memory", [0, 1, 2, 4])
def test_finite_memory_rho_reads_the_completion_tables_bit_for_bit(alphabet, rng, memory):
    # the excesses read off the kernel's min/max tables equal those of the
    # table regrouped per n, the oracle's route
    from conftest import random_positive_table

    model = FiniteMemoryModel(alphabet, memory, random_positive_table(alphabet, memory, rng))
    n = np.arange(memory + 3)
    assert model.ratio_excess(n).tolist() == [ratio_excess_scalar(model, k) for k in n.tolist()]


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.floats(0.01, 0.49), st.one_of(
    st.builds(PowerLaw.from_mass, st.floats(1.01, 6.0), st.floats(0.01, 1.0)),
    st.builds(Exponential.from_mass, st.floats(0.01, 0.99), st.floats(0.01, 1.0))))
def test_longrange_rho_is_at_least_one(theta, coefficients):
    # x_n = 2 theta tail(n) / g_min subtracts nothing, so it cannot round
    # below 0, however small the tail
    model = LongRangeLinearModel(binary_alphabet(), theta, coefficients)
    n = np.concatenate([np.arange(400), 2 ** np.arange(9, 31)])
    assert (model.ratio_excess(n) >= 0.0).all()


def test_rho_rejects_nonpositive_model(alphabet):
    model = FiniteMemoryModel(alphabet, 0, (0.0, 1.0))
    with pytest.raises(ConfigError):
        model.ratio_excess(0)


@pytest.mark.parametrize("name", ["mem1", "longrange"])
def test_rho_rejects_negative_n(name, request):
    # a negative n would read the whole table, or wrap in an array index
    model = request.getfixturevalue(name)
    for n in (-1, np.arange(-1, 3)):
        with pytest.raises(ConfigError, match="n >= 0"):
            model.ratio_excess(n)


SITE_INDEX_ENTRIES = {
    "finite-memory rho": lambda request: request.getfixturevalue("mem1").ratio_excess,
    "long-range rho": lambda request: request.getfixturevalue("longrange").ratio_excess,
    "profile var_at": lambda request: VariationProfile((0.5, 0.2, 0.1), PowerLaw(0.3, 2, 1)).var_at,
}


@pytest.mark.parametrize("n", [[], [1, 2], (0, 3), 1.5], ids=repr)
@pytest.mark.parametrize("entry", sorted(SITE_INDEX_ENTRIES))
def test_site_indices_go_through_one_conversion(entry, n, request):
    # every entry point reads an int as a scalar and any other input as an
    # integer array, the empty one included; a fractional site does not exist
    at = SITE_INDEX_ENTRIES[entry](request)
    if n == 1.5:
        with pytest.raises(ConfigError, match="integers"):
            at(n)
        return
    values = at(n)
    assert values.dtype == np.float64 and values.shape == (len(n),)
    assert values.tolist() == pytest.approx([at(k) for k in n], rel=1e-15)


def test_rho_longrange_dominates_random_search(longrange, rng):
    # random pairs agreeing on [0, n] must not beat the closed-form upper bound
    for n in (0, 1, 3):
        upper = 1.0 + longrange.ratio_excess(n)
        best = 1.0
        for _ in range(300):
            common = rng.integers(0, 2, n + 1)
            tx = rng.integers(0, 2, 60)
            ty = rng.integers(0, 2, 60)
            vx, ex = longrange.eval_indices(np.concatenate([common, tx]))
            vy, ey = longrange.eval_indices(np.concatenate([common, ty]))
            best = max(best, (vx - ex) / (vy + ey))
        assert best <= upper + 1e-12
        assert best > 1.0  # the search does find genuine oscillation


def test_variation_profile_monotone_and_cutoff(mem1, longrange):
    prof = variation_profile(mem1, 6)
    assert prof.values[1] == 0.0  # zero from n = memory on
    assert prof.var_at(50) == 0.0
    prof = variation_profile(longrange, 40)
    assert all(np.diff(prof.values) <= 1e-15)
    # tail model dominates the tabulated values at the horizon crossover
    assert prof.var_at(41) <= prof.var_at(40)
    assert prof.var_at(200) > 0.0


def test_finite_memory_profile_tail_is_a_bound(alphabet, rng):
    # below the memory the tail repeats the last tabulated value, an upper
    # bound because var_n is non-increasing
    from conftest import random_positive_table

    model = FiniteMemoryModel(alphabet, 3, random_positive_table(alphabet, 3, rng))
    full = variation_profile(model, 5)
    assert full.var_at(2) > 0.0
    for h in range(3):
        short = variation_profile(model, h)
        for n in range(6):
            assert short.var_at(n) >= full.var_at(n)


def test_variation_profile_powerlaw_tail_tracks_coefficients(longrange):
    # x_n = 2*theta*tail_n/g_min is linear in the tail
    prof = variation_profile(longrange, 30)
    tails = np.array([longrange.coefficients.tail(n) for n in range(31)])
    g_min = 0.5 - longrange.theta * longrange.total_mass
    slope = 2 * longrange.theta / g_min
    ratio = prof.values / tails
    assert ratio.max() <= slope + 1e-12
    assert ratio.min() >= 0.7 * slope


def test_exact_profile_dominated_by_upper_bound(longrange, rng):
    # an empirically searched lower-bound profile stays below the closed form
    prof = variation_profile(longrange, 8)
    for n in range(9):
        best = 1.0
        for _ in range(100):
            common = rng.integers(0, 2, n + 1)
            vx, ex = longrange.eval_indices(np.concatenate([common, np.ones(50, int)]))
            vy, ey = longrange.eval_indices(np.concatenate([common, np.zeros(50, int)]))
            best = max(best, (vx - ex) / (vy + ey))
        assert math.log(best) <= prof.values[n] + 1e-12


# --- surrogate projection ----------------------------------------------------


def test_surrogate_of_finite_memory_is_exact(mem1):
    surrogate, defect, width = finite_memory_surrogate(mem1, 3)
    assert defect < 1e-14
    assert width == 0.0
    assert surrogate.eval_indices((0, 1, 0, 0))[0] == pytest.approx(0.6, abs=1e-15)


def test_surrogate_longrange_rows_normalised(longrange):
    surrogate, defect, width = finite_memory_surrogate(longrange, 5)
    assert defect < 1e-12  # midpoints of this family are exactly normalised
    assert 0 < width == longrange.theta * longrange.coefficients.tail(5)


@pytest.mark.parametrize("law", [PowerLaw.from_mass(2.0, 0.5), Exponential.from_mass(0.7, 0.5)],
                         ids=["power", "exponential"])
def test_surrogate_memory_is_a_few_tables(law):
    # memory 16: the table holds 2^17 floats; a table of all 2^17 words of
    # 17 symbols, with their context sums, takes about 7 tables
    model = LongRangeLinearModel(binary_alphabet(), 0.25, law)
    tracemalloc.start()
    try:
        surrogate, _, _ = finite_memory_surrogate(model, 16)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert surrogate.table.nbytes == 2**17 * 8
    assert peak <= 4 * surrogate.table.nbytes, peak / surrogate.table.nbytes


# --- table validation and model files ----------------------------------------


def test_table_validation(alphabet):
    with pytest.raises(ConfigError):
        FiniteMemoryModel(alphabet, 0, (0.5, 0.6))
    # the row sums are held to 1e-9 absolute, with no relative slack
    FiniteMemoryModel(alphabet, 0, (0.5, 0.5 + 5e-10))
    with pytest.raises(ConfigError, match="sum to 1"):
        FiniteMemoryModel(alphabet, 0, (0.5, 0.500009))
    with pytest.raises(ConfigError):
        FiniteMemoryModel(alphabet, 1, {"00": 1.0})
    with pytest.raises(ConfigError):
        LongRangeLinearModel(alphabet, 0.6, PowerLaw.from_mass(2, 0.5))
    with pytest.raises(ConfigError):
        LongRangeLinearModel(alphabet, 0.25, PowerLaw.from_mass(2, 1.5))


@pytest.mark.parametrize("law", [
    PowerLaw(0.1, 2, offset=1), PowerLaw(0.1, 1), FiniteRange(3), OneMinusPower(0.5, 1),
], ids=["shifted power law", "power law p = 1", "finite range", "one minus power"])
def test_long_range_coefficients_are_summable_laws(alphabet, law):
    with pytest.raises(ConfigError):
        LongRangeLinearModel(alphabet, 0.25, law)


def test_parse_finite_memory_roundtrip():
    model = parse_model(
        """
        # simple memory-1 chain
        variant = finite_memory
        alphabet = 0,1
        memory = 1
        table[00] = 0.3
        table[10] = 0.7
        table[01] = 0.6
        table[11] = 0.4
        """
    )
    assert isinstance(model, FiniteMemoryModel)
    assert model.eval_indices(model.alphabet.indices(("0", "1"))) == (0.6, 0.0)


def test_parse_long_range():
    model = parse_model(
        """
        variant = long_range_linear
        alphabet = 0,1
        theta = 0.25
        coeff_law = power_law
        coeff_p = 2
        coeff_mass = 0.5
        sign[0] = -1
        sign[1] = +1
        """
    )
    assert isinstance(model, LongRangeLinearModel)
    assert model.total_mass == pytest.approx(0.5, abs=1e-12)


LONG_RANGE = "variant = long_range_linear\nalphabet = 0,1\ntheta = 0.25\n"


@pytest.mark.parametrize(
    "text",
    [
        "variant = finite_memory\nalphabet = 0,1\nmemory = 1\n",  # missing table
        "variant = nope\nalphabet = 0,1\n",
        "alphabet = 0,1\n",
        "variant = finite_memory\nalphabet = 0,1\nmemory x 1\n",
        "variant = long_range_linear\nalphabet = 0,1\ntheta = 0.25\ncoeff_law = power_law\n",
        LONG_RANGE + "coeff_law = power_law\ncoeff_p = 1\ncoeff_mass = 0.5\n",
        LONG_RANGE + "coeff_law = power_law\ncoeff_p = 0.5\ncoeff_mass = 0.5\n",
        LONG_RANGE + "coeff_law = power_law\ncoeff_p = 2\ncoeff_c = -0.1\n",
        LONG_RANGE + "coeff_law = gamma\ncoeff_mass = 0.5\n",
    ],
)
def test_parse_errors(text):
    with pytest.raises(ConfigError):
        parse_model(text)


MEMORY_0 = "variant = finite_memory\nalphabet = 0,1\nmemory = 0\ntable[0] = 0.4\ntable[1] = 0.6\n"


@pytest.mark.parametrize("text, line", [
    (LONG_RANGE + "theta = 0.4\ncoeff_law = exponential\ncoeff_r = 0.5\ncoeff_mass = 0.5\n", 4),
    (MEMORY_0 + "# same word again\ntable[1] = 0.6\n", 7),
    (LONG_RANGE + "coeff_law = exponential\ncoeff_r = 0.5\ncoeff_mass = 0.5\n"
     "sign[0] = -1\nsign[1] = 1\nsign[0] = 1\n", 9),
], ids=["plain key", "table key", "sign key"])
def test_parse_refuses_a_repeated_key(text, line):
    # the last value would win silently: theta 0.25 then 0.4 ran with 0.4
    with pytest.raises(ConfigError, match=f"line {line}: repeated key"):
        parse_model(text)
    lines = text.splitlines()
    del lines[line - 1]
    parse_model("\n".join(lines))  # accepted without the repeat


def test_exponential_coefficients():
    coeffs = Exponential.from_mass(0.5, 0.8)
    assert coeffs.total == pytest.approx(0.8, abs=1e-12)
    assert coeffs.tail(3) == pytest.approx(sum(coeffs.c * 0.5**k for k in range(4, 200)), abs=1e-12)


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=0, max_value=500))
def test_powerlaw_prefix_plus_tail_is_total(n):
    coeffs = PowerLaw.from_mass(2.0, 0.5)
    prefix = math.fsum(coeffs.var_at(k) for k in range(1, n + 1))
    assert prefix + coeffs.tail(n) == pytest.approx(coeffs.total, abs=1e-12)
    assert coeffs.total == pytest.approx(0.5, abs=1e-12)


ZETA_P = [1.001, 1.01, 1.2, 1.5, 2, 2.5, 3, 6]
ZETA_Q = np.concatenate([np.arange(1, 3001), np.geomspace(1, 2.0**40, 400)])


def _ulps(value, ref, unit=None):
    return np.abs(np.asarray(value) - ref) / np.spacing(np.abs(ref if unit is None else unit))


@pytest.mark.parametrize("p", ZETA_P)
def test_zeta_is_within_4_ulps_of_the_oracle(p):
    mine = [tails._zeta(p, q) for q in ZETA_Q.tolist()]
    assert all(type(z) is float for z in mine)  # scalar calls stay Python floats
    assert np.max(_ulps(mine, hurwitz_zeta(p, ZETA_Q))) <= 4


def test_zeta_of_2_at_1_is_the_correctly_rounded_basel_sum():
    assert tails._zeta(2.0, 1) == math.pi**2 / 6


def test_powerlaw_tail_on_an_integer_array_past_the_int64_square():
    # at k = 2^32 - 13, a = k + 1 + 12 = 2^32, whose square wraps to 0 in int64
    law = PowerLaw.from_mass(2.0, 0.5)
    k = 2**32 - 13
    assert _ulps(law.tail(np.array([k]))[0], law.tail(k)) <= 4


@pytest.mark.parametrize("r", [0.05, 0.5, 0.7, 0.99])
def test_exponential_tail_on_an_array_rounds_as_the_scalar_tail(r):
    # numpy's SIMD ** may round r**k differently from the scalar **; the
    # array tail reads scalar powers, and 0 once they underflow
    law = Exponential.from_mass(r, 0.5)
    k = np.arange(80_000)
    assert law.tail(k).tolist() == [law.tail(n) for n in k.tolist()]


@pytest.mark.parametrize("p", ZETA_P)
def test_powerlaw_sums_are_within_4_ulps_of_the_oracle(p):
    # c = 1/4 scales exactly, so ulps of the sums are ulps of the zeta values;
    # with an offset the sums run over c * (k + offset)**(-p), k >= 1
    k = np.arange(501)
    for offset in (0, 1, 3):
        coeffs = PowerLaw(0.25, p, offset)
        tail = [coeffs.tail(n) for n in k.tolist()]
        assert np.max(_ulps(tail, coeffs.c * hurwitz_zeta(p, k + 1 + offset))) <= 4
    assert _ulps(PowerLaw.from_mass(p, 0.5).c, 0.5 / hurwitz_zeta(p, 1)) <= 4


@pytest.mark.parametrize("p", [0.5, 1])
def test_powerlaw_sums_need_p_above_one(p):
    coeffs = PowerLaw(1.0, p)
    with pytest.raises(ConfigError):
        coeffs.tail(3)
    with pytest.raises(ConfigError):
        coeffs.tail_law


def _bernoulli(n: int) -> Fraction:
    """B_n exactly, by the Akiyama-Tanigawa algorithm."""
    row = [Fraction(0)] * (n + 1)
    for m in range(n + 1):
        row[m] = Fraction(1, m + 1)
        for j in range(m, 0, -1):
            row[j - 1] = j * (row[j - 1] - row[j])
    return row[0]


def test_euler_maclaurin_remainder_is_below_rounding():
    terms = len(tails._BERNOULLI)
    for j, coeff in enumerate(tails._BERNOULLI, start=1):
        assert coeff == float(_bernoulli(2 * j) / math.factorial(2 * j))
    # the remainder of the zeta sum is at most its first omitted term
    omitted = abs(float(_bernoulli(2 * terms + 2) / math.factorial(2 * terms + 2)))
    a = ZETA_Q + tails._DIRECT
    for p in ZETA_P:
        term = omitted * math.prod(p + i for i in range(2 * terms + 1)) * a ** (-p - 2 * terms - 1)
        assert np.all(term <= 1e-19 * hurwitz_zeta(p, ZETA_Q))


@pytest.mark.parametrize("law", [PowerLaw.from_mass(2.0, 0.5), Exponential.from_mass(0.7, 0.5)],
                         ids=["power", "exponential"])
def test_radii_cache_grows_without_recomputing(law, monkeypatch):
    model = LongRangeLinearModel(binary_alphabet(), 0.25, law)
    calls = []
    tail = type(law).tail
    monkeypatch.setattr(type(law), "tail", lambda self, n: calls.append(n) or tail(self, n))
    model._radii(65)
    radii = model._radii(130)
    assert sorted(calls) == list(range(130))  # each k once, not 65 + 130 calls
    assert len(radii) == 130
    at_once = model.theta * np.array([tail(law, k) for k in range(130)])
    assert np.array_equal(radii.view(np.uint64), at_once.view(np.uint64))
    assert [model.eval_indices([0] * (k + 1))[1] for k in range(130)] == radii.tolist()


def test_decode_encode_roundtrip():
    from gmeasure.gmodel import encode

    for code in range(27):
        assert encode(decode(code, 3, 3), 3) == code


@pytest.mark.parametrize("size", [2, 3, 4])
def test_all_words_rows_are_the_decoded_codes_in_order(size):
    # length 0 is the one empty word, shape (1, 0)
    for length in range(6):
        words = all_words(size, length)
        assert words.dtype == np.uint8
        assert words.shape == (size**length, length)
        assert [tuple(row) for row in words.tolist()] == [
            decode(code, size, length) for code in range(size**length)
        ]
