"""g-function models on finite alphabets.

A g-function assigns to each one-sided sequence (x_0, x_1, ...) the
conditional probability of its first symbol given all later ones, normalised
so that summing over the first symbol (with the rest held fixed) gives 1.

Two concrete families are implemented:

* ``FiniteMemoryModel`` -- g depends only on coordinates 0..M and is stored
  as an explicit table over words of length M+1.
* ``LongRangeLinearModel`` -- on a binary alphabet,
  ``g(x) = 1/2 + theta * s(x_0) * sum_{k>=1} a_k * s(x_k)``
  with signs s(.) in {-1,+1} and coefficients a_k = ``law.var_at(k)`` from a
  summable ``tails`` law (``PowerLaw`` or ``Exponential``).  Positivity and
  normalisation hold whenever ``theta < 1/2`` and ``sum a_k <= 1``.

Evaluations on finite words return an interval ``(value, error_bound)``:
the true value of g for *every* completion of the unknown coordinates lies
in ``[value - error_bound, value + error_bound]``.  An ``error_bound`` of
exactly 0 signals an exact evaluation; a positive bound signals that the
word was too short to pin the value down (for a finite-memory model this
happens when the word is shorter than M+1 symbols).

A word is a plain sequence of symbols read from left to right, x_0 first;
g is shift invariant, so no word carries its position.

``eval_indices`` is the scalar reference route: one word, one interval.
The batched kernel evaluates every site of a batch of word rows at once,
sites on axis 0.  A known right context enters through its context state,
sites first like the kernel and the sampler's histories (entry
``width - 1 - n`` of axis 0 is coordinate -n): column c holds
sum_k a_k v(x_{c+k}) over the known symbols right of c, with v the sign and
a_k the coefficient for the long-range model, and v the symbol index and
a_k its place value size**(memory - k), so a window code, for a
finite-memory model.  ``context_state`` builds it, ``add_context`` adds
symbols to it in place, one slab of columns per site, ``word_terms`` sums
the same terms within the word, once for words read under many contexts,
and ``site_intervals`` returns ``(mid, rad)`` per site, for one known
context length per call, with the interval semantics of ``eval_indices``.
Each lag table has one route: the long-range kernel reads one coefficient
table of a_k and theta * tail(k), never ``zeta``; the finite-memory kernel
and ``ratio_excess`` read the min/max tables over completions of windows of
1..M+1 symbols.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import ConfigError, _check_power
from .tails import Exponential, FiniteRange, PowerLaw

__all__ = [
    "Alphabet",
    "binary_alphabet",
    "FiniteMemoryModel",
    "LongRangeLinearModel",
    "iid_model",
    "variation_profile",
    "VariationProfile",
    "finite_memory_surrogate",
    "parse_model",
    "load_model",
]


# ---------------------------------------------------------------------------
# alphabet and words


@dataclass(frozen=True)
class Alphabet:
    """Ordered finite symbol set; the ordering fixes all enumerations."""

    symbols: tuple[str, ...]

    def __post_init__(self):
        if len(self.symbols) < 2:
            raise ConfigError("alphabet needs at least 2 symbols")
        if len(set(self.symbols)) != len(self.symbols):
            raise ConfigError("alphabet symbols must be distinct")

    @property
    def size(self) -> int:
        return len(self.symbols)

    def index(self, symbol: str) -> int:
        try:
            return self.symbols.index(symbol)
        except ValueError:
            raise ConfigError(f"symbol {symbol!r} not in alphabet {self.symbols}") from None

    def indices(self, symbols: Sequence[str]) -> tuple[int, ...]:
        return tuple(self.index(s) for s in symbols)


def binary_alphabet() -> Alphabet:
    return Alphabet(("0", "1"))


def encode(digits: Sequence[int], size: int) -> int:
    """Lexicographic index of a word, first coordinate most significant."""
    code = 0
    for d in digits:
        code = code * size + d
    return code


def all_words(size: int, length: int) -> np.ndarray:
    """Every word of ``length`` symbols as a row, row i the word of
    lexicographic index i: numpy's C order over ``(size,) * length``."""
    shape = (size,) * length
    return np.indices(shape, dtype=np.min_scalar_type(size - 1)).reshape(length, size**length).T


# ---------------------------------------------------------------------------
# models


class FiniteMemoryModel:
    """g depends on coordinates 0..memory only; stored as a dense table.

    The table maps each word of length memory+1 to the conditional
    probability of its first symbol given the remaining ones; for every
    context the probabilities over the first symbol must sum to 1.
    """

    def __init__(self, alphabet: Alphabet, memory: int, table):
        if not (memory >= 0 and float(memory).is_integer()):
            raise ConfigError(f"memory must be an integer >= 0, got {memory}")
        self.alphabet = alphabet
        self.memory = memory = int(memory)
        size = alphabet.size
        if isinstance(table, dict):
            # word lengths and the entry count are checked before the table
            # of size**(memory+1) entries is allocated; an entry left NaN
            # fails the row-sum check below
            for key in table:
                if len(key) != memory + 1:
                    raise ConfigError(f"table word {key!r} must have length {memory + 1}")
            if not table or len(table) != size ** (memory + 1):
                raise ConfigError("table is missing entries")
            vec = np.full(len(table), np.nan)
            for key, value in table.items():
                vec[encode(alphabet.indices(tuple(key)), size)] = float(value)
        else:
            vec = np.asarray(table, dtype=float)
            if vec.shape != (size ** (memory + 1),):
                raise ConfigError(f"table must have {size ** (memory + 1)} entries")
        if (vec < 0).any():
            raise ConfigError("table entries must be non-negative")
        rowsums = vec.reshape(size, size**memory).sum(axis=0)
        if not np.allclose(rowsums, 1.0, rtol=0, atol=1e-9):
            raise ConfigError("conditional probabilities must sum to 1 per context")
        self.table = vec
        self.symbol_values = np.arange(size)  # v(s) = s: the state is a code
        self._place = size ** np.arange(memory, -1, -1)

    @property
    def is_positive(self) -> bool:
        return bool((self.table > 0).all())

    def context_weights(self, n: int) -> np.ndarray:
        """Place values size**(memory - k) of the symbol k sites to the right,
        k = 0..memory; none further right enters the code."""
        return self._place

    def site_intervals(self, terms, state: np.ndarray, known_len: int):
        """``(mid, rad)`` (b, ...) of g at each site of word rows with
        ``word_terms`` ``terms`` (2, b, ...), followed by known contexts of
        ``known_len`` symbols whose context state at the block's columns is
        ``state`` (b, ...).  Site j sees n = min(b - j + known_len, memory + 1)
        symbols: a full window reads the table, a shorter one the min/max
        over completions."""
        size, full = self.alphabet.size, self.memory + 1
        n = np.minimum(_known_right(state, known_len), full)
        offsets, lo_table, hi_table = self._completions
        idx = offsets[n] + (terms[1] + state) // size ** (full - n)
        lo, hi = lo_table[idx], hi_table[idx]
        return 0.5 * (lo + hi), 0.5 * (hi - lo)

    @cached_property
    def _completions(self):
        """``(offsets, lo, hi)``: the min and max of g over the completions of
        each word of m = 1..memory+1 known symbols, the word of code c at
        ``offsets[m] + c``; built on first use."""
        size, full = self.alphabet.size, self.memory + 1
        grouped = [self.table.reshape(size**m, -1) for m in range(1, full + 1)]
        return (np.cumsum([0, 0] + [size**m for m in range(1, full)]),
                np.concatenate([g.min(axis=1) for g in grouped]),
                np.concatenate([g.max(axis=1) for g in grouped]))

    def eval_indices(self, idx: Sequence[int]) -> tuple[float, float]:
        """Interval for g on a word given as symbol indices for coords 0..len-1."""
        size = self.alphabet.size
        n = len(idx)
        if n >= self.memory + 1:
            return float(self.table[encode(idx[: self.memory + 1], size)]), 0.0
        # enumerate completions of the missing memory coordinates
        missing = self.memory + 1 - n
        base = encode(idx, size) * size**missing
        block = self.table[base : base + size**missing]
        lo, hi = float(block.min()), float(block.max())
        return 0.5 * (lo + hi), 0.5 * (hi - lo)

    def ratio_excess(self, n):
        """x_n = rho_n - 1 for the exact oscillation ratio rho_n of g over
        pairs agreeing on [0, n], for an int or elementwise over an integer
        array n >= 0: the largest (max - min)/min over the completions of a
        word of n + 1 symbols, 0 from n = memory on."""
        if not self.is_positive:
            raise ConfigError("oscillation ratio undefined for a non-positive model")
        offsets, lo, hi = self._completions
        excess = np.maximum.reduceat((hi - lo) / lo, offsets[1:])
        return excess[np.minimum(_nonnegative(n), self.memory)]


class LongRangeLinearModel:
    """Binary-alphabet family g(x) = 1/2 + theta*s(x_0)*sum_k a_k*s(x_k).

    ``coefficients`` is ``tails.PowerLaw(c, p)`` (offset 0, p > 1) or
    ``tails.Exponential(c, r)``, with a_k = ``coefficients.var_at(k)``.
    Signs s map the two symbols to -1/+1 (alphabet order by default), theta
    lies in (0, 1/2), and the coefficient mass sum_k a_k is at most 1, which
    keeps g strictly positive.  The oscillation ratio over pairs agreeing on
    [0, n] has the closed form rho_n = 1 + x_n, with nothing to cancel in

        x_n = 2*theta*tail(n) / g_min,    g_min = 1/2 - theta*A,

    A the total coefficient mass and g_min the global minimum of g.
    """

    def __init__(self, alphabet: Alphabet, theta: float, coefficients, signs=None):
        if alphabet.size != 2:
            raise ConfigError("long-range linear family is defined on a binary alphabet")
        if not 0 < theta < 0.5:
            raise ConfigError("theta must lie in (0, 1/2)")
        if not isinstance(coefficients, (PowerLaw, Exponential)) or getattr(coefficients, "offset", 0):
            raise ConfigError(
                f"coefficients must be PowerLaw(c, p) or Exponential(c, r), got {coefficients!r}"
            )
        if isinstance(coefficients, PowerLaw) and not coefficients.p > 1:
            raise ConfigError("power-law exponent must exceed 1")
        self.alphabet = alphabet
        self.theta = float(theta)
        self.coefficients = coefficients
        self.total_mass = coefficients.total
        if self.total_mass > 1 + 1e-12:
            raise ConfigError(f"coefficient mass {self.total_mass:.6f} exceeds 1")
        self.g_min = 0.5 - self.theta * self.total_mass
        if signs is None:
            signs = (-1.0, 1.0)
        signs = tuple(float(s) for s in signs)
        if sorted(signs) != [-1.0, 1.0]:
            raise ConfigError("sign map must assign -1 and +1")
        self.symbol_values = np.asarray(signs)
        self._lags = np.zeros((2, 0))  # rows a_k and theta * tail(k) at column k

    @property
    def is_positive(self) -> bool:
        return True  # enforced by the constructor constraints

    def _lag_table(self, n: int) -> np.ndarray:
        """The coefficient table (2, m), m >= n: column k holds a_k (a_0 kept
        0) and theta * tail(k), the half-width of g on a word of k + 1
        symbols.  It at least doubles as it grows, and each entry comes from
        one scalar ``var_at`` or ``tail`` call, bit for bit as in
        ``eval_indices`` on any CPU (an array ``**`` may differ in the last bit)."""
        have, law = self._lags.shape[1], self.coefficients
        if have < n:
            new = [(law.var_at(k) if k else 0.0, self.theta * law.tail(k))
                   for k in range(have, max(2 * have, n))]
            self._lags = np.concatenate([self._lags, np.transpose(new)], axis=1)
        return self._lags

    def context_weights(self, n: int) -> np.ndarray:
        """Coefficients a_1..a_n as a vector (index 0 kept 0: a site's own
        sign enters through ``word_terms``)."""
        return self._lag_table(n + 1)[0, : n + 1]

    def _radii(self, n: int) -> np.ndarray:
        """theta * tail(k) for k = 0..m-1, m >= n."""
        return self._lag_table(n)[1]

    def site_intervals(self, terms, state: np.ndarray, known_len: int):
        """``(mid, rad)`` (b, ...) of g at each site of word rows with
        ``word_terms`` ``terms`` (2, b, ...), followed by known contexts of
        ``known_len`` symbols whose context sums at the block's columns are
        ``state`` (b, ...).  Site j adds its context sum and reads its tail
        radius theta * tail(b - j + known_len - 1) from a cached vector, so
        ``rad`` is (b, 1, ...), broadcasting against ``mid``."""
        mid = 0.5 + self.theta * terms[0] * (terms[1] + state)
        return mid, self._radii(known_len + len(state))[_known_right(mid, known_len - 1)]

    def eval_indices(self, idx: Sequence[int]) -> tuple[float, float]:
        n = len(idx)
        signs = self.symbol_values[np.asarray(idx, dtype=np.intp)]
        if n == 1:
            mid = 0.5
        else:
            avec = self.context_weights(n - 1)
            mid = 0.5 + self.theta * float(signs[0]) * float(np.dot(avec[1:n], signs[1:]))
        return mid, self.theta * self.coefficients.tail(n - 1)

    def ratio_excess(self, n):
        """The closed-form x_n = rho_n - 1, for an int or elementwise over sites."""
        return 2 * self.theta * self.coefficients.tail(_nonnegative(n)) / self.g_min


def iid_model(alphabet: Alphabet, probs: Sequence[float]) -> FiniteMemoryModel:
    """Memory-0 model: an i.i.d. symbol law."""
    return FiniteMemoryModel(alphabet, 0, np.asarray(probs, dtype=float))


# ---------------------------------------------------------------------------
# operations


def _nonnegative(n):
    """Site indices: an int as is, anything else an integer array; none negative."""
    if not isinstance(n, (int, np.integer)):
        n = np.asarray(n) if np.size(n) else np.zeros(np.shape(n), np.intp)
        if n.dtype.kind not in "iu":
            raise ConfigError(f"site indices must be integers, got {n.dtype}")
    if np.any(n < 0):
        raise ConfigError(f"site indices need n >= 0, got {np.min(n)}")
    return n


def _known_right(sites: np.ndarray, known_len: int):
    """b - j + known_len at site j of the b = len(sites) sites of a block,
    shaped (b, 1, ...) with the dimensions of ``sites``."""
    b = len(sites)
    return np.arange(b + known_len, known_len, -1).reshape((b,) + (1,) * (sites.ndim - 1))


def context_state(model, known, width: int) -> np.ndarray:
    """Context state (width, ...), sites first, of ``width`` columns
    followed by the known context rows ``known`` (..., L), nearest symbol
    first.

    Bit for bit what ``add_context`` builds from zeros: the running state
    and a chunk of symbol terms a_{width+i-c} v(known_i) are stacked on a
    first axis, and one ``np.add.reduce`` over it adds them to each column
    in symbol order, a lag past a finite memory adding 0.  numpy adds the
    slices of a first axis in order only when each holds two or more cells
    (a single cell it sums pairwise), so the state carries one spare column
    ahead of the first.  Chunks of 64 symbols keep the stack at 65 states.
    """
    known = np.asarray(known)
    n_known, lead = known.shape[-1], known.shape[:-1]
    weights = model.context_weights(width + n_known)
    weights = np.append(weights, np.zeros(1, weights.dtype))  # a lag past them reads 0
    values = model.symbol_values
    state = np.zeros((width + 1,) + lead, dtype=values.dtype)
    for start in range(0, n_known, 64):
        chunk = np.moveaxis(values[known[..., start : start + 64]], -1, 0)
        # lag of symbol start + i from column c, the spare column being c = -1
        lags = width + 1 + start + np.arange(len(chunk))[:, None] - np.arange(width + 1)
        lag_weights = weights[np.minimum(lags, len(weights) - 1)]
        stack = np.empty((len(chunk) + 1,) + state.shape, dtype=values.dtype)
        stack[0] = state
        np.multiply(chunk[:, None], lag_weights.reshape(lag_weights.shape + (1,) * len(lead)),
                    out=stack[1:])
        state = np.add.reduce(stack, axis=0)
    return state[1:]


def word_terms(model, words) -> np.ndarray:
    """The context-free part of the kernel for word rows ``words`` (b, ...),
    sites first: v(w_j) at ``[0, j]`` and sum_k a_k v(w_{j+k}) over the
    word at ``[1, j]``, k ascending from 0."""
    words = np.asarray(words)
    weights = model.context_weights(len(words))
    values, inner = terms = np.zeros((2,) + words.shape, dtype=model.symbol_values.dtype)
    values[...] = model.symbol_values[words]
    for k in range(min(len(words), len(weights))):
        inner[: len(words) - k] += weights[k] * values[k:]
    return terms


def add_context(model, state: np.ndarray, rows: tuple, symbols: np.ndarray, c0: int):
    """Add ``symbols`` (b, ...), sites first, at columns c0, c0 + 1, ..., to
    the context state ``state`` (width, ...) of the columns left of c0, in
    place: column c gains a_{c0+i-c} v(symbols_i), one site at a time, from
    the left.  ``rows`` indexes the axes after the first, so each site adds
    into one slab ``state[lo:hi][rows]``: a view when ``rows`` are slices,
    contiguous when they select every trailing index; sites past a finite
    memory are skipped."""
    weights = model.context_weights(c0 + len(symbols))
    hi = min(c0, len(state))
    for i, site in enumerate(symbols):
        c = c0 + i
        lo = max(0, c + 1 - len(weights))
        if lo < hi:
            lags = weights[c - lo : c - hi : -1]
            state[(slice(lo, hi),) + rows] += (lags.reshape(lags.shape + (1,) * site.ndim)
                                               * model.symbol_values[site])


# -rad and +rad, exactly: mid + (-rad) rounds as mid - rad does
_SIGNS = np.array([-1.0, 1.0])


def interval_product(mid: np.ndarray, rad: np.ndarray, bounds=None):
    """Bounds ``(lo, hi)``, stacked on a first axis, on products over axis 0
    of factors lying in [mid - rad, mid + rad], each clipped to [0, 1],
    multiplied element by element from the left, and into ``bounds`` in
    place when it is given.  A factor's last axis, of m entries, repeats
    along that of ``bounds``: entry p*m + i gains factor i, so a site whose
    factor reads only the last m words of a lexicographic table is
    evaluated once per such suffix."""
    factors = mid + _SIGNS.reshape((2,) + (1,) * mid.ndim) * rad
    np.maximum(factors[0], 0.0, out=factors[0])
    np.minimum(factors[1], 1.0, out=factors[1])
    if bounds is None:
        return factors.prod(axis=1)
    # splitting the last axis is always a view, so ``bounds`` is updated
    prefixes = bounds.reshape(bounds.shape[:-1] + (-1, factors.shape[-1]))
    for site in range(factors.shape[1]):
        prefixes *= factors[:, site, ..., None, :]
    return bounds


# ---------------------------------------------------------------------------
# variation profiles


@dataclass(frozen=True)
class VariationProfile:
    """Per-n excesses x_n = rho_n - 1 of the oscillation ratio of g.

    ``values[n]`` is x_n for n up to the tabulated horizon: a non-increasing
    prefix.  Beyond it, the closed-form ``tail`` law supplies an upper bound.
    x_n >= var_n = log1p(x_n) with x_n / var_n -> 1: x has var's asymptotic
    class, and what a criterion asks to be small (a sum, a product series'
    decay) holds for var where it holds for x, so the criteria stay sound.
    """

    values: np.ndarray
    tail: PowerLaw | Exponential | FiniteRange | None = None

    def __post_init__(self):
        object.__setattr__(self, "values", np.asarray(self.values, dtype=float))
        # written as "not all allowed", so that NaN fails both checks
        if not (np.diff(self.values) <= 1e-12).all():
            raise ConfigError("variation values must be non-increasing")
        if not (self.values >= -1e-15).all():
            raise ConfigError("variation values must be non-negative")

    @property
    def horizon(self) -> int:
        return len(self.values) - 1

    def var_at(self, n):
        """x_n, an upper bound on var_n, for an int or an integer array
        n >= 0: the tabulated value up to the horizon, the tail law beyond it."""
        n = np.asarray(_nonnegative(n))
        if (n <= self.horizon).all():
            return self.values[n]
        if self.tail is None:
            raise ConfigError(f"n={n.max()} beyond horizon {self.horizon} and no tail model")
        beyond = self.tail.var_at(np.maximum(n, self.horizon + 1))
        return np.where(n > self.horizon, beyond, self.values[np.minimum(n, self.horizon)])[()]


def variation_profile(model, horizon: int) -> VariationProfile:
    """Tabulate x_n = rho_n - 1 for n = 0..horizon, from one call of
    ``model.ratio_excess`` on all of them; no logarithm is taken, so a
    positive x_n stays positive however small it is."""
    if horizon < 0:
        raise ConfigError("horizon must be >= 0")
    values = model.ratio_excess(np.arange(horizon + 1))
    values = np.minimum.accumulate(values)  # clear float noise in flat stretches
    if isinstance(model, FiniteMemoryModel):
        # x_n is non-increasing, so values[horizon] bounds it up to the
        # memory, and it vanishes from n = memory on
        return VariationProfile(values, FiniteRange(model.memory, float(values[horizon])))
    # x_n = 2 * theta * tail(n) / g_min, and the tail law bounds tail(n)
    law = model.coefficients.tail_law
    return VariationProfile(values, replace(law, c=2 * model.theta * law.c / model.g_min))


def finite_memory_surrogate(model, memory: int):
    """Project any model onto a finite-memory table by midpoint evaluation.

    Returns ``(surrogate, defect, half_width)`` where ``half_width`` bounds
    |g - g_mid| over all words of length memory+1 and ``defect`` is the
    largest per-context normalisation correction that was applied.  Raises
    BudgetError, before anything is built, when the size**(memory+1) table
    entries exceed ``DEFAULT_BUDGET``.  The sums of the size**memory contexts
    grow by prefix doubling, v(x_k) a_k added from the left as ``add_context``
    adds them; one kernel call reads each first symbol under each context.
    """
    if memory < 0:
        raise ConfigError("surrogate memory must be >= 0")
    size = model.alphabet.size
    _check_power(size, memory + 1, f"surrogate table {size}^{memory + 1}")
    weights, values = model.context_weights(memory), model.symbol_values
    sums = np.zeros(1, dtype=values.dtype)
    for k in range(1, memory + 1):  # a site past a finite memory adds 0 to the code
        sums = (sums[:, None] + values * (weights[k] if k < len(weights) else 0)).reshape(-1)
    first = np.arange(size)[None, :, None]
    mid, rad = model.site_intervals(word_terms(model, first), sums[None, None, :], memory)
    grouped = mid.reshape(size, size**memory)
    rowsums = grouped.sum(axis=0)
    defect = float(np.abs(rowsums - 1.0).max())
    grouped /= rowsums
    surrogate = FiniteMemoryModel(model.alphabet, memory, grouped.reshape(-1))
    return surrogate, defect, float(rad.max())


# ---------------------------------------------------------------------------
# model definition files
#
# Line-oriented key=value grammar ('#' starts a comment):
#
#   variant = finite_memory | long_range_linear
#   alphabet = 0,1
#   memory = 1                  (finite_memory)
#   table[01] = 0.3             (one line per word of length memory+1)
#   theta = 0.25                (long_range_linear)
#   coeff_law = power_law | exponential
#   coeff_c = 0.3 | coeff_mass = 0.5
#   coeff_p = 2.0               (power_law)
#   coeff_r = 0.5               (exponential)
#   sign[0] = -1                (optional; defaults follow alphabet order)


# coeff_law -> (tails law, key of its shape parameter)
_COEFF_LAWS = {"power_law": (PowerLaw, "coeff_p"), "exponential": (Exponential, "coeff_r")}


def parse_model(text: str):
    """Parse a model definition; raises ConfigError with the offending line."""
    plain: dict[str, str] = {}
    table: dict[str, str] = {}
    signs: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key.startswith("table[") and key.endswith("]"):
            entries, name = table, key[6:-1]
        elif key.startswith("sign[") and key.endswith("]"):
            entries, name = signs, key[5:-1]
        else:
            entries, name = plain, key
        if name in entries:
            raise ConfigError(f"line {lineno}: repeated key {key!r}")
        entries[name] = value

    def need(key: str) -> str:
        if key not in plain:
            raise ConfigError(f"missing required key {key!r}")
        return plain[key]

    def number(key: str, text: str | None = None) -> float:
        text = need(key) if text is None else text
        try:
            value = float(text)
        except ValueError:
            raise ConfigError(f"key {key!r} must be numeric, got {text!r}") from None
        if not math.isfinite(value):
            raise ConfigError(f"key {key!r} must be finite, got {text!r}")
        return value

    alphabet = Alphabet(tuple(s.strip() for s in need("alphabet").split(",")))
    variant = need("variant")
    if variant == "finite_memory":
        memory = number("memory")
        entries = {word: number(f"table[{word}]", value) for word, value in table.items()}
        return FiniteMemoryModel(alphabet, memory, entries)
    if variant == "long_range_linear":
        law = need("coeff_law")
        if law not in _COEFF_LAWS:
            raise ConfigError(f"unknown coeff_law {law!r}")
        cls, shape_key = _COEFF_LAWS[law]
        shape = number(shape_key)
        if "coeff_mass" in plain:
            coeffs = cls.from_mass(shape, number("coeff_mass"))
        else:
            coeffs = cls(number("coeff_c"), shape)
        sign_map = None
        if signs:
            sign_map = [0.0] * alphabet.size
            for symbol, value in signs.items():
                sign_map[alphabet.index(symbol)] = number(f"sign[{symbol}]", value)
        return LongRangeLinearModel(alphabet, number("theta"), coeffs, sign_map)
    raise ConfigError(f"unknown variant {variant!r}")


def load_model(path):
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read model file {str(path)!r}: {exc.strerror}") from None
    except UnicodeDecodeError as exc:
        raise ConfigError(f"model file {str(path)!r} is not UTF-8: {exc.reason}") from None
    return parse_model(text)
