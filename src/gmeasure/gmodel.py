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

``eval_indices`` is the scalar reference route: one word, one interval.
The batched kernel evaluates every site of a batch of word rows at once.
Its word part, ``word_terms``, is computed once for words read under many
contexts.  A known right context is summarised by ``context_field`` (its
first M symbols for a finite-memory model; for the long-range model, the
context sums ``sum_i a_{t+i} s(known_i)`` at each distance t),
``extend_field`` prepends sampled symbols to such a summary without
rereading it, and ``site_intervals`` returns ``(mid, rad)`` per site with
the interval semantics of ``eval_indices``.  The long-range kernel reads
cached tail radii, never ``zeta``; the finite-memory kernel gathers from the
table, or from min/max tables over completions of windows under M+1 symbols.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import ConfigError
from .tails import Exponential, FiniteRange, PowerLaw

__all__ = [
    "Alphabet",
    "Word",
    "binary_alphabet",
    "FiniteMemoryModel",
    "LongRangeLinearModel",
    "iid_model",
    "eval_g",
    "cylinder_prob",
    "rho_interval",
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


@dataclass(frozen=True)
class Word:
    """Finite configuration on the integer interval [anchor, anchor+len-1].

    The empty word (no symbols) stands for the empty interval [m, n], m > n.
    """

    anchor: int
    symbols: tuple[str, ...]

    def __len__(self) -> int:
        return len(self.symbols)

    @property
    def interval(self) -> tuple[int, int]:
        # inclusive; (anchor, anchor - 1) when empty
        return (self.anchor, self.anchor + len(self.symbols) - 1)

    @property
    def end(self) -> int:
        return self.anchor + len(self.symbols) - 1

    @staticmethod
    def empty(anchor: int = 0) -> "Word":
        return Word(anchor, ())


def encode(digits: Sequence[int], size: int) -> int:
    """Lexicographic index of a word, first coordinate most significant."""
    code = 0
    for d in digits:
        code = code * size + d
    return code


def decode(code: int, size: int, length: int) -> tuple[int, ...]:
    out = [0] * length
    for j in range(length - 1, -1, -1):
        code, out[j] = divmod(code, size)
    return tuple(out)


def all_words(size: int, length: int, codes=None) -> np.ndarray:
    """The words of ``length`` symbols with lexicographic indices ``codes``
    (default: all of them, in order) as rows."""
    codes = np.arange(size**length) if codes is None else np.asarray(codes)
    digits = codes[..., None] // size ** np.arange(length - 1, -1, -1) % size
    return digits.astype(np.min_scalar_type(size - 1))


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
        if not np.allclose(rowsums, 1.0, atol=1e-9):
            raise ConfigError("conditional probabilities must sum to 1 per context")
        self.table = vec
        self._bounds = None  # stacked min/max tables, built on first kernel call

    @property
    def is_positive(self) -> bool:
        return bool((self.table > 0).all())

    def context_field(self, known, reach: int) -> np.ndarray:
        """The first ``memory`` symbols of each known context row (zero-padded
        where fewer are known; ``site_intervals`` reads only known ones)."""
        known = np.asarray(known)
        width = min(known.shape[-1], self.memory)
        field = np.zeros(known.shape[:-1] + (self.memory,), dtype=np.int64)
        field[..., :width] = known[..., :width]
        return field

    def extend_field(self, field: np.ndarray, words: np.ndarray) -> np.ndarray:
        """The field after ``words`` are prepended to the known contexts."""
        return np.concatenate([words, field], axis=-1)[..., : self.memory]

    def word_terms(self, words) -> np.ndarray:
        """The word part of the kernel: the word rows themselves."""
        return np.asarray(words)

    def site_intervals(self, words, field: np.ndarray, known_len):
        """``(mid, rad)`` of g at each site of the word rows ``words``
        (..., b; their ``word_terms``), each followed by a known context of
        length ``known_len`` summarised by ``field``; leading axes broadcast.
        Site j sees n = min(b - j + known_len, memory + 1) symbols: a full
        window reads the table, a shorter one the min/max over completions."""
        b, size, full = words.shape[-1], self.alphabet.size, self.memory + 1
        lead = np.broadcast_shapes(words.shape[:-1], field.shape[:-1])
        seq = np.concatenate([np.broadcast_to(words, lead + (b,)),
                              np.broadcast_to(field, lead + (self.memory,))], axis=-1)
        code = np.zeros(lead + (b,), dtype=np.int64)
        for k in range(full):
            code = code * size + seq[..., k : k + b]
        n = np.minimum(np.add.outer(known_len, np.arange(b, 0, -1)), full)
        if self._bounds is None:
            grouped = [self.table.reshape(size**m, -1) for m in range(1, full + 1)]
            self._bounds = (
                np.cumsum([0, 0] + [size**m for m in range(1, full)]),
                np.concatenate([g.min(axis=1) for g in grouped]),
                np.concatenate([g.max(axis=1) for g in grouped]),
            )
        offsets, lo_table, hi_table = self._bounds
        idx = offsets[n] + code // size ** (full - n)
        lo, hi = lo_table[idx], hi_table[idx]
        return 0.5 * (lo + hi), 0.5 * (hi - lo)

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

    def rho(self, n: int) -> tuple[float, float]:
        """Exact oscillation ratio of g over pairs agreeing on [0, n]."""
        if not self.is_positive:
            raise ConfigError("oscillation ratio undefined for a non-positive model")
        if n >= self.memory:
            return 1.0, 1.0
        size = self.alphabet.size
        grouped = self.table.reshape(size ** (n + 1), -1)
        value = float((grouped.max(axis=1) / grouped.min(axis=1)).max())
        return value, value


class LongRangeLinearModel:
    """Binary-alphabet family g(x) = 1/2 + theta*s(x_0)*sum_k a_k*s(x_k).

    ``coefficients`` is ``tails.PowerLaw(c, p)`` (offset 0, p > 1) or
    ``tails.Exponential(c, r)``, with a_k = ``coefficients.var_at(k)``.
    Signs s map the two symbols to -1/+1 (alphabet order by default), theta
    lies in (0, 1/2), and the coefficient mass sum_k a_k is at most 1, which
    keeps g strictly positive.  The oscillation ratio over pairs agreeing on
    [0, n] has the closed form

        rho_n = (1/2 + theta*A - 2*theta*h_n) / (1/2 - theta*A),

    with A the total coefficient mass and h_n the partial sum up to n; the
    denominator is the global minimum of g and does not depend on n.
    """

    memory = None

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
        if signs is None:
            signs = (-1.0, 1.0)
        signs = tuple(float(s) for s in signs)
        if sorted(signs) != [-1.0, 1.0]:
            raise ConfigError("sign map must assign -1 and +1")
        self._signs = np.asarray(signs)
        self._avec = np.zeros(1)  # a_k at index k >= 1 (index 0 kept 0), grown on demand
        self._rad = np.zeros(0)  # theta * tail(k) at index k, grown on demand

    @property
    def is_positive(self) -> bool:
        return True  # enforced by the constructor constraints

    def _coeffs(self, n: int) -> np.ndarray:
        """Coefficients a_1..a_n as a vector (index 0 unused, kept 0)."""
        if len(self._avec) <= n:
            m = max(2 * len(self._avec), n + 1)
            k = np.arange(1, m, dtype=float)
            self._avec = np.concatenate([[0.0], self.coefficients.var_at(k)])
        return self._avec[: n + 1]

    def _radii(self, n: int) -> np.ndarray:
        """theta * tail(k) for k = 0..n-1: the half-width of g on a word of
        k + 1 symbols, bit for bit as ``eval_indices`` computes it."""
        if len(self._rad) < n:
            m = max(2 * len(self._rad), n)
            self._rad = self.theta * np.array([self.coefficients.tail(k) for k in range(m)])
        return self._rad

    def context_field(self, known, reach: int) -> np.ndarray:
        """Context sums F[..., t-1] = sum_i a_{t+i} s(known_i), t = 1..reach,
        of the known context rows ``known`` (..., L), nearest symbol first."""
        known = np.asarray(known)
        avec = self._coeffs(reach + known.shape[-1])
        field = np.zeros(known.shape[:-1] + (reach,))
        for i in range(known.shape[-1]):
            field += self._signs[known[..., i, None]] * avec[i + 1 : i + 1 + reach]
        return field

    def extend_field(self, field: np.ndarray, words: np.ndarray) -> np.ndarray:
        """The field after ``words`` (..., b) are prepended to the known
        contexts: F'(t) = sum_{i<b} a_{t+i} s(w_i) + F(t + b).  Distances past
        reach - b keep only the word terms; callers size the reach so that
        no later block reads them."""
        b, reach = words.shape[-1], field.shape[-1]
        avec = self._coeffs(reach + b)
        out = np.zeros_like(field)
        out[..., : reach - b] = field[..., b:]
        for i in range(b):  # + or - a_{t+i} in place: no temporary of the field's size
            sign = self._signs[words[..., i, None]]
            np.add(out, avec[i + 1 : i + 1 + reach], out=out, where=sign > 0)
            np.subtract(out, avec[i + 1 : i + 1 + reach], out=out, where=sign < 0)
        return out

    def word_terms(self, words) -> np.ndarray:
        """The word part of the kernel for word rows ``words`` (..., b), built in
        place: theta * s(w_j) at ``[0, ..., j]``, sum_k a_k s(w_{j+k}) at ``[1, ..., j]``."""
        words = np.asarray(words)
        b = words.shape[-1]
        avec = self._coeffs(b)
        signs, inner = terms = np.zeros((2,) + words.shape)
        signs[...] = self._signs[words]
        for k in range(1, b):
            inner[..., : b - k] += avec[k] * signs[..., k:]
        signs *= self.theta
        return terms

    def site_intervals(self, terms, field: np.ndarray, known_len):
        """``(mid, rad)`` of g at each site of the word rows with ``word_terms``
        ``terms`` (2, ..., b), each followed by a known context of length
        ``known_len`` whose context sums ``field`` reach at least b; leading
        axes broadcast.  Site j adds its context sum F(b - j) and reads its
        tail radius theta * tail(b - j + known_len - 1) from a cached vector."""
        b = terms.shape[-1]
        mid = 0.5 + terms[0] * (terms[1] + field[..., b - 1 :: -1])
        idx = np.add.outer(known_len, np.arange(b - 1, -1, -1))
        rad = self._radii(int(np.max(idx)) + 1)[idx]
        return mid, np.broadcast_to(rad, mid.shape)

    def eval_indices(self, idx: Sequence[int]) -> tuple[float, float]:
        n = len(idx)
        signs = self._signs[np.asarray(idx, dtype=np.intp)]
        if n == 1:
            mid = 0.5
        else:
            avec = self._coeffs(n - 1)
            mid = 0.5 + self.theta * float(signs[0]) * float(np.dot(avec[1:n], signs[1:]))
        return mid, self.theta * self.coefficients.tail(n - 1)

    def rho(self, n: int) -> tuple[float, float]:
        g_min = 0.5 - self.theta * self.total_mass
        h = self.coefficients.prefix(n)
        value = (0.5 + self.theta * self.total_mass - 2 * self.theta * h) / g_min
        return value, value


def iid_model(alphabet: Alphabet, probs: Sequence[float]) -> FiniteMemoryModel:
    """Memory-0 model: an i.i.d. symbol law."""
    return FiniteMemoryModel(alphabet, 0, np.asarray(probs, dtype=float))


# ---------------------------------------------------------------------------
# operations


def _check_word(model, word: Word) -> tuple[int, ...]:
    return model.alphabet.indices(word.symbols)


def eval_g(model, word: Word, truncation: int | None = None) -> tuple[float, float]:
    """Evaluate g on the cylinder fixed by ``word`` (anchored at 0).

    Returns ``(value, error_bound)`` with the interval semantics described in
    the module docstring.  ``truncation`` caps the number of coordinates used
    in the computation; for the long-range family it must be at least the
    word length (coordinates beyond the word are unknown and are covered by
    the error bound either way).
    """
    if word.anchor != 0:
        raise ConfigError("eval_g expects a word anchored at coordinate 0")
    if len(word) < 1:
        raise ConfigError("eval_g expects a non-empty word")
    idx = _check_word(model, word)
    if truncation is not None:
        if isinstance(model, LongRangeLinearModel) and truncation < len(idx):
            raise ConfigError("truncation must be at least the word length")
        idx = idx[: max(truncation, 1)]
    return model.eval_indices(idx)


def cylinder_prob(
    model, block: Word, context: Word | None = None
) -> tuple[float, float]:
    """Probability of ``block`` under the conditional cylinder law given
    the adjacent ``context`` to its right.

    The value is the product over block coordinates i of g applied to the
    sequence starting at i; per-factor truncation intervals are propagated
    multiplicatively, so the error bound is 0 exactly when every factor's
    dependence window lies inside block + context.
    """
    block_idx = _check_word(model, block)
    context_idx = ()
    if context is not None and len(context) > 0:
        if context.anchor != block.end + 1:
            raise ConfigError(
                f"context interval {context.interval} is not adjacent to "
                f"block interval {block.interval}"
            )
        context_idx = _check_word(model, context)
    if len(block) == 0:
        return 1.0, 0.0
    mid, rad = _word_intervals(model, np.array([block_idx]), np.array([context_idx], dtype=int))
    lo, hi = interval_product(mid, rad)
    return float(0.5 * (lo[0] + hi[0])), float(0.5 * (hi[0] - lo[0]))


def _word_intervals(model, words: np.ndarray, known: np.ndarray):
    """The kernel on explicit contexts: ``(mid, rad)`` at every site of the
    word rows ``words`` (..., b), each followed by its known context row
    ``known`` (..., L); leading axes broadcast."""
    field = model.context_field(known, words.shape[-1])
    return model.site_intervals(model.word_terms(words), field, known.shape[-1])


def interval_product(mid: np.ndarray, rad: np.ndarray):
    """Bounds ``(lo, hi)`` on products over the last axis of factors lying in
    [mid - rad, mid + rad], each clipped to [0, 1]; the factors are
    multiplied left to right."""
    lo = hi = 1.0
    for j in range(mid.shape[-1]):
        lo = lo * np.maximum(mid[..., j] - rad[..., j], 0.0)
        hi = hi * np.minimum(mid[..., j] + rad[..., j], 1.0)
    return lo, hi


def rho_interval(model, n: int) -> tuple[float, float]:
    """Bounds on the oscillation ratio of g over pairs agreeing on [0, n]."""
    if n < 0:
        raise ConfigError("n must be >= 0")
    return model.rho(n)


# ---------------------------------------------------------------------------
# variation profiles


@dataclass(frozen=True)
class VariationProfile:
    """Per-n values (or upper bounds) of the log-oscillation of g.

    ``values[n]`` is var_{[0,n]}(log g) for n up to the tabulated horizon:
    a non-increasing prefix.  Beyond it, the closed-form ``tail`` law
    supplies an upper bound.
    """

    values: np.ndarray
    tail: PowerLaw | Exponential | FiniteRange | None = None
    kind: str = "upper_bound"  # or "exact"

    def __post_init__(self):
        object.__setattr__(self, "values", np.asarray(self.values, dtype=float))
        if self.kind not in ("exact", "upper_bound"):
            raise ConfigError("profile kind must be 'exact' or 'upper_bound'")
        diffs = np.diff(self.values)
        if (diffs > 1e-12).any():
            raise ConfigError("variation values must be non-increasing")
        if (self.values < -1e-15).any():
            raise ConfigError("variation values must be non-negative")

    @property
    def horizon(self) -> int:
        return len(self.values) - 1

    def var_at(self, n: int) -> float:
        if n <= self.horizon:
            return float(self.values[n])
        if self.tail is None:
            raise ConfigError(f"n={n} beyond horizon {self.horizon} and no tail model")
        return self.tail.var_at(n)


def variation_profile(model, horizon: int) -> VariationProfile:
    """Tabulate var_{[0,n]}(log g) = log rho_{[0,n]} for n = 0..horizon."""
    if horizon < 0:
        raise ConfigError("horizon must be >= 0")
    uppers = np.array([math.log(model.rho(n)[1]) for n in range(horizon + 1)])
    uppers = np.minimum.accumulate(uppers)  # clear float noise in flat stretches
    if isinstance(model, FiniteMemoryModel):
        # var_n is non-increasing, so values[horizon] bounds it up to the
        # memory, and it vanishes from n = memory on
        return VariationProfile(
            uppers, FiniteRange(model.memory, float(uppers[horizon])), "exact"
        )
    # var_n = log rho_n <= 2 * theta * tail(n) / g_min, by log(1+x) <= x
    g_min = 0.5 - model.theta * model.total_mass
    law = model.coefficients.tail_law
    return VariationProfile(uppers, replace(law, c=2 * model.theta * law.c / g_min))


def finite_memory_surrogate(model, memory: int):
    """Project any model onto a finite-memory table by midpoint evaluation.

    Returns ``(surrogate, defect, half_width)`` where ``half_width`` bounds
    |g - g_mid| over all words of length memory+1 and ``defect`` is the
    largest per-context normalisation correction that was applied.
    """
    if memory < 0:
        raise ConfigError("surrogate memory must be >= 0")
    size = model.alphabet.size
    words = all_words(size, memory + 1)
    mid, rad = _word_intervals(model, words[:, :1], words[:, 1:])
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
            table[key[6:-1]] = value
        elif key.startswith("sign[") and key.endswith("]"):
            signs[key[5:-1]] = value
        else:
            plain[key] = value

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
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read model file {str(path)!r}: {exc.strerror}") from None
    return parse_model(text)
