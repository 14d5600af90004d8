"""Closed-form tail laws for variation sequences and disagreement bounds.

One family serves the tails of variation profiles, the parametric variation
models the uniqueness criteria classify, the tails of single-site
disagreement sequences, and the coefficients a_k = ``var_at(k)``, k >= 1, of
the long-range linear g-model.  ``var_at(n)`` evaluates a law at n >= 0.
``asymptotic`` is its class as a pair ``(c, p)``: the law behaves like
``c * n**(-p)`` as n grows, with ``p = inf`` (and ``c = 0``) for laws that
vanish faster than every power, and ``p = 0`` for a positive limit ``c``.
The criteria classify a law from this pair alone.

The summable laws, ``Exponential`` and ``PowerLaw`` with p > 1, give their
sums ``tail(n)`` = sum_{k>n} a_k and ``total`` = ``tail(0)``, plus
``from_mass`` and ``tail_law``; the model takes those with offset 0, and
reads rho_n off ``tail(n)``.  ``var_at`` and ``tail`` take an int or an
integer array, and work elementwise.  A power law's sums raise ConfigError
unless p > 1.  They are Hurwitz zeta values, computed here by an
Euler-Maclaurin sum in plain floats (no scipy) whose remainder is bounded
by its first omitted term.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError

__all__ = ["PowerLaw", "Exponential", "FiniteRange"]

FASTER_THAN_EVERY_POWER = (0.0, math.inf)


# Euler-Maclaurin constants of ``_zeta``: the direct terms, and B_2j / (2j)!
# for j = 1..8
_DIRECT = 12
_BERNOULLI = (1 / 12, -1 / 720, 1 / 30240, -1 / 1209600, 1 / 47900160,
              -691 / 1307674368000, 1 / 74724249600, -3617 / 10670622842880000)


def _zeta(p: float, q: float) -> float:
    """Hurwitz zeta sum_{k >= 0} (q + k)**(-p) for real p > 1 and q >= 1.

    With a = q + 12 it is sum_{k < 12} (q + k)**(-p) + a**(1-p) / (p-1)
    + a**(-p) / 2 + sum_{j=1..8} B_2j / (2j)! * p (p+1) ... (p+2j-2)
    * a**(-p-2j+1) (DLMF 25.11; F. Johansson, Numer. Algorithms 2015).  For
    real p > 1 the remainder is at most the first omitted term, j = 9, and
    that is below 3e-20 of the value for every p > 1 and q >= 1 (largest
    near p = 2.5, q = 1): far below rounding.  The corrections are summed by
    Horner's rule, the direct terms smallest first, and the integral term,
    the largest for large q, last.  Python floats stay Python floats, so a
    scalar call costs a few microseconds; an array q runs the same
    operations elementwise, where numpy's ``**`` may differ from the scalar
    one in the last bit.
    """
    a = q + float(_DIRECT)  # a float, so a * a cannot wrap for an integer array q
    x = a ** -p
    h = 1 / (a * a)
    s = 0.0
    for j in range(len(_BERNOULLI), 0, -1):
        s = _BERNOULLI[j - 1] + (p + 2 * j - 1) * (p + 2 * j) * h * s
    total = x / 2 + p * x / a * s
    for k in range(_DIRECT - 1, -1, -1):
        total += (q + k) ** -p
    return total + x * a / (p - 1)


def _powers(r: float, k):
    """r**k for 0 < r < 1 and an int or integer array k >= 0, rounded as the
    scalar ``**`` rounds it (numpy's SIMD ``**`` may differ in the last bit):
    one scalar call per exponent until r**k is 0, past 1075 halvings."""
    if isinstance(k, (int, np.integer)):
        return r**k
    k = np.asarray(k)
    top = min(int(k.max(initial=0)), int(1075 / -math.log2(r)) + 1)
    return np.array([r**i for i in range(top + 1)] + [0.0])[np.minimum(k, top + 1)]


@dataclass(frozen=True)
class PowerLaw:
    """c * (n + offset)**(-p); p = 0 gives the constant c.  Its sums, defined
    for p > 1 only, use the Hurwitz zeta function, so ``tail`` suffers no
    cancellation: ``tail(n)`` is c * zeta(p, n + 1 + offset), evaluated by
    ``_zeta``'s Euler-Maclaurin sum, whose remainder is below 3e-20 of the
    value (its first omitted term)."""

    c: float
    p: float
    offset: int = 0

    def __post_init__(self):
        if not (self.c >= 0 and self.p >= 0):
            raise ConfigError("power law needs c >= 0 and p >= 0")

    def var_at(self, n: int) -> float:
        return self.c * (n + self.offset) ** -float(self.p)  # no int ** -int on arrays

    @property
    def asymptotic(self) -> tuple[float, float]:
        return self.c, self.p

    @classmethod
    def from_mass(cls, p: float, mass: float) -> "PowerLaw":
        """Scale so that sum_{k >= 1} c * k**(-p) equals ``mass``."""
        if not p > 1:
            raise ConfigError("power-law exponent must exceed 1")
        return cls(mass / _zeta(p, 1), p)

    def _summable(self):
        if not self.p > 1:
            raise ConfigError(f"power-law sums need p > 1, got p={self.p}")

    def tail(self, n: int) -> float:
        self._summable()
        return self.c * _zeta(self.p, n + 1 + self.offset)

    @property
    def total(self) -> float:
        return self.tail(0)

    @property
    def tail_law(self) -> "PowerLaw":
        """tail(n) <= c * (n + offset)**(1-p) / (p-1)."""
        self._summable()
        return PowerLaw(self.c / (self.p - 1), self.p - 1, self.offset)


@dataclass(frozen=True)
class Exponential:
    """c * r**n with 0 < r < 1."""

    c: float
    r: float

    asymptotic = FASTER_THAN_EVERY_POWER

    def __post_init__(self):
        if not (self.c >= 0 and 0 < self.r < 1):
            raise ConfigError("exponential law needs c >= 0 and r in (0, 1)")

    def var_at(self, n: int) -> float:
        return self.c * self.r**n

    @classmethod
    def from_mass(cls, r: float, mass: float) -> "Exponential":
        """Scale so that sum_{k >= 1} c * r**k equals ``mass``."""
        if not 0 < r < 1:  # before r divides
            raise ConfigError("exponential law needs r in (0, 1)")
        return cls(mass * (1 - r) / r, r)

    def tail(self, n: int) -> float:
        return self.c * _powers(self.r, n + 1) / (1 - self.r)

    @property
    def total(self) -> float:
        return self.tail(0)

    @property
    def tail_law(self) -> "Exponential":
        """tail(n) = c * r / (1 - r) * r**n."""
        return Exponential(self.c * self.r / (1 - self.r), self.r)


@dataclass(frozen=True)
class FiniteRange:
    """level for n < M and 0 from n = M on."""

    M: int
    level: float = 1.0

    asymptotic = FASTER_THAN_EVERY_POWER

    def __post_init__(self):
        if not (self.M >= 0 and self.level >= 0):
            raise ConfigError("finite-range law needs M >= 0 and level >= 0")

    def var_at(self, n: int) -> float:
        return np.where(np.asarray(n) < self.M, self.level, 0.0)[()]

