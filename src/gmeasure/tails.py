"""Closed-form tail laws for variation sequences and disagreement bounds.

One family serves the tails of variation profiles, the parametric variation
models the uniqueness criteria classify, and the tails of single-site
disagreement sequences.  ``var_at(n)`` evaluates a law at n >= 0.
``asymptotic`` is its class as a pair ``(c, p)``: the law behaves like
``c * n**(-p)`` as n grows, with ``p = inf`` (and ``c = 0``) for laws that
vanish faster than every power, and ``p = 0`` for a positive limit ``c``.
The criteria classify a law from this pair alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ConfigError

__all__ = ["PowerLaw", "Exponential", "FiniteRange", "OneMinusPower"]

FASTER_THAN_EVERY_POWER = (0.0, math.inf)


@dataclass(frozen=True)
class PowerLaw:
    """c * (n + offset)**(-p); p = 0 gives the constant c."""

    c: float
    p: float
    offset: int = 0

    def __post_init__(self):
        if self.c < 0 or self.p < 0:
            raise ConfigError("power law needs c >= 0 and p >= 0")

    def var_at(self, n: int) -> float:
        return self.c * (n + self.offset) ** (-self.p)

    @property
    def asymptotic(self) -> tuple[float, float]:
        return self.c, self.p


@dataclass(frozen=True)
class Exponential:
    """c * r**n with 0 < r < 1."""

    c: float
    r: float

    asymptotic = FASTER_THAN_EVERY_POWER

    def __post_init__(self):
        if self.c < 0 or not 0 < self.r < 1:
            raise ConfigError("exponential law needs c >= 0 and r in (0, 1)")

    def var_at(self, n: int) -> float:
        return self.c * self.r**n


@dataclass(frozen=True)
class FiniteRange:
    """level for n < M and 0 from n = M on."""

    M: int
    level: float = 1.0

    asymptotic = FASTER_THAN_EVERY_POWER

    def __post_init__(self):
        if self.M < 0 or self.level < 0:
            raise ConfigError("finite-range law needs M >= 0 and level >= 0")

    def var_at(self, n: int) -> float:
        return self.level if n < self.M else 0.0


@dataclass(frozen=True)
class OneMinusPower:
    """1 - a * n**(-q): a sequence tending to 1 when q > 0."""

    a: float
    q: float

    def var_at(self, n: int) -> float:
        return 1.0 - self.a * n ** (-self.q)

    @property
    def asymptotic(self) -> tuple[float, float]:
        return (1.0 if self.q > 0 else 1.0 - self.a), 0.0
