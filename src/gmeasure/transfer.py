"""Transfer operator for finite-memory g-models.

The operator acts on functions of finitely many leading coordinates by
averaging over one-symbol extensions weighted by g:

    (L f)(x) = sum_s g(s x) * f(s x).

For a model with memory M the operator is closed on functions of W >= max(M, 1)
coordinates; its dual fixed point is a stationary g-measure restricted to
length-W cylinders.  Uniqueness of the g-chain is *diagnosed* (never proved)
through the decay of the oscillation of L^n f.

Functions over S^W are indexed lexicographically, numpy's C order over
(|S|,) * W, so f at the extensions s.u[:W-1] is one ``np.repeat`` of f
reshaped to (|S|, |S|^(W-1)).  The operator is one (|S|, |S|^W) weight array,
weight[s, u] = g(s.u[:M]), read by ``apply`` and ``apply_dual``; the
uniqueness flag of ``stationary`` runs both on 0/1 vectors.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ConvergenceError, check_budget
from .gmodel import Alphabet, FiniteMemoryModel, finite_memory_surrogate

__all__ = [
    "TransferOperator",
    "StationaryMeasure",
    "indicator",
    "apply_Ln",
    "stationary",
    "uniqueness_diagnostic",
]

MAX_POWER_ITERATIONS = 100_000


def indicator(alphabet: Alphabet, symbol: str, window: int = 1) -> np.ndarray:
    """Indicator of ``symbol`` at coordinate 0, as a vector over S^window."""
    return np.repeat(np.eye(alphabet.size)[alphabet.index(symbol)], alphabet.size ** (window - 1))


class TransferOperator:
    """Exact action of the transfer operator on S^window cylinder functions."""

    def __init__(self, model: FiniteMemoryModel, window: int | None = None):
        if not isinstance(model, FiniteMemoryModel):
            raise ConfigError("the exact transfer operator needs a finite-memory model")
        self.model = model
        size = model.alphabet.size
        self.window = max(model.memory, 1) if window is None else int(window)
        if self.window < max(model.memory, 1):
            raise ConfigError(
                f"window must be at least max(memory, 1) = {max(model.memory, 1)}"
            )
        self.dim = check_budget(size**self.window, f"state dimension {size}^{self.window}")
        table = model.table.reshape(size, -1)  # [s, window code of x_1..x_memory]
        self.weight = np.repeat(table, self.dim // table.shape[1], axis=1)

    def apply(self, f: np.ndarray) -> np.ndarray:
        f = np.asarray(f, dtype=float)
        if f.shape != (self.dim,):
            raise ConfigError(f"function must have shape ({self.dim},), got {f.shape}")
        size = self.model.alphabet.size
        return (self.weight * np.repeat(f.reshape(size, -1), size, axis=1)).sum(axis=0)

    def apply_dual(self, pi: np.ndarray) -> np.ndarray:
        size = self.model.alphabet.size
        # [s, v, t]: the mass word v.t sends to s.v; slices added in order,
        # which is faster than a reduction over the short last axis
        terms = (self.weight * pi).reshape(size, -1, size)
        return sum(terms[..., t] for t in range(size)).reshape(-1)


def apply_Ln(op: TransferOperator, f: np.ndarray, n: int) -> np.ndarray:
    """n-fold application; n = 0 returns f unchanged."""
    if n < 0:
        raise ConfigError("n must be >= 0")
    out = np.asarray(f, dtype=float)
    if out.shape != (op.dim,):
        raise ConfigError(f"function must have shape ({op.dim},), got {out.shape}")
    for _ in range(n):
        out = op.apply(out)
    return out


@dataclass
class StationaryMeasure:
    """Fixed point of the dual operator on length-``window`` cylinders."""

    model: FiniteMemoryModel
    window: int
    probs: np.ndarray
    residual: float
    unique: bool


def _closure(step, j: int, dim: int) -> np.ndarray:
    """Words joined to word j by chains of edges, grown one ``step`` at a time."""
    reached, grown = None, np.arange(dim) == j
    while not np.array_equal(reached, grown):
        reached, grown = grown, grown | (step(grown.astype(float)) > 0)
    return reached


def _is_uniquely_ergodic(op: TransferOperator) -> bool:
    """True iff the cylinder chain has exactly one closed communicating class.

    On a 0/1 vector, ``apply`` marks the words with an edge into its set and
    ``apply_dual`` the words its set has an edge to.  A word that j reaches
    but that cannot reach j back reaches strictly fewer words, so moving j
    there ends at a closed class, the only one iff every word reaches j."""
    escapes = [0]
    while len(escapes):
        j = escapes[0]
        ahead, behind = _closure(op.apply_dual, j, op.dim), _closure(op.apply, j, op.dim)
        escapes = np.flatnonzero(ahead & ~behind)
    return bool(behind.all())


def stationary(op: TransferOperator, tol: float = 1e-13) -> StationaryMeasure:
    """Damped dual power iteration to the stationary cylinder distribution.

    Plain power iteration with damping 1/2 (which leaves the fixed point
    unchanged but removes periodicity); no acceleration.  Raises
    ConvergenceError when the l1 residual is still at least ``tol`` after
    ``MAX_POWER_ITERATIONS`` steps.
    """
    if not tol > 0:
        raise ConfigError("tol must be positive")
    pi = np.full(op.dim, 1.0 / op.dim)
    residual = np.inf
    for _ in range(MAX_POWER_ITERATIONS):
        image = op.apply_dual(pi)
        residual = float(np.abs(image - pi).sum())
        if residual < tol:
            pi = image / image.sum()
            break
        pi = 0.5 * pi + 0.5 * image
        pi /= pi.sum()
    else:
        raise ConvergenceError(
            f"dual power iteration did not reach tol={tol} in {MAX_POWER_ITERATIONS} steps",
            residual,
        )
    return StationaryMeasure(op.model, op.window, pi, residual, _is_uniquely_ergodic(op))


def uniqueness_diagnostic(
    model, n_max: int, trunc_memory: int | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """``(oscillation, truncation_error)``, float64 arrays indexed by
    n = 0..n_max: the oscillation sup L^n f - inf L^n f, where f is the
    indicator of the first symbol at coordinate 0, and its truncation error.

    Long-range models are projected onto a finite-memory surrogate with
    memory ``trunc_memory``, which a finite-memory model must not be given;
    the truncation error bounds the drift between the surrogate's
    oscillation and the true one,

        |osc_true(n) - osc_surrogate(n)| <= 2 n |S| (half_width + defect),

    using that the operator is a sup-norm contraction and |f|_inf = 1.
    Convergence of the oscillation to 0 is evidence (not proof) of a unique
    g-chain.
    """
    if n_max < 0:
        raise ConfigError("n_max must be >= 0")
    if isinstance(model, FiniteMemoryModel):
        if trunc_memory is not None:
            raise ConfigError("trunc_memory applies to long-range models only")
        surrogate, defect, half_width = model, 0.0, 0.0
    else:
        if trunc_memory is None:
            raise ConfigError("long-range models need an explicit trunc_memory")
        surrogate, defect, half_width = finite_memory_surrogate(model, trunc_memory)
    op = TransferOperator(surrogate)
    per_step = 2.0 * model.alphabet.size * (half_width + defect)
    oscillation = np.empty(n_max + 1)
    g = indicator(model.alphabet, model.alphabet.symbols[0], op.window)
    for n in range(n_max + 1):
        oscillation[n] = g.max() - g.min()
        if n < n_max:
            g = op.apply(g)
    return oscillation, np.arange(n_max + 1) * per_step
