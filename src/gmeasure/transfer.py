"""Transfer operator for finite-memory g-models.

The operator acts on functions of finitely many leading coordinates by
averaging over one-symbol extensions weighted by g:

    (L f)(x) = sum_s g(s x) * f(s x).

For a model with memory M the operator acts on functions of its own window of
W = max(M, 1) coordinates; its dual fixed point is a stationary g-measure
restricted to length-W cylinders.  Uniqueness of the g-chain is *diagnosed*
(never proved) through the decay of the oscillation of L^n f.

Functions over S^W are indexed lexicographically, numpy's C order over
(|S|,) * W, so f at the extension s.v of u = v.t is f reshaped to
(|S|, |S|^(W-1)) at [s, v].  The (|S|, |S|^W) weight array, weight[s, u] =
g(s.u[:M]), is a view of the table (for M = 0 its |S| entries broadcast along
the window); it and one scratch array of that shape (so one thread at a time)
are read by ``apply`` and ``apply_dual``.  The loops of ``stationary``, its
uniqueness flag (both actions on 0/1 vectors) and ``uniqueness_diagnostic``
pass preallocated results as ``_out``: no step allocates an |S|^W array.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ConvergenceError, _check_power
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
    """Exact action of the transfer operator on S^window, window = max(memory, 1)."""

    def __init__(self, model: FiniteMemoryModel):
        if not isinstance(model, FiniteMemoryModel):
            raise ConfigError("the exact transfer operator needs a finite-memory model")
        self.model = model
        size = model.alphabet.size
        self.window = max(model.memory, 1)
        self.dim = _check_power(size, self.window, f"state dimension {size}^{self.window}")
        self.weight = np.broadcast_to(model.table.reshape(size, -1), (size, self.dim))
        self._terms = np.empty(self.weight.shape)

    def _vector(self, x: np.ndarray, name: str) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.shape != (self.dim,):
            raise ConfigError(f"{name} must have shape ({self.dim},), got {x.shape}")
        return x

    def apply(self, f: np.ndarray, _out: np.ndarray | None = None) -> np.ndarray:
        f = self._vector(f, "function")
        size, terms = self.model.alphabet.size, self._terms
        # [s, v, t]: f at the extension s.v of word v.t, for every t
        np.stack([f.reshape(size, -1)] * size, axis=-1, out=terms.reshape(size, -1, size))
        np.multiply(self.weight, terms, out=terms)
        return np.add.reduce(terms, axis=0, out=_out)

    def apply_dual(self, pi: np.ndarray, _out: np.ndarray | None = None) -> np.ndarray:
        pi = self._vector(pi, "distribution")
        size = self.model.alphabet.size
        # [s, t, v]: the mass word v.t sends to s.v, so the slice of each t is
        # contiguous; the slices are added in order onto zeros
        terms = self._terms.reshape(size, size, -1)
        np.multiply(self.weight.reshape(size, -1, size).transpose(0, 2, 1),
                    pi.reshape(-1, size).T, out=terms)
        image = np.empty(self.dim) if _out is None else _out
        grouped = image.reshape(size, -1)  # [s, v]
        grouped[...] = 0.0
        for t in range(size):
            grouped += terms[:, t]
        return image


def apply_Ln(op: TransferOperator, f: np.ndarray, n: int) -> np.ndarray:
    """n-fold application; n = 0 returns f unchanged."""
    if n < 0:
        raise ConfigError("n must be >= 0")
    out = op._vector(f, "function")
    for _ in range(n):
        out = op.apply(out)
    return out


@dataclass
class StationaryMeasure:
    """Fixed point of the dual operator on length-``window`` cylinders, window = max(M, 1)."""

    model: FiniteMemoryModel
    window: int
    probs: np.ndarray
    residual: float
    unique: bool


def _closure(step, j: int, values: np.ndarray, image: np.ndarray, edge: np.ndarray) -> np.ndarray:
    """Words joined to word j by chains of edges, grown one ``step`` at a time
    until the set stops growing; ``values``, ``image`` and ``edge`` are scratch."""
    reached, count = np.arange(len(values)) == j, 0
    while count < np.count_nonzero(reached):
        count = np.count_nonzero(reached)
        values[...] = reached
        reached |= np.greater(step(values, image), 0.0, out=edge)
    return reached


def _is_uniquely_ergodic(op: TransferOperator) -> bool:
    """True iff the cylinder chain has exactly one closed communicating class.

    On a 0/1 vector, ``apply`` marks the words with an edge into its set and
    ``apply_dual`` the words its set has an edge to.  A word that j reaches
    but that cannot reach j back reaches strictly fewer words, so moving j
    there ends at a closed class, the only one iff every word reaches j."""
    scratch = np.empty(op.dim), np.empty(op.dim), np.empty(op.dim, dtype=bool)
    escapes = [0]
    while len(escapes):
        j = escapes[0]
        ahead, behind = _closure(op.apply_dual, j, *scratch), _closure(op.apply, j, *scratch)
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
    pi, image, gap = np.full(op.dim, 1.0 / op.dim), np.empty(op.dim), np.empty(op.dim)
    residual = np.inf
    for _ in range(MAX_POWER_ITERATIONS):
        op.apply_dual(pi, image)
        residual = float(np.abs(np.subtract(image, pi, out=gap), out=gap).sum())
        if residual < tol:
            pi = image / image.sum()
            break
        # 0.5 * pi + 0.5 * image in place, operations and order unchanged
        np.add(np.multiply(0.5, pi, out=pi), np.multiply(0.5, image, out=image), out=pi)
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
    image = np.empty_like(g)
    for n in range(n_max + 1):
        oscillation[n] = g.max() - g.min()
        if n < n_max:
            g, image = op.apply(g, image), g
    return oscillation, np.arange(n_max + 1) * per_step
