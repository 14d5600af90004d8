"""Transfer operator for finite-memory g-models.

The operator acts on functions of finitely many leading coordinates by
averaging over one-symbol extensions weighted by g:

    (L f)(x) = sum_s g(s x) * f(s x).

For a model with memory M the operator is closed on functions of W >= max(M, 1)
coordinates; its dual fixed point is a stationary g-measure restricted to
length-W cylinders.  Uniqueness of the g-chain is *diagnosed* (never proved)
through the decay of the oscillation of L^n f.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BudgetError, ConfigError, ConvergenceError, DEFAULT_BUDGET
from .gmodel import (
    Alphabet,
    FiniteMemoryModel,
    Word,
    encode,
    finite_memory_surrogate,
)

__all__ = [
    "TransferOperator",
    "StationaryMeasure",
    "indicator",
    "apply_Ln",
    "stationary",
    "uniqueness_diagnostic",
    "DiagnosticPoint",
]

MAX_POWER_ITERATIONS = 100_000


def indicator(alphabet: Alphabet, symbol: str, window: int = 1) -> np.ndarray:
    """Indicator of ``symbol`` at coordinate 0, as a vector over S^window."""
    size = alphabet.size
    f = np.zeros(size**window)
    s = alphabet.index(symbol)
    block = size ** (window - 1)
    f[s * block : (s + 1) * block] = 1.0
    return f


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
        if size**self.window > DEFAULT_BUDGET:
            raise BudgetError(
                f"state dimension {size}^{self.window} exceeds budget {DEFAULT_BUDGET}"
            )
        self.dim = size**self.window
        u = np.arange(self.dim)
        # f-index of the extension s.u[:window-1] and its g-weight g(s.u[:memory])
        self._src = [s * size ** (self.window - 1) + u // size for s in range(size)]
        self._weight = [
            model.table[s * size**model.memory + u // size ** (self.window - model.memory)]
            for s in range(size)
        ]

    def apply(self, f: np.ndarray) -> np.ndarray:
        f = np.asarray(f, dtype=float)
        if f.shape != (self.dim,):
            raise ConfigError(f"function must have shape ({self.dim},), got {f.shape}")
        out = np.zeros(self.dim)
        for src, w in zip(self._src, self._weight):
            out += w * f[src]
        return out

    def apply_dual(self, pi: np.ndarray) -> np.ndarray:
        out = np.zeros(self.dim)
        for src, w in zip(self._src, self._weight):
            np.add.at(out, src, w * pi)
        return out


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

    def prob(self, word: Word) -> float:
        """Cylinder probability of ``word`` (anchor-free by shift invariance)."""
        idx = self.model.alphabet.indices(word.symbols)
        size = self.model.alphabet.size
        k = len(idx)
        if k == 0:
            return 1.0
        if k < self.window:
            grouped = self.probs.reshape(size**k, -1)
            return float(grouped[encode(idx, size)].sum())
        p = float(self.probs[encode(idx[k - self.window :], size)])
        for i in range(k - self.window - 1, -1, -1):
            value, err = self.model.eval_indices(idx[i : i + self.model.memory + 1])
            if err != 0.0:
                raise ConfigError("stationary extension needs full memory windows")
            p *= value
        return p


def _is_uniquely_ergodic(op: TransferOperator) -> bool:
    """True iff the cylinder chain has exactly one closed communicating class."""
    # ~0.2 s to import; only this check needs them
    from scipy.sparse import coo_matrix
    from scipy.sparse.csgraph import connected_components

    mask = np.concatenate(op._weight) > 0
    rows = np.concatenate([np.arange(op.dim)] * op.model.alphabet.size)[mask]
    cols = np.concatenate(op._src)[mask]
    adj = coo_matrix((np.ones(len(rows)), (rows, cols)), shape=(op.dim, op.dim))
    n_comp, labels = connected_components(adj, directed=True, connection="strong")
    src_class, dst_class = labels[rows], labels[cols]
    # a class is closed unless one of its edges leaves it
    return n_comp - len(np.unique(src_class[src_class != dst_class])) == 1


def stationary(op: TransferOperator, tol: float = 1e-13) -> StationaryMeasure:
    """Damped dual power iteration to the stationary cylinder distribution.

    Plain power iteration with damping 1/2 (which leaves the fixed point
    unchanged but removes periodicity); no acceleration.  Raises
    ConvergenceError when the l1 residual is still at least ``tol`` after
    ``MAX_POWER_ITERATIONS`` steps.
    """
    if tol <= 0:
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


@dataclass(frozen=True)
class DiagnosticPoint:
    n: int
    oscillation: float
    truncation_error: float


def uniqueness_diagnostic(
    model, n_max: int, trunc_memory: int | None = None
) -> list[DiagnosticPoint]:
    """Oscillation sup L^n f - inf L^n f for n = 0..n_max, where f is the
    indicator of the first symbol at coordinate 0.

    Long-range models are projected onto a finite-memory surrogate with
    memory ``trunc_memory``; the reported truncation error bounds the drift
    between the surrogate's oscillation and the true one,

        |osc_true(n) - osc_surrogate(n)| <= 2 n |S| (half_width + defect),

    using that the operator is a sup-norm contraction and |f|_inf = 1.
    Convergence of the oscillation to 0 is evidence (not proof) of a unique
    g-chain.
    """
    if n_max < 0:
        raise ConfigError("n_max must be >= 0")
    if isinstance(model, FiniteMemoryModel):
        surrogate, defect, half_width = model, 0.0, 0.0
    else:
        if trunc_memory is None:
            raise ConfigError("long-range models need an explicit trunc_memory")
        # the operator's own check, made before the surrogate is built
        if model.alphabet.size ** max(trunc_memory, 1) > DEFAULT_BUDGET:
            raise BudgetError(
                f"surrogate dimension {model.alphabet.size}^{trunc_memory} "
                f"exceeds budget {DEFAULT_BUDGET}"
            )
        surrogate, defect, half_width = finite_memory_surrogate(model, trunc_memory)
    op = TransferOperator(surrogate)
    per_step = 2.0 * model.alphabet.size * (half_width + defect)
    rows = []
    g = indicator(model.alphabet, model.alphabet.symbols[0], op.window)
    for n in range(n_max + 1):
        rows.append(DiagnosticPoint(n, float(g.max() - g.min()), n * per_step))
        if n < n_max:
            g = op.apply(g)
    return rows
