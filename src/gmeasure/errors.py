"""Shared exception types and resource limits."""


class GMeasureError(Exception):
    """Base class for all package errors."""


class ConfigError(GMeasureError):
    """Invalid model, schedule or experiment configuration."""


class BudgetError(GMeasureError):
    """An exact enumeration would exceed the configured state budget."""


class TruncationError(GMeasureError):
    """Accumulated truncation error exceeds the caller's tolerance."""


class ConvergenceError(GMeasureError):
    """An iterative solver did not reach its tolerance within the cap."""

    def __init__(self, message: str, residual: float):
        super().__init__(f"{message} (residual {residual:.3e})")
        self.residual = residual


# Joint-state cap for exact enumerations (block tables, operator lattices).
DEFAULT_BUDGET = 1 << 22


def check_budget(count: int, what: str) -> int:
    """``count``, once it is at most ``DEFAULT_BUDGET``; otherwise raises
    BudgetError with the one-line message "<what> exceeds budget ...", so
    ``what`` names the count (and may quote it)."""
    if count > DEFAULT_BUDGET:
        raise BudgetError(f"{what} exceeds budget {DEFAULT_BUDGET}")
    return count


def _check_power(size: int, exponent: int, what: str) -> int:
    """``size**exponent`` for a size >= 2, through ``check_budget``.  An
    exponent past ``DEFAULT_BUDGET.bit_length()`` is over budget whatever the
    size, so the power is never formed for it."""
    return check_budget(size ** min(exponent, DEFAULT_BUDGET.bit_length()), what)
