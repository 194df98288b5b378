"""Exception types shared across the package."""

__all__ = ["SubgaussError", "DomainError", "MgfOverflowError", "ConvergenceError",
           "DependenceError", "CapExceededError"]


class SubgaussError(Exception):
    """Base class for all package-specific errors."""


class DomainError(SubgaussError, ValueError):
    """An argument lies outside the mathematical domain of the operation."""


class MgfOverflowError(SubgaussError, OverflowError):
    """The moment generating function exceeds the largest representable float.

    The log-MGF itself is still finite and computable; only the raw
    exponentiated value overflows.
    """


class ConvergenceError(SubgaussError, RuntimeError):
    """An iterative refinement failed to stabilize within its iteration cap."""


class DependenceError(SubgaussError, ValueError):
    """An operation requiring independent terms was given a dependent sum."""


class CapExceededError(SubgaussError, ValueError):
    """A request exceeds a configured feasibility cap (term count, DP size)."""
