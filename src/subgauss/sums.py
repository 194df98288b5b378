"""Subgaussian norm bounds for weighted sums of centered indicators.

For nu = sum of c(j) * X(j) with X(j) centered indicators of probabilities
p(j), the triangle inequality gives the dependence-free bound

    ||nu|| <= sum |c(j)| Q(p(j)),

while independence improves it to the quadratic mixture

    ||nu|| <= sqrt( sum c(j)^2 Q(p(j))^2 ).

Either bound B yields the two-sided tail bound exp(-x^2 / (4 B^2)).  For the
fair-coin unit-weight case the quadratic bound reproduces the classical
Hoeffding tail exp(-x^2 / 2) after the usual sqrt(n)/2 rescaling.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .core import ProbabilityLike, _probability_array, _q_squared, tail_bound_from_norm
from .core import q_norm  # noqa: F401 -- unused, but perfbench/trace_cli.py rebinds it
from .errors import DependenceError, DomainError

__all__ = [
    "BoundKind",
    "SumNormBound",
    "WeightedIndicatorSum",
    "norm_bound_dependent",
    "norm_bound_independent",
    "best_norm_bound",
    "sum_tail_bound",
    "hoeffding_reference_tail",
]


class BoundKind(enum.Enum):
    """Which mixture inequality produced a sum norm bound."""

    TRIANGLE_DEPENDENT = "triangle_dependent"
    QUADRATIC_INDEPENDENT = "quadratic_independent"


@dataclass(frozen=True)
class SumNormBound(object):
    """An upper bound on the subgaussian norm of a weighted sum."""

    value: float
    kind: BoundKind

    def __post_init__(self) -> None:
        if not isinstance(self.kind, BoundKind):
            raise DomainError(f"kind must be a BoundKind, got {self.kind!r}")
        v = float(self.value)
        if math.isnan(v) or v < 0.0:
            raise DomainError(f"bound must be a nonnegative real, got {v!r}")
        object.__setattr__(self, "value", v)

    def __float__(self) -> float:
        return self.value


@dataclass(frozen=True, eq=False)
class WeightedIndicatorSum(object):
    """A finite weighted sum of centered indicators.

    ``coeffs`` holds the finite real weights and ``p_values`` the per-term
    success probabilities, both as read-only float64 arrays validated once
    at construction.  ``independent`` declares whether the indicators are
    jointly independent; with False, only dependence-free results apply
    (the indicators may be coupled arbitrarily).
    """

    coeffs: np.ndarray
    p_values: np.ndarray
    independent: bool = True

    def __init__(
        self,
        coeffs: Iterable[float],
        probs: Iterable[ProbabilityLike],
        independent: bool = True,
    ) -> None:
        if not isinstance(coeffs, np.ndarray):
            coeffs = list(coeffs)
        cs = np.array(coeffs, dtype=float)
        ps = _probability_array(probs)
        if cs.shape != ps.shape:
            raise DomainError(
                f"coefficient/probability length mismatch: {cs.size} vs {ps.size}"
            )
        if len(cs) < 1:
            raise DomainError("a weighted sum needs at least one term")
        if not np.all(np.isfinite(cs)):
            raise DomainError("coefficients must be finite reals")
        cs.setflags(write=False)
        object.__setattr__(self, "coeffs", cs)
        object.__setattr__(self, "p_values", ps)
        object.__setattr__(self, "independent", bool(independent))

    @classmethod
    def iid(cls, n: int, p: ProbabilityLike, coeff: float = 1.0) -> "WeightedIndicatorSum":
        """n independent copies with a common probability and weight."""
        if n < 1:
            raise DomainError(f"need n >= 1 terms, got {n}")
        return cls([coeff] * n, [p] * n, independent=True)

    @property
    def n_terms(self) -> int:
        return len(self.coeffs)

    @property
    def unit_coeffs(self) -> bool:
        return bool(np.all(self.coeffs == 1.0))

    def scaled(self, t: float) -> "WeightedIndicatorSum":
        """The sum with every coefficient multiplied by t."""
        return WeightedIndicatorSum(t * self.coeffs, self.p_values, self.independent)

    @property
    def upper_range(self) -> float:
        """Essential supremum of the sum."""
        c, p = self.coeffs, self.p_values
        return math.fsum(np.maximum(c * (1.0 - p), -c * p).tolist())

    @property
    def lower_range(self) -> float:
        """Essential infimum of the sum."""
        c, p = self.coeffs, self.p_values
        return math.fsum(np.minimum(c * (1.0 - p), -c * p).tolist())

    @property
    def abs_range(self) -> float:
        """Essential supremum of |sum|; the natural end of a tail grid."""
        return max(self.upper_range, -self.lower_range)


def _term_norms(s: WeightedIndicatorSum) -> list[float]:
    """|c(j)| Q(p(j)) for every term, Q on scalar libm (see _q_squared)."""
    return [
        abs(c) * math.sqrt(_q_squared(p))
        for c, p in zip(s.coeffs.tolist(), s.p_values.tolist())
    ]


def norm_bound_dependent(s: WeightedIndicatorSum) -> SumNormBound:
    """Triangle bound sum |c(j)| Q(p(j)); valid under arbitrary dependence.

    fsum accumulation makes the value independent of term order.
    """
    return SumNormBound(math.fsum(_term_norms(s)), BoundKind.TRIANGLE_DEPENDENT)


def norm_bound_independent(s: WeightedIndicatorSum) -> SumNormBound:
    """Quadratic bound sqrt(sum c(j)^2 Q(p(j))^2); needs independence.

    Never exceeds the triangle bound.  Refuses sums declared dependent.
    Squares are taken as v * v, which IEEE 754 rounds correctly; libm
    pow (behind ** 2) need not, and a misrounded square would break the
    bitwise identity bound(2 s) == 2 bound(s).
    """
    if not s.independent:
        raise DependenceError(
            "quadratic bound requires independent terms; "
            "use norm_bound_dependent for arbitrary dependence"
        )
    value = math.fsum(v * v for v in _term_norms(s))
    return SumNormBound(math.sqrt(value), BoundKind.QUADRATIC_INDEPENDENT)


def best_norm_bound(s: WeightedIndicatorSum) -> SumNormBound:
    """The sharpest available bound for the sum's declared dependence."""
    if s.independent:
        return norm_bound_independent(s)
    return norm_bound_dependent(s)


def sum_tail_bound(s: WeightedIndicatorSum, x: float) -> float:
    """Tail bound exp(-x^2 / (4 B^2)) with B the best available norm bound.

    Bounds max(P(sum > x), P(sum < -x)).  Degenerate sums (every term
    almost surely zero, B = 0) admit no bound at positive x.
    """
    bound = best_norm_bound(s)
    return tail_bound_from_norm(bound.value, x)


def hoeffding_reference_tail(n: int, x: float) -> float:
    """Classical Hoeffding tail exp(-x^2 / 2) for the normalized fair-coin sum.

    Applies to 2 S(n) / sqrt(n) with S(n) a sum of n centered fair coins;
    n is accepted for interface symmetry, the bound itself is n-free.
    """
    if int(n) != n or n < 1:
        raise DomainError(f"need a positive integer n, got {n!r}")
    if not (math.isfinite(x) and x >= 0.0):
        raise DomainError(f"threshold must be a finite x >= 0, got {x!r}")
    return math.exp(-(x * x) / 2.0)
