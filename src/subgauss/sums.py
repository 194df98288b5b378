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

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .core import NormMethod, ProbabilityLike, SubgaussianNorm, _binary_scale
from .core import _probability_array, _q_squared, _real_array, tail_bound_from_norm
from .core import q_norm  # noqa: F401 -- unused, but perfbench/trace_cli.py rebinds it
from .errors import DependenceError, DomainError

__all__ = [
    "WeightedIndicatorSum",
    "norm_bound_dependent",
    "norm_bound_independent",
    "best_norm_bound",
    "sum_tail_bound",
    "hoeffding_reference_tail",
]


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
        cs = np.array(_real_array(coeffs, "coefficient"))
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

    def _essential_terms(self, extreme) -> memoryview:
        """Per-term extreme(c (1 - p), -c p), +0.0 for a.s. zero terms.

        A term with p in {0, 1} is almost surely 0, so its other value,
        of probability 0, must not move the essential range.  fsum reads
        the memoryview one float at a time, with no list of them.
        """
        c, p = self.coeffs, self.p_values
        live = (p > 0.0) & (p < 1.0)
        return memoryview(np.where(live, extreme(c * (1.0 - p), -c * p), 0.0))

    @property
    def upper_range(self) -> float:
        """Essential supremum of the sum."""
        return math.fsum(self._essential_terms(np.maximum))

    @property
    def lower_range(self) -> float:
        """Essential infimum of the sum."""
        return math.fsum(self._essential_terms(np.minimum))

    @property
    def abs_range(self) -> float:
        """Essential supremum of |sum|; the natural end of a tail grid."""
        return max(self.upper_range, -self.lower_range)


def _term_norms(s: WeightedIndicatorSum) -> np.ndarray:
    """|c(j)| Q(p(j)) for every term; each Q is bitwise the q_norm value."""
    return np.abs(s.coeffs) * np.sqrt(_q_squared(s.p_values))


def norm_bound_dependent(s: WeightedIndicatorSum) -> SubgaussianNorm:
    """Triangle bound sum |c(j)| Q(p(j)); valid under arbitrary dependence.

    fsum accumulation makes the value independent of term order.
    """
    return SubgaussianNorm(math.fsum(memoryview(_term_norms(s))),
                           NormMethod.TRIANGLE_DEPENDENT)


def norm_bound_independent(s: WeightedIndicatorSum) -> SubgaussianNorm:
    """Quadratic bound sqrt(sum c(j)^2 Q(p(j))^2); needs independence.

    Never exceeds the triangle bound.  Refuses sums declared dependent.
    Squares are taken as v * v, which IEEE 754 rounds correctly; libm
    pow (behind ** 2) need not, and a misrounded square would break the
    bitwise identity bound(2 s) == 2 bound(s).  Term norms whose largest
    lies outside [2^-500, 2^500] are scaled by a power of two before
    squaring, so their squares neither underflow nor overflow.
    """
    if not s.independent:
        raise DependenceError(
            "quadratic bound requires independent terms; "
            "use norm_bound_dependent for arbitrary dependence"
        )
    v = _term_norms(s)
    k = _binary_scale(float(v.max()))
    if k:
        v = np.ldexp(v, -k)
    value = math.ldexp(math.sqrt(math.fsum(memoryview(v * v))), k)
    return SubgaussianNorm(value, NormMethod.QUADRATIC_INDEPENDENT)


def best_norm_bound(s: WeightedIndicatorSum) -> SubgaussianNorm:
    """The sharpest available bound for the sum's declared dependence."""
    if s.independent:
        return norm_bound_independent(s)
    return norm_bound_dependent(s)


def sum_tail_bound(s: WeightedIndicatorSum, x):
    """Tail bound exp(-x^2 / (4 B^2)) with B the best available norm bound.

    Bounds max(P(sum > x), P(sum < -x)); x may be an array, as in
    tail_bound_from_norm.  Degenerate sums (B = 0) admit no bound at x > 0.
    """
    return tail_bound_from_norm(best_norm_bound(s), x)


def hoeffding_reference_tail(x: float) -> float:
    """Classical Hoeffding tail exp(-x^2 / 2) for the normalized fair-coin sum.

    Applies to 2 S(n) / sqrt(n) with S(n) a sum of n centered fair coins,
    for every n.
    """
    if not (math.isfinite(x) and x >= 0.0):
        raise DomainError(f"threshold must be a finite x >= 0, got {x!r}")
    return math.exp(-(x * x) / 2.0)
