"""Exact subgaussian norm of centered indicator variables.

A centered indicator with success probability p takes the value 1 - p with
probability p and the value -p with probability 1 - p.  Its subgaussian norm,
defined as

    sup over nonzero t of sqrt(log E exp(t * X)) / |t|,

admits the closed form

    Q(p) = sqrt( (1 - 2p) / (4 * log((1 - p) / p)) ),

with the removable singularity Q(1/2) = sqrt(1/8) and endpoint values
Q(0) = Q(1) = 0.  Equivalently, exp(Q(p)^2 t^2) dominates the moment
generating function for every real t (the Kearns-Saul inequality), with
equality in the defining sup attained at t = 2 * log((1 - p) / p).

This module provides the closed form, the moment generating function in a
numerically stable form, the normalized log-MGF profile g(t) = log-MGF / t^2
whose supremum is Q(p)^2, a grid-plus-golden-section numeric evaluator of the
norm for arbitrary log-MGF curves, companion norms (absolute moments, the
moment-growth norm sup |X|_s / sqrt(s), the non-centered combination), and
the standard tail bound exp(-x^2 / (4 tau^2)) together with its converse.
"""

from __future__ import annotations

import enum
import math
import sys
import warnings
from dataclasses import dataclass, field
from typing import Callable, Union

import numpy as np

from .errors import ConvergenceError, DomainError, MgfOverflowError
from .optimize import golden_section_argmax

__all__ = [
    "Probability",
    "CenteredIndicator",
    "NormMethod",
    "SubgaussianNorm",
    "LogMgfCurve",
    "NumericSupConfig",
    "as_probability",
    "as_indicator",
    "q_norm",
    "q_asymptotic",
    "mgf",
    "log_mgf",
    "log_mgf_values",
    "g_values",
    "kearns_saul_gap",
    "lambda_star",
    "g_value",
    "subgaussian_norm_numeric",
    "moment_abs",
    "gls_norm",
    "noncentered_norm",
    "tail_bound_from_norm",
    "norm_bound_from_tail",
]

# Largest finite log-MGF whose exponential is still representable.
_LOG_MAX_FLOAT = math.log(sys.float_info.max)

# Switch to the Taylor series of Q^2 inside this window around p = 1/2.
_Q_SERIES_HALF_WIDTH = 1e-5

# Switch the log-MGF to its cumulant series below this |t|; keeps the
# relative error of t^-2 * log-MGF near machine precision as t -> 0.
_SERIES_CUTOFF = 1e-3


def _stable_log_odds(p: float) -> float:
    """log((1 - p) / p) without forming the ratio.

    Evaluated on the p <= 1/2 side and reflected, so the antisymmetry
    log_odds(1 - p) = -log_odds(p) is exact whenever 1 - p is exact.
    """
    if p > 0.5:
        return -_stable_log_odds(1.0 - p)  # 1 - p is exact here
    if p == 0.5:
        return 0.0
    if p == 0.0:
        return math.inf
    return math.log1p(-p) - math.log(p)


@dataclass(frozen=True)
class Probability(object):
    """A success probability in [0, 1] with a precomputed stable log-odds.

    Rejects NaN and out-of-range values at construction.  ``log_odds`` is
    log((1 - p) / p), computed through log1p so it stays accurate near both
    endpoints; it is +inf at p = 0 and -inf at p = 1.
    """

    p: float
    log_odds: float = field(init=False, repr=False)

    def __post_init__(self) -> None:
        p = self.p
        if isinstance(p, bool) or not isinstance(p, (int, float)):
            raise DomainError(f"probability must be a real number, got {p!r}")
        p = float(p)
        if math.isnan(p) or p < 0.0 or p > 1.0:
            raise DomainError(f"probability must lie in [0, 1], got {p!r}")
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "log_odds", _stable_log_odds(p))

    @property
    def complement(self) -> float:
        return 1.0 - self.p


ProbabilityLike = Union["Probability", float, int]


def as_probability(p: ProbabilityLike) -> Probability:
    """Coerce a float or Probability to a Probability."""
    if isinstance(p, Probability):
        return p
    return Probability(float(p))


def _probability_array(probs) -> np.ndarray:
    """Read-only float64 copy of 1-d probabilities; names the first bad one."""
    if not isinstance(probs, np.ndarray):
        probs = [p.p if isinstance(p, Probability) else p for p in probs]
    ps = np.array(probs, dtype=float)
    if ps.ndim != 1:
        raise DomainError(f"probabilities must form a 1-d sequence, got shape {ps.shape}")
    bad = ~((ps >= 0.0) & (ps <= 1.0))
    if bad.any():
        first = float(ps[np.argmax(bad)])
        raise DomainError(f"probability must lie in [0, 1], got {first!r}")
    ps.setflags(write=False)
    return ps


class NormMethod(enum.Enum):
    """How a subgaussian norm value was obtained."""

    CLOSED_FORM = "closed_form"
    NUMERIC_SUP = "numeric_sup"
    BOUND_ONLY = "bound_only"


@dataclass(frozen=True)
class SubgaussianNorm(object):
    """A subgaussian norm value tagged with its provenance."""

    value: float
    method: NormMethod

    def __post_init__(self) -> None:
        if not isinstance(self.method, NormMethod):
            raise DomainError(f"method must be a NormMethod, got {self.method!r}")
        v = float(self.value)
        if math.isnan(v) or v < 0.0:
            raise DomainError(f"norm value must be a nonnegative real, got {v!r}")
        object.__setattr__(self, "value", v)

    def __float__(self) -> float:
        return self.value


@dataclass(frozen=True)
class CenteredIndicator(object):
    """The centered indicator: 1 - p with probability p, else -p."""

    prob: Probability

    def __post_init__(self) -> None:
        object.__setattr__(self, "prob", as_probability(self.prob))

    @property
    def p(self) -> float:
        return self.prob.p

    @property
    def mean(self) -> float:
        return 0.0

    @property
    def variance(self) -> float:
        return self.prob.p * self.prob.complement

    @property
    def support(self) -> tuple[float, float]:
        """(value on success, value on failure)."""
        return (1.0 - self.prob.p, -self.prob.p)

    def log_mgf_curve(self) -> "LogMgfCurve":
        """The exact log-MGF of this variable as a reusable curve object."""
        p = self.prob.p
        hint = 0.0
        if 0.0 < p < 1.0:
            hint = 4.0 * abs(2.0 * self.prob.log_odds)
        return LogMgfCurve(
            fn=lambda lam: log_mgf_values(p, lam),
            variance=self.variance,
            lambda_hint=hint,
        )


IndicatorLike = Union[CenteredIndicator, Probability, float, int]


def as_indicator(ind: IndicatorLike) -> CenteredIndicator:
    """Coerce a float, Probability, or CenteredIndicator to an indicator."""
    if isinstance(ind, CenteredIndicator):
        return ind
    return CenteredIndicator(as_probability(ind))


@dataclass(frozen=True)
class LogMgfCurve(object):
    """A log moment generating function t -> log E exp(t * X) on all reals.

    ``fn`` must accept a float ndarray and return matching values; it must
    evaluate to 0 at t = 0.  ``variance`` optionally supplies the exact
    variance of X, which makes the t -> 0 limit of log-MGF / t^2 available
    to the numeric norm as an exact candidate.  ``lambda_hint`` optionally
    widens the default search window up to that |t|.
    """

    fn: Callable[[np.ndarray], np.ndarray]
    variance: float | None = None
    lambda_hint: float | None = None

    def __call__(self, lam) -> np.ndarray:
        return np.asarray(self.fn(np.asarray(lam, dtype=float)), dtype=float)

    def at(self, lam: float) -> float:
        return float(self(lam))


def _q_squared(p: float) -> float:
    """Q(p)^2 on scalar libm: numpy's log/log1p round some p differently."""
    if p == 0.0 or p == 1.0:
        return 0.0
    eps = p - 0.5
    if abs(eps) < _Q_SERIES_HALF_WIDTH:
        e2 = eps * eps
        # 1/(1 + (4/3) e^2 + (16/5) e^4 + ...) expanded to two corrections;
        # truncation is below 1e-30 inside the window.
        return 0.125 * (1.0 - e2 * (4.0 / 3.0 + e2 * (64.0 / 45.0)))
    return (1.0 - 2.0 * p) / (4.0 * _stable_log_odds(p))


def q_norm(p: ProbabilityLike) -> SubgaussianNorm:
    """Exact subgaussian norm Q(p) of the centered indicator.

    Q(p) = sqrt((1 - 2p) / (4 log((1 - p)/p))), extended continuously by
    Q(1/2) = sqrt(1/8) and Q(0) = Q(1) = 0.  Symmetric about p = 1/2,
    increasing on [0, 1/2], and bounded by the Hoeffding constant sqrt(1/8).
    """
    p = as_probability(p).p
    return SubgaussianNorm(math.sqrt(_q_squared(p)), NormMethod.CLOSED_FORM)


def q_asymptotic(p: ProbabilityLike) -> float:
    """Small-p approximation 0.5 / sqrt(|log p|), reflected for p > 1/2.

    Q(p) / q_asymptotic(p) -> 1 as p -> 0 or p -> 1.  Undefined at
    p in {0, 1/2, 1}.
    """
    prob = as_probability(p)
    m = min(prob.p, prob.complement)
    if m == 0.0 or prob.p == 0.5:
        raise DomainError(f"asymptotic norm undefined at p = {prob.p}")
    return 0.5 / math.sqrt(-math.log(m))


def _bernoulli_cumulants(p: float) -> tuple[float, float, float, float, float]:
    """Cumulants kappa_2 .. kappa_6 of the centered indicator."""
    q = 1.0 - p
    pq = p * q
    d = 1.0 - 2.0 * p
    k2 = pq
    k3 = pq * d
    k4 = pq * (1.0 - 6.0 * pq)
    k5 = pq * d * (1.0 - 12.0 * pq)
    k6 = pq * (1.0 - 30.0 * pq + 120.0 * pq * pq)
    return k2, k3, k4, k5, k6


def _g_series(p: float, lam: np.ndarray) -> np.ndarray:
    """Cumulant series of log-MGF / t^2, accurate for |t| <= _SERIES_CUTOFF."""
    k2, k3, k4, k5, k6 = _bernoulli_cumulants(p)
    return k2 / 2.0 + lam * (
        k3 / 6.0 + lam * (k4 / 24.0 + lam * (k5 / 120.0 + lam * (k6 / 720.0)))
    )


def log_mgf_values(p: ProbabilityLike, lam) -> np.ndarray:
    """Vectorized log E exp(t * X) for the centered indicator, X as above.

    Uses log-sum-exp of the two support terms, switching to the cumulant
    series for |t| <= 1e-3 so that the result keeps full relative accuracy
    as t -> 0 (plain log-sum-exp only bounds the absolute error, which is
    fatal after dividing by t^2).
    """
    prob = as_probability(p)
    lam = np.asarray(lam, dtype=float)
    pv = prob.p
    if pv == 0.0 or pv == 1.0:
        return np.zeros_like(lam)
    small = np.abs(lam) <= _SERIES_CUTOFF
    with np.errstate(invalid="ignore"):
        direct = np.logaddexp(
            math.log(pv) + lam * prob.complement,
            math.log1p(-pv) - lam * pv,
        )
    return np.where(small, lam * lam * _g_series(pv, lam), direct)


def g_values(p: ProbabilityLike, lam) -> np.ndarray:
    """Vectorized g(t) = log-MGF / t^2, with the exact limit value at t = 0."""
    prob = as_probability(p)
    lam = np.asarray(lam, dtype=float)
    pv = prob.p
    if pv == 0.0 or pv == 1.0:
        return np.zeros_like(lam)
    small = np.abs(lam) <= _SERIES_CUTOFF
    with np.errstate(invalid="ignore", divide="ignore"):
        direct = log_mgf_values(prob, lam) / (lam * lam)
    return np.where(small, _g_series(pv, lam), direct)


def log_mgf(ind: IndicatorLike, lam: float) -> float:
    """log E exp(t * X) at a single t; finite for every finite t."""
    indicator = as_indicator(ind)
    if not math.isfinite(lam):
        raise DomainError(f"t must be finite, got {lam!r}")
    if lam == 0.0:
        return 0.0
    return float(log_mgf_values(indicator.prob, lam))


def mgf(ind: IndicatorLike, lam: float) -> float:
    """E exp(t * X) = p exp(t(1-p)) + (1-p) exp(-tp).

    Raises MgfOverflowError when the value exceeds the float range even
    though the log-MGF itself is finite; use log_mgf there instead.
    """
    k = log_mgf(ind, lam)
    if k > _LOG_MAX_FLOAT:
        raise MgfOverflowError(
            f"mgf overflows float range (log-mgf = {k!r}); use log_mgf"
        )
    return math.exp(k)


def kearns_saul_gap(p: ProbabilityLike, lam: float) -> float:
    """Slack Q(p)^2 t^2 - log-MGF(t) of the Kearns-Saul inequality.

    Nonnegative for every real t, with equality at t = 0 and at the
    extremal point t = 2 log((1-p)/p).  Always computed in log domain, so
    it stays finite where the raw MGF would overflow.
    """
    prob = as_probability(p)
    if not math.isfinite(lam):
        raise DomainError(f"t must be finite, got {lam!r}")
    return _q_squared(prob.p) * lam * lam - float(log_mgf_values(prob, lam))


def lambda_star(p: ProbabilityLike) -> float:
    """Extremal point t = 2 log((1 - p) / p) of the defining supremum.

    Positive for p < 1/2, zero at p = 1/2, undefined at the endpoints.
    """
    prob = as_probability(p)
    if prob.p == 0.0 or prob.p == 1.0:
        raise DomainError(f"extremal point undefined at p = {prob.p}")
    return 2.0 * prob.log_odds


def g_value(p: ProbabilityLike, lam: float, limit_at_zero: bool = False) -> float:
    """Normalized profile g(t) = log-MGF(t) / t^2 at a single t.

    g is unimodal with supremum Q(p)^2, attained at t = 2 log((1-p)/p).
    t = 0 is outside the domain; passing limit_at_zero=True extends g there
    by its limit p(1-p)/2.
    """
    prob = as_probability(p)
    if not math.isfinite(lam):
        raise DomainError(f"t must be finite, got {lam!r}")
    if lam == 0.0:
        if not limit_at_zero:
            raise DomainError("g undefined at t = 0; pass limit_at_zero=True")
        return prob.p * prob.complement / 2.0
    return float(g_values(prob, lam))


@dataclass(frozen=True)
class NumericSupConfig(object):
    """Search window and refinement settings for the numeric norm.

    The grid spans |t| in [lambda_min, lambda_max] log-spaced on both signs;
    a curve's lambda_hint can widen lambda_max.  Golden-section refinement
    runs to the given interval tolerance, erroring out past max_iter.
    """

    lambda_min: float = 1e-8
    lambda_max: float = 60.0
    grid_points: int = 160
    tol: float = 1e-12
    max_iter: int = 200

    def __post_init__(self) -> None:
        if not (0.0 < self.lambda_min < self.lambda_max):
            raise DomainError("need 0 < lambda_min < lambda_max")
        if self.grid_points < 4:
            raise DomainError("grid_points must be at least 4")


def subgaussian_norm_numeric(
    curve: LogMgfCurve,
    config: NumericSupConfig | None = None,
) -> SubgaussianNorm:
    """Numeric subgaussian norm sqrt(sup g) of an arbitrary log-MGF curve.

    Evaluates g = curve / t^2 on a sign-symmetric log-spaced grid, refines
    the best cell by golden-section search, and includes the exact t -> 0
    variance limit as a candidate when the curve declares its variance.
    The reported value is a lower bound of the true supremum; for unimodal
    g inside the window it matches the supremum to roughly the accuracy of
    the curve evaluations themselves.
    """
    if not isinstance(curve, LogMgfCurve):
        curve = LogMgfCurve(fn=curve)
    cfg = config or NumericSupConfig()
    at_zero = curve.at(0.0)
    if not abs(at_zero) <= 1e-12:
        raise DomainError(f"log-MGF curve must vanish at t = 0, got {at_zero!r}")

    lam_max = cfg.lambda_max
    if curve.lambda_hint:
        lam_max = max(lam_max, float(curve.lambda_hint))
    grid = np.geomspace(cfg.lambda_min, lam_max, cfg.grid_points)

    best = -math.inf
    if curve.variance is not None:
        best = 0.5 * float(curve.variance)

    def g_at(t: float) -> float:
        return curve.at(t) / (t * t)

    for sign in (1.0, -1.0):
        lams = sign * grid
        g = curve(lams) / (lams * lams)
        if not np.all(np.isfinite(g)):
            raise DomainError("log-MGF curve is not finite on the search window")
        i = int(np.argmax(g))
        best = max(best, float(g[i]))
        lo = lams[max(i - 1, 0)]
        hi = lams[min(i + 1, len(lams) - 1)]
        lo, hi = min(lo, hi), max(lo, hi)
        res = golden_section_argmax(g_at, lo, hi, tol=cfg.tol, max_iter=cfg.max_iter)
        if not res.converged:
            raise ConvergenceError(
                f"norm refinement stalled at interval width {res.width!r} "
                f"after {res.iterations} iterations"
            )
        best = max(best, res.value)

    return SubgaussianNorm(math.sqrt(max(best, 0.0)), NormMethod.NUMERIC_SUP)


def moment_abs(ind: IndicatorLike, s: float) -> float:
    """Absolute moment norm |X|_s = (E |X|^s)^(1/s), s >= 1.

    For the centered indicator this is (p (1-p)^s + (1-p) p^s)^(1/s),
    evaluated in log space so large s cannot underflow term-by-term.
    """
    indicator = as_indicator(ind)
    if not (math.isfinite(s) and s >= 1.0):
        raise DomainError(f"moment order must satisfy s >= 1, got {s!r}")
    p = indicator.p
    if p == 0.0 or p == 1.0:
        return 0.0
    lp = math.log(p)
    lq = math.log1p(-p)
    return math.exp(np.logaddexp(lp + s * lq, lq + s * lp) / s)


def gls_norm(
    ind: IndicatorLike,
    s_max: float | None = None,
    grid_points: int = 512,
) -> float:
    """Moment-growth norm sup over s >= 1 of |X|_s / sqrt(s).

    Equivalent to the subgaussian norm up to universal constant factors.
    Maximizes on a log-spaced s grid (default upper end
    max(8, 4 |log min(p, 1-p)|), sized so the interior maximum
    ~ 2 |log min(p, 1-p)| is covered) with golden-section refinement.
    Warns when the maximizer lands on the s_max boundary, which signals a
    window too small for the requested p.
    """
    indicator = as_indicator(ind)
    p = indicator.p
    if p == 0.0 or p == 1.0:
        return 0.0
    if s_max is None:
        s_max = max(8.0, 4.0 * abs(math.log(min(p, 1.0 - p))))
    if not (math.isfinite(s_max) and s_max > 1.0):
        raise DomainError(f"s_max must exceed 1, got {s_max!r}")
    lp = math.log(p)
    lq = math.log1p(-p)

    def log_f(t: np.ndarray) -> np.ndarray:
        # log of |X|_s / sqrt(s) at s = exp(t)
        s = np.exp(t)
        return np.logaddexp(lp + s * lq, lq + s * lp) / s - 0.5 * t

    ts = np.linspace(0.0, math.log(s_max), grid_points)
    vals = log_f(ts)
    i = int(np.argmax(vals))
    lo = ts[max(i - 1, 0)]
    hi = ts[min(i + 1, len(ts) - 1)]
    res = golden_section_argmax(lambda t: float(log_f(np.asarray(t))), lo, hi, tol=1e-12)
    best = max(float(vals[i]), res.value)
    if i == len(ts) - 1:
        warnings.warn(
            f"moment-growth sup attained at the s_max = {s_max} boundary; "
            "increase s_max",
            RuntimeWarning,
            stacklevel=2,
        )
    return math.exp(best)


def noncentered_norm(centered: SubgaussianNorm | float, mean: float) -> SubgaussianNorm:
    """Norm of mean + X from the norm of the centered part X.

    Combines in quadrature: sqrt(centered^2 + mean^2).  The method tag is
    inherited from the centered input; a bare float is treated as an exact
    closed-form value.
    """
    if isinstance(centered, SubgaussianNorm):
        value, method = centered.value, centered.method
    else:
        value, method = float(centered), NormMethod.CLOSED_FORM
    if not (math.isfinite(value) and value >= 0.0):
        raise DomainError(f"centered norm must be a nonnegative real, got {value!r}")
    if not math.isfinite(mean):
        raise DomainError(f"mean must be finite, got {mean!r}")
    return SubgaussianNorm(math.hypot(value, mean), method)


def tail_bound_from_norm(tau: SubgaussianNorm | float, x: float) -> float:
    """Two-sided tail bound exp(-x^2 / (4 tau^2)) from a subgaussian norm.

    Bounds max(P(X > x), P(X < -x)) for any centered X with norm tau.
    Decreasing in x, equal to 1 at x = 0.  A zero norm admits no bound at
    positive x (the bound degenerates), which is reported as a domain error.
    """
    t = tau.value if isinstance(tau, SubgaussianNorm) else float(tau)
    if math.isnan(t) or t < 0.0:
        raise DomainError(f"norm must be a nonnegative real, got {tau!r}")
    if not (math.isfinite(x) and x >= 0.0):
        raise DomainError(f"threshold must be a finite x >= 0, got {x!r}")
    if x == 0.0:
        return 1.0
    if t == 0.0:
        raise DomainError("tail bound undefined for zero norm at positive x")
    return math.exp(-(x * x) / (4.0 * t * t))


def norm_bound_from_tail(k: float) -> SubgaussianNorm:
    """Converse direction: a tail bound exp(-x^2 / K^2) implies norm < 4K.

    The factor 4 is conservative but universal; the result is tagged
    bound_only to keep it distinguishable from exact values.
    """
    if not (math.isfinite(k) and k > 0.0):
        raise DomainError(f"tail scale K must be a positive real, got {k!r}")
    return SubgaussianNorm(4.0 * k, NormMethod.BOUND_ONLY)
