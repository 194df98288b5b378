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
from dataclasses import dataclass
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
    "as_probability",
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

# Switch the log-MGF to its cumulant series below this |t|; keeps the
# relative error of t^-2 * log-MGF near machine precision as t -> 0.
_SERIES_CUTOFF = 1e-3


def _log_odds(p):
    """log((1 - p) / p) for a float or an array of p in [0, 1].

    Evaluated on m = min(p, 1 - p) and given the sign of 1/2 - p; 1 - p is
    exact for p > 1/2, so log_odds(1 - p) = -log_odds(p) whenever 1 - p is
    exact.  On m >= 1/4 the value is 2 atanh(1 - 2m), whose argument is
    exact (Sterbenz), so there is no cancellation near 1/2; below 1/4 it
    is log1p(-m) - log(m).  +inf at p = 0 and -inf at p = 1.
    """
    p = np.asarray(p, dtype=float)
    m = np.minimum(p, 1.0 - p)
    with np.errstate(divide="ignore"):
        lo = np.where(m >= 0.25, 2.0 * np.arctanh(1.0 - 2.0 * m), np.log1p(-m) - np.log(m))
    return np.copysign(lo, 0.5 - p)


def _real_array(values, what: str) -> np.ndarray:
    """values as float64 under the one rule for probabilities and coefficients.

    Python ints and floats and numpy integer or floating scalars, or arrays
    and sequences of them, are accepted, each as float(x).  bool, str, bytes
    and object values raise DomainError, as do sequences numpy holds as
    objects (mixed types, ints beyond 64 bits).  Values numpy folds into a
    float array, such as [0.5, True], are out of the rule's reach.
    """
    a = np.asarray(values)
    if a.dtype.kind not in "iuf":
        got = repr(values) if a.ndim == 0 else f"an array of dtype {a.dtype}"
        raise DomainError(f"{what} must be a real number, got {got}")
    return a.astype(float, copy=False)


def _check_probabilities(ps: np.ndarray) -> np.ndarray:
    """ps itself if every element lies in [0, 1]; else names the first bad one."""
    bad = ~((ps >= 0.0) & (ps <= 1.0))
    if bad.any():
        first = float(ps.flat[np.argmax(bad)])
        raise DomainError(f"probability must lie in [0, 1], got {first!r}")
    return ps


@dataclass(frozen=True)
class Probability(object):
    """A success probability in [0, 1]; rejects NaN and out-of-range values."""

    p: float

    def __post_init__(self) -> None:
        p = _real_array(self.p, "probability")
        if p.ndim:
            raise DomainError(f"probability must be a real number, got {self.p!r}")
        object.__setattr__(self, "p", float(_check_probabilities(p)))

    @property
    def log_odds(self) -> float:
        """log((1 - p) / p); +inf at p = 0 and -inf at p = 1 (see _log_odds)."""
        return float(_log_odds(self.p))

    @property
    def complement(self) -> float:
        return 1.0 - self.p


ProbabilityLike = Union["Probability", "CenteredIndicator", float, int]


def as_probability(p: ProbabilityLike) -> Probability:
    """Coerce a real number (see _real_array), Probability or CenteredIndicator."""
    if isinstance(p, Probability):
        return p
    if isinstance(p, CenteredIndicator):
        return p.prob
    return Probability(p)


def _probability_array(probs) -> np.ndarray:
    """Read-only float64 copy of 1-d probabilities; names the first bad one."""
    if not isinstance(probs, np.ndarray):
        probs = [p.p if isinstance(p, Probability) else p for p in probs]
    ps = np.array(_real_array(probs, "probability"))
    if ps.ndim != 1:
        raise DomainError(f"probabilities must form a 1-d sequence, got shape {ps.shape}")
    _check_probabilities(ps)
    ps.setflags(write=False)
    return ps


class NormMethod(enum.Enum):
    """How a subgaussian norm value was obtained (the last two: sum bounds)."""

    CLOSED_FORM = "closed_form"
    NUMERIC_SUP = "numeric_sup"
    BOUND_ONLY = "bound_only"
    TRIANGLE_DEPENDENT = "triangle_dependent"
    QUADRATIC_INDEPENDENT = "quadratic_independent"


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
        return _indicator_curve(self.prob.p)


@dataclass(frozen=True)
class LogMgfCurve(object):
    """A log moment generating function t -> log E exp(t * X) on all reals,
    or a batch of them.

    ``fn`` must accept a float ndarray and return matching values; it must
    evaluate to 0 at t = 0.  ``variance`` optionally supplies the exact
    variance of X, which makes the t -> 0 limit of log-MGF / t^2 available
    to the numeric norm as an exact candidate.  ``lambda_hint`` optionally
    widens the numeric norm's search window up to that |t|; a curve whose
    maximizer lies past |t| = 60 must declare one.

    A batch of R curves has ``rows`` = R: ``fn`` maps an (R, n) array of t,
    row r on curve r, and ``variance`` and ``lambda_hint``, when given, are
    length-R arrays.
    """

    fn: Callable[[np.ndarray], np.ndarray]
    variance: float | np.ndarray | None = None
    lambda_hint: float | np.ndarray | None = None
    rows: int | None = None

    def __call__(self, lam) -> np.ndarray:
        return np.asarray(self.fn(np.asarray(lam, dtype=float)), dtype=float)

    def at(self, lam: float) -> float:
        return float(self(lam))


def _indicator_curve(p) -> LogMgfCurve:
    """Exact log-MGF curve of the centered indicator at a float p, or for
    a 1-d ndarray of p the batch of them, one row per p."""
    ps = np.asarray(p, dtype=float)
    hint = np.where((ps > 0.0) & (ps < 1.0), 4.0 * np.abs(2.0 * _log_odds(ps)), 0.0)
    variance = ps * (1.0 - ps)
    if ps.ndim == 0:
        return LogMgfCurve(fn=lambda lam: log_mgf_values(p, lam),
                           variance=float(variance), lambda_hint=float(hint))
    column = ps[:, None]
    return LogMgfCurve(fn=lambda lam: log_mgf_values(column, lam),
                       variance=variance, lambda_hint=hint, rows=len(ps))


def _q_squared(p):
    """Q(p)^2 for a float or an array of p in [0, 1]; 0 at p in {0, 1}."""
    p = np.asarray(p, dtype=float)
    lo4 = 4.0 * _log_odds(p)
    # lo4 is 0 only at p = 1/2, where Q^2 takes its limit 1/8
    return np.divide(1.0 - 2.0 * p, lo4, out=np.full_like(p, 0.125), where=lo4 != 0.0)


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


def _g_series(p, lam: np.ndarray) -> np.ndarray:
    """Cumulant series of log-MGF / t^2, accurate for |t| <= _SERIES_CUTOFF."""
    k2, k3, k4, k5, k6 = _bernoulli_cumulants(p)
    return k2 / 2.0 + lam * (
        k3 / 6.0 + lam * (k4 / 24.0 + lam * (k5 / 120.0 + lam * (k6 / 720.0)))
    )


def _log_mgf_kernel(p, lam, over_t2: bool) -> np.ndarray:
    """log-MGF(t), or log-MGF(t) / t^2 when over_t2, each branch only where kept.

    p is a float, a Probability or an ndarray of p that broadcasts against
    lam.  The cumulant series serves |t| <= _SERIES_CUTOFF, log-sum-exp of
    the two support terms the rest (NaN included); p in {0, 1} gives zeros.
    log p and log(1 - p) come from scalar libm, whose last bit numpy's
    vector log can differ in, and every other step is one float operation
    per element, so each element is bitwise that of its own float p.
    """
    lam = np.asarray(lam, dtype=float)
    if isinstance(p, np.ndarray) and p.ndim:
        pv = _check_probabilities(_real_array(p, "probability"))
        live = (pv != 0.0) & (pv != 1.0)
        log_p, log_q = np.zeros(pv.shape), np.zeros(pv.shape)
        log_p[live] = list(map(math.log, pv[live].tolist()))
        log_q[live] = list(map(math.log1p, (-pv[live]).tolist()))
        shape = np.broadcast_shapes(pv.shape, lam.shape)
    else:
        pv = as_probability(p).p
        live = pv != 0.0 and pv != 1.0
        log_p, log_q = (math.log(pv), math.log1p(-pv)) if live else (0.0, 0.0)
        shape = lam.shape
    out = np.zeros(shape)
    if not np.any(live):
        return out
    if lam.shape != shape:
        lam = np.broadcast_to(lam, shape)
    within = np.abs(lam) <= _SERIES_CUTOFF
    if isinstance(pv, float):
        small, big = within, ~within
    else:
        small, big = live & within, live & ~within

    def gather(x, mask):
        # a float p broadcasts as is; an array of p is gathered with lam
        return x if isinstance(pv, float) else np.broadcast_to(x, shape)[mask]

    ls = lam[small]
    series = _g_series(gather(pv, small), ls)
    out[small] = series if over_t2 else ls * ls * series
    lb = lam[big]
    pb = gather(pv, big)
    with np.errstate(invalid="ignore"):
        direct = np.logaddexp(
            gather(log_p, big) + lb * (1.0 - pb),
            gather(log_q, big) - lb * pb,
        )
        out[big] = direct / (lb * lb) if over_t2 else direct
    return out


def log_mgf_values(p, lam) -> np.ndarray:
    """Vectorized log E exp(t * X) for the centered indicator, X as above.

    Uses log-sum-exp of the two support terms, switching to the cumulant
    series for |t| <= 1e-3 so that the result keeps full relative accuracy
    as t -> 0 (plain log-sum-exp only bounds the absolute error, which is
    fatal after dividing by t^2).

    p is a float or Probability, or an ndarray of p that broadcasts against
    t (a column of p against a row of t gives one row per p).  Every element
    equals, bit for bit, the call with its own float p and float t.
    """
    return _log_mgf_kernel(p, lam, over_t2=False)


def g_values(p, lam) -> np.ndarray:
    """Vectorized g(t) = log-MGF / t^2, with the exact limit value at t = 0.

    Takes p and t as log_mgf_values does, with the same bitwise contract.
    """
    return _log_mgf_kernel(p, lam, over_t2=True)


def log_mgf(ind: ProbabilityLike, lam: float) -> float:
    """log E exp(t * X) at a single t; finite for every finite t."""
    prob = as_probability(ind)
    if not math.isfinite(lam):
        raise DomainError(f"t must be finite, got {lam!r}")
    if lam == 0.0:
        return 0.0
    return float(log_mgf_values(prob, lam))


def mgf(ind: ProbabilityLike, lam: float) -> float:
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
    return float(_q_squared(prob.p)) * lam * lam - float(log_mgf_values(prob, lam))


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


def _binary_scale(v: float) -> int:
    """0 for v in [2^-500, 2^500], else k with v = m 2^k, 1/2 <= m < 1:
    the power of two that brings v, and so v^2, back into the float range."""
    return 0 if 2.0 ** -500 <= v <= 2.0 ** 500 else math.frexp(v)[1]


# The numeric norm's grid window and points per sign, and its refinement.
_SUP_LAMBDA_MIN = 1e-8
_SUP_LAMBDA_MAX = 60.0
_SUP_GRID_POINTS = 160
_SUP_TOL = 1e-12
_SUP_MAX_ITER = 200


def subgaussian_norm_numeric(curve: LogMgfCurve) -> SubgaussianNorm | list[SubgaussianNorm]:
    """Numeric subgaussian norm sqrt(sup g) of an arbitrary log-MGF curve.

    Evaluates g = curve / t^2 on a sign-symmetric log-spaced grid over
    1e-8 <= |t| <= max(60, lambda_hint) (a bare callable has no hint),
    refines the best cell on each side by golden-section search, and
    includes the exact t -> 0 variance limit as a candidate when the curve
    declares its variance.  For unimodal g inside the window the value lies
    within about the curve's evaluation error of the supremum, on either
    side.  A window past 2^500 (a sum with a weight below about 1e-150)
    reads g scaled by a power of two, so that squares stay in range; an
    infinite hint, or a curve too wide for one scaling, raises DomainError.

    A batch curve (``rows`` = R) gives a list of R norms, one per row, from
    one grid evaluation and one lockstep golden-section search over all
    rows and both signs.  Each norm is bitwise that of its row given alone,
    provided ``fn`` treats the elements of its argument independently.
    """
    if not isinstance(curve, LogMgfCurve):
        curve = LogMgfCurve(fn=curve)
    rows = 1 if curve.rows is None else curve.rows

    def per_row(value) -> np.ndarray:
        return np.broadcast_to(np.asarray(value, dtype=float), (rows,))

    at_zero = curve(np.zeros((rows, 1))).reshape(rows)
    bad = ~(np.abs(at_zero) <= 1e-12)
    if bad.any():
        raise DomainError(
            f"log-MGF curve must vanish at t = 0, got {float(at_zero[np.argmax(bad)])!r}"
        )

    lam_max = per_row(_SUP_LAMBDA_MAX)
    if curve.lambda_hint is not None:
        hint = per_row(curve.lambda_hint)
        lam_max = np.where(hint > lam_max, hint, lam_max)
    if not np.all(np.isfinite(lam_max)):
        raise DomainError(f"lambda_hint must be finite, got {float(lam_max.max())!r}")
    # past 2^500, g reads 4^j g = curve / (t 2^-j)^2, the window's end at 2^400 (room
    # below for larger weights); a log-MGF value below the normal range is noise: g = 0
    j = np.array([max(_binary_scale(v) - 400, 0) for v in lam_max.tolist()])
    tiny = sys.float_info.min

    def scaled_g(t: np.ndarray) -> np.ndarray:  # t is (rows, n)
        lmgf, sq = curve(t), np.square(np.ldexp(t, -j[:, None]))
        keep = ~(np.abs(lmgf) < tiny)  # NaN is kept, to fail the finiteness check
        if np.any(keep & (sq < tiny)):  # an unscaled row's t^2 is at least 1e-16
            raise DomainError("log-MGF curve spans more scales than one search window holds")
        return np.divide(lmgf, sq, out=np.zeros(sq.shape), where=keep)

    grids = {v: np.geomspace(_SUP_LAMBDA_MIN, v, _SUP_GRID_POINTS) for v in set(lam_max.tolist())}
    grid = np.array([grids[v] for v in lam_max.tolist()])
    # axis 1 is the sign of t: + then -
    lams = np.stack((grid, -grid), axis=1)
    g = scaled_g(lams.reshape(rows, -1)).reshape(lams.shape)
    if not np.all(np.isfinite(g)):
        raise DomainError("log-MGF curve is not finite on the search window")
    i = np.argmax(g, axis=2)[..., None]
    g_best = np.take_along_axis(g, i, 2)[..., 0]
    last = _SUP_GRID_POINTS - 1
    ends = np.concatenate((np.take_along_axis(lams, np.maximum(i - 1, 0), 2),
                           np.take_along_axis(lams, np.minimum(i + 1, last), 2)), axis=2)
    lo, hi = ends.min(axis=2), ends.max(axis=2)
    # past |t| = 2048 (a hint's window) the floats are too sparse for
    # _SUP_TOL; there a bracket of four float spacings is converged
    tol = np.maximum(_SUP_TOL, 4.0 * np.spacing(np.maximum(-lo, hi)))
    res = golden_section_argmax(scaled_g, lo, hi, tol=tol, max_iter=_SUP_MAX_ITER)
    if not res.converged.all():
        k = int(np.argmin(res.converged))
        raise ConvergenceError(
            f"norm refinement stalled at interval width {float(res.width.flat[k])!r} "
            f"after {res.iterations} iterations"
        )

    # the t -> 0 limit; a subnormal variance is noise, as a subnormal log-MGF value is
    var = per_row(-math.inf if curve.variance is None else curve.variance)
    best = np.where(var < tiny, -math.inf, np.ldexp(0.5 * var, 2 * j))
    # max(best, x) in the order of a one-sign-at-a-time scan
    for sign in (0, 1):
        for x in (g_best[:, sign], res.value[:, sign]):
            best = np.where(x > best, x, best)
    values = np.ldexp(np.sqrt(np.where(0.0 > best, 0.0, best)), -j).tolist()
    norms = [SubgaussianNorm(v, NormMethod.NUMERIC_SUP) for v in values]
    return norms[0] if curve.rows is None else norms


def moment_abs(ind: ProbabilityLike, s: float) -> float:
    """Absolute moment norm |X|_s = (E |X|^s)^(1/s), s >= 1.

    For the centered indicator this is (p (1-p)^s + (1-p) p^s)^(1/s),
    evaluated in log space so large s cannot underflow term-by-term.
    """
    p = as_probability(ind).p
    if not (math.isfinite(s) and s >= 1.0):
        raise DomainError(f"moment order must satisfy s >= 1, got {s!r}")
    if p == 0.0 or p == 1.0:
        return 0.0
    lp = math.log(p)
    lq = math.log1p(-p)
    return math.exp(np.logaddexp(lp + s * lq, lq + s * lp) / s)


def gls_norm(ind: ProbabilityLike) -> float:
    """Moment-growth norm sup over s >= 1 of |X|_s / sqrt(s).

    Equivalent to the subgaussian norm up to universal constant factors.
    Maximizes on a 512-point log-spaced s grid up to
    max(8, 4 |log min(p, 1-p)|), which holds the interior maximum
    ~ 2 |log min(p, 1-p)|, with golden-section refinement.
    """
    p = as_probability(ind).p
    if p == 0.0 or p == 1.0:
        return 0.0
    s_max = max(8.0, 4.0 * abs(math.log(min(p, 1.0 - p))))
    lp = math.log(p)
    lq = math.log1p(-p)

    def log_f(t: np.ndarray) -> np.ndarray:
        # log of |X|_s / sqrt(s) at s = exp(t)
        s = np.exp(t)
        return np.logaddexp(lp + s * lq, lq + s * lp) / s - 0.5 * t

    ts = np.linspace(0.0, math.log(s_max), 512)
    vals = log_f(ts)
    i = int(np.argmax(vals))
    lo = ts[max(i - 1, 0)]
    hi = ts[min(i + 1, len(ts) - 1)]
    res = golden_section_argmax(log_f, lo, hi, tol=1e-12)
    return math.exp(max(float(vals[i]), res.value))


def noncentered_norm(centered: SubgaussianNorm | float, mean: float) -> SubgaussianNorm:
    """Norm of mean + X from the norm of the centered part X.

    Combines in quadrature: sqrt(centered^2 + mean^2).  The method tag is
    inherited from the centered input; a bare float is treated as an exact
    closed-form value.
    """
    value = float(centered)
    method = centered.method if isinstance(centered, SubgaussianNorm) else NormMethod.CLOSED_FORM
    if not (math.isfinite(value) and value >= 0.0):
        raise DomainError(f"centered norm must be a nonnegative real, got {value!r}")
    if not math.isfinite(mean):
        raise DomainError(f"mean must be finite, got {mean!r}")
    return SubgaussianNorm(math.hypot(value, mean), method)


def tail_bound_from_norm(tau: SubgaussianNorm | float, x):
    """Two-sided tail bound exp(-x^2 / (4 tau^2)) from a subgaussian norm.

    Bounds max(P(X > x), P(X < -x)) for any centered X with norm tau.
    Decreasing in x, equal to 1 at x = 0.  A zero norm admits no bound at
    positive x (the bound degenerates), which is reported as a domain error.
    x is a float or an array of thresholds; an array gives an array of its
    shape, each element bitwise its own float call (math.exp per element,
    so no bit depends on numpy's exp), and an error names the first bad x.
    A norm outside [2^-500, 2^500] is scaled with x by a power of two, so
    tiny and huge norms give the bound of their scaled-down problem.
    """
    t = float(tau)
    if math.isnan(t) or t < 0.0:
        raise DomainError(f"norm must be a nonnegative real, got {tau!r}")
    xs = np.asarray(x, dtype=float)
    bad = ~(np.isfinite(xs) & (xs >= 0.0))
    if bad.any():
        got = x if xs.ndim == 0 else float(xs[bad][0])
        raise DomainError(f"threshold must be a finite x >= 0, got {got!r}")
    if t == 0.0 and (xs > 0.0).any():
        raise DomainError("tail bound undefined for zero norm at positive x")
    flat = xs.ravel()
    k = _binary_scale(t)
    if k:  # 4 t^2 would leave the normal range; a power of two scales exactly
        t, flat = math.ldexp(t, -k), np.ldexp(flat, -k)
    denom = 4.0 * t * t
    vals = [math.exp(-(v * v) / denom) if v else 1.0 for v in flat.tolist()]
    return np.array(vals).reshape(xs.shape) if xs.ndim else vals[0]


def norm_bound_from_tail(k: float) -> SubgaussianNorm:
    """Converse direction: a tail bound exp(-x^2 / K^2) implies norm < 4K.

    The factor 4 is conservative but universal; the result is tagged
    bound_only to keep it distinguishable from exact values.
    """
    if not (math.isfinite(k) and k > 0.0):
        raise DomainError(f"tail scale K must be a positive real, got {k!r}")
    return SubgaussianNorm(4.0 * k, NormMethod.BOUND_ONLY)
