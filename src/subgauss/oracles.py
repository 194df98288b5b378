"""Exact and Monte Carlo reference oracles for weighted indicator sums.

Everything the bound side of the package claims is checkable against the
routines here: exact Poisson-binomial laws by dynamic-programming
convolution, brute-force enumeration of small weighted sums, seeded Monte
Carlo tail estimates with Wilson confidence intervals, and the exact log-MGF
of an independent weighted sum.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Literal, Sequence

import numpy as np

from .core import LogMgfCurve, ProbabilityLike, _log_odds, _probability_array, log_mgf_values
from .errors import CapExceededError, DependenceError, DomainError
from .parallel import ordered_map
from .sums import WeightedIndicatorSum

__all__ = [
    "DistributionTable",
    "McEstimate",
    "Side",
    "WILSON_Z_99",
    "MC_BLOCK_SIZE",
    "poisson_binomial_table",
    "exact_tail",
    "tail_curve",
    "exhaustive_outcome_table",
    "exhaustive_weighted_tail",
    "monte_carlo_tail",
    "wilson_interval",
    "exact_sum_log_mgf",
    "sum_log_mgf_curve",
]

Side = Literal["upper", "lower", "max_both"]

# Two-sided 99% normal quantile, Phi^-1(0.995), frozen.
WILSON_Z_99 = 2.5758293035489004

# Samples per logical Monte Carlo block.  Fixed by contract: substreams are
# derived per block, so estimates depend only on (seed, n_samples) and never
# on how the blocks are batched or scheduled.  Small enough that a default
# 200 000-sample run is 13 blocks, which two workers share 7/6.
MC_BLOCK_SIZE = 16384

# Version of the sampling definition in monte_carlo_tail; reports carry it.
MC_STREAM_VERSION = 2

# Bytes of uniforms a worker holds at once, sized to stay in cache: it
# draws as many whole terms of its block at a time as fit, at least one.
_MC_CHUNK_BYTES = 1 << 20

_EXHAUSTIVE_CAP = 20
_DP_CAP = 100_000

_MASS_TOL = 1e-12
_MEAN_TOL = 1e-10

# Block length of the cheap sum that lets table validation skip fsum.
_SUM_BLOCK = 128
_U = 2.0 ** -53  # unit roundoff of float64


def _surely_within(x: np.ndarray, target: float, tol: float) -> bool:
    """Whether abs(fsum(x) - target) <= tol is certain without the fsum.

    Summing k terms in any order errs by at most (k - 1) u sum|x|, to
    first order in the unit roundoff u.  So summing blocks of _SUM_BLOCK
    terms with np.add.reduceat, whatever order numpy picks, then fsum of
    the block sums, is within 128 u sum|x| of the exact sum, plus the
    final rounding of fsum.  The bound below takes 130 u and a few ulps
    of the operands more, which also covers the rounding of this test
    itself.  False means only that the cheap sum cannot decide; the
    caller then runs fsum.
    """
    starts = np.arange(0, x.size, _SUM_BLOCK)
    try:
        with np.errstate(all="ignore"):  # inf or nan sums just fail the test
            est = math.fsum(np.add.reduceat(x, starts).tolist())
            mag = math.fsum(np.add.reduceat(np.abs(x), starts).tolist())
    except (ValueError, OverflowError):  # inf - inf, or overflow in fsum
        return False
    err = 130 * _U * mag + 8 * _U * (abs(est) + abs(target))
    return abs(est - target) + err < tol


@dataclass(frozen=True)
class DistributionTable(object):
    """A finite centered law: strictly increasing support with point masses.

    Masses must be nonnegative and sum to 1 within 1e-12; the mean must
    vanish within 1e-10.  Arrays are stored read-only.
    """

    support: np.ndarray
    masses: np.ndarray

    def __post_init__(self) -> None:
        support = np.asarray(self.support, dtype=float)
        masses = np.asarray(self.masses, dtype=float)
        if support.ndim != 1 or support.shape != masses.shape or support.size == 0:
            raise DomainError("support and masses must be matching 1-d arrays")
        if not np.all(np.isfinite(support)):
            raise DomainError("support must be finite")
        if np.any(np.diff(support) <= 0.0):
            raise DomainError("support must be strictly increasing")
        if np.any(masses < 0.0) or not np.all(np.isfinite(masses)):
            raise DomainError("masses must be finite and nonnegative")
        if not _surely_within(masses, 1.0, _MASS_TOL):
            total = math.fsum(masses.tolist())
            if abs(total - 1.0) > _MASS_TOL:
                raise DomainError(f"masses sum to {total!r}, not 1 within {_MASS_TOL}")
        moments = support * masses
        if not _surely_within(moments, 0.0, _MEAN_TOL):
            mean = math.fsum(moments.tolist())
            if abs(mean) > _MEAN_TOL:
                raise DomainError(f"table mean {mean!r} exceeds the {_MEAN_TOL} tolerance")
        support.setflags(write=False)
        masses.setflags(write=False)
        object.__setattr__(self, "support", support)
        object.__setattr__(self, "masses", masses)

    @property
    def n_atoms(self) -> int:
        return int(self.support.size)

    def total_mass(self) -> float:
        return math.fsum(self.masses.tolist())

    def mean(self) -> float:
        return math.fsum((self.support * self.masses).tolist())


@dataclass(frozen=True)
class McEstimate(object):
    """A Monte Carlo proportion with its Wilson-score 99% interval."""

    # Field order is the key order of a report row's "mc" object.
    point: float
    ci_low: float
    ci_high: float
    n_samples: int
    seed: int

    def covers(self, value: float) -> bool:
        return self.ci_low <= value <= self.ci_high


def poisson_binomial_table(probs: Iterable[ProbabilityLike]) -> DistributionTable:
    """Exact law of a sum of independent centered indicators, unit weights.

    Convolves term by term in float64, as the step
    new[k] = q * mass[k] + p * mass[k-1], but only over the band of
    nonzero atoms: O(n w), where the band width w (the atoms above
    underflow) grows like sqrt(n).  Atoms outside the band are exact +0,
    and every atom at a band edge is computed as q * m + p * 0 or
    q * 0 + p * m, which round like q * m and p * m alone, so the table
    is bitwise that of the full O(n^2) update.  The support is
    {k - sum p(i) : k = 0..n} with the shift accumulated by fsum, so
    atoms line up bitwise with the enumeration oracle.
    """
    ps = _probability_array(probs).tolist()
    n = len(ps)
    if n < 1:
        raise DomainError("need at least one probability")
    if n > _DP_CAP:
        raise CapExceededError(f"n = {n} exceeds the DP cap {_DP_CAP}")

    # mass[k + 1] holds atom k; mass[0] is a permanent +0 pad, so the
    # shifted band mass[lo - 1:hi + 1] never needs an edge case.  One
    # buffer updated in place: per-step temporaries get page-faulted anew.
    mass = np.zeros(n + 2, dtype=float)
    mass[1] = 1.0
    buf = np.empty(n + 1, dtype=float)
    lo = hi = 1  # the nonzero atoms sit in mass[lo:hi + 1]
    for p in ps:
        # mass[lo - 1:hi + 1] overlaps band, so take its product first
        shifted = buf[:hi - lo + 2]
        np.multiply(mass[lo - 1:hi + 1], p, out=shifted)
        band = mass[lo:hi + 2]
        band *= 1.0 - p
        band += shifted
        hi += 1
        while mass[lo] == 0.0:
            lo += 1
        while mass[hi] == 0.0:
            hi -= 1

    shift = math.fsum(ps)
    support = np.arange(n + 1, dtype=float) - shift
    return DistributionTable(support, mass[1:])


def _cut(values: np.ndarray, xs, strict: bool):
    """Where thresholds xs split sorted values: values[i:] are above x and
    values[:j] below -x, or at them too if not strict; returns (i, j)."""
    up, lo = ("right", "left") if strict else ("left", "right")
    return np.searchsorted(values, xs, up), np.searchsorted(values, -xs, lo)


def _side(side: Side):
    """The side rule: a function of (upper, lower) tails giving one or their maximum."""
    if side == "upper":
        return lambda upper, lower: upper
    if side == "lower":
        return lambda upper, lower: lower
    if side == "max_both":
        return np.maximum
    raise DomainError(f"unknown side {side!r}")


def _sorted_tail(values, masses, x: float, side: Side, strict: bool) -> float:
    """fsum tail of atoms in sorted order, duplicates allowed; see exact_tail."""
    if math.isnan(x):
        raise DomainError("threshold must not be NaN")
    pick = _side(side)
    i, j = _cut(values, x, strict)
    return float(pick(math.fsum(masses[i:].tolist()), math.fsum(masses[:j].tolist())))


def exact_tail(
    table: DistributionTable, x: float, side: Side = "max_both", strict: bool = True
) -> float:
    """Exact tail mass of a tabulated law.

    upper is P(S > x), lower is P(S < -x) (the mirrored threshold, so
    max_both is exactly the quantity the subgaussian tail bound controls).
    Comparisons are strict by default; strict=False gives the weak variants
    P(S >= x) and P(S <= -x).  Selected masses are summed with fsum, which
    rounds correctly, so the result does not depend on atom order.
    """
    return _sorted_tail(table.support, table.masses, x, side, strict)


def tail_curve(
    table: DistributionTable, xs, side: Side = "max_both", strict: bool = True
) -> np.ndarray:
    """Vectorized tails over a threshold grid via cumulative sums.

    Accumulates from the extreme ends of the support inward (the small
    masses first for unimodal laws).  At x >= 0 a tail holds at most n - 1
    of the n atoms (the law is centered), so it differs from exact_tail by
    at most gamma(n - 1) = (n - 1) u / (1 - (n - 1) u) times its mass,
    u = 2^-53, exact_tail's rounding included.  Worst on the default
    domination sweep (512 tables x 64 x): 4.44e-15, at random[332] m=16,
    x = 0, and 0.333 of the bound.  exact_tail rounds correctly.
    """
    xs = np.asarray(xs, dtype=float)
    if np.any(np.isnan(xs)):
        raise DomainError("thresholds must not be NaN")
    pick = _side(side)
    suffix = np.concatenate((np.cumsum(table.masses[::-1])[::-1], [0.0]))
    prefix = np.concatenate(([0.0], np.cumsum(table.masses)))
    i, j = _cut(table.support, xs, strict)
    return pick(suffix[i], prefix[j])


def _enumerate_outcomes(s: WeightedIndicatorSum) -> tuple[np.ndarray, np.ndarray]:
    """All 2^m outcome values and product probabilities of a small sum."""
    if not s.independent:
        raise DependenceError("enumeration requires independent terms")
    m = s.n_terms
    if m > _EXHAUSTIVE_CAP:
        raise CapExceededError(f"m = {m} exceeds the enumeration cap {_EXHAUSTIVE_CAP}")
    # doubling: outcome i includes term j iff bit j of i is set, and terms
    # are added (probabilities multiplied) in index order j = 0, 1, ...
    raw = np.zeros(1)
    prob = np.ones(1)
    for c, p in zip(s.coeffs.tolist(), s.p_values.tolist()):
        raw = np.concatenate((raw, raw + c))
        prob = np.concatenate((prob * (1.0 - p), prob * p))
    shift = math.fsum((s.coeffs * s.p_values).tolist())
    return raw - shift, prob


def exhaustive_outcome_table(s: WeightedIndicatorSum) -> DistributionTable:
    """Exact law of a small independent weighted sum by full enumeration.

    Atoms with bitwise-equal values are merged.  For unit weights the atom
    values match poisson_binomial_table exactly, which is what makes the
    two oracles comparable at strict thresholds.
    """
    values, probs = _enumerate_outcomes(s)
    order = np.argsort(values)
    support = values[order]
    if not np.any(support[1:] == support[:-1]):
        # every atom alone: its mass is its probability, as a merge gives
        return DistributionTable(support, probs[order])
    support, inverse = np.unique(values, return_inverse=True)
    masses = np.bincount(inverse, weights=probs, minlength=support.size)
    return DistributionTable(support, masses)


def exhaustive_weighted_tail(
    s: WeightedIndicatorSum, x: float, side: Side = "max_both", strict: bool = True
) -> float:
    """Exact tail of a small independent weighted sum (max of both sides).

    Enumerates all 2^m outcomes (m up to _EXHAUSTIVE_CAP) with exact
    product probabilities.  Unlike exhaustive_outcome_table, no atoms are
    merged, so no mass is rounded; a stable sort puts them in order.
    """
    values, probs = _enumerate_outcomes(s)
    order = np.argsort(values, kind="stable")
    return _sorted_tail(values[order], probs[order], x, side, strict)


def wilson_interval(successes: int, n: int) -> tuple[float, float]:
    """Wilson-score 99% interval (z = WILSON_Z_99) for a binomial proportion."""
    if n < 1 or successes < 0 or successes > n:
        raise DomainError(f"invalid counts {successes}/{n}")
    z = WILSON_Z_99
    phat = successes / n
    z2n = z * z / n
    denom = 1.0 + z2n
    center = (phat + 0.5 * z2n) / denom
    half = z * math.sqrt(phat * (1.0 - phat) / n + z * z / (4.0 * n * n)) / denom
    # at the boundary counts the exact endpoint is phat itself; the sqrt
    # rounds center - half to ~1e-17 off, on the wrong side of phat
    lo = 0.0 if successes == 0 else max(center - half, 0.0)
    hi = 1.0 if successes == n else min(center + half, 1.0)
    return (lo, hi)


def monte_carlo_tail(
    s: WeightedIndicatorSum,
    x: float | Sequence[float],
    n_samples: int,
    seed: int,
    side: Side = "max_both",
) -> McEstimate | tuple[McEstimate, ...]:
    """Seeded Monte Carlo tail estimates with Wilson-score 99% intervals.

    x is one threshold or a 1-d sequence of them; a float returns one
    McEstimate, a sequence a tuple of them in the same order.  One draw
    scores every threshold: each block is drawn once, sorted, and every
    threshold counted by binary search, so each estimate equals that of a
    separate call at its threshold.

    Sampling is stream version 2 (MC_STREAM_VERSION).  It runs in fixed
    blocks of MC_BLOCK_SIZE samples, block b drawing from its own PCG64DXSM
    substream seeded by SeedSequence((seed, b)); numpy keeps that bitstream
    stable across releases.  Blocks are term-major: the uniform of term j
    in sample i is double number j * rows + i of the block's stream, as one
    rng.random((m, rows)) draws it.  Each sample value is 0.0 plus
    c(j) * (u < p(j)) for j = 0, 1, ... in term order, minus the shift
    sum c(j) p(j); no BLAS takes part, so the values, and the estimate, are
    the same bits on every platform and for any batching of blocks across
    workers.  A worker draws a block in chunks of whole terms, at most
    _MC_CHUNK_BYTES of uniforms (or one term), so its memory does not grow
    with the number of terms.

    For max_both the point estimate is the larger one-sided proportion and
    the interval is the Wilson interval of that side's count; the one-sided
    variants are plain binomial proportions.
    """
    if not s.independent:
        raise DependenceError("Monte Carlo sampling requires independent terms")
    xs = np.asarray(x, dtype=float)
    if xs.ndim > 1:
        raise DomainError("thresholds must be a float or a 1-d sequence")
    if np.any(np.isnan(xs)):
        raise DomainError("threshold must not be NaN")
    if n_samples < 100:
        raise DomainError(f"need n_samples >= 100, got {n_samples}")
    if int(seed) != seed or seed < 0:
        raise DomainError(f"seed must be a nonnegative integer, got {seed!r}")
    pick = _side(side)
    seed = int(seed)
    curve = np.atleast_1d(xs)
    if curve.size == 0:
        return ()

    m = s.n_terms
    coeffs, ps = s.coeffs[:, None], s.p_values[:, None]  # a row per term
    shift = math.fsum((s.coeffs * s.p_values).tolist())
    n_blocks = (n_samples + MC_BLOCK_SIZE - 1) // MC_BLOCK_SIZE

    def run_block(block: int) -> tuple[np.ndarray, np.ndarray]:
        rows = min(MC_BLOCK_SIZE, n_samples - block * MC_BLOCK_SIZE)
        rng = np.random.Generator(
            np.random.PCG64DXSM(np.random.SeedSequence((seed, block)))
        )
        k = min(max(1, _MC_CHUNK_BYTES // (8 * rows)), m)
        buf = np.empty((k, rows))
        hit = np.empty((k, rows), dtype=bool)
        vals = np.zeros(rows)
        for start in range(0, m, k):
            stop = min(start + k, m)
            u, h = buf[:stop - start], hit[:stop - start]
            rng.random(out=u)
            np.less(u, ps[start:stop], out=h)
            np.multiply(h, coeffs[start:stop], out=u)
            for term in u:  # in term order: the same bits on every platform
                vals += term
        vals -= shift
        vals.sort()
        i, j = _cut(vals, curve, True)
        return rows - i, j

    counts = ordered_map(run_block, range(n_blocks))
    up = sum(c[0] for c in counts)
    lo = sum(c[1] for c in counts)
    ks = pick(up, lo)
    estimates = tuple(
        McEstimate(k / n_samples, *wilson_interval(k, n_samples), n_samples, seed)
        for k in ks.tolist()
    )
    return estimates if xs.ndim else estimates[0]


def exact_sum_log_mgf(s: WeightedIndicatorSum, lam) -> np.ndarray:
    """Exact log-MGF of an independent weighted sum at points lam.

    log E exp(t * nu) = sum over j of log-MGF of the j-th centered
    indicator at c(j) * t.  Identical terms are grouped, so iid sums cost
    one vectorized evaluation.
    """
    if not s.independent:
        raise DependenceError("the sum log-MGF factorizes only under independence")
    lam = np.asarray(lam, dtype=float)
    groups = Counter(zip(s.coeffs.tolist(), s.p_values.tolist()))
    total = np.zeros_like(lam)
    for (c, p), count in groups.items():
        total += count * log_mgf_values(p, c * lam)
    return total


def sum_log_mgf_curve(s: WeightedIndicatorSum) -> LogMgfCurve:
    """LogMgfCurve of the sum, with its exact variance and a search hint.

    Term j, c(j) X(j), peaks in g at t(j) = 2 log_odds(p(j)) / c(j) or is
    monotone on each sign of t, so g of the sum falls past the largest
    |t(j)|; the hint is four times that, the indicator curve's rule.
    """
    c, p = s.coeffs, s.p_values
    variance = math.fsum((c * c * p * (1.0 - p)).tolist())
    live = (p > 0.0) & (p < 1.0) & (c != 0.0)
    peaks = np.abs(2.0 * _log_odds(p[live]) / c[live])
    return LogMgfCurve(
        fn=lambda lam: exact_sum_log_mgf(s, lam),
        variance=variance,
        lambda_hint=4.0 * float(peaks.max(initial=0.0)),
    )
