"""Reference quantities computed apart from subgauss, for checking its output.

Nothing here imports subgauss.  The exact laws come from other methods than
the program's own: an integer-lattice convolution for integer weights, an FFT
product tree for unit-weight Poisson-binomial laws, and exact rational
arithmetic for the support shifts.  Every closed-form quantity (Q(p), the
log-MGF, the Kearns-Saul gap, the sum norms and their tail bounds) is
evaluated with mpmath at DPS digits.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

import mpmath
import numpy as np

DPS = 50

# Below this length np.convolve is exact enough and cheaper than an FFT.
_DIRECT_CONVOLVE = 64


def _q2(P: mpmath.mpf) -> mpmath.mpf:
    """Q(p)^2 from the closed form; call inside workdps(DPS)."""
    if P == 0 or P == 1:
        return mpmath.mpf(0)
    if 2 * P == 1:
        return mpmath.mpf(1) / 8
    return (1 - 2 * P) / (4 * mpmath.log((1 - P) / P))


def q_norm_mp(p: float) -> mpmath.mpf:
    """Q(p) = sqrt((1 - 2p) / (4 log((1 - p) / p))) at DPS digits."""
    with mpmath.workdps(DPS):
        return mpmath.sqrt(_q2(mpmath.mpf(p)))


def log_mgf_mp(p: float, t: float) -> mpmath.mpf:
    """log(p e^(t(1-p)) + (1-p) e^(-tp)), the centered indicator's log-MGF."""
    with mpmath.workdps(DPS):
        P, T = mpmath.mpf(p), mpmath.mpf(t)
        return mpmath.log(P * mpmath.exp(T * (1 - P)) + (1 - P) * mpmath.exp(-T * P))


def kearns_saul_gap_mp(p: float, t: float) -> mpmath.mpf:
    """Q(p)^2 t^2 - log-MGF(t); nonnegative for every real t."""
    with mpmath.workdps(DPS):
        T = mpmath.mpf(t)
        return _q2(mpmath.mpf(p)) * T * T - log_mgf_mp(p, t)


def extremal_check_mp(p: float) -> tuple[mpmath.mpf, bool]:
    """|g(t*) - Q(p)^2| at t* = 2 log((1-p)/p), and whether t* is a local max of g.

    g(t) = log-MGF(t) / t^2.  At p = 1/2 the extremal point is the t -> 0
    limit, where g equals p(1-p)/2 = 1/8 = Q^2.
    """
    with mpmath.workdps(DPS):
        P = mpmath.mpf(p)
        if 2 * P == 1:
            return abs(P * (1 - P) / 2 - _q2(P)), True
        t_star = 2 * mpmath.log((1 - P) / P)

        def g(t):
            return log_mgf_mp(p, t) / (t * t)

        peak = g(t_star)
        step = abs(t_star) * mpmath.mpf("1e-4")
        is_max = g(t_star - step) < peak and g(t_star + step) < peak
        return abs(peak - _q2(P)), is_max


def quadratic_norm_mp(coeffs: Sequence[float], probs: Sequence[float]) -> mpmath.mpf:
    """sqrt(sum c^2 Q(p)^2), the independent-sum norm bound."""
    with mpmath.workdps(DPS):
        total = mpmath.fsum(
            mpmath.mpf(c) ** 2 * _q2(mpmath.mpf(p)) for c, p in zip(coeffs, probs)
        )
        return mpmath.sqrt(total)


def triangle_norm_mp(coeffs: Sequence[float], probs: Sequence[float]) -> mpmath.mpf:
    """sum |c| Q(p), the norm bound valid under any dependence."""
    with mpmath.workdps(DPS):
        return mpmath.fsum(
            abs(mpmath.mpf(c)) * mpmath.sqrt(_q2(mpmath.mpf(p)))
            for c, p in zip(coeffs, probs)
        )


def tail_bound_mp(norm: mpmath.mpf, x: float) -> float:
    """exp(-x^2 / (4 B^2)) at DPS digits, rounded to float (1 at x = 0)."""
    with mpmath.workdps(DPS):
        X = mpmath.mpf(x)
        if X == 0:
            return 1.0
        return float(mpmath.exp(-X * X / (4 * norm * norm)))


def binomial_tails_mp(n: int, p: float, x: float) -> tuple[mpmath.mpf, mpmath.mpf]:
    """P(K - np > x) and P(K - np < -x) for K ~ Binomial(n, p), at DPS digits."""
    with mpmath.workdps(DPS):
        P, X = mpmath.mpf(p), mpmath.mpf(x)
        shift = n * P
        pmf = (1 - P) ** n
        ratio = P / (1 - P)
        upper = lower = mpmath.mpf(0)
        for k in range(n + 1):
            if k - shift > X:
                upper += pmf
            elif k - shift < -X:
                lower += pmf
            pmf = pmf * (n - k) / (k + 1) * ratio
        return upper, lower


def exact_shift(coeffs: Sequence[float], probs: Sequence[float]) -> Fraction:
    """The mean sum c p, exactly."""
    return sum((Fraction(c) * Fraction(p) for c, p in zip(coeffs, probs)), Fraction(0))


def abs_range(coeffs: Sequence[float], probs: Sequence[float]) -> float:
    """Essential supremum of |sum c (X - p)|: the larger of the two extreme outcomes."""
    upper = math.fsum(max(c * (1.0 - p), -c * p) for c, p in zip(coeffs, probs))
    lower = math.fsum(min(c * (1.0 - p), -c * p) for c, p in zip(coeffs, probs))
    return max(upper, -lower)


def lattice_law(coeffs: Sequence[int], probs: Sequence[float]) -> np.ndarray:
    """Law of K = sum c X over k = 0..sum c, for positive integer weights c.

    One shift-and-add per term on the integer lattice, in float64.
    """
    weights = [int(c) for c in coeffs]
    if any(c < 1 for c in weights):
        raise ValueError("lattice weights must be positive integers")
    mass = np.zeros(sum(weights) + 1)
    mass[0] = 1.0
    top = 0
    for c, p in zip(weights, probs):
        nxt = mass[: top + c + 1] * (1.0 - p)
        nxt[c:] += mass[: top + 1] * p
        top += c
        mass[: top + 1] = nxt
    return mass


def _convolve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    if min(a.size, b.size) < _DIRECT_CONVOLVE:
        return np.convolve(a, b)
    n = a.size + b.size - 1
    size = 1 << (n - 1).bit_length()
    return np.fft.irfft(np.fft.rfft(a, size) * np.fft.rfft(b, size), size)[:n]


def poisson_binomial_fft(probs: Sequence[float]) -> np.ndarray:
    """Law of the number of successes of independent trials, by an FFT product tree.

    The generating polynomials (1 - p) + p z are multiplied pairwise, level
    by level, so no intermediate is longer than it must be.
    """
    polys = [np.array([1.0 - p, p]) for p in probs]
    if not polys:
        raise ValueError("need at least one probability")
    while len(polys) > 1:
        paired = [_convolve(polys[i], polys[i + 1]) for i in range(0, len(polys) - 1, 2)]
        if len(polys) % 2:
            paired.append(polys[-1])
        polys = paired
    return polys[0]


def integer_law_tails(law: np.ndarray, shift: Fraction, x: float) -> tuple[float, float]:
    """P(K - shift > x) and P(K - shift < -x) for K with law[k] = P(K = k).

    The thresholds are placed on the lattice in exact arithmetic; the
    selected masses are summed with fsum.
    """
    X = Fraction(x)
    k_min = math.floor(shift + X) + 1
    k_max = math.ceil(shift - X) - 1
    upper = math.fsum(law[max(k_min, 0):].tolist())
    lower = math.fsum(law[: max(k_max + 1, 0)].tolist())
    return upper, lower
