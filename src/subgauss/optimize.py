"""Golden-section search for the maximum of a unimodal function, one
bracket or an array of brackets searched in lockstep."""

from __future__ import annotations

import math
import operator
from typing import Callable, NamedTuple

import numpy as np

__all__ = ["GoldenSectionResult", "golden_section_argmax"]

# 1/phi and 1/phi^2, the classic section ratios.
_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0
_INVPHI2 = (3.0 - math.sqrt(5.0)) / 2.0


class GoldenSectionResult(NamedTuple):
    argmax: float | np.ndarray
    value: float | np.ndarray
    iterations: int
    width: float | np.ndarray
    converged: bool | np.ndarray


def golden_section_argmax(
    fn: Callable,
    lo,
    hi,
    tol: float = 1e-12,
    max_iter: int = 200,
) -> GoldenSectionResult:
    """Locate the maximizer of a unimodal ``fn`` on [lo, hi].

    Returns the bracket midpoint and the best function value seen, which
    for a unimodal function is within ``tol`` of the true argmax once
    ``converged`` is True.  Non-convergence is reported through the
    ``converged`` flag together with the achieved interval ``width``;
    callers that require convergence should check the flag.

    ``lo`` and ``hi``, and ``tol``, may also be arrays of one shape: then
    one search runs per element, in lockstep, and ``fn`` maps an array of
    points of that shape to their values element by element.  argmax,
    value, width and converged come back as arrays of that shape, each
    element bitwise that of its own scalar search, because an element
    freezes once it converges (``fn`` still sees its last point, and that
    value is discarded).
    ``iterations`` is the number of section steps the batch took, that of
    its slowest element; ``fn`` is called that many times plus two.
    """
    if np.ndim(lo) == 0 and np.ndim(hi) == 0:
        # one search on Python floats: fn gets a float, as it always has
        scalar = True
        a, b = float(lo), float(hi)
        where, negate, any_of = (lambda cond, x, y: x if cond else y), operator.not_, bool
        at = lambda x: float(fn(x))  # noqa: E731
    else:
        scalar = False
        a, b = np.array(lo, dtype=float), np.array(hi, dtype=float)
        if a.shape != b.shape:
            raise ValueError(f"bracket ends differ in shape: {a.shape} vs {b.shape}")
        where, negate, any_of = np.where, np.logical_not, np.any
        at = lambda x: np.asarray(fn(x), dtype=float)  # noqa: E731
    bad = negate(np.isfinite(a) & np.isfinite(b)) | (b < a)
    if any_of(bad):
        k = int(np.argmax(bad))
        raise ValueError(f"invalid bracket [{np.ravel(lo)[k]}, {np.ravel(hi)[k]}]")

    h = b - a  # finite, so h > tol is exactly "not h <= tol"
    active = h > tol
    c = where(active, a + _INVPHI2 * h, 0.5 * (a + b))
    fc = at(c)
    best_x, best_f = c, fc
    iterations = 0
    if any_of(active):
        d = a + _INVPHI * h
        fd = at(d)
        take_d = active & negate(fc >= fd)
        best_x = where(take_d, d, c)
        best_f = where(take_d, fd, fc)
        for iterations in range(1, max_iter + 1):
            # left: the max lies in [a, d]; right: in [c, b]
            left = active & (fc >= fd)
            right = active & negate(fc >= fd)
            b = where(left, d, b)
            a = where(right, c, a)
            h = b - a
            c, d = (where(left, a + _INVPHI2 * h, where(right, d, c)),
                    where(right, a + _INVPHI * h, where(left, c, d)))
            fc, fd = where(right, fd, fc), where(left, fc, fd)
            fx = at(where(left, c, d))
            fc = where(left, fx, fc)
            fd = where(right, fx, fd)
            for x, f in ((c, fc), (d, fd)):
                up = active & (f >= best_f)
                best_x = where(up, x, best_x)
                best_f = where(up, f, best_f)
            active = active & (h > tol)
            if not any_of(active):
                break
    if scalar:
        return GoldenSectionResult(best_x, best_f, iterations, h, not active)
    return GoldenSectionResult(best_x, best_f, iterations, h, negate(active))
