"""Verification sweeps: each checks one provable claim over a dense grid.

These back the CLI's verify subcommand and the acceptance tests.  Every
sweep returns a SweepResult carrying the pass flag, the worst observed
statistic, and the witness parameters that achieved it, so a failure always
points at a concrete counterexample candidate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .core import (
    NumericSupConfig,
    as_indicator,
    as_probability,
    g_value,
    lambda_star,
    log_mgf_values,
    q_norm,
    subgaussian_norm_numeric,
)
from .errors import DomainError
from .optimize import golden_section_argmax
from .parallel import ordered_map
from .sums import WeightedIndicatorSum, norm_bound_independent
from .oracles import exhaustive_outcome_table, poisson_binomial_table, tail_curve

__all__ = [
    "SweepResult",
    "kearns_saul_sweep",
    "sharpness_sweep",
    "argmax_sweep",
    "domination_sweep",
    "SUITES",
    "run_suite",
]

DEFAULT_DOMINATION_SEED = 20260818


@dataclass(frozen=True)
class SweepResult(object):
    """Outcome of one verification sweep."""

    # Field order is the key order of `subgauss verify --format json`.
    suite: str
    passed: bool
    worst: float
    witness: dict = field(default_factory=dict)
    detail: str = ""

    def summary(self) -> str:
        status = "pass" if self.passed else "FAIL"
        return f"{self.suite}: {status} worst={self.worst:.6g} {self.detail}".rstrip()


def _sign_symmetric_log_grid(count: int, lo: float, hi: float) -> np.ndarray:
    half = count // 2
    pos = np.geomspace(lo, hi, half)
    return np.concatenate((-pos[::-1], pos))


def kearns_saul_sweep(
    p_count: int = 999,
    lambda_count: int = 10_000,
    tol: float = 1e-12,
    lambda_max: float = 60.0,
) -> SweepResult:
    """Check Q(p)^2 t^2 >= log-MGF(t) over a dense (p, t) grid.

    p runs over {0.001, ..., 0.999}; t over a sign-symmetric log grid in
    [-lambda_max, lambda_max].  Passes when the smallest observed gap stays
    above -tol (the slack is exactly zero at t = 0 and at the extremal
    point, so tiny negative rounding residue is the expected worst case).
    """
    if p_count < 1 or lambda_count < 2:
        raise DomainError("kearns-saul grid needs p_count >= 1 and lambda_count >= 2, "
                          f"got {p_count}:{lambda_count}")
    p_grid = np.linspace(0.001, 0.999, p_count)
    lams = _sign_symmetric_log_grid(lambda_count, 1e-6, lambda_max)
    lam_sq = lams * lams

    def worst_for_p(p: float) -> tuple[float, float]:
        prob = as_probability(float(p))
        q2 = q_norm(prob).value ** 2
        gaps = q2 * lam_sq - log_mgf_values(prob, lams)
        i = int(np.argmin(gaps))
        return float(gaps[i]), float(lams[i])

    rows = ordered_map(worst_for_p, p_grid.tolist())
    worst_idx = int(np.argmin([r[0] for r in rows]))
    worst_gap, worst_lam = rows[worst_idx]
    return SweepResult(
        suite="kearns-saul",
        passed=worst_gap >= -tol,
        worst=worst_gap,
        witness={"p": float(p_grid[worst_idx]), "lambda": worst_lam},
        detail=f"min gap over {p_count}x{len(lams)} grid (tol {tol:g})",
    )


def sharpness_sweep(
    p_values: Sequence[float] | None = None,
    tol: float = 1e-8,
) -> SweepResult:
    """Check that the numeric norm reproduces the closed form Q(p).

    The defining supremum is attained, so the grid-plus-refinement numeric
    value must land within tol of Q(p) on every tested p.
    """
    if p_values is None:
        p_values = [round(0.01 * k, 2) for k in range(1, 100)]
    if len(p_values) == 0:
        raise DomainError("sharpness p grid is empty")

    def error_for_p(p: float) -> float:
        ind = as_indicator(p)
        numeric = subgaussian_norm_numeric(ind.log_mgf_curve())
        return abs(numeric.value - q_norm(ind.prob).value)

    errors = ordered_map(error_for_p, list(p_values))
    worst_idx = int(np.argmax(errors))
    return SweepResult(
        suite="sharpness",
        passed=errors[worst_idx] <= tol,
        worst=errors[worst_idx],
        witness={"p": float(p_values[worst_idx])},
        detail=f"max |numeric - closed| over {len(errors)} p-values (tol {tol:g})",
    )


def argmax_sweep(
    p_values: Sequence[float] | None = None,
    tol_arg: float = 1e-6,
    tol_val: float = 1e-10,
    lambda_max: float = 60.0,
) -> SweepResult:
    """Check the extremal point: argmax of g sits at 2 log((1-p)/p).

    Also checks the exact identity g(t*) = Q(p)^2 at the closed-form
    extremal point.  p = 1/2 is excluded (t* = 0 is the limit case there).
    """
    if p_values is None:
        p_values = [round(0.01 * k, 2) for k in range(1, 100) if k != 50]
    if len(p_values) == 0:
        raise DomainError("argmax p grid is empty")

    def errs_for_p(p: float) -> tuple[float, float]:
        prob = as_probability(p)
        lam0 = lambda_star(prob)
        val_err = abs(g_value(prob, lam0) - q_norm(prob).value ** 2)
        lo, hi = (1e-6, lambda_max) if lam0 > 0 else (-lambda_max, -1e-6)
        res = golden_section_argmax(
            lambda t: g_value(prob, t), lo, hi, tol=1e-9, max_iter=300
        )
        return abs(res.argmax - lam0), val_err

    rows = ordered_map(errs_for_p, list(p_values))
    arg_errs = [r[0] for r in rows]
    val_errs = [r[1] for r in rows]
    worst_idx = int(np.argmax(arg_errs))
    worst_val = max(val_errs)
    passed = arg_errs[worst_idx] <= tol_arg and worst_val <= tol_val
    return SweepResult(
        suite="argmax",
        passed=passed,
        worst=arg_errs[worst_idx],
        witness={
            "p": float(p_values[worst_idx]),
            "argmax_err": arg_errs[worst_idx],
            "value_err": worst_val,
        },
        detail=(
            f"max |argmax - t*| (tol {tol_arg:g}); "
            f"max |g(t*) - Q^2| = {worst_val:.3g} (tol {tol_val:g})"
        ),
    )


def _random_sum(rng: np.random.Generator, m_max: int) -> WeightedIndicatorSum:
    m = int(rng.integers(1, m_max + 1))
    coeffs = rng.uniform(-2.0, 2.0, size=m)
    probs = rng.uniform(0.02, 0.98, size=m)
    return WeightedIndicatorSum(coeffs, probs, independent=True)


def domination_sweep(
    n_random: int = 500,
    seed: int = DEFAULT_DOMINATION_SEED,
    m_max: int = 16,
    grid_points: int = 64,
    dp_sizes: Sequence[int] = (16, 128, 1024, 10_000),
    tol: float = 0.0,
) -> SweepResult:
    """Check exact tails never exceed the quadratic-bound tail.

    Random weighted sums (enumeration oracle, m <= m_max) plus unit-weight
    sums up to the largest dp_sizes entry (DP oracle), each on a 64-point
    threshold grid spanning [0, ess sup].  Passes on zero violations of
    exact <= exp(-x^2 / (4 B^2)) + tol.
    """
    if grid_points < 1:
        raise DomainError(f"domination x grid is empty (grid_points = {grid_points})")
    rng = np.random.default_rng(seed)
    worst_margin = -math.inf
    witness: dict = {}
    violations = 0
    checked = 0

    def check(table, s: WeightedIndicatorSum, label: str) -> None:
        nonlocal worst_margin, witness, violations, checked
        b = norm_bound_independent(s).value
        xs = np.linspace(0.0, s.abs_range, grid_points)
        exact = tail_curve(table, xs, side="max_both")
        with np.errstate(divide="ignore"):
            bound = np.where(xs == 0.0, 1.0, np.exp(-(xs * xs) / (4.0 * b * b)))
        margins = exact - bound
        i = int(np.argmax(margins))
        checked += len(xs)
        violations += int(np.count_nonzero(margins > tol))
        if margins[i] > worst_margin:
            worst_margin = float(margins[i])
            witness = {"sum": label, "x": float(xs[i]), "bound_norm": b}

    for k in range(n_random):
        s = _random_sum(rng, m_max)
        check(exhaustive_outcome_table(s), s, f"random[{k}] m={s.n_terms}")

    for n in dp_sizes:
        for label, ps in (
            ("fair", np.full(n, 0.5)),
            ("p=0.1", np.full(n, 0.1)),
            ("mixed", rng.uniform(0.05, 0.95, size=n)),
        ):
            s = WeightedIndicatorSum(np.ones(n), ps, independent=True)
            check(poisson_binomial_table(ps), s, f"dp n={n} {label}")

    return SweepResult(
        suite="domination",
        passed=violations == 0,
        worst=worst_margin,
        witness=witness,
        detail=f"{violations} violations over {checked} (sum, x) pairs",
    )


SUITES = {
    "kearns-saul": kearns_saul_sweep,
    "sharpness": sharpness_sweep,
    "domination": domination_sweep,
    "argmax": argmax_sweep,
}

# SUITES by default-grid run time, longest first; `verify --suite all`
# starts them in this order.  Medians of 5 in-process runs, one thread,
# 2 vCPUs: domination 0.79 s, kearns-saul 0.28, sharpness 0.23, argmax 0.14.
LONGEST_FIRST = ("domination", "kearns-saul", "sharpness", "argmax")


def run_suite(name: str, **kwargs) -> SweepResult:
    """Run one named sweep with keyword overrides."""
    try:
        fn = SUITES[name]
    except KeyError:
        raise ValueError(
            f"unknown suite {name!r}; choose from {sorted(SUITES)}"
        ) from None
    return fn(**kwargs)
