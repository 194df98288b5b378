"""Verification sweeps: each checks one provable claim over a dense grid.

These back the CLI's verify subcommand and the acceptance tests.  Every
sweep returns a SweepResult carrying the pass flag, the worst observed
statistic, and the witness parameters that achieved it, so a failure always
points at a concrete counterexample candidate.
"""

from __future__ import annotations

import functools
import inspect
import math
from dataclasses import dataclass, field
from typing import Mapping, NamedTuple, Sequence

import numpy as np

from .core import _indicator_curve, _log_odds, _q_squared, g_values
from .core import log_mgf_values, subgaussian_norm_numeric, tail_bound_from_norm
from .core import g_value, q_norm  # noqa: F401 -- unused, but perfbench/trace_cli.py rebinds them
from .errors import DomainError
from .optimize import golden_section_argmax
from .parallel import process_map
from .sums import WeightedIndicatorSum, norm_bound_independent
from .oracles import tail_curve
# unused, but perfbench/trace_cli.py rebinds them
from .oracles import exhaustive_outcome_table, poisson_binomial_table  # noqa: F401
from .report import exact_law

__all__ = [
    "SweepResult",
    "kearns_saul_sweep",
    "sharpness_sweep",
    "argmax_sweep",
    "domination_sweep",
    "SUITES",
    "run_suite",
    "run_suites",
]

DEFAULT_DOMINATION_SEED = 20260818

# Most terms in a random domination sum, each drawn with 1 to this many.
_DOMINATION_M_MAX = 16

# Largest |t| of the kearns-saul grid and of the argmax search brackets.
_LAMBDA_MAX = 60.0
# Tolerance of the argmax sweep's value check g(t*) = Q(p)^2.
_TOL_VAL = 1e-10


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


def _p_grid(n: int, drop_half: bool = False) -> list[float]:
    """The sharpness and argmax p grid k / (n + 1), k = 1..n (n = 99 by
    default); drop_half leaves out p = 1/2, which argmax excludes."""
    return [k / (n + 1) for k in range(1, n + 1) if not (drop_half and 2 * k == n + 1)]


def kearns_saul_sweep(
    p_count: int = 999,
    lambda_count: int = 10_000,
    tol: float = 1e-12,
) -> SweepResult:
    """Check Q(p)^2 t^2 >= log-MGF(t) over a dense (p, t) grid.

    p runs over {0.001, ..., 0.999}; t over a sign-symmetric log grid in
    [-_LAMBDA_MAX, _LAMBDA_MAX].  Passes when the smallest observed gap stays
    above -tol (the slack is exactly zero at t = 0 and at the extremal
    point, so tiny negative rounding residue is the expected worst case).
    """
    if p_count < 1 or lambda_count < 2:
        raise DomainError("kearns-saul grid needs p_count >= 1 and lambda_count >= 2, "
                          f"got {p_count}:{lambda_count}")
    p_grid = np.linspace(0.001, 0.999, p_count)
    lams = _sign_symmetric_log_grid(lambda_count, 1e-6, _LAMBDA_MAX)
    lam_sq = lams * lams

    def worst_for_p(p_q: tuple[float, float]) -> tuple[float, float]:
        p, q = p_q
        gaps = q ** 2 * lam_sq - log_mgf_values(p, lams)
        i = int(np.argmin(gaps))
        return float(gaps[i]), float(lams[i])

    # Q(p) over the whole grid in one call, bitwise q_norm(p).value
    q_grid = np.sqrt(_q_squared(p_grid))
    # Serial: threads only contend for the GIL here (measured slower at a
    # cap of 2 than at 1).
    rows = list(map(worst_for_p, zip(p_grid.tolist(), q_grid.tolist())))
    worst_idx = int(np.argmin([r[0] for r in rows]))
    worst_gap, worst_lam = rows[worst_idx]
    return SweepResult(
        suite="kearns-saul",
        passed=worst_gap >= -tol,
        worst=worst_gap,
        witness={"p": float(p_grid[worst_idx]), "lambda": worst_lam},
        detail=f"min gap over {p_count}x{len(lams)} grid (tol {tol:g})",
    )


def sharpness_sweep(p_count: int = 99, tol: float = 1e-8) -> SweepResult:
    """Check that the numeric norm reproduces the closed form Q(p).

    The defining supremum is attained, so the grid-plus-refinement numeric
    value must land within tol of Q(p) on every p of the _p_grid(p_count)
    grid.  All p share one batched numeric supremum.
    """
    ps = np.array(_p_grid(p_count))
    if len(ps) == 0:
        raise DomainError("sharpness p grid is empty")

    numeric = subgaussian_norm_numeric(_indicator_curve(ps))
    # Q over the whole grid in one call, bitwise q_norm(p).value
    qs = np.sqrt(_q_squared(ps)).tolist()
    errors = [abs(n.value - q) for n, q in zip(numeric, qs)]
    worst_idx = int(np.argmax(errors))
    return SweepResult(
        suite="sharpness",
        passed=errors[worst_idx] <= tol,
        worst=errors[worst_idx],
        witness={"p": float(ps[worst_idx])},
        detail=f"max |numeric - closed| over {len(errors)} p-values (tol {tol:g})",
    )


def argmax_sweep(p_count: int = 99, tol: float = 1e-6) -> SweepResult:
    """Check the extremal point: argmax of g sits at 2 log((1-p)/p).

    Also checks the exact identity g(t*) = Q(p)^2 at the closed-form
    extremal point, on the _p_grid(p_count) grid less p = 1/2 (t* = 0 is
    the limit case there).  All p share one batched golden-section search.
    """
    ps = np.array(_p_grid(p_count, drop_half=True))
    if len(ps) == 0:
        raise DomainError("argmax p grid is empty")

    lam0 = 2.0 * _log_odds(ps)
    at_lam0 = g_values(ps, lam0).tolist()
    # q ** 2, not _q_squared: the reported value error keeps its bits
    qs = np.sqrt(_q_squared(ps)).tolist()
    val_errs = [abs(g - q ** 2) for g, q in zip(at_lam0, qs)]
    positive = lam0 > 0.0
    res = golden_section_argmax(
        lambda t: g_values(ps, t),
        np.where(positive, 1e-6, -_LAMBDA_MAX),
        np.where(positive, _LAMBDA_MAX, -1e-6),
        tol=1e-9,
        max_iter=300,
    )
    arg_errs = [abs(x - t) for x, t in zip(res.argmax.tolist(), lam0.tolist())]
    worst_idx = int(np.argmax(arg_errs))
    worst_val = max(val_errs)
    passed = arg_errs[worst_idx] <= tol and worst_val <= _TOL_VAL
    return SweepResult(
        suite="argmax",
        passed=passed,
        worst=arg_errs[worst_idx],
        witness={
            "p": float(ps[worst_idx]),
            "argmax_err": arg_errs[worst_idx],
            "value_err": worst_val,
        },
        detail=(
            f"max |argmax - t*| (tol {tol:g}); "
            f"max |g(t*) - Q^2| = {worst_val:.3g} (tol {_TOL_VAL:g})"
        ),
    )


@functools.lru_cache(maxsize=1)
def _domination_cases(seed: int, n_random: int,
                      dp_sizes: tuple[int, ...]) -> tuple[tuple, ...]:
    """The domination sweep's sums in order, as (label, coeffs, probs):
    n_random random weighted sums, then three unit-weight sums per DP size.

    The last draw is kept, with read-only arrays, so the tasks one worker
    runs draw the cases once between them.
    """
    rng = np.random.default_rng(seed)
    cases = []
    for k in range(n_random):
        m = int(rng.integers(1, _DOMINATION_M_MAX + 1))
        coeffs = rng.uniform(-2.0, 2.0, size=m)
        probs = rng.uniform(0.02, 0.98, size=m)
        cases.append((f"random[{k}] m={m}", coeffs, probs))
    for n in dp_sizes:
        for label, ps in (
            ("fair", np.full(n, 0.5)),
            ("p=0.1", np.full(n, 0.1)),
            ("mixed", rng.uniform(0.05, 0.95, size=n)),
        ):
            cases.append((f"dp n={n} {label}", np.ones(n), ps))
    for _, coeffs, probs in cases:
        coeffs.setflags(write=False)
        probs.setflags(write=False)
    return tuple(cases)


class _DominationPart(NamedTuple):
    """The domination statistics of a run of consecutive cases."""

    worst: float
    witness: dict
    violations: int
    checked: int


def _check_domination(start: int, stop: int | None, n_random: int, seed: int,
                      grid_points: int, dp_sizes: Sequence[int],
                      tol: float) -> _DominationPart:
    """Check cases [start, stop) of domination_sweep (stop None: to the end)."""
    if n_random < 0:
        raise DomainError(f"domination needs n_random >= 0, got {n_random}")
    if grid_points < 1:
        raise DomainError(f"domination x grid is empty (grid_points = {grid_points})")
    cases = _domination_cases(seed, n_random, tuple(dp_sizes))
    worst, witness, violations, checked = -math.inf, {}, 0, 0
    for label, coeffs, probs in cases[start:stop]:
        s = WeightedIndicatorSum(coeffs, probs, independent=True)
        _, table = exact_law(s, required=True)
        b = norm_bound_independent(s).value
        xs = np.linspace(0.0, s.abs_range, grid_points)
        margins = tail_curve(table, xs, side="max_both") - tail_bound_from_norm(b, xs)
        i = int(np.argmax(margins))
        checked += len(xs)
        # not margin <= tol: a NaN margin or tolerance is a violation
        violations += int(np.count_nonzero(~(margins <= tol)))
        if margins[i] > worst:
            worst = float(margins[i])
            witness = {"sum": label, "x": float(xs[i]), "bound_norm": b}
    return _DominationPart(worst, witness, violations, checked)


def _domination_result(parts: Sequence[_DominationPart]) -> SweepResult:
    """Merge parts given in case order; as in one scan, the first case to
    reach the largest margin is the witness."""
    worst, witness = -math.inf, {}
    for part in parts:
        if part.worst > worst:
            worst, witness = part.worst, part.witness
    violations = sum(part.violations for part in parts)
    return SweepResult(
        suite="domination",
        passed=violations == 0,
        worst=worst,
        witness=witness,
        detail=f"{violations} violations over {sum(part.checked for part in parts)} "
               "(sum, x) pairs",
    )


def domination_sweep(
    n_random: int = 500,
    seed: int = DEFAULT_DOMINATION_SEED,
    grid_points: int = 64,
    dp_sizes: Sequence[int] = (16, 128, 1024, 10_000),
    tol: float = 0.0,
) -> SweepResult:
    """Check exact tails never exceed the quadratic-bound tail.

    Random weighted sums (enumeration oracle, 1 to 16 terms) plus unit-weight
    sums up to the largest dp_sizes entry (DP oracle), each on a 64-point
    threshold grid spanning [0, ess sup].  Passes on zero violations of
    exact <= exp(-x^2 / (4 B^2)) + tol.
    """
    return _domination_result([_check_domination(
        0, None, n_random, seed, grid_points, dp_sizes, tol
    )])


SUITES = {
    "kearns-saul": kearns_saul_sweep,
    "sharpness": sharpness_sweep,
    "domination": domination_sweep,
    "argmax": argmax_sweep,
}

# Each suite's `verify --grid` shape, as usage errors print it, and the
# count parameters its counts fill in order.
_GRID_PARAMS = {
    "kearns-saul": ("P[:L]", ("p_count", "lambda_count")),
    "sharpness": ("N", ("p_count",)),
    "domination": ("N[:X]", ("n_random", "grid_points")),
    "argmax": ("N", ("p_count",)),
}

# The suites `verify --seed` reaches: those whose sweep takes a seed.
_SEEDED = tuple(name for name, fn in SUITES.items()
                if "seed" in inspect.signature(fn).parameters)


def run_suite(name: str, **kwargs) -> SweepResult:
    """Run one named sweep with keyword overrides."""
    try:
        fn = SUITES[name]
    except KeyError:
        raise ValueError(
            f"unknown suite {name!r}; choose from {sorted(SUITES)}"
        ) from None
    return fn(**kwargs)


# Random sums per domination task: small enough that the workers finish
# nearly together, large enough that handing out tasks stays cheap.
_DOMINATION_CHUNK = 50


def _tasks(name: str, kwargs: dict) -> list[tuple[str, dict, tuple | None]]:
    """run_suites' tasks for one suite: (name, kwargs, None) runs it whole.

    The domination sweep becomes (name, all arguments, (start, stop))
    tasks over its cases: the random sums in chunks of _DOMINATION_CHUNK,
    then each DP sum alone.
    """
    if name != "domination":
        return [(name, kwargs, None)]
    try:
        bound = inspect.signature(domination_sweep).bind(**kwargs)
        bound.apply_defaults()
        n_random = bound.arguments["n_random"]
        n_cases = n_random + 3 * len(bound.arguments["dp_sizes"])
        starts = [*range(0, n_random, _DOMINATION_CHUNK), *range(n_random, n_cases)] or [0]
    except TypeError:
        # run whole in a worker, which raises this in suite order
        return [(name, kwargs, None)]
    return [(name, bound.arguments, cases) for cases in zip(starts, starts[1:] + [n_cases])]


def _run_task(task: tuple[str, dict, tuple | None]) -> SweepResult | _DominationPart:
    name, kwargs, cases = task
    if cases is None:
        return run_suite(name, **kwargs)
    return _check_domination(*cases, **kwargs)


def run_suites(suites: Mapping[str, dict]) -> list[SweepResult]:
    """Run named sweeps, each with its keyword overrides, in forked workers.

    The domination sweep, the longest, is split into small tasks (see
    _tasks), so that the workers finish nearly together.  Tasks
    start in the order given (parallel.process_map, capped by
    SUBGAUSS_THREADS) and the results come back in that order, bitwise
    those of run_suite under every cap; the first error in that order is
    raised, as by a serial run.
    """
    tasks = [task for name, kwargs in suites.items() for task in _tasks(name, kwargs)]
    done = process_map(_run_task, tasks)
    results = []
    for name in suites:
        parts = [r for (n, _, _), r in zip(tasks, done) if n == name]
        results.append(_domination_result(parts) if name == "domination" else parts[0])
    return results
