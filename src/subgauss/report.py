"""Bound reports: tail bounds lined up against their oracles, serializable.

A report row holds one threshold x with the subgaussian tail bound and
whatever ground truth is available: the exact tail when an oracle is
feasible, otherwise a seeded Monte Carlo estimate.  Rows enforce the
defining invariant exact <= bound + 1e-12 at construction, so a report that
exists is already self-consistent.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from typing import Sequence

from ._version import __version__
from .core import tail_bound_from_norm
from .errors import CapExceededError, DomainError
from .oracles import (
    McEstimate,
    exact_tail,
    exhaustive_outcome_table,
    monte_carlo_tail,
    poisson_binomial_table,
)
from .sums import (
    WeightedIndicatorSum,
    best_norm_bound,
    hoeffding_reference_tail,
)

__all__ = [
    "BoundRow",
    "BoundReport",
    "build_bound_report",
    "report_to_json",
    "report_from_json",
    "report_to_csv",
    "EXACT_INVARIANT_TOL",
]

EXACT_INVARIANT_TOL = 1e-12


@dataclass(frozen=True)
class BoundRow(object):
    """One threshold with its bound and available ground truth."""

    x: float
    exact_tail: float | None
    mc: McEstimate | None
    subgaussian_bound: float
    hoeffding_bound: float | None

    def __post_init__(self) -> None:
        if self.exact_tail is not None:
            if self.exact_tail > self.subgaussian_bound + EXACT_INVARIANT_TOL:
                raise DomainError(
                    f"exact tail {self.exact_tail!r} exceeds the bound "
                    f"{self.subgaussian_bound!r} at x = {self.x!r}"
                )


@dataclass(frozen=True)
class BoundReport(object):
    """Rows plus reproducibility metadata (inputs digest, seeds, version)."""

    rows: tuple[BoundRow, ...]
    metadata: dict


def _terms_digest(s: WeightedIndicatorSum) -> str:
    # repr of Python floats: numpy 2 reprs np.float64 as 'np.float64(...)'
    canon = json.dumps(
        {
            "coeffs": [repr(c) for c in s.coeffs.tolist()],
            "probs": [repr(p) for p in s.p_values.tolist()],
            "independent": s.independent,
        },
        sort_keys=True,
    )
    return hashlib.sha256(canon.encode()).hexdigest()


def build_bound_report(
    s: WeightedIndicatorSum,
    xs: Sequence[float],
    seed: int = 0,
    mc_samples: int = 200_000,
    exhaustive_cap: int = 20,
    dp_cap: int = 100_000,
    exact_required: bool = False,
) -> BoundReport:
    """Assemble a report for the given thresholds.

    Ground-truth column selection: the DP oracle for independent
    unit-weight sums up to dp_cap terms, the enumeration oracle for other
    independent sums up to exhaustive_cap terms, Monte Carlo otherwise.
    Dependent sums get neither (their joint law is not determined by the
    marginals), only the triangle-bound column.  With exact_required, an
    infeasible exact request raises CapExceededError instead of degrading.

    All thresholds are validated before any sampling; the Monte Carlo
    path makes one draw for all of them (see monte_carlo_tail).
    """
    bound = best_norm_bound(s)
    table = None
    exact_method = "none"
    if s.independent:
        if s.unit_coeffs and s.n_terms <= dp_cap:
            table = poisson_binomial_table(s.p_values, cap=dp_cap)
            exact_method = "dp"
        elif s.n_terms <= exhaustive_cap:
            table = exhaustive_outcome_table(s, cap=exhaustive_cap)
            exact_method = "exhaustive"
        elif exact_required:
            raise CapExceededError(
                f"exact tails infeasible: m = {s.n_terms} exceeds both caps "
                f"(exhaustive {exhaustive_cap}, unit-weight DP {dp_cap})"
            )
        else:
            exact_method = "mc"
    elif exact_required:
        raise CapExceededError(
            "exact tails are undefined for a dependent sum: the marginals "
            "do not determine the joint law"
        )

    is_fair_coins = s.independent and s.unit_coeffs and (s.p_values == 0.5).all()
    n = s.n_terms

    xs = [float(x) for x in xs]
    for x in xs:
        if not (math.isfinite(x) and x >= 0.0):
            raise DomainError(f"thresholds must be finite and >= 0, got {x!r}")
    mcs = [None] * len(xs)
    if exact_method == "mc":
        mcs = monte_carlo_tail(s, xs, mc_samples, seed)

    rows = []
    for x, mc in zip(xs, mcs):
        exact = exact_tail(table, x) if table is not None else None
        hoeff = None
        if is_fair_coins:
            hoeff = hoeffding_reference_tail(n, 2.0 * x / math.sqrt(n))
        rows.append(
            BoundRow(
                x=x,
                exact_tail=exact,
                mc=mc,
                subgaussian_bound=tail_bound_from_norm(bound.value, x),
                hoeffding_bound=hoeff,
            )
        )

    metadata = {
        "terms_digest": _terms_digest(s),
        "n_terms": s.n_terms,
        "independent": s.independent,
        "bound_kind": bound.kind.value,
        "bound_norm": bound.value,
        "exact_method": exact_method,
        "seed": seed if exact_method == "mc" else None,
        "mc_samples": mc_samples if exact_method == "mc" else None,
        "invariant_tol": EXACT_INVARIANT_TOL,
        "version": __version__,
    }
    return BoundReport(tuple(rows), metadata)


def report_to_json(report: BoundReport) -> str:
    """Serialize with shortest round-trip float representations."""
    payload = {
        "metadata": report.metadata,
        "rows": [
            {
                "x": r.x,
                "exact_tail": r.exact_tail,
                "mc": None
                if r.mc is None
                else {
                    "point": r.mc.point,
                    "ci_low": r.mc.ci_low,
                    "ci_high": r.mc.ci_high,
                    "n_samples": r.mc.n_samples,
                    "seed": r.mc.seed,
                },
                "subgaussian_bound": r.subgaussian_bound,
                "hoeffding_bound": r.hoeffding_bound,
            }
            for r in report.rows
        ],
    }
    return json.dumps(payload, indent=2)


def report_from_json(text: str) -> BoundReport:
    """Rebuild a report; float fields round-trip bit-exactly."""
    payload = json.loads(text)
    rows = tuple(
        BoundRow(
            x=row["x"],
            exact_tail=row["exact_tail"],
            mc=None
            if row["mc"] is None
            else McEstimate(
                point=row["mc"]["point"],
                ci_low=row["mc"]["ci_low"],
                ci_high=row["mc"]["ci_high"],
                n_samples=row["mc"]["n_samples"],
                seed=row["mc"]["seed"],
            ),
            subgaussian_bound=row["subgaussian_bound"],
            hoeffding_bound=row["hoeffding_bound"],
        )
        for row in payload["rows"]
    )
    return BoundReport(rows, payload["metadata"])


def _fmt(value: float | None) -> str:
    return "" if value is None else f"{value:.17g}"


def report_to_csv(report: BoundReport) -> str:
    """CSV with 17 significant digits; empty cells for absent values."""
    lines = ["x,exact_tail,mc_point,mc_ci_low,mc_ci_high,subgaussian_bound,hoeffding_bound"]
    for r in report.rows:
        mc = (r.mc.point, r.mc.ci_low, r.mc.ci_high) if r.mc else (None, None, None)
        cells = (r.x, r.exact_tail, *mc, r.subgaussian_bound, r.hoeffding_bound)
        lines.append(",".join(_fmt(c) for c in cells))
    return "\n".join(lines) + "\n"
