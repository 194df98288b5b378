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
from dataclasses import asdict, dataclass
from typing import Sequence

import numpy as np

from ._version import __version__
from .core import tail_bound_from_norm
from .errors import CapExceededError, DomainError
from .oracles import (
    _DP_CAP,
    _EXHAUSTIVE_CAP,
    MC_STREAM_VERSION,
    DistributionTable,
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
    "exact_law",
    "report_to_json",
    "report_from_json",
    "report_to_csv",
    "EXACT_INVARIANT_TOL",
]

EXACT_INVARIANT_TOL = 1e-12


@dataclass(frozen=True)
class BoundRow(object):
    """One threshold with its bound and available ground truth."""

    # Field order is the key order of report JSON rows.
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


TERMS_DIGEST_VERSION = 2


def _terms_digest(s: WeightedIndicatorSum) -> str:
    """sha256 of the terms' canonical bytes (digest version 2).

    The bytes are b"subgauss-terms-v2\\n", one byte 1 if independent else 0,
    n_terms as 8-byte little-endian, then the n coefficients and the n
    probabilities, each as little-endian binary64.  Binary64 is one-to-one
    on finite floats and keeps -0.0 apart from 0.0, so two sums share the
    bytes exactly when their terms are bitwise equal.
    """
    coeffs = np.ascontiguousarray(s.coeffs, dtype="<f8")
    probs = np.ascontiguousarray(s.p_values, dtype="<f8")
    h = hashlib.sha256(b"subgauss-terms-v2\n")
    h.update(bytes([1 if s.independent else 0]))
    h.update(len(coeffs).to_bytes(8, "little"))
    h.update(coeffs)
    h.update(probs)
    return h.hexdigest()


def exact_law(
    s: WeightedIndicatorSum, required: bool = False
) -> tuple[str, DistributionTable | None]:
    """The exact oracle for s, as (method, table); the one place the caps apply.

    ("dp", table) for independent unit-weight sums up to _DP_CAP terms,
    ("exhaustive", table) for other independent sums up to _EXHAUSTIVE_CAP
    terms, ("mc", None) past both caps, and ("none", None) for dependent
    sums, whose joint law the marginals do not determine.  With required,
    the last two raise CapExceededError instead.
    """
    if not s.independent:
        if required:
            raise CapExceededError(
                "exact tails are undefined for a dependent sum: the marginals "
                "do not determine the joint law"
            )
        return "none", None
    if s.unit_coeffs and s.n_terms <= _DP_CAP:
        return "dp", poisson_binomial_table(s.p_values)
    if s.n_terms <= _EXHAUSTIVE_CAP:
        return "exhaustive", exhaustive_outcome_table(s)
    if required:
        raise CapExceededError(
            f"exact tails infeasible: m = {s.n_terms} exceeds both caps "
            f"(exhaustive {_EXHAUSTIVE_CAP}, unit-weight DP {_DP_CAP})"
        )
    return "mc", None


def build_bound_report(
    s: WeightedIndicatorSum,
    xs: Sequence[float],
    seed: int = 0,
    mc_samples: int = 200_000,
    exact_required: bool = False,
) -> BoundReport:
    """Assemble a report for the given thresholds.

    The ground-truth column is exact_law's: exact tails from the DP or
    enumeration table, Monte Carlo past both caps, and for dependent sums
    only the triangle-bound column.  With exact_required, an infeasible
    exact request raises CapExceededError instead of degrading.

    All thresholds are validated before any oracle runs; the Monte Carlo
    path makes one draw for all of them (see monte_carlo_tail).
    """
    bound = best_norm_bound(s)
    xs = [float(x) for x in xs]
    for x in xs:
        if not (math.isfinite(x) and x >= 0.0):
            raise DomainError(f"thresholds must be finite and >= 0, got {x!r}")
    exact_method, table = exact_law(s, exact_required)
    n, empty = s.n_terms, [None] * len(xs)
    mcs = monte_carlo_tail(s, xs, mc_samples, seed) if exact_method == "mc" else empty
    exacts = empty if table is None else [exact_tail(table, x) for x in xs]
    fair = s.independent and s.unit_coeffs and (s.p_values == 0.5).all()
    hoeffs = [hoeffding_reference_tail(2.0 * x / math.sqrt(n)) for x in xs] if fair else empty
    bounds = tail_bound_from_norm(bound.value, xs).tolist()

    metadata = {
        "terms_digest": _terms_digest(s),
        "terms_digest_version": TERMS_DIGEST_VERSION,
        "n_terms": s.n_terms,
        "independent": s.independent,
        "bound_kind": bound.kind.value,
        "bound_norm": bound.value,
        "exact_method": exact_method,
        "seed": seed if exact_method == "mc" else None,
        "mc_samples": mc_samples if exact_method == "mc" else None,
        "mc_stream_version": MC_STREAM_VERSION if exact_method == "mc" else None,
        "invariant_tol": EXACT_INVARIANT_TOL,
        "version": __version__,
    }
    return BoundReport(tuple(map(BoundRow, xs, exacts, mcs, bounds, hoeffs)), metadata)


def report_to_json(report: BoundReport) -> str:
    """Serialize with shortest round-trip float representations."""
    rows = [asdict(r) for r in report.rows]
    return json.dumps({"metadata": report.metadata, "rows": rows}, indent=2)


def report_from_json(text: str) -> BoundReport:
    """Rebuild a report; float fields round-trip bit-exactly.

    A row with a missing or unknown key raises TypeError.
    """
    payload = json.loads(text)
    rows = tuple(
        BoundRow(**{**row, "mc": row["mc"] and McEstimate(**row["mc"])})
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
