"""Command line interface.

Subcommands
-----------
q          table of exact norms and companions over a probability grid
bound      tail-bound report for a weighted indicator sum vs its oracles
verify     run a verification sweep (kearns-saul, sharpness, domination, argmax)
example32  normalized fair-coin sum: exact tail vs the Gaussian-style bound

Data goes to stdout, diagnostics to stderr.  Exit codes: 0 success,
1 verification failure, 2 usage or parse error, 3 infeasible request.
The SUBGAUSS_THREADS environment variable caps worker parallelism: worker
processes when verify has more than one task (verify.run_suites), threads
for the Monte Carlo blocks of bound, and the spec reader process that the
entry (`python -m subgauss`, the `subgauss` script; see __main__) forks for
`bound SPEC` while numpy imports; at a cap of 1 the spec is read in this
process.  Output is deterministic regardless of its value.  The entry also
sets OPENBLAS_NUM_THREADS to 1 unless it is set: no command calls BLAS.
main() itself never forks a reader.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import asdict
from typing import Sequence

import numpy as np

from ._version import __version__
from .core import gls_norm, lambda_star, q_asymptotic, q_norm
from .errors import CapExceededError, SubgaussError
from .oracles import exact_tail, poisson_binomial_table
from .report import _fmt, build_bound_report, report_to_csv, report_to_json
from .spec import SpecReader, read_terms
from .spec import UsageError as _UsageError
from .sums import WeightedIndicatorSum, hoeffding_reference_tail
from .verify import SUITES, _GRID_PARAMS, _SEEDED, run_suites

_EXIT_OK = 0
_EXIT_VERIFY_FAIL = 1
_EXIT_USAGE = 2
_EXIT_INFEASIBLE = 3


def _parse_floats(text: str) -> list[float]:
    try:
        return [float(tok) for tok in text.split(",") if tok.strip() != ""]
    except ValueError:
        raise _UsageError(f"expected comma-separated floats, got {text!r}") from None


def _parse_grid(text: str) -> list[float]:
    """start:stop:count linear grid, or a comma list of values."""
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise _UsageError(f"grid must be start:stop:count, got {text!r}")
        try:
            start, stop = float(parts[0]), float(parts[1])
            count = int(parts[2])
        except ValueError:
            raise _UsageError(f"grid must be start:stop:count, got {text!r}") from None
        if count < 1:
            raise _UsageError("grid count must be >= 1")
        if count == 1:
            return [start]
        step = (stop - start) / (count - 1)
        return [start + k * step for k in range(count)]
    return _parse_floats(text)


def _emit(text: str) -> None:
    sys.stdout.write(text if text.endswith("\n") else text + "\n")


def _emit_rows(rows: list[tuple], columns: Sequence[str], fmt: str) -> None:
    """Rows of values in column order, as a JSON list of objects or as CSV.

    The CSV header comes from columns, so an empty table still has one.
    """
    if fmt == "json":
        _emit(json.dumps([dict(zip(columns, r)) for r in rows], indent=2))
    else:
        _emit("\n".join([",".join(columns)] + [",".join(map(_fmt, r)) for r in rows]))


def _note(text: str) -> None:
    sys.stderr.write(text + "\n")


def _read_sum_spec(path: str, reader: SpecReader | None = None) -> WeightedIndicatorSum:
    """The sum the spec file at path declares (spec.read_terms), from the start-up's
    reader when it read that path and its message loads whole, else read here."""
    terms = reader.take(path) if reader is not None else None
    coeffs, probs, independent = terms or read_terms(path)
    return WeightedIndicatorSum(np.frombuffer(coeffs), np.frombuffer(probs),
                                independent=independent)


def _cmd_q(args: argparse.Namespace) -> int:
    if args.p is not None:
        ps = _parse_floats(args.p)
    else:
        ps = _parse_grid(args.grid)
    rows = []
    for p in ps:
        q = q_norm(p).value
        lam0 = lambda_star(p) if 0.0 < p < 1.0 else None
        asym = q_asymptotic(p) if p not in (0.0, 0.5, 1.0) else None
        rows.append((p, q, lam0, asym, gls_norm(p)))
    _emit_rows(rows, ("p", "q_norm", "lambda_star", "q_asymptotic", "gls_norm"),
               args.format)
    return _EXIT_OK


def _cmd_bound(args: argparse.Namespace) -> int:
    if args.spec is not None:
        if args.coeffs is not None or args.probs is not None:
            raise _UsageError("give either a spec file or --coeffs/--probs, not both")
        s = _read_sum_spec(args.spec, args.spec_reader)
    else:
        if args.probs is None:
            raise _UsageError("need a sum: either a spec file or --probs")
        probs = _parse_floats(args.probs)
        coeffs = _parse_floats(args.coeffs) if args.coeffs else [1.0] * len(probs)
        s = WeightedIndicatorSum(coeffs, probs, independent=not args.dependent)
    if args.x_grid is not None:
        xs = _parse_grid(args.x_grid)
    else:
        hi = s.abs_range
        xs = _parse_grid(f"0:{hi}:17")
    report = build_bound_report(
        s,
        xs,
        seed=args.seed,
        mc_samples=args.mc_samples,
        exact_required=args.exact_required,
    )
    if not s.independent:
        _note("note: dependent sum, triangle bound only (no exact/MC columns)")
    _emit(report_to_json(report) if args.format == "json" else report_to_csv(report))
    return _EXIT_OK


def _verify_kwargs(args: argparse.Namespace) -> dict[str, dict]:
    """Each chosen suite's keyword arguments: --grid counts fill the
    parameters verify._GRID_PARAMS names (`all` passes N[:X] to each),
    --tol goes to every suite and --seed to the suites verify._SEEDED
    names; --seed for a suite that takes none is a usage error."""
    names = list(SUITES) if args.suite == "all" else [args.suite]
    if args.seed is not None and not any(name in _SEEDED for name in names):
        raise _UsageError(f"--seed is for {', '.join(_SEEDED)}; {args.suite} takes no seed")
    counts: list[int] = []
    if args.grid is not None:
        try:
            counts = [int(tok) for tok in args.grid.split(":")]
        except ValueError:
            raise _UsageError(f"--grid must be integer counts, got {args.grid!r}") from None
        shape = "N[:X]" if args.suite == "all" else _GRID_PARAMS[args.suite][0]
        if len(counts) > shape.count(":") + 1:
            raise _UsageError(f"--grid for {args.suite} is {shape}, got {args.grid!r}")
    suites = {}
    for name in names:
        kwargs = suites[name] = dict(zip(_GRID_PARAMS[name][1], counts))
        if args.tol is not None:
            kwargs["tol"] = args.tol
        if args.seed is not None and name in _SEEDED:
            kwargs["seed"] = args.seed
    return suites


def _cmd_verify(args: argparse.Namespace) -> int:
    results = run_suites(_verify_kwargs(args))
    if args.format == "json":
        _emit(json.dumps([asdict(r) for r in results], indent=2))
    else:
        lines = ["suite,passed,worst,witness"]
        for r in results:
            witness = ";".join(f"{k}={v:.6g}" if isinstance(v, float) else f"{k}={v}"
                               for k, v in r.witness.items())
            lines.append(f"{r.suite},{str(r.passed).lower()},{_fmt(r.worst)},{witness}")
        _emit("\n".join(lines))
    for r in results:
        _note(r.summary())
    return _EXIT_OK if all(r.passed for r in results) else _EXIT_VERIFY_FAIL


def _cmd_example32(args: argparse.Namespace) -> int:
    n = args.n
    if n < 1:
        raise _UsageError(f"need n >= 1, got {n}")
    xs = _parse_grid(args.x_grid)
    kept = [x for x in xs if not x <= 0.0]  # a NaN is kept, for exact_tail to reject
    if len(kept) < len(xs):
        _note("note: dropped x <= 0 grid points (ratio undefined at 0)")
    table = poisson_binomial_table([0.5] * n)
    rn = math.sqrt(n)
    rows = []
    for x in kept:
        tail = exact_tail(table, x * rn / 2.0, side="upper")
        gauss = hoeffding_reference_tail(x)
        rows.append((x, tail, gauss, tail * x * math.exp(x * x / 2.0)))
    _emit_rows(rows, ("x", "scaled_tail", "gauss_bound", "ratio"), args.format)
    return _EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="subgauss",
        description="Exact subgaussian norms of centered indicators and "
                    "tail bounds for their weighted sums.",
    )
    parser.add_argument("--version", action="version", version=f"subgauss {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_format(p: argparse.ArgumentParser) -> None:
        p.add_argument("--format", choices=("csv", "json"), default="csv",
                       help="output format (default csv)")

    p_q = sub.add_parser("q", help="norm table over a probability grid")
    p_q.add_argument("-p", "--p", default=None,
                     help="comma-separated probabilities (overrides --grid)")
    p_q.add_argument("--grid", default="0:1:21",
                     help="probability grid start:stop:count (default 0:1:21)")
    add_format(p_q)
    p_q.set_defaults(fn=_cmd_q)

    p_b = sub.add_parser("bound", help="tail-bound report for a weighted sum")
    p_b.add_argument("spec", nargs="?", default=None,
                     help="sum spec file: optional 'independent: true|false' "
                          "header, then one 'coefficient probability' per line, "
                          "'#' comments")
    p_b.add_argument("--coeffs", default=None, help="inline comma-separated coefficients")
    p_b.add_argument("--probs", default=None, help="inline comma-separated probabilities")
    p_b.add_argument("--dependent", action="store_true",
                     help="declare the inline terms arbitrarily dependent")
    p_b.add_argument("--x-grid", default=None,
                     help="thresholds start:stop:count or comma list "
                          "(default 0:ess-sup:17)")
    p_b.add_argument("--seed", type=int, default=0, help="Monte Carlo seed (default 0)")
    p_b.add_argument("--mc-samples", type=int, default=200_000,
                     help="Monte Carlo sample count (default 200000)")
    p_b.add_argument("--exact-required", action="store_true",
                     help="fail (exit 3) instead of falling back to Monte Carlo")
    add_format(p_b)
    p_b.set_defaults(fn=_cmd_bound)

    p_v = sub.add_parser("verify", help="run verification sweeps")
    p_v.add_argument("--suite", choices=(*SUITES, "all"), default="all",
                     help="which sweep to run (default all)")
    p_v.add_argument("--tol", type=float, default=None, help="tolerance override")
    p_v.add_argument("--seed", type=int, default=None,
                     help="seed of the domination suite's random sums "
                          "(domination and all only)")
    p_v.add_argument("--grid", default=None,
                     help="grid-size override: kearns-saul P[:L] (L//2 t-points "
                          "per sign, so 3:5 runs a 3x4 grid), domination N[:X], "
                          "sharpness/argmax N; all passes N[:X] to each")
    add_format(p_v)
    p_v.set_defaults(fn=_cmd_verify)

    p_e = sub.add_parser("example32",
                         help="normalized fair-coin sum vs the exp(-x^2/2) bound")
    p_e.add_argument("--n", type=int, default=4096, help="number of coins (default 4096)")
    p_e.add_argument("--x-grid", default="0.5:3:6",
                     help="threshold grid start:stop:count or comma list "
                          "(default 0.5:3:6)")
    add_format(p_e)
    p_e.set_defaults(fn=_cmd_example32)

    return parser


def main(argv: Sequence[str] | None = None, spec_reader: SpecReader | None = None) -> int:
    """Run the command line on argv (default sys.argv[1:]).  spec_reader is
    the reader that `python -m subgauss` forked for the spec, if any; the
    caller closes it."""
    parser = _build_parser()
    args = parser.parse_args(argv)
    args.spec_reader = spec_reader
    try:
        return args.fn(args)
    except _UsageError as exc:
        _note(f"error: {exc}")
        return _EXIT_USAGE
    except CapExceededError as exc:
        _note(f"infeasible: {exc}")
        return _EXIT_INFEASIBLE
    except (SubgaussError, ValueError) as exc:
        _note(f"error: {exc}")
        return _EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
