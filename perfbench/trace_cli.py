"""Run the subgauss command line with timing spans at each layer boundary.

    python perfbench/trace_cli.py METRICS_JSON ARG...

runs `subgauss ARG...` in this process and writes the per-layer metrics to
METRICS_JSON.  Before the command runs, each public function that a layer
calls in another layer is replaced, under the name the calling module looks
it up by (for example `subgauss.report.monte_carlo_tail`), by a wrapper that
records a span: its name, start, end and parent span.  The files under
src/ are not changed; only this process sees the wrappers.

A span's self time is its duration minus the part of it that its child
spans cover.  Spans opened by worker threads of `ordered_map` take the span
that called `ordered_map` as their parent.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import json
import math
import resource
import sys
import threading
import time

import numpy as np

import subgauss.cli as cli
import subgauss.core as core
import subgauss.oracles as oracles
import subgauss.parallel as parallel
import subgauss.report as report
import subgauss.sums as sums
import subgauss.verify as verify

_ids = itertools.count()
_local = threading.local()
# (span id, parent id or None, name, start, end, counts or None); list.append
# is atomic, so worker threads append without a lock.
_spans: list[tuple] = []
_map_workers: list[int] = []
_mc_blocks: set[tuple] = set()


def _stack() -> list[int]:
    stack = getattr(_local, "stack", None)
    if stack is None:
        stack = _local.stack = []
    return stack


def _minflt() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


def timed(name, fn, counts=None, minflt=None):
    """Wrap fn in a span; counts(bound_args, result) gives its work counters."""
    sig = inspect.signature(fn) if counts else None

    def wrapper(*args, **kwargs):
        stack = _stack()
        sid = next(_ids)
        parent = stack[-1] if stack else None
        stack.append(sid)
        faults = _minflt() if minflt else 0
        t0 = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            t1 = time.perf_counter()
            stack.pop()
        work = None
        if counts:
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            work = counts(bound.arguments, result)
        if minflt:
            work = dict(work or {}, **{minflt: _minflt() - faults})
        _spans.append((sid, parent, name, t0, t1, work))
        return result

    return wrapper


def traced_ordered_map(fn, items):
    """ordered_map whose workers open their spans under the caller's span."""
    seq = list(items)
    _map_workers.append(min(parallel.max_threads(), len(seq)) if seq else 1)
    stack = _stack()
    parent = stack[-1] if stack else None
    if parent is None:
        return parallel.ordered_map(fn, seq)

    def under_parent(item):
        worker_stack = _stack()
        worker_stack.append(parent)
        try:
            return fn(item)
        finally:
            worker_stack.pop()

    return parallel.ordered_map(under_parent, seq)


def _dp_counts(args, table):
    return {
        "oracles.dp.atoms": table.n_atoms,
        "oracles.dp.nonzero_atoms": int(np.count_nonzero(table.masses)),
    }


def _mc_counts(args, estimate):
    s, n, seed = args["s"], args["n_samples"], args["seed"]
    blocks = -(-n // oracles.MC_BLOCK_SIZE)
    for b in range(blocks):
        rows = min(oracles.MC_BLOCK_SIZE, n - b * oracles.MC_BLOCK_SIZE)
        _mc_blocks.add((id(s), seed, b, rows))
    return {"oracles.mc.blocks": blocks, "oracles.mc.uniforms": n * s.n_terms}


def install() -> None:
    """Replace each layer-boundary name with its timed wrapper."""
    q = functools.partial(timed, "core.q_norm")
    for mod in (sums, verify, cli):
        mod.q_norm = q(mod.q_norm)

    log_mgf = functools.partial(timed, "core.log_mgf")
    core.log_mgf_values = log_mgf(core.log_mgf_values)
    core.g_values = log_mgf(core.g_values)
    verify.log_mgf_values = log_mgf(verify.log_mgf_values)
    verify.g_value = log_mgf(verify.g_value)
    oracles.log_mgf_values = log_mgf(oracles.log_mgf_values)

    verify.subgaussian_norm_numeric = timed(
        "core.numeric_sup", verify.subgaussian_norm_numeric
    )
    golden = functools.partial(
        timed, "optimize.golden",
        counts=lambda a, r: {"optimize.golden.iterations": r.iterations},
    )
    core.golden_section_argmax = golden(core.golden_section_argmax)
    verify.golden_section_argmax = golden(verify.golden_section_argmax)

    cls = sums.WeightedIndicatorSum
    cls.abs_range = property(timed("sums.range", cls.abs_range.fget))
    construct = timed(
        "sums.construct", cls, counts=lambda a, r: {"sums.construct.terms": r.n_terms}
    )
    cli.WeightedIndicatorSum = construct
    verify.WeightedIndicatorSum = construct
    report.best_norm_bound = timed("sums.norm_bound", report.best_norm_bound)
    verify.norm_bound_independent = timed(
        "sums.norm_bound", verify.norm_bound_independent
    )

    dp = functools.partial(
        timed, "oracles.dp", counts=_dp_counts, minflt="oracles.dp.minflt"
    )
    for mod in (report, verify, cli):
        mod.poisson_binomial_table = dp(mod.poisson_binomial_table)
    enum_counts = lambda a, r: {"oracles.enumerate.outcomes": 2 ** a["s"].n_terms}
    for mod in (report, verify):
        mod.exhaustive_outcome_table = timed(
            "oracles.enumerate", mod.exhaustive_outcome_table, counts=enum_counts
        )
    one_threshold = lambda a, r: {"oracles.tail.thresholds": 1}
    for mod in (report, cli):
        mod.exact_tail = timed("oracles.tail", mod.exact_tail, counts=one_threshold)
    verify.tail_curve = timed(
        "oracles.tail", verify.tail_curve,
        counts=lambda a, r: {"oracles.tail.thresholds": int(np.size(a["xs"]))},
    )
    report.monte_carlo_tail = timed(
        "oracles.mc", report.monte_carlo_tail, counts=_mc_counts
    )
    oracles.ordered_map = traced_ordered_map
    verify.ordered_map = traced_ordered_map

    for name in list(verify.SUITES):
        verify.SUITES[name] = timed(
            "verify." + name.replace("-", "_"), verify.SUITES[name]
        )
    cli.build_bound_report = timed("report.build", cli.build_bound_report)
    cli.report_to_json = timed("report.serialize", cli.report_to_json)
    cli.report_to_csv = timed("report.serialize", cli.report_to_csv)


def _covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of intervals."""
    total = 0.0
    end = -math.inf
    for a, b in sorted(intervals):
        if b <= end:
            continue
        total += b - max(a, end)
        end = b
    return total


def layer_metrics() -> dict[str, float]:
    """Aggregate the spans: self time and calls per span name, plus counters."""
    children: dict[int, list[tuple[float, float]]] = {}
    for _, parent, _, t0, t1, _ in _spans:
        if parent is not None:
            children.setdefault(parent, []).append((t0, t1))
    out: dict[str, float] = {}

    def add(key, value):
        out[key] = out.get(key, 0) + value

    for sid, _, name, t0, t1, work in _spans:
        add(name + ".calls", 1)
        add(name + ".s", t1 - t0)
        add(name + ".self_s", (t1 - t0) - _covered(children.get(sid, [])))
        for key, value in (work or {}).items():
            add(key, value)
    out["parallel.map.calls"] = len(_map_workers)
    out["parallel.map.workers"] = max(_map_workers, default=0)
    out["oracles.mc.distinct_blocks"] = len(_mc_blocks)
    return out


def main(argv: list[str]) -> int:
    out_path, cli_args = argv[0], argv[1:]
    install()
    run = timed("cli", cli.main)
    try:
        code = run(cli_args)
    except SystemExit as exc:  # argparse exits on usage errors and --version
        code = exc.code if isinstance(exc.code, int) else 1
    sys.stdout.flush()
    t_post = time.perf_counter()
    metrics = layer_metrics()
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump({"metrics": metrics, "post_s": time.perf_counter() - t_post}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
