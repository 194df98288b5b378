"""Deterministic work distribution capped by the SUBGAUSS_THREADS env var.

ordered_map spreads work over threads, which overlap only where numpy
releases the GIL.  process_map spreads GIL-bound Python work over forked
worker processes; `verify` runs its suite tasks with it, so there the cap
bounds worker processes, and inside a worker every ordered_map runs
serially.
"""

from __future__ import annotations

import os
from typing import Callable, Iterable, Sequence, TypeVar

ENV_THREADS = "SUBGAUSS_THREADS"

_T = TypeVar("_T")
_R = TypeVar("_R")


def max_threads() -> int:
    """Worker cap: SUBGAUSS_THREADS if set, else cpu count clamped to 8."""
    raw = os.environ.get(ENV_THREADS)
    if raw is None:
        return min(os.cpu_count() or 1, 8)
    try:
        n = int(raw)
    except ValueError:
        raise ValueError(
            f"{ENV_THREADS} must be a positive integer, got {raw!r}"
        ) from None
    if n < 1:
        raise ValueError(f"{ENV_THREADS} must be a positive integer, got {raw!r}")
    return n


def ordered_map(fn: Callable[[_T], _R], items: Iterable[_T]) -> list[_R]:
    """Map preserving input order, threaded when the cap allows.

    Output is identical to list(map(fn, items)) regardless of thread count,
    so results never depend on scheduling.
    """
    seq: Sequence[_T] = list(items)
    workers = min(max_threads(), len(seq)) if seq else 1
    if workers <= 1:
        return [fn(item) for item in seq]
    # Imported here, as process_map imports its pool, so that startup
    # (e.g. --version) does not load concurrent.futures.
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, seq))


def _serial_worker() -> None:
    """Worker initializer: nested maps run serially, so the cap bounds
    the total number of busy workers."""
    os.environ[ENV_THREADS] = "1"


def process_map(fn: Callable[[_T], _R], items: Iterable[_T]) -> list[_R]:
    """ordered_map in forked worker processes, for work that holds the GIL.

    Same contract as ordered_map: results in input order, identical for
    every cap.  Items start in input order.  fn, the items and the results
    must pickle.  Runs serially for one item, a cap of 1, or a platform
    without fork.
    """
    seq: Sequence[_T] = list(items)
    workers = min(max_threads(), len(seq)) if len(seq) > 1 else 1
    if workers > 1:
        # Imported here so that startup (e.g. --version) loads neither.
        import multiprocessing
        from concurrent.futures.process import ProcessPoolExecutor

        # fork, not spawn or forkserver: those re-import numpy in every worker.
        if "fork" in multiprocessing.get_all_start_methods():
            with ProcessPoolExecutor(
                max_workers=workers,
                mp_context=multiprocessing.get_context("fork"),
                initializer=_serial_worker,
            ) as pool:
                return list(pool.map(fn, seq))
    return [fn(item) for item in seq]
