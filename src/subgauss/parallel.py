"""Deterministic work distribution capped by the SUBGAUSS_THREADS env var.

ordered_map spreads work over threads, which overlap only where numpy
releases the GIL.  process_map spreads GIL-bound Python work over forked
worker processes; `verify` runs its suite tasks with it, so there the cap
bounds worker processes, and inside a worker every ordered_map runs
serially.

Worker processes keep the heap memory they free: each worker sets glibc's
trim and mmap thresholds to _WORKER_HEAP_KEEP, so freed temporaries are
reused instead of going back to the kernel and faulting in again on the
next task.  Serial runs and library callers keep the allocator defaults;
nothing here changes the calling process's allocator.
"""

from __future__ import annotations

import os
from typing import Callable, Iterable, Sequence, TypeVar

ENV_THREADS = "SUBGAUSS_THREADS"

# glibc's mallopt parameters (malloc.h) and the value a worker gives both:
# up to that much free heap is kept, and allocations below it come from the
# heap.  Both are set: setting one turns off glibc's dynamic thresholds, and
# the other then stays at its 128 KiB default.  glibc rejects an mmap
# threshold above half its largest heap (32 MiB on 64-bit builds), so the
# value sits below that cap.
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
_WORKER_HEAP_KEEP = 16 << 20

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


def _keep_freed_heap() -> None:
    """Make glibc keep freed heap in this process instead of returning it
    to the kernel, where every reuse would fault the pages in again.
    Does nothing where the C library is not glibc."""
    try:
        libc = os.confstr("CS_GNU_LIBC_VERSION")
    except (AttributeError, ValueError, OSError):  # no confstr, or no such name
        return
    if not (libc or "").startswith("glibc"):
        return
    import ctypes

    mallopt = ctypes.CDLL(None).mallopt
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    # the trim threshold alone would pin the mmap threshold at 128 KiB
    if mallopt(_M_MMAP_THRESHOLD, _WORKER_HEAP_KEEP) == 1:
        mallopt(_M_TRIM_THRESHOLD, _WORKER_HEAP_KEEP)


def _serial_worker() -> None:
    """Worker initializer: nested maps run serially, so the cap bounds
    the total number of busy workers, and freed heap stays with the
    worker."""
    os.environ[ENV_THREADS] = "1"
    _keep_freed_heap()


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
