"""Work distribution: ordered maps over threads and forked processes.

Both maps promise results in input order, identical for every cap.  The
probes are module-level so that process_map can pickle them.
"""

import multiprocessing
import os
import platform
import subprocess
import sys
from pathlib import Path

import pytest

import subgauss
from subgauss import parallel
from subgauss.parallel import max_threads, ordered_map, process_map


def _square_and_pid(x):
    return x * x, os.getpid()


def _nested_cap(x):
    # what a nested ordered_map inside this worker would be capped at
    return x, max_threads(), ordered_map(lambda y: y + x, [1, 2, 3])


def _fail_on_odd(x):
    if x % 2:
        raise ValueError(f"odd {x}")
    return x


class TestProcessMap:
    def test_input_order_in_workers(self, monkeypatch):
        monkeypatch.setenv("SUBGAUSS_THREADS", "2")
        items = list(range(9, -1, -1))
        got = process_map(_square_and_pid, items)
        assert [v for v, _ in got] == [x * x for x in items]
        assert os.getpid() not in {pid for _, pid in got}

    def test_serial_at_cap_one(self, monkeypatch):
        monkeypatch.setenv("SUBGAUSS_THREADS", "1")
        got = process_map(_square_and_pid, range(5))
        assert got == [(x * x, os.getpid()) for x in range(5)]

    def test_serial_for_one_item(self, monkeypatch):
        monkeypatch.setenv("SUBGAUSS_THREADS", "2")
        assert process_map(_square_and_pid, [3]) == [(9, os.getpid())]
        assert process_map(_square_and_pid, []) == []

    def test_serial_without_fork(self, monkeypatch):
        monkeypatch.setenv("SUBGAUSS_THREADS", "2")
        monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])
        got = process_map(_square_and_pid, range(4))
        assert got == [(x * x, os.getpid()) for x in range(4)]

    def test_nested_map_sees_cap_one(self, monkeypatch):
        monkeypatch.setenv("SUBGAUSS_THREADS", "2")
        got = process_map(_nested_cap, [10, 20, 30])
        assert got == [(x, 1, [x + 1, x + 2, x + 3]) for x in (10, 20, 30)]
        assert os.environ["SUBGAUSS_THREADS"] == "2"

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_first_error_in_input_order(self, monkeypatch, threads):
        monkeypatch.setenv("SUBGAUSS_THREADS", threads)
        with pytest.raises(ValueError, match="odd 3"):
            process_map(_fail_on_odd, [0, 2, 3, 4, 5])

    def test_bad_cap_is_value_error(self, monkeypatch):
        monkeypatch.setenv("SUBGAUSS_THREADS", "0")
        with pytest.raises(ValueError, match="SUBGAUSS_THREADS"):
            process_map(_square_and_pid, range(3))


def _run_python(code: str, **env: str) -> subprocess.CompletedProcess:
    """Run code in a fresh interpreter that imports this checkout's subgauss."""
    src = str(Path(subgauss.__file__).resolve().parents[1])
    pythonpath = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=pythonpath, **env), timeout=60,
    )


_GLIBC_FORK = (
    sys.platform.startswith("linux")
    and platform.libc_ver()[0] == "glibc"
    and "fork" in multiprocessing.get_all_start_methods()
)

# Each round writes and frees four 512 KiB temporaries (128 pages of 4 KiB
# each); glibc's default policy gives them back to the kernel every round.
_CHURN = """
import resource
import numpy as np
from subgauss.parallel import process_map

def churn(rounds):
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for _ in range(rounds):
        temps = [np.full(1 << 16, float(k)) for k in range(4)]
        del temps
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before

print(*process_map(churn, [40, 40]))
"""


class TestWorkerHeap:
    @pytest.mark.skipif(not _GLIBC_FORK, reason="needs Linux, glibc and fork")
    def test_workers_keep_freed_heap(self):
        # a fresh interpreter, so the allocator starts from glibc's defaults;
        # with them each worker takes about 19 000 faults (40 rounds x 512
        # pages), keeping the heap about 560 (the first round's pages)
        r = _run_python(_CHURN, SUBGAUSS_THREADS="2")
        assert r.returncode == 0, r.stderr
        faults = [int(tok) for tok in r.stdout.split()]
        assert len(faults) == 2
        assert max(faults) < 4 * 4 * 128, faults

    @pytest.mark.parametrize("threads,items", [
        ("1", range(4)),
        ("2", [3]),
        ("2", range(4)),
    ], ids=["serial-at-cap-1", "serial-for-one-item", "in-workers"])
    def test_calling_process_keeps_allocator_defaults(self, monkeypatch, threads, items):
        calls = []
        monkeypatch.setattr(parallel, "_keep_freed_heap", lambda: calls.append(os.getpid()))
        monkeypatch.setenv("SUBGAUSS_THREADS", threads)
        got = process_map(_square_and_pid, items)
        assert [v for v, _ in got] == [x * x for x in items]
        assert calls == []


def test_version_imports_no_multiprocessing():
    code = (
        "import sys\n"
        "from subgauss.cli import main\n"
        "try:\n"
        "    main(['--version'])\n"
        "except SystemExit:\n"
        "    pass\n"
        "print(sorted(m for m in sys.modules if m.startswith('multiprocessing')\n"
        "             or m.startswith('concurrent')))\n"
    )
    r = _run_python(code)
    assert r.returncode == 0, r.stderr
    assert r.stdout.splitlines()[-1] == "[]"
