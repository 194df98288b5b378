"""Benchmark of the subgauss command line, as users run it.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Each invocation is a fresh
`python -m subgauss ...` process with PYTHONPATH=src, run one at a time.
The seed makes the workload's input files; the program sees only those.
Every output is checked against references computed in reference.py,
apart from the program, and every invocation of a run must print the same
bytes.

With --trace 0 the run reports the end-to-end metrics: the median wall time
and peak RSS of one invocation, and the median wall time of
`python -m subgauss --version` (set-up), run once before the first
invocation and once after each.  With --trace 1 it alternates
plain invocations with traced ones (trace_cli.py) and reports the
per-layer metrics.  The metric names and units come from BENCHMARK.json.
The last line of stdout is one JSON object; the run's samples and
environment go to perfbench/work/results/.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import re
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import reference

ROOT = Path.cwd()
BENCH = Path(__file__).resolve().parent
WORK = BENCH / "work"

# Every invocation must end by this many seconds after the run starts, so
# that the run ends well inside its 180 s limit.
HARD_LIMIT_S = 165.0
REL_TOL = 1e-12
SUITE_NAMES = ("kearns-saul", "sharpness", "domination", "argmax")


@dataclass
class Invocation:
    wall_s: float
    code: int
    stdout: bytes
    stderr: bytes
    rusage: object


@dataclass
class Workload:
    args: list[str]
    check: Callable[[bytes], list[str]]


def _close(a: float, b: float, rel: float = REL_TOL) -> bool:
    return abs(a - b) <= rel * abs(b) + 1e-300


def _write_spec(name: str, coeffs, probs, independent: bool) -> str:
    WORK.mkdir(parents=True, exist_ok=True)
    path = WORK / name
    lines = [f"independent: {'true' if independent else 'false'}"]
    lines += [f"{float(c)!r} {float(p)!r}" for c, p in zip(coeffs, probs)]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return str(path.relative_to(ROOT))


# -- verify-all ------------------------------------------------------------


def _check_domination(result: dict) -> list[str]:
    problems = []
    witness = result["witness"]
    if result["worst"] > 0.0:
        problems.append(f"domination: worst margin {result['worst']!r} > 0")
    label = re.fullmatch(r"dp n=(\d+) (fair|p=(\S+))", witness.get("sum", ""))
    if label is None:
        # a random weighted sum: its terms are not in the output
        return problems
    n = int(label.group(1))
    p = 0.5 if label.group(2) == "fair" else float(label.group(3))
    norm = reference.quadratic_norm_mp([1.0], [p]) * math.sqrt(n)
    if not _close(witness["bound_norm"], float(norm)):
        problems.append(f"domination: bound_norm {witness['bound_norm']!r} != {norm}")
    exact = float(max(reference.binomial_tails_mp(n, p, witness["x"])))
    bound = reference.tail_bound_mp(norm, witness["x"])
    if exact > bound:
        problems.append(f"domination: exact tail {exact!r} exceeds bound {bound!r}")
    if abs((exact - bound) - result["worst"]) > REL_TOL:
        problems.append(f"domination: worst {result['worst']!r} != {exact - bound!r}")
    return problems


def check_verify(stdout: bytes) -> list[str]:
    results = {r["suite"]: r for r in json.loads(stdout)}
    if sorted(results) != sorted(SUITE_NAMES):
        return [f"suites {sorted(results)} != {sorted(SUITE_NAMES)}"]
    problems = [f"{name}: not passed" for name, r in results.items() if not r["passed"]]

    ks = results["kearns-saul"]
    gap = reference.kearns_saul_gap_mp(ks["witness"]["p"], ks["witness"]["lambda"])
    if gap < 0:
        problems.append(f"kearns-saul: gap {gap} < 0 at the witness")
    if abs(float(gap) - ks["worst"]) > REL_TOL:
        problems.append(f"kearns-saul: worst {ks['worst']!r} != gap {float(gap)!r}")

    for name, tol in (("sharpness", 1e-8), ("argmax", 1e-6)):
        r = results[name]
        err, is_max = reference.extremal_check_mp(r["witness"]["p"])
        if err > 1e-40 or not is_max:
            problems.append(f"{name}: g(t*) = Q^2 fails at p = {r['witness']['p']!r}")
        if not 0.0 <= r["worst"] <= tol:
            problems.append(f"{name}: worst {r['worst']!r} outside [0, {tol}]")
    arg = results["argmax"]["witness"]
    if arg["argmax_err"] != results["argmax"]["worst"] or not arg["value_err"] <= 1e-10:
        problems.append(f"argmax: witness {arg} disagrees with worst")

    return problems + _check_domination(results["domination"])


def verify_all(seed: int) -> Workload:
    # The sweeps take no input: their grids and the domination suite's
    # random sums are fixed by the program, so the seed changes nothing here.
    return Workload(["verify", "--suite", "all", "--format", "json"], check_verify)


# -- bound workloads ---------------------------------------------------------


def _check_report(stdout: bytes, *, n_terms: int, independent: bool, kind: str,
                  method: str, norm, x_end: float) -> tuple[list[dict], list[str]]:
    """Checks every bound report shares: metadata, norm, x grid, bound column."""
    payload = json.loads(stdout)
    meta, rows = payload["metadata"], payload["rows"]
    problems = []
    expected = {"n_terms": n_terms, "independent": independent,
                "bound_kind": kind, "exact_method": method}
    for key, value in expected.items():
        if meta[key] != value:
            problems.append(f"metadata {key} = {meta[key]!r}, expected {value!r}")
    if not _close(meta["bound_norm"], float(norm)):
        problems.append(f"bound_norm {meta['bound_norm']!r} != {float(norm)!r}")
    xs = [r["x"] for r in rows]
    if len(xs) != 17 or xs[0] != 0.0 or not _close(xs[-1], x_end) or xs != sorted(xs):
        problems.append(f"x grid is not 17 points over [0, {x_end!r}]: {xs}")
    for r in rows:
        bound = reference.tail_bound_mp(norm, r["x"])
        if not _close(r["subgaussian_bound"], bound):
            problems.append(f"x={r['x']!r}: bound {r['subgaussian_bound']!r} != {bound!r}")
    return rows, problems


def bound_mc(seed: int) -> Workload:
    """200 independent terms, integer weights 1..3: neither exact oracle applies."""
    rng = np.random.default_rng([seed, 1])
    coeffs = rng.integers(1, 4, size=200).tolist()
    probs = rng.uniform(0.05, 0.95, size=200).tolist()
    spec = _write_spec(f"bound-mc-{seed}.spec", coeffs, probs, True)
    law = reference.lattice_law(coeffs, probs)
    shift = reference.exact_shift(coeffs, probs)
    norm = reference.quadratic_norm_mp(coeffs, probs)
    x_end = reference.abs_range(coeffs, probs)
    samples = 200_000

    def check(stdout: bytes) -> list[str]:
        rows, problems = _check_report(
            stdout, n_terms=200, independent=True, kind="quadratic_independent",
            method="mc", norm=norm, x_end=x_end)
        for r in rows:
            exact = max(reference.integer_law_tails(law, shift, r["x"]))
            mc = r["mc"]
            if r["exact_tail"] is not None or mc is None or mc["n_samples"] != samples:
                problems.append(f"x={r['x']!r}: expected an MC estimate of {samples} samples")
                continue
            if exact > r["subgaussian_bound"]:
                problems.append(f"x={r['x']!r}: exact tail {exact!r} exceeds the bound")
            # 5 binomial standard errors, the variance floored at one count
            # so that a tail far below 1/n does not demand a count of 0
            count_err = abs(mc["point"] - exact) * samples
            if count_err > 5.0 * math.sqrt(samples * exact * (1.0 - exact) + 1.0):
                problems.append(f"x={r['x']!r}: MC {mc['point']!r} vs exact {exact!r}")
        return problems

    return Workload(["bound", spec, "--format", "json"], check)


def bound_dp(seed: int) -> Workload:
    """30 000 independent unit-weight terms: the Poisson-binomial DP oracle."""
    rng = np.random.default_rng([seed, 2])
    probs = rng.uniform(0.05, 0.95, size=30_000).tolist()
    coeffs = [1.0] * len(probs)
    spec = _write_spec(f"bound-dp-{seed}.spec", coeffs, probs, True)
    law = reference.poisson_binomial_fft(probs)
    shift = reference.exact_shift(coeffs, probs)
    norm = reference.quadratic_norm_mp(coeffs, probs)
    x_end = reference.abs_range(coeffs, probs)

    def check(stdout: bytes) -> list[str]:
        rows, problems = _check_report(
            stdout, n_terms=len(probs), independent=True, kind="quadratic_independent",
            method="dp", norm=norm, x_end=x_end)
        for r in rows:
            exact = max(reference.integer_law_tails(law, shift, r["x"]))
            got = r["exact_tail"]
            if got is None or r["mc"] is not None:
                problems.append(f"x={r['x']!r}: expected an exact tail and no MC")
                continue
            if abs(got - exact) > 1e-12:
                problems.append(f"x={r['x']!r}: exact_tail {got!r} != reference {exact!r}")
            if got > r["subgaussian_bound"]:
                problems.append(f"x={r['x']!r}: exact tail {got!r} exceeds the bound")
        return problems

    return Workload(["bound", spec, "--format", "json"], check)


def bound_dep(seed: int) -> Workload:
    """100 000 terms declared dependent: triangle bound only, no oracle."""
    rng = np.random.default_rng([seed, 3])
    n = 100_000
    coeffs = rng.uniform(-2.0, 2.0, size=n).tolist()
    probs = rng.uniform(0.05, 0.95, size=n).tolist()
    spec = _write_spec(f"bound-dep-{seed}.spec", coeffs, probs, False)
    norm = reference.triangle_norm_mp(coeffs, probs)
    x_end = reference.abs_range(coeffs, probs)

    def check(stdout: bytes) -> list[str]:
        rows, problems = _check_report(
            stdout, n_terms=n, independent=False, kind="triangle_dependent",
            method="none", norm=norm, x_end=x_end)
        for r in rows:
            if r["exact_tail"] is not None or r["mc"] is not None:
                problems.append(f"x={r['x']!r}: a dependent sum has no oracle column")
        return problems

    return Workload(["bound", spec, "--format", "json"], check)


WORKLOADS = {
    "verify-all": verify_all,
    "bound-mc": bound_mc,
    "bound-dp": bound_dp,
    "bound-dep": bound_dep,
}


# -- running -----------------------------------------------------------------


class Runner:
    """Runs invocations one at a time, checks them, and counts failures."""

    def __init__(self, workload: Workload, threads: int, deadline: float):
        self.workload = workload
        self.deadline = deadline
        # The allocator is left at its defaults, and bytecode is cached as in
        # a normal install, whatever the calling environment sets.
        self.env = {k: v for k, v in os.environ.items()
                    if not k.startswith("MALLOC_") and k != "PYTHONDONTWRITEBYTECODE"}
        paths = [str(ROOT / "src")] + ([self.env["PYTHONPATH"]] if self.env.get("PYTHONPATH") else [])
        self.env["PYTHONPATH"] = os.pathsep.join(paths)
        self.env["SUBGAUSS_THREADS"] = str(threads)
        self.attempted = 0
        self.failures: list[str] = []
        self._expected: bytes | None = None
        self._problems: list[str] = []

    def invoke(self, argv: list[str]) -> Invocation:
        WORK.mkdir(parents=True, exist_ok=True)
        with open(WORK / "stdout", "w+b") as out, open(WORK / "stderr", "w+b") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=out, stderr=err, env=self.env, cwd=ROOT)
            timer = threading.Timer(max(self.deadline - time.monotonic(), 1.0), proc.kill)
            timer.start()
            try:
                _, status, rusage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            wall = time.perf_counter() - t0
            proc.returncode = os.waitstatus_to_exitcode(status)
            out.seek(0)
            err.seek(0)
            return Invocation(wall, proc.returncode, out.read(), err.read(), rusage)

    def version(self) -> Invocation:
        inv = self.invoke([sys.executable, "-m", "subgauss", "--version"])
        self.attempted += 1
        if inv.code != 0 or not inv.stdout.startswith(b"subgauss "):
            self.failures.append(f"--version: exit {inv.code}, stdout {inv.stdout[:80]!r}")
        return inv

    def run(self, traced_metrics: Path | None = None) -> Invocation:
        """One invocation of the workload's command, plain or traced."""
        if traced_metrics is None:
            argv = [sys.executable, "-m", "subgauss", *self.workload.args]
        else:
            argv = [sys.executable, str(BENCH / "trace_cli.py"), str(traced_metrics),
                    *self.workload.args]
        inv = self.invoke(argv)
        self.attempted += 1
        if inv.code != 0:
            tail = inv.stderr.decode(errors="replace").strip().splitlines()[-1:]
            self.failures.append(f"exit {inv.code}: {tail}")
        elif self._expected is None:
            self._expected = inv.stdout
            try:
                self._problems = self.workload.check(inv.stdout)
            except (ValueError, LookupError, TypeError) as exc:
                self._problems = [f"unreadable output: {exc!r}"]
            if self._problems:
                self.failures.append("; ".join(self._problems[:5]))
        elif inv.stdout != self._expected:
            self.failures.append("stdout differs from the run's first invocation")
        elif self._problems:
            self.failures.append("; ".join(self._problems[:5]))
        return inv


def _rounds(seconds: float, deadline: float, one_round: Callable[[], None]) -> None:
    """Run whole rounds, starting one only if it should end within `seconds`."""
    start = time.perf_counter()
    durations: list[float] = []
    while True:
        t0 = time.perf_counter()
        one_round()
        durations.append(time.perf_counter() - t0)
        typical = statistics.median(durations)
        if time.perf_counter() - start + typical > seconds:
            return
        if time.monotonic() + 2 * typical > deadline:
            return


def _git_sha() -> str | None:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        path = ROOT / ".git" / name
        if path.exists():
            return path.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def _metric_specs() -> tuple[dict, dict]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + HARD_LIMIT_S

    if not (ROOT / "src" / "subgauss" / "__init__.py").is_file():
        print(f"error: no src/subgauss under {ROOT}; run from the repository root",
              file=sys.stderr)
        return 2
    end_units, layer_units = _metric_specs()
    nproc = len(os.sched_getaffinity(0))
    threads = min(nproc, 2)

    workload = WORKLOADS[args.workload](args.seed)
    runner = Runner(workload, threads, deadline)
    runner.invoke([sys.executable, "-m", "subgauss", "--version"])  # writes bytecode
    samples: dict[str, list[float]] = {}
    layers: dict[str, list[float]] = {}

    def sample(name: str, value: float) -> None:
        samples.setdefault(name, []).append(value)

    if args.trace == 0:
        # set-up is sampled between the invocations, so that its samples
        # spread over the whole run like the others
        sample("setup_s", runner.version().wall_s)

        def one_round() -> None:
            inv = runner.run()
            sample("op_s", inv.wall_s)
            sample("peak_rss_mb", inv.rusage.ru_maxrss / 1024.0)
            sample("setup_s", runner.version().wall_s)

        _rounds(args.seconds, deadline, one_round)
        values = {name: statistics.median(samples[name]) for name in end_units}
        units = end_units
    else:
        traced_path = WORK / "trace-metrics.json"

        def one_round() -> None:
            plain = runner.run()
            sample("plain_s", plain.wall_s)
            sample("cli.cpu_s", plain.rusage.ru_utime + plain.rusage.ru_stime)
            sample("cli.sys_s", plain.rusage.ru_stime)
            sample("cli.minflt", plain.rusage.ru_minflt)
            traced = runner.run(traced_metrics=traced_path)
            if traced.code == 0:
                result = json.loads(traced_path.read_text(encoding="utf-8"))
                sample("traced_s", traced.wall_s - result["post_s"])
                for name, value in result["metrics"].items():
                    layers.setdefault(name, []).append(value)

        _rounds(args.seconds, deadline, one_round)
        values = {}
        for name in layer_units:
            found = samples.get(name) or layers.get(name)
            values[name] = statistics.median(found) if found else 0
        if samples.get("traced_s"):
            values["trace.overhead_s"] = (statistics.median(samples["traced_s"])
                                          - statistics.median(samples["plain_s"]))
        units = layer_units

    metrics = {name: {"value": values[name], "unit": units[name]} for name in units}
    result = {
        "correct": not runner.failures,
        "attempted": runner.attempted,
        "failed": len(runner.failures),
        "metrics": metrics,
    }
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "command": ["subgauss", *workload.args],
        "git_sha": _git_sha(),
        "nproc": nproc,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "subgauss_threads": threads,
        "failures": runner.failures,
        "samples": samples,
        "layer_samples": layers,
        **result,
    }
    results_dir = WORK / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (results_dir / name).write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    for failure in runner.failures[:5]:
        print(f"failed: {failure}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
