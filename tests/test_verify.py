"""Verification sweeps: small-size runs, wiring, and failure paths.

Full-size sweeps live in test_acceptance.py; here the suites run shrunk
so the whole module stays fast.
"""

import math

import numpy as np
import pytest

from subgauss import (
    SUITES,
    DomainError,
    SweepResult,
    WeightedIndicatorSum,
    exact_law,
    exact_tail,
    exhaustive_outcome_table,
    log_mgf_values,
    norm_bound_independent,
    poisson_binomial_table,
    q_norm,
    run_suite,
    tail_curve,
)
import subgauss.verify as verify_module
from subgauss.verify import (
    DEFAULT_DOMINATION_SEED,
    _DominationPart,
    _domination_cases,
    _domination_result,
    _p_grid,
    _tasks,
    argmax_sweep,
    domination_sweep,
    kearns_saul_sweep,
    run_suites,
    sharpness_sweep,
)


def test_suite_registry():
    assert set(SUITES) == {"kearns-saul", "sharpness", "domination", "argmax"}


def test_unknown_suite_rejected():
    with pytest.raises(ValueError):
        run_suite("no-such-suite")


def test_kearns_saul_small():
    r = kearns_saul_sweep(p_count=49, lambda_count=200)
    assert r.passed
    assert r.suite == "kearns-saul"
    assert r.worst >= -1e-12
    assert set(r.witness) >= {"p", "lambda"}
    assert "49x200" in r.detail


def test_kearns_saul_is_bitwise_per_p_q_norm():
    # Q for the whole p grid comes from one array call; the gaps must be
    # those of q_norm(p) squared per p
    lams = np.concatenate((-np.geomspace(1e-6, 60.0, 200)[::-1], np.geomspace(1e-6, 60.0, 200)))
    rows = []
    for p in np.linspace(0.001, 0.999, 49).tolist():
        gaps = q_norm(p).value ** 2 * (lams * lams) - log_mgf_values(p, lams)
        i = int(np.argmin(gaps))
        rows.append((float(gaps[i]), p, float(lams[i])))
    worst = min(rows, key=lambda r: r[0])
    r = kearns_saul_sweep(p_count=49, lambda_count=400)
    assert (r.worst, r.witness) == (worst[0], {"p": worst[1], "lambda": worst[2]})


def test_sharpness_small():
    r = sharpness_sweep(p_count=3)
    assert r.passed
    assert r.worst <= 1e-8
    assert 0.0 < r.witness["p"] < 1.0


def test_sharpness_fails_at_impossible_tolerance():
    # float arithmetic cannot hit 1e-30; the failure path must report it
    r = sharpness_sweep(p_count=2, tol=1e-30)
    assert not r.passed
    assert r.worst > 1e-30


def test_argmax_small():
    r = argmax_sweep(p_count=4)
    assert r.passed
    assert set(r.witness) >= {"p", "argmax_err", "value_err"}


@pytest.mark.parametrize("sweep,kwargs", [
    (kearns_saul_sweep, {"p_count": 0}),
    (kearns_saul_sweep, {"p_count": 3, "lambda_count": 1}),
    (sharpness_sweep, {"p_count": 0}),
    (argmax_sweep, {"p_count": 1}),
    (domination_sweep, {"n_random": 1, "dp_sizes": (), "grid_points": 0}),
])
def test_empty_grid_is_typed_error(sweep, kwargs):
    with pytest.raises(DomainError, match="grid"):
        sweep(**kwargs)


def test_domination_small():
    r = domination_sweep(n_random=10, dp_sizes=(8, 64), grid_points=16, seed=7)
    assert r.passed
    assert r.detail.startswith("0 violations")
    assert set(r.witness) == {"sum", "x", "bound_norm"}


def test_domination_seed_is_reproducible():
    a = domination_sweep(n_random=5, dp_sizes=(8,), grid_points=8, seed=11)
    b = domination_sweep(n_random=5, dp_sizes=(8,), grid_points=8, seed=11)
    assert a.worst == b.worst
    assert a.witness == b.witness


def test_run_suite_forwards_kwargs():
    r = run_suite("kearns-saul", p_count=9, lambda_count=50)
    assert r.passed
    assert "9x50" in r.detail


def test_summary_lines_name_the_suite():
    r = run_suite("sharpness", p_count=1)
    line = r.summary()
    assert line.startswith("sharpness:")
    assert "pass" in line


def serial_domination(n_random, seed, grid_points,
                      dp_sizes=(16, 128, 1024, 10_000), tol=0.0):
    """The domination sweep as one scan, as it stood before it was split."""
    rng = np.random.default_rng(seed)
    worst_margin, witness, violations, checked = -math.inf, {}, 0, 0

    def check(table, s, label):
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
        m = int(rng.integers(1, 17))
        s = WeightedIndicatorSum(rng.uniform(-2.0, 2.0, size=m),
                                 rng.uniform(0.02, 0.98, size=m))
        check(exhaustive_outcome_table(s), s, f"random[{k}] m={s.n_terms}")
    for n in dp_sizes:
        for label, ps in (("fair", np.full(n, 0.5)), ("p=0.1", np.full(n, 0.1)),
                          ("mixed", rng.uniform(0.05, 0.95, size=n))):
            s = WeightedIndicatorSum(np.ones(n), ps)
            check(poisson_binomial_table(ps), s, f"dp n={n} {label}")
    return SweepResult("domination", violations == 0, worst_margin, witness,
                       f"{violations} violations over {checked} (sum, x) pairs")


@pytest.mark.parametrize("seed", [DEFAULT_DOMINATION_SEED, 7])
def test_split_domination_is_the_serial_scan(monkeypatch, seed):
    # --grid 40:16: the tasks, merged in case order, give the serial scan's
    # result under every cap; ties at worst = 0 keep the first case
    ref = serial_domination(40, seed, 16)
    kwargs = {"n_random": 40, "grid_points": 16, "seed": seed}
    assert domination_sweep(**kwargs) == ref
    for threads in ("1", "2"):
        monkeypatch.setenv("SUBGAUSS_THREADS", threads)
        assert run_suites({"domination": kwargs}) == [ref]


def test_domination_tasks_cover_the_cases_in_order(monkeypatch):
    kwargs = {"n_random": 120, "grid_points": 8, "dp_sizes": (16, 128), "seed": 3}
    tasks = _tasks("domination", kwargs)
    assert [task[2] for task in tasks] == [(0, 50), (50, 100), (100, 120)] + [
        (k, k + 1) for k in range(120, 126)]
    labels = [case[0] for case in _domination_cases(3, 120, (16, 128))]
    rng = np.random.default_rng(3)
    for k in range(120):
        m = int(rng.integers(1, 17))
        rng.uniform(size=2 * m)
        assert labels[k] == f"random[{k}] m={m}"
    assert labels[120:] == [f"dp n={n} {label}" for n in (16, 128)
                            for label in ("fair", "p=0.1", "mixed")]
    monkeypatch.setenv("SUBGAUSS_THREADS", "2")
    ref = serial_domination(120, 3, 8, dp_sizes=(16, 128))
    assert run_suites({"domination": kwargs}) == [ref]
    empty = {"n_random": 0, "dp_sizes": ()}
    assert [task[2] for task in _tasks("domination", empty)] == [(0, 0)]
    assert run_suites({"domination": empty})[0].detail == "0 violations over 0 (sum, x) pairs"


@pytest.mark.parametrize("kwargs,error", [
    ({"seed": -1}, ValueError),
    ({"seed": -1, "grid_points": 0}, DomainError),
    ({"no_such_option": 1}, TypeError),
    # an error, so that _tasks never slices the cases from their end
    ({"n_random": -5, "grid_points": 4}, DomainError),
])
def test_domination_errors_keep_suite_order(monkeypatch, kwargs, error):
    # the domination tasks raise in the workers, so an earlier suite's
    # error still comes first, and the grid is checked before the draw
    for threads in ("1", "2"):
        monkeypatch.setenv("SUBGAUSS_THREADS", threads)
        with pytest.raises(DomainError, match="sharpness p grid is empty"):
            run_suites({"sharpness": {"p_count": 0}, "domination": kwargs})
        with pytest.raises(error):
            run_suites({"domination": kwargs, "sharpness": {"p_count": 0}})


def test_merge_keeps_the_first_strict_maximum():
    parts = [_DominationPart(-0.5, {"sum": "a"}, 0, 3), _DominationPart(0.0, {"sum": "b"}, 1, 4),
             _DominationPart(0.0, {"sum": "c"}, 2, 5), _DominationPart(-math.inf, {}, 0, 0)]
    r = _domination_result(parts)
    assert (r.worst, r.witness, r.passed) == (0.0, {"sum": "b"}, False)
    assert r.detail == "3 violations over 12 (sum, x) pairs"
    empty = _domination_result([_DominationPart(-math.inf, {}, 0, 0)])
    assert (empty.worst, empty.witness, empty.passed) == (-math.inf, {}, True)


@pytest.mark.parametrize("threads", ["1", "2"])
def test_run_suites_order_and_first_error(monkeypatch, threads):
    monkeypatch.setenv("SUBGAUSS_THREADS", threads)
    small = {"argmax": {"p_count": 3}, "sharpness": {"p_count": 1}}
    assert run_suites(small) == [run_suite(name, **kw) for name, kw in small.items()]
    bad = {"sharpness": {"p_count": 0}, "domination": {"grid_points": 0}}
    with pytest.raises(DomainError, match="sharpness p grid is empty"):
        run_suites(bad)
    with pytest.raises(DomainError, match="domination x grid is empty"):
        run_suites(dict(reversed(bad.items())))
    with pytest.raises(ValueError, match="unknown suite"):
        run_suites({"argmax": {}, "no-such-suite": {}})


def test_domination_checks_the_package_tail_bound(monkeypatch):
    calls = []
    real = verify_module.tail_bound_from_norm

    def spy(tau, x):
        calls.append((tau, x.copy()))
        return real(tau, x)

    monkeypatch.setattr(verify_module, "tail_bound_from_norm", spy)
    domination_sweep(n_random=20, dp_sizes=(16,), grid_points=16)
    cases = _domination_cases(DEFAULT_DOMINATION_SEED, 20, (16,))
    assert len(calls) == len(cases) == 23
    for (tau, xs), (_, coeffs, probs) in zip(calls, cases):
        s = WeightedIndicatorSum(coeffs, probs)
        assert tau == norm_bound_independent(s).value
        assert xs.tolist() == np.linspace(0.0, s.abs_range, 16).tolist()


def gamma(k):
    """Higham's gamma(k) = k u / (1 - k u), u = 2^-53."""
    ku = k * 2.0 ** -53
    return ku / (1.0 - ku)


def test_tail_curve_within_its_stated_bound():
    # the first 100 random domination sums and the three dp n=1024 sums;
    # measured worst gap 2.61e-15 at random[74] m=16
    cases = _domination_cases(DEFAULT_DOMINATION_SEED, 500, (16, 128, 1024, 10_000))
    worst = (0.0, None)
    for label, coeffs, probs in cases[:100] + cases[506:509]:
        s = WeightedIndicatorSum(coeffs, probs)
        _, table = exact_law(s, required=True)
        xs = np.linspace(0.0, s.abs_range, 64)
        curve = tail_curve(table, xs).tolist()
        # a tail holds at most n - 1 atoms, each tail mass is at most 1 + 1e-12
        bound = gamma(table.n_atoms - 1) * (1.0 + 1e-12)
        for x, c in zip(xs.tolist(), curve):
            ratio = abs(c - exact_tail(table, x)) / bound
            if ratio > worst[0]:
                worst = (ratio, (label, x))
    assert cases[508][0] == "dp n=1024 mixed"
    assert worst[0] <= 1.0, f"tail_curve at {worst[0]:.3g} of gamma(n - 1), witness {worst[1]}"


def test_p_grid_is_the_old_default_grid():
    want = [round(0.01 * k, 2) for k in range(1, 100)]
    assert [p.hex() for p in _p_grid(99)] == [p.hex() for p in want]
    assert _p_grid(99, drop_half=True) == [p for p in want if p != 0.5]
    assert _p_grid(3) == [0.25, 0.5, 0.75]
    assert _p_grid(3, drop_half=True) == [0.25, 0.75]
    assert _p_grid(4, drop_half=True) == _p_grid(4) == [0.2, 0.4, 0.6, 0.8]
    assert _p_grid(0) == []
