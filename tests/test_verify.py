"""Verification sweeps: small-size runs, wiring, and failure paths.

Full-size sweeps live in test_acceptance.py; here the suites run shrunk
so the whole module stays fast.
"""

import pytest

from subgauss import SUITES, DomainError, run_suite
from subgauss.verify import (
    argmax_sweep,
    domination_sweep,
    kearns_saul_sweep,
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


def test_sharpness_small():
    r = sharpness_sweep(p_values=[0.1, 0.5, 0.9])
    assert r.passed
    assert r.worst <= 1e-8
    assert 0.0 < r.witness["p"] < 1.0


def test_sharpness_fails_at_impossible_tolerance():
    # float arithmetic cannot hit 1e-30; the failure path must report it
    r = sharpness_sweep(p_values=[0.3, 0.6], tol=1e-30)
    assert not r.passed
    assert r.worst > 1e-30


def test_argmax_small():
    r = argmax_sweep(p_values=[0.05, 0.3, 0.9])
    assert r.passed
    assert set(r.witness) >= {"p", "argmax_err", "value_err"}


@pytest.mark.parametrize("sweep,kwargs", [
    (kearns_saul_sweep, {"p_count": 0}),
    (kearns_saul_sweep, {"p_count": 3, "lambda_count": 1}),
    (sharpness_sweep, {"p_values": []}),
    (argmax_sweep, {"p_values": ()}),
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
    r = run_suite("sharpness", p_values=[0.5])
    line = r.summary()
    assert line.startswith("sharpness:")
    assert "pass" in line
