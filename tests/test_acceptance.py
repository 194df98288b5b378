"""Acceptance suite: one test and one printed PASS/FAIL line per criterion.

Run with  pytest -s tests/test_acceptance.py  to see the per-criterion
lines; each test also asserts, so a plain pytest run fails loudly too.
Stated runtime limits are asserted alongside the numeric tolerances.
"""

import math
import time

import numpy as np

from subgauss import (
    WeightedIndicatorSum,
    exact_tail,
    exhaustive_outcome_table,
    monte_carlo_tail,
    poisson_binomial_table,
    q_asymptotic,
    q_norm,
    subgaussian_norm_numeric,
    sum_log_mgf_curve,
    tail_curve,
)
from subgauss.verify import (
    argmax_sweep,
    domination_sweep,
    kearns_saul_sweep,
    sharpness_sweep,
)

MODULE_T0 = time.time()

# 40-digit oracle references for the n = 4096 fair-coin tails
BINOM4096_TAILS = {
    1.0: 0.1549038441432942,
    1.5: 0.06480204141851685,
    2.0: 0.021913029083284824,
    2.5: 0.005936479418920163,
}


def report(num, ok, text):
    print(f"ACCEPTANCE {num:2d} [{'PASS' if ok else 'FAIL'}] {text}", flush=True)


def test_criterion_1_numeric_norm_sharpness():
    t0 = time.time()
    r = sharpness_sweep()  # p = 0.01 .. 0.99 step 0.01, tol 1e-8
    dt = time.time() - t0
    ok = r.passed and r.worst <= 1e-8 and dt < 5.0
    report(1, ok, f"numeric norm matches closed form: worst {r.worst:.3e} "
                  f"over 99 p-values (tol 1e-8), {dt:.2f}s (limit 5s)")
    assert ok


def test_criterion_2_half_value_and_seam_continuity():
    err_half = abs(q_norm(0.5).value - math.sqrt(0.125))
    jump_up = abs(q_norm(0.5 + 1e-5).value - q_norm(0.5).value)
    jump_dn = abs(q_norm(0.5 - 1e-5).value - q_norm(0.5).value)
    ok = err_half <= 1e-12 and jump_up <= 1e-9 and jump_dn <= 1e-9
    report(2, ok, f"Q(1/2) off by {err_half:.1e} (tol 1e-12); seam jumps "
                  f"{jump_up:.2e}/{jump_dn:.2e} at 0.5 +- 1e-5 (tol 1e-9)")
    assert ok


def test_criterion_3_mgf_inequality_sweep():
    t0 = time.time()
    r = kearns_saul_sweep()  # 999 p-values x 10^4 lambdas, tol 1e-12
    dt = time.time() - t0
    ok = r.passed and r.worst >= -1e-12 and dt < 30.0
    report(3, ok, f"MGF bound holds: min log-domain gap {r.worst:.3e} over "
                  f"999x10000 grid (tol -1e-12), {dt:.2f}s (limit 30s)")
    assert ok


def test_criterion_4_extremal_point_identity():
    r = argmax_sweep()  # p grid without 1/2; tol 1e-6 arg, 1e-10 value
    ok = r.passed
    report(4, ok, f"extremal point: worst argmax error {r.worst:.3e} "
                  f"(tol 1e-6), value error {r.witness['value_err']:.3e} (tol 1e-10)")
    assert ok


def test_criterion_5_tail_domination():
    t0 = time.time()
    r = domination_sweep()  # 500 random sums m<=16 + unit sums to n=10^4
    dt = time.time() - t0
    ok = r.passed and dt < 60.0
    report(5, ok, f"tail domination: {r.detail}, worst margin {r.worst:.2e}, "
                  f"{dt:.2f}s (limit 60s)")
    assert ok


def test_criterion_6_scaled_sums_norm():
    # the normalized iid sum has norm exactly Q(p) for every n; at n = 4096
    # and p = 0.1 its maximizer t* = 281 lies past |t| = 60
    worst, witness = 0.0, None
    for p in (0.1, 0.3, 0.5, 0.9, 1e-6):
        q = q_norm(p).value
        for n in (1, 2, 4, 16, 256, 4096):
            s = WeightedIndicatorSum.iid(n, p).scaled(1.0 / math.sqrt(n))
            err = abs(subgaussian_norm_numeric(sum_log_mgf_curve(s)).value - q)
            if err >= worst:
                worst, witness = err, (p, n)
    ok = worst <= 1e-8
    report(6, ok, f"scaled iid sums: norm off Q(p) by at most {worst:.2e} "
                  f"at (p, n) = {witness} (tol 1e-8)")
    assert ok


def test_criterion_7_normalized_fair_sum_vs_gauss_bound():
    n = 4096
    table = poisson_binomial_table([0.5] * n)
    rn = math.sqrt(n)
    ok = True
    ratios = []
    for x, ref in BINOM4096_TAILS.items():
        tail = exact_tail(table, x * rn / 2.0, side="upper")
        ratio = tail * x * math.exp(x * x / 2.0)
        ratios.append(ratio)
        ok &= tail <= math.exp(-x * x / 2.0)
        ok &= 0.15 <= ratio <= 0.5
        ok &= math.isclose(tail, ref, rel_tol=1e-12)  # oracle cross-check
    report(7, ok, "normalized fair sum, n=4096: tails below exp(-x^2/2), "
                  f"ratios {min(ratios):.4f}..{max(ratios):.4f} in [0.15, 0.5]")
    assert ok


def test_criterion_8_asymptotic_ratio():
    r_small = q_norm(1e-12).value / q_asymptotic(1e-12)
    r_large = q_norm(1.0 - 1e-12).value / q_asymptotic(1.0 - 1e-12)
    ok = 0.97 <= r_small <= 1.03 and 0.97 <= r_large <= 1.03
    report(8, ok, f"asymptotic ratio {r_small:.12f} at p=1e-12, "
                  f"{r_large:.12f} at 1-1e-12 (window [0.97, 1.03])")
    assert ok


def test_criterion_9_oracle_cross_agreement():
    worst = 0.0
    for m in range(1, 17):
        ps = [((i * 37) % 97 + 1) / 100.0 for i in range(m)]
        s = WeightedIndicatorSum([1.0] * m, ps)
        t_dp = poisson_binomial_table(ps)
        t_en = exhaustive_outcome_table(s)
        assert np.array_equal(t_dp.support, t_en.support)
        worst = max(worst, float(np.max(np.abs(t_dp.masses - t_en.masses))))
        xs = np.linspace(0.0, s.abs_range, 33)
        worst = max(
            worst,
            float(np.max(np.abs(tail_curve(t_dp, xs) - tail_curve(t_en, xs)))),
        )
    agree_ok = worst <= 1e-14

    s = WeightedIndicatorSum([1.0] * 8, [0.1, 0.2, 0.3, 0.4, 0.6, 0.7, 0.8, 0.9])
    exact = exact_tail(poisson_binomial_table(s.p_values), 1.5, side="max_both")
    hits = sum(
        monte_carlo_tail(s, 1.5, 20_000, seed=k).covers(exact) for k in range(200)
    )
    mc_ok = hits >= 190  # 95% of 200 trials
    ok = agree_ok and mc_ok
    report(9, ok, f"oracles agree to {worst:.2e} for all m<=16 (tol 1e-14); "
                  f"MC 99% CI covered the exact tail in {hits}/200 trials (need 190)")
    assert ok


def test_criterion_10_total_runtime():
    dt = time.time() - MODULE_T0
    ok = dt < 180.0
    report(10, ok, f"identity/property suite total {dt:.1f}s (limit 180s)")
    assert ok
