"""Property-based invariants across the whole numeric surface."""

import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from subgauss import (
    WeightedIndicatorSum,
    exact_tail,
    exhaustive_outcome_table,
    golden_section_argmax,
    kearns_saul_gap,
    lambda_star,
    log_mgf_values,
    norm_bound_dependent,
    norm_bound_independent,
    poisson_binomial_table,
    q_norm,
    tail_bound_from_norm,
    tail_curve,
    wilson_interval,
)

# dyadic grid: k / 2^20, so complements are exact floats
dyadic_probs = st.integers(0, 1 << 20).map(lambda k: k / float(1 << 20))
open_probs = st.floats(1e-6, 1.0 - 1e-6)
lambdas = st.floats(-1e3, 1e3).filter(lambda t: t == t)


@given(dyadic_probs)
def test_q_symmetric_bitwise_on_dyadics(p):
    assert q_norm(1.0 - p).value == q_norm(p).value


@given(open_probs)
def test_q_between_variance_and_hoeffding(p):
    # p(1-p)/2 <= Q^2 <= 1/8, both tight somewhere
    q2 = q_norm(p).value ** 2
    assert q2 <= 0.125 + 1e-16
    assert q2 >= p * (1.0 - p) / 2.0 - 1e-15


@given(st.tuples(open_probs, open_probs))
def test_q_monotone_below_half(pair):
    a, b = sorted(pair)
    assume(b <= 0.5)
    assert q_norm(a).value <= q_norm(b).value + 1e-15


@given(open_probs, lambdas)
def test_kearns_saul_gap_nonnegative(p, lam):
    assert kearns_saul_gap(p, lam) >= -1e-12 * (1.0 + lam * lam)


@given(open_probs)
def test_extremal_point_attains_the_norm(p):
    lam0 = lambda_star(p)
    assume(abs(lam0) > 1e-4)
    g = float(log_mgf_values(p, lam0)) / (lam0 * lam0)
    assert g == pytest.approx(q_norm(p).value ** 2, rel=1e-9)


@given(open_probs, st.floats(1e-4, 9e-4))
def test_log_mgf_branch_agreement(p, lam):
    # series region: the direct log-sum-exp must agree to absolute 1e-15
    direct = math.log(p * math.exp(lam * (1 - p)) + (1 - p) * math.exp(-lam * p))
    assert abs(float(log_mgf_values(p, lam)) - direct) < 1e-15


@given(st.floats(0.01, 10.0), st.floats(0.0, 20.0), st.floats(0.0, 20.0))
def test_tail_bound_monotone_in_threshold(tau, x1, x2):
    lo, hi = sorted((x1, x2))
    assert tail_bound_from_norm(tau, hi) <= tail_bound_from_norm(tau, lo)


@st.composite
def small_sums(draw, max_terms=8):
    m = draw(st.integers(1, max_terms))
    coeffs = draw(st.lists(
        st.floats(-3.0, 3.0).filter(lambda c: abs(c) > 1e-3),
        min_size=m, max_size=m,
    ))
    probs = draw(st.lists(st.floats(0.01, 0.99), min_size=m, max_size=m))
    return WeightedIndicatorSum(coeffs, probs)


@given(small_sums(), st.randoms(use_true_random=False))
def test_norm_bounds_permutation_invariant(s, rng):
    order = list(range(s.n_terms))
    rng.shuffle(order)
    shuffled = WeightedIndicatorSum(
        [s.coeffs[i] for i in order], [s.p_values[i] for i in order]
    )
    assert norm_bound_dependent(shuffled).value == norm_bound_dependent(s).value
    assert norm_bound_independent(shuffled).value == norm_bound_independent(s).value


@given(small_sums())
def test_quadratic_bound_below_triangle(s):
    assert norm_bound_independent(s).value <= norm_bound_dependent(s).value + 1e-15


@given(small_sums())
# squaring via libm pow (** 2) broke the identity on this sum; pinned to run every time
@example(WeightedIndicatorSum(
    [0.3758462337854329, 2.580971877681714, 1.1710943590682072,
     2.1009331445217425, -0.7955924989642438, 1.3285709821029315,
     -1.6783727468613219],
    [0.10216350782680679, 0.6006842402477324, 0.8479307968265222,
     0.9872834146180038, 0.3499019874035996, 0.9163702463645843,
     0.9886724895318543],
))
def test_power_of_two_scaling_exact(s):
    doubled = s.scaled(2.0)
    assert norm_bound_dependent(doubled).value == 2.0 * norm_bound_dependent(s).value
    assert norm_bound_independent(doubled).value == 2.0 * norm_bound_independent(s).value


@given(small_sums(max_terms=6))
@settings(deadline=None)
def test_outcome_table_is_a_centered_law(s):
    table = exhaustive_outcome_table(s)
    assert abs(table.total_mass() - 1.0) < 1e-12
    assert abs(table.mean()) < 1e-10
    assert np.all(np.diff(table.support) > 0)


@given(st.lists(st.floats(0.01, 0.99), min_size=1, max_size=10))
@settings(deadline=None)
def test_dp_matches_enumeration(ps):
    table_dp = poisson_binomial_table(ps)
    table_en = exhaustive_outcome_table(WeightedIndicatorSum([1.0] * len(ps), ps))
    assert np.array_equal(table_dp.support, table_en.support)
    assert np.max(np.abs(table_dp.masses - table_en.masses)) < 1e-14


@given(small_sums(max_terms=6), st.floats(-5.0, 5.0))
@settings(deadline=None)
def test_tail_curve_matches_exact_tail(s, x):
    table = exhaustive_outcome_table(s)
    a = exact_tail(table, x)
    b = float(tail_curve(table, np.array([x]))[0])
    assert abs(a - b) < 5e-15


@given(small_sums(max_terms=6), st.floats(0.0, 5.0))
@settings(deadline=None)
def test_exact_tail_dominated_by_bound(s, x):
    # the independent-sum bound must sit above the true max tail
    table = exhaustive_outcome_table(s)
    b = norm_bound_independent(s).value
    bound = 1.0 if x == 0.0 else math.exp(-(x * x) / (4.0 * b * b))
    assert exact_tail(table, x) <= bound + 1e-12


@given(st.integers(0, 50), st.integers(1, 50))
def test_wilson_interval_sane(k, extra):
    n = k + extra
    lo, hi = wilson_interval(k, n)
    assert 0.0 <= lo <= k / n <= hi <= 1.0


@given(
    st.floats(-5.0, 5.0),
    st.floats(0.1, 4.0),
    st.floats(0.1, 4.0),
)
def test_golden_section_finds_parabola_peak(a, left, right):
    res = golden_section_argmax(lambda t: -(t - a) ** 2, a - left, a + right, tol=1e-10)
    assert res.converged
    assert abs(res.argmax - a) < 1e-9
