"""Tests of the benchmark's own reference computations.

    python3 -m pytest perfbench/test_reference.py
"""

import itertools
import math
from fractions import Fraction

import mpmath

import reference


def test_lattice_law_matches_exact_enumeration():
    coeffs = [1, 3, 2, 2, 1, 3]
    probs = [0.1, 0.35, 0.5, 0.8, 0.65, 0.05]
    exact = [Fraction(0)] * (sum(coeffs) + 1)
    for bits in itertools.product((0, 1), repeat=len(coeffs)):
        weight = Fraction(1)
        for b, p in zip(bits, probs):
            weight *= Fraction(p) if b else 1 - Fraction(p)
        exact[sum(c * b for c, b in zip(coeffs, bits))] += weight
    law = reference.lattice_law(coeffs, probs)
    assert len(law) == len(exact)
    for got, want in zip(law, exact):
        assert abs(got - float(want)) <= 1e-16


def test_poisson_binomial_of_fair_coins_is_binomial():
    n = 300  # long enough that the product tree uses the FFT
    law = reference.poisson_binomial_fft([0.5] * n)
    assert len(law) == n + 1
    for k, got in enumerate(law):
        assert abs(got - math.comb(n, k) / 2**n) <= 1e-15


def test_integer_law_tails_place_thresholds_exactly():
    law = reference.poisson_binomial_fft([0.5] * 4)  # 1, 4, 6, 4, 1 over 16
    shift = reference.exact_shift([1.0] * 4, [0.5] * 4)  # 2
    assert reference.integer_law_tails(law, shift, 0.0) == (5 / 16, 5 / 16)
    assert reference.integer_law_tails(law, shift, 1.0) == (1 / 16, 1 / 16)
    assert reference.integer_law_tails(law, shift, 0.999) == (5 / 16, 5 / 16)
    assert reference.integer_law_tails(law, shift, 2.0) == (0.0, 0.0)


def test_q_norm_at_one_half_squares_to_one_eighth():
    with mpmath.workdps(reference.DPS):
        assert abs(reference.q_norm_mp(0.5) ** 2 - mpmath.mpf(1) / 8) < 1e-48
        assert abs(reference.q_norm_mp(0.5 + 1e-9) ** 2 - mpmath.mpf(1) / 8) < 1e-17
    assert reference.q_norm_mp(0.0) == 0 and reference.q_norm_mp(1.0) == 0


def test_kearns_saul_gap_is_nonnegative():
    for p in (0.01, 0.2, 0.5, 0.73, 0.999):
        for t in (-40.0, -1.5, -1e-3, 1e-6, 0.7, 3.0, 60.0):
            assert reference.kearns_saul_gap_mp(p, t) >= 0
        err, is_max = reference.extremal_check_mp(p)
        assert err < 1e-40 and is_max


def test_binomial_tails_match_the_poisson_binomial_law():
    n, p, x = 40, 0.3, 3.5
    upper, lower = reference.binomial_tails_mp(n, p, x)
    law = reference.poisson_binomial_fft([p] * n)
    shift = reference.exact_shift([1.0] * n, [p] * n)
    want_upper, want_lower = reference.integer_law_tails(law, shift, x)
    assert abs(float(upper) - want_upper) <= 1e-15
    assert abs(float(lower) - want_lower) <= 1e-15
