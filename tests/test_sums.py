"""Weighted-sum container and the two norm combination rules."""

import math
import struct

import numpy as np
import pytest

from subgauss import (
    DependenceError,
    DomainError,
    NormMethod,
    Probability,
    SubgaussianNorm,
    WeightedIndicatorSum,
    best_norm_bound,
    hoeffding_reference_tail,
    noncentered_norm,
    norm_bound_dependent,
    norm_bound_independent,
    q_norm,
    sum_tail_bound,
)

# 40-digit oracle references
TRIANGLE_5_01 = 1.5085085570082437
QUAD_2Q01_HALF = 0.5541189811993156
INV_SQRT3 = 0.5773502691896257


def bits(x):
    """The IEEE bit pattern, so that -0.0 and 0.0 compare unequal."""
    return struct.pack("<d", x)


def per_term_reference(s):
    """Bounds and ranges summed term by term from q_norm: the reference.

    A term with p in {0, 1} is almost surely 0 and adds +0.0 to a range.
    """
    cs, ps = s.coeffs.tolist(), s.p_values.tolist()
    qs = [q_norm(p).value for p in ps]
    live = [0.0 < p < 1.0 for p in ps]
    return (
        math.fsum(abs(c) * q for c, q in zip(cs, qs)),
        math.sqrt(math.fsum((c * q) * (c * q) for c, q in zip(cs, qs))),
        math.fsum(max(c * (1.0 - p), -c * p) if ok else 0.0
                  for c, p, ok in zip(cs, ps, live)),
        math.fsum(min(c * (1.0 - p), -c * p) if ok else 0.0
                  for c, p, ok in zip(cs, ps, live)),
    )


class TestContainer:
    def test_iid_constructor(self):
        s = WeightedIndicatorSum.iid(4, 0.3)
        assert s.n_terms == 4
        assert s.p_values.tolist() == [0.3, 0.3, 0.3, 0.3]
        assert s.coeffs.tolist() == [1.0, 1.0, 1.0, 1.0]
        assert s.independent

    def test_length_mismatch(self):
        with pytest.raises(DomainError):
            WeightedIndicatorSum([1.0, 2.0], [0.5])

    def test_empty_rejected(self):
        with pytest.raises(DomainError):
            WeightedIndicatorSum([], [])

    def test_nonfinite_coeff_rejected(self):
        with pytest.raises(DomainError):
            WeightedIndicatorSum([math.inf], [0.5])

    def test_unit_coeffs_flag(self):
        assert WeightedIndicatorSum.iid(3, 0.2).unit_coeffs
        assert not WeightedIndicatorSum([1.0, 2.0], [0.2, 0.2]).unit_coeffs

    def test_null_terms_leave_ranges_at_zero(self):
        # p = 0 and p = 1 terms are almost surely 0: their other outcome
        # has probability 0 and is not in the essential range
        s = WeightedIndicatorSum([1.0, 2.0], [0.0, 1.0])
        assert bits(s.upper_range) == bits(0.0)
        assert bits(s.lower_range) == bits(0.0)
        assert bits(s.abs_range) == bits(0.0)

    def test_null_terms_do_not_widen_ranges(self):
        s = WeightedIndicatorSum([1.0, -3.0, 1.0, 5.0], [0.0, 1.0, 0.5, 1.0])
        assert (s.upper_range, s.lower_range, s.abs_range) == (0.5, -0.5, 0.5)

    def test_ranges(self):
        s = WeightedIndicatorSum([2.0, -1.0], [0.25, 0.25])
        # per-term best case: 2*0.75 + (-1)*(-0.25) up, 2*(-0.25) + (-1)*0.75 down
        assert s.upper_range == pytest.approx(1.75, rel=1e-15)
        assert s.lower_range == pytest.approx(-1.25, rel=1e-15)
        assert s.abs_range == pytest.approx(1.75, rel=1e-15)

    def test_scaled(self):
        s = WeightedIndicatorSum([1.0, 2.0], [0.2, 0.8]).scaled(-0.5)
        assert s.coeffs.tolist() == [-0.5, -1.0]
        assert s.p_values.tolist() == [0.2, 0.8]

    def test_scaled_rejects_nonfinite(self):
        with pytest.raises(DomainError):
            WeightedIndicatorSum.iid(2, 0.5).scaled(math.nan)

    def test_arrays_are_read_only_float64(self):
        coeffs = np.array([1, 2, 3])
        s = WeightedIndicatorSum(coeffs, [0.1, 0.2, 0.3])
        for arr in (s.coeffs, s.p_values):
            assert arr.dtype == np.float64
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0] = 0.5
        coeffs[0] = 9  # the sum holds its own copy
        assert s.coeffs.tolist() == [1.0, 2.0, 3.0]

    @pytest.mark.parametrize("make", [
        lambda c, p: (c, p),
        lambda c, p: (tuple(c), tuple(p)),
        lambda c, p: ((x for x in c), (x for x in p)),
        lambda c, p: (np.array(c), np.array(p)),
        lambda c, p: (c, [Probability(x) for x in p]),
        lambda c, p: (c, [Probability(p[0]), p[1], np.float64(p[2])]),
    ])
    def test_construction_inputs(self, make):
        s = WeightedIndicatorSum(*make([1.0, -2.0, 0.5], [0.0, 0.5, 1.0]))
        assert s.coeffs.tolist() == [1.0, -2.0, 0.5]
        assert s.p_values.tolist() == [0.0, 0.5, 1.0]

    @pytest.mark.parametrize("bad, shown", [
        (math.nan, "nan"), (-0.25, "-0.25"), (1.5, "1.5"), (math.inf, "inf"),
    ])
    def test_bad_probability_named(self, bad, shown):
        with pytest.raises(DomainError, match=rf"got {shown}$"):
            WeightedIndicatorSum([1.0] * 4, [0.5, bad, 2.0, 0.5])

    def test_length_mismatch_message(self):
        with pytest.raises(DomainError, match="mismatch: 2 vs 3"):
            WeightedIndicatorSum([1.0, 2.0], np.array([0.5, 0.5, 0.5]))

    @pytest.mark.parametrize("seed", range(40))
    def test_bounds_and_ranges_match_per_term_reference(self, seed):
        rng = np.random.default_rng(seed)
        m = int(rng.integers(1, 40))
        coeffs = rng.normal(scale=3.0, size=m)
        coeffs[rng.random(m) < 0.15] = 0.0
        coeffs[rng.random(m) < 0.05] = -0.0
        probs = rng.uniform(0.0, 1.0, size=m)
        probs[rng.random(m) < 0.3] = rng.choice([0.0, 0.5, 1.0])
        self.check_against_reference(WeightedIndicatorSum(coeffs, probs))

    @pytest.mark.parametrize("coeffs, probs", [
        ([0.0], [0.3]),
        ([-0.0], [0.3]),
        ([0.0, -0.0, -0.0], [1.0, 0.0, 0.5]),
        ([-1.0, 2.0], [0.0, 1.0]),
    ])
    def test_zero_terms_match_per_term_reference(self, coeffs, probs):
        # every term's range end is a signed zero here, so only the sum's
        # handling of -0.0 decides the bits
        self.check_against_reference(WeightedIndicatorSum(coeffs, probs))

    @staticmethod
    def check_against_reference(s):
        got = (
            norm_bound_dependent(s).value,
            norm_bound_independent(s).value,
            s.upper_range,
            s.lower_range,
        )
        assert [bits(v) for v in got] == [bits(v) for v in per_term_reference(s)]


class TestNormBounds:
    def test_triangle_frozen(self):
        b = norm_bound_dependent(WeightedIndicatorSum.iid(5, 0.1))
        assert b.method is NormMethod.TRIANGLE_DEPENDENT
        assert math.isclose(b.value, TRIANGLE_5_01, rel_tol=5e-14)

    def test_triangle_ignores_dependence(self):
        s = WeightedIndicatorSum([1.0, 1.0], [0.3, 0.3], independent=False)
        assert norm_bound_dependent(s).value == pytest.approx(
            2 * q_norm(0.3).value, rel=1e-15
        )

    def test_quadratic_frozen(self):
        s = WeightedIndicatorSum([1.0, 1.0, 1.0], [0.1, 0.9, 0.5])
        b = norm_bound_independent(s)
        assert b.method is NormMethod.QUADRATIC_INDEPENDENT
        assert math.isclose(b.value, QUAD_2Q01_HALF, rel_tol=5e-14)

    def test_quadratic_requires_independence(self):
        s = WeightedIndicatorSum([1.0, 1.0], [0.3, 0.3], independent=False)
        with pytest.raises(DependenceError):
            norm_bound_independent(s)

    def test_quadratic_uses_absolute_coeffs(self):
        a = norm_bound_independent(WeightedIndicatorSum([1.0, -2.0], [0.2, 0.4]))
        b = norm_bound_independent(WeightedIndicatorSum([1.0, 2.0], [0.2, 0.4]))
        assert a.value == b.value

    def test_quadratic_at_extreme_scales(self):
        # squares underflow to 0 or overflow to inf past 2^-500 and 2^500
        # unless rescaled; a power of two scales the bound exactly
        s = WeightedIndicatorSum([1.0, -2.5, 0.3, 1e-9], [0.1, 0.5, 0.9, 0.7])
        b = norm_bound_independent(s).value
        for k in (-600, 600):
            assert norm_bound_independent(s.scaled(2.0 ** k)).value == math.ldexp(b, k)

    def test_best_prefers_quadratic_when_independent(self):
        s = WeightedIndicatorSum.iid(5, 0.1)
        assert best_norm_bound(s).method is NormMethod.QUADRATIC_INDEPENDENT

    def test_best_falls_back_to_triangle(self):
        s = WeightedIndicatorSum([1.0], [0.1], independent=False)
        assert best_norm_bound(s).method is NormMethod.TRIANGLE_DEPENDENT

    def test_single_term_bounds_agree(self):
        s = WeightedIndicatorSum([2.0], [0.3])
        assert norm_bound_dependent(s).value == norm_bound_independent(s).value

    @pytest.mark.parametrize("independent, method", [
        (True, NormMethod.QUADRATIC_INDEPENDENT), (False, NormMethod.TRIANGLE_DEPENDENT),
    ])
    def test_noncentered_norm_keeps_the_bound_method(self, independent, method):
        s = WeightedIndicatorSum([1.0, -2.0], [0.1, 0.4], independent=independent)
        got = noncentered_norm(best_norm_bound(s), 0.5)
        assert got.method is method
        assert got.value == math.hypot(best_norm_bound(s).value, 0.5)

    def test_float_conversion(self):
        assert float(norm_bound_dependent(WeightedIndicatorSum([1.0], [0.5]))) == \
            q_norm(0.5).value

    def test_sum_norm_bound_validation(self):
        with pytest.raises(DomainError):
            SubgaussianNorm(-1.0, NormMethod.TRIANGLE_DEPENDENT)
        with pytest.raises(DomainError):
            SubgaussianNorm(1.0, "triangle")


class TestTailBounds:
    def test_closed_form_case(self):
        # iid(5, 0.1): 4 B^2 = 4 ln 9, so the x = 1 bound is exactly 3^(-1/2)
        s = WeightedIndicatorSum.iid(5, 0.1)
        assert math.isclose(sum_tail_bound(s, 1.0), INV_SQRT3, rel_tol=5e-14)

    def test_zero_threshold(self):
        assert sum_tail_bound(WeightedIndicatorSum.iid(3, 0.5), 0.0) == 1.0

    def test_degenerate_sum_rejects_positive_threshold(self):
        s = WeightedIndicatorSum([1.0], [0.0])
        with pytest.raises(DomainError):
            sum_tail_bound(s, 1.0)

    def test_hoeffding_reference(self):
        assert hoeffding_reference_tail(1.0) == pytest.approx(
            math.exp(-0.5), rel=1e-15
        )
