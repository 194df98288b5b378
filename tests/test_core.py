"""Exact-norm layer: closed form, companions, conversions.

Reference values were computed independently with a 40-digit mpmath
sweep and frozen here; comparisons allow a few ulp of float64 noise.
"""

import math
import warnings

import numpy as np
import pytest

from subgauss import (
    CenteredIndicator,
    DomainError,
    LogMgfCurve,
    MgfOverflowError,
    NormMethod,
    NumericSupConfig,
    Probability,
    SubgaussianNorm,
    g_value,
    g_values,
    gls_norm,
    kearns_saul_gap,
    lambda_star,
    log_mgf,
    log_mgf_values,
    mgf,
    moment_abs,
    noncentered_norm,
    norm_bound_from_tail,
    q_asymptotic,
    q_norm,
    subgaussian_norm_numeric,
    tail_bound_from_norm,
)
from subgauss.core import _g_series

# 40-digit oracle references, rounded to nearest float64
Q_01 = 0.30170171140164875
Q_03 = 0.3435436655134
Q_025 = 0.33731276781105496
Q_1E12 = 0.0951199332753129
Q2_01 = 0.09102392266268373
LAMBDA_STAR_01 = 4.394449154672439
MGF_03_2 = 1.6007281353192209
LOG_MGF_03_2 = 0.4704586103006692
GAP_03_2 = 0.0016303901568622589
G_03_2 = 0.1176146525751673
MOMENT_ABS_01_10 = 0.7148954114363804
GLS_01 = 0.25439406982587665
GLS_1E8 = 0.09992747623622117
GLS_1E40 = 0.04468892638372608
Q_05_PLUS_1E5 = 0.35355339056970353

REL = 5e-14


def close(a, b, rel=REL, abs_=1e-300):
    return math.isclose(a, b, rel_tol=rel, abs_tol=abs_)


class TestProbability:
    def test_valid_range(self):
        for p in (0.0, 0.5, 1.0, 0.3):
            assert Probability(p).p == p

    @pytest.mark.parametrize("bad", [-0.1, 1.0000001, math.nan, math.inf, -math.inf])
    def test_rejects_out_of_range(self, bad):
        with pytest.raises(DomainError):
            Probability(bad)

    def test_log_odds_half_is_exact_zero(self):
        assert Probability(0.5).log_odds == 0.0

    def test_log_odds_antisymmetric_bitwise(self):
        # dyadic p, so 1 - p is exact and the reflection is bit-for-bit
        for p in (0.25, 0.375, 0.0625, 0.046875):
            assert Probability(1.0 - p).log_odds == -Probability(p).log_odds

    def test_log_odds_antisymmetric_inexact_complement(self):
        # fl(1 - 0.1) != 0.9 - 0.1 in reals; still antisymmetric to ~1 ulp of p
        for p in (0.1, 0.3, 0.499):
            a = Probability(1.0 - p).log_odds
            b = -Probability(p).log_odds
            assert math.isclose(a, b, rel_tol=1e-14)

    def test_log_odds_endpoints(self):
        assert Probability(0.0).log_odds == math.inf
        assert Probability(1.0).log_odds == -math.inf

    def test_complement(self):
        assert Probability(0.3).complement == 0.7


class TestCenteredIndicator:
    def test_support_and_moments(self):
        ind = CenteredIndicator(Probability(0.3))
        assert ind.support == (0.7, -0.3)
        assert ind.mean == 0.0
        assert ind.variance == pytest.approx(0.21, rel=1e-15)

    def test_accepts_bare_float(self):
        assert CenteredIndicator(0.3).p == 0.3


class TestQNorm:
    def test_endpoints_are_zero(self):
        assert q_norm(0.0).value == 0.0
        assert q_norm(1.0).value == 0.0

    def test_half_is_sqrt_eighth_bitwise(self):
        assert q_norm(0.5).value == math.sqrt(0.125)

    def test_frozen_values(self):
        assert close(q_norm(0.1).value, Q_01)
        assert close(q_norm(0.3).value, Q_03)
        assert close(q_norm(0.25).value, Q_025)
        assert close(q_norm(1e-12).value, Q_1E12)

    def test_symmetric_bitwise(self):
        # 1 - p exact for these, so reflection must be bit-for-bit
        for p in (0.25, 0.375, 0.0625):
            assert q_norm(1.0 - p).value == q_norm(p).value

    def test_method_tag(self):
        assert q_norm(0.3).method is NormMethod.CLOSED_FORM

    def test_series_window_frozen_value(self):
        # +-1e-5 sits on the direct side of the switchover, where log-odds
        # cancellation costs ~5e-12 relative; the tolerance reflects that
        assert close(q_norm(0.5 + 1e-5).value, Q_05_PLUS_1E5, rel=2e-11)
        assert close(q_norm(0.5 - 1e-5).value, Q_05_PLUS_1E5, rel=2e-11)

    def test_monotone_through_series_seam(self):
        # strictly decreasing in |p - 1/2| across the switchover at 1e-5
        eps = [0.0, 2e-6, 5e-6, 9e-6, 1.1e-5, 2e-5, 1e-4]
        vals = [q_norm(0.5 + e).value for e in eps]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_float_conversion(self):
        assert float(q_norm(0.5)) == math.sqrt(0.125)


class TestAsymptotic:
    def test_exact_at_exp_minus_25(self):
        # -log p = 25 exactly, so the value is exactly 0.1
        assert q_asymptotic(math.exp(-25.0)) == 0.1

    @pytest.mark.parametrize("bad", [0.0, 0.5, 1.0])
    def test_undefined_points(self, bad):
        with pytest.raises(DomainError):
            q_asymptotic(bad)

    def test_ratio_to_exact_near_zero(self):
        r = q_norm(1e-12).value / q_asymptotic(1e-12)
        assert abs(r - 1.0) < 1e-11


class TestLambdaStar:
    def test_frozen_value(self):
        assert close(lambda_star(0.1), LAMBDA_STAR_01)
        assert close(lambda_star(0.1), 2.0 * math.log(9.0))

    def test_zero_at_half(self):
        assert lambda_star(0.5) == 0.0

    def test_antisymmetric(self):
        assert lambda_star(0.75) == -lambda_star(0.25)

    @pytest.mark.parametrize("bad", [0.0, 1.0])
    def test_endpoints_undefined(self, bad):
        with pytest.raises(DomainError):
            lambda_star(bad)


class TestMgf:
    def test_frozen_values(self):
        assert close(mgf(0.3, 2.0), MGF_03_2)
        assert close(log_mgf(0.3, 2.0), LOG_MGF_03_2)

    def test_at_zero(self):
        assert mgf(0.3, 0.0) == 1.0
        assert log_mgf(0.3, 0.0) == 0.0

    def test_degenerate_indicator(self):
        assert log_mgf(0.0, 5.0) == 0.0
        assert log_mgf(1.0, -7.0) == 0.0

    def test_overflow_is_typed(self):
        # log-mgf ~ 1400 here, far past the float exp range
        with pytest.raises(MgfOverflowError):
            mgf(0.3, 2000.0)
        assert log_mgf(0.3, 2000.0) == pytest.approx(0.7 * 2000.0 + math.log(0.3), rel=1e-6)

    def test_rejects_nonfinite_argument(self):
        with pytest.raises(DomainError):
            log_mgf(0.3, math.inf)

    def test_vectorized_matches_scalar(self):
        lams = np.array([-3.0, -1e-5, 0.0, 1e-5, 0.5, 8.0])
        vec = log_mgf_values(0.3, lams)
        for lam, v in zip(lams, vec):
            assert v == log_mgf(0.3, float(lam))

    def test_series_seam_continuity(self):
        # hybrid switches at |t| = 1e-3; both branches agree there
        for lam in (1e-3, -1e-3):
            direct = math.log(
                0.3 * math.exp(lam * 0.7) + 0.7 * math.exp(-lam * 0.3)
            )
            assert abs(float(log_mgf_values(0.3, lam)) - direct) < 5e-16


class TestGProfile:
    def test_frozen_value(self):
        assert close(g_value(0.3, 2.0), G_03_2)

    def test_zero_requires_flag(self):
        with pytest.raises(DomainError):
            g_value(0.3, 0.0)
        assert g_value(0.3, 0.0, limit_at_zero=True) == pytest.approx(0.105, rel=1e-15)

    def test_sup_attained_at_extremal_point(self):
        for p in (0.1, 0.3, 0.77, 0.97):
            lam0 = lambda_star(p)
            assert close(g_value(p, lam0), q_norm(p).value ** 2, rel=1e-12)

    def test_vector_limit_at_zero(self):
        v = g_values(0.2, np.array([0.0]))
        assert v[0] == pytest.approx(0.2 * 0.8 / 2.0, rel=1e-15)

    def test_vector_is_bitwise_own_logaddexp(self):
        # g is log_mgf_values / t^2 off the series window; pinned against
        # the logaddexp expression written out, NaN bit patterns included
        rng = np.random.default_rng(5)
        cut = 1e-3
        seam = [cut, np.nextafter(cut, 1.0), np.nextafter(cut, 0.0)]
        pos = np.concatenate((
            [0.0, 1e-300, 5e-324, 1e3, math.inf], seam,
            np.geomspace(1e-8, 1e3, 400), rng.uniform(0.0, 2e-3, 100),
        ))
        lam = np.concatenate((pos, -pos, [math.nan]))
        ps = [0.0, 1.0, 5e-324, 1e-12, 0.5, 0.5 + 1e-12, 1.0 - 1e-12]
        ps += rng.uniform(0.0, 1.0, 40).tolist()
        for p in ps:
            with np.errstate(all="ignore"):
                got = g_values(p, lam)
                if p in (0.0, 1.0):
                    ref = np.zeros_like(lam)
                else:
                    direct = np.logaddexp(
                        math.log(p) + lam * (1.0 - p), math.log1p(-p) - lam * p
                    ) / (lam * lam)
                    ref = np.where(np.abs(lam) <= cut, _g_series(p, lam), direct)
            assert got.tobytes() == ref.tobytes(), p


class TestKearnsSaulGap:
    def test_frozen_value(self):
        assert close(kearns_saul_gap(0.3, 2.0), GAP_03_2, rel=1e-12)

    def test_zero_at_origin_and_extremal_point(self):
        assert kearns_saul_gap(0.3, 0.0) == 0.0
        assert abs(kearns_saul_gap(0.3, lambda_star(0.3))) < 1e-15

    def test_nonnegative_on_grid(self):
        lams = np.geomspace(1e-6, 50.0, 200)
        for p in (0.02, 0.3, 0.5, 0.98):
            for lam in np.concatenate([-lams, lams]):
                assert kearns_saul_gap(p, float(lam)) >= -1e-12

    def test_survives_huge_lambda(self):
        # log domain: no overflow even where the raw MGF would
        assert kearns_saul_gap(0.3, 5000.0) > 0.0


class TestNumericSup:
    def test_matches_closed_form(self):
        for p in (0.1, 0.5, 0.9):
            ind = CenteredIndicator(Probability(p))
            got = subgaussian_norm_numeric(ind.log_mgf_curve())
            assert got.method is NormMethod.NUMERIC_SUP
            assert abs(got.value - q_norm(p).value) < 1e-10

    def test_accepts_bare_callable(self):
        # exact Gaussian profile: g constant, immune to small-t noise
        got = subgaussian_norm_numeric(lambda t: 0.1 * t * t)
        assert abs(got.value - math.sqrt(0.1)) < 1e-12

    def test_bare_callable_needs_relative_accuracy(self):
        # a curve computed with only absolute accuracy near t = 0 pollutes
        # g = curve / t^2 at the bottom of the window; the documented fix
        # is a LogMgfCurve with its variance declared, searched from a
        # larger lambda_min
        noisy = lambda t: np.logaddexp(0.5 * t, -0.5 * t) - math.log(2.0)
        cfg = NumericSupConfig(lambda_min=1e-4)
        got = subgaussian_norm_numeric(
            LogMgfCurve(fn=noisy, variance=0.25), cfg
        )
        assert abs(got.value - math.sqrt(0.125)) < 1e-7

    def test_rejects_curve_not_vanishing_at_zero(self):
        with pytest.raises(DomainError):
            subgaussian_norm_numeric(LogMgfCurve(fn=lambda t: t + 1.0))

    def test_rejects_nonfinite_curve(self):
        with pytest.raises(DomainError):
            subgaussian_norm_numeric(LogMgfCurve(fn=lambda t: np.where(t == 0, 0.0, np.inf)))

    def test_config_validation(self):
        with pytest.raises(DomainError):
            NumericSupConfig(lambda_min=0.0)
        with pytest.raises(DomainError):
            NumericSupConfig(lambda_min=2.0, lambda_max=1.0)
        with pytest.raises(DomainError):
            NumericSupConfig(grid_points=3)

    def test_variance_candidate_used_for_flat_window(self):
        # window far below the maximizer still returns at least variance/2
        cfg = NumericSupConfig(lambda_min=1e-8, lambda_max=1e-6)
        ind = CenteredIndicator(Probability(0.5))
        got = subgaussian_norm_numeric(ind.log_mgf_curve(), cfg)
        assert got.value >= math.sqrt(0.125) - 1e-12


class TestMomentNorms:
    def test_moment_abs_frozen(self):
        assert close(moment_abs(0.1, 10.0), MOMENT_ABS_01_10)

    def test_first_moment_identity(self):
        # E|X| = 2 p (1 - p)
        assert moment_abs(0.3, 1.0) == pytest.approx(2 * 0.3 * 0.7, rel=1e-14)

    def test_endpoints(self):
        assert moment_abs(0.0, 3.0) == 0.0
        assert moment_abs(1.0, 3.0) == 0.0

    def test_rejects_s_below_one(self):
        with pytest.raises(DomainError):
            moment_abs(0.3, 0.5)

    def test_large_s_no_underflow(self):
        # term-by-term p^s would underflow; log-space path must not
        v = moment_abs(0.4, 5000.0)
        assert 0.59 < v < 0.61

    def test_gls_half_is_half(self):
        # sup attained at s = 1: E|X| = 1/2 exactly
        assert gls_norm(0.5) == pytest.approx(0.5, rel=1e-12)

    def test_gls_frozen_values(self):
        assert close(gls_norm(0.1), GLS_01, rel=1e-12)
        assert close(gls_norm(1e-8), GLS_1E8, rel=1e-9)
        assert close(gls_norm(1e-40), GLS_1E40, rel=1e-9)

    def test_gls_endpoints(self):
        assert gls_norm(0.0) == 0.0
        assert gls_norm(1.0) == 0.0

    def test_gls_comparable_to_exact_norm(self):
        # equivalent norms: ratio stays within modest universal constants
        for p in (0.01, 0.1, 0.3, 0.5, 0.9):
            r = gls_norm(p) / q_norm(p).value
            assert 0.5 < r < 2.0

    def test_gls_boundary_warning(self):
        with pytest.warns(RuntimeWarning):
            gls_norm(1e-8, s_max=4.0)

    def test_gls_rejects_bad_window(self):
        with pytest.raises(DomainError):
            gls_norm(0.3, s_max=1.0)


class TestConversions:
    def test_noncentered_half(self):
        got = noncentered_norm(q_norm(0.5), 0.5)
        assert close(got.value, math.sqrt(3.0 / 8.0))
        assert got.method is NormMethod.CLOSED_FORM

    def test_noncentered_accepts_float(self):
        assert noncentered_norm(3.0, 4.0).value == 5.0

    def test_noncentered_rejects_bad_inputs(self):
        with pytest.raises(DomainError):
            noncentered_norm(-1.0, 0.0)
        with pytest.raises(DomainError):
            noncentered_norm(1.0, math.nan)

    def test_tail_bound_at_zero_threshold(self):
        assert tail_bound_from_norm(0.7, 0.0) == 1.0

    def test_tail_bound_decreasing(self):
        xs = np.linspace(0.0, 5.0, 40)
        vals = [tail_bound_from_norm(0.5, float(x)) for x in xs]
        assert all(a >= b for a, b in zip(vals, vals[1:]))

    def test_tail_bound_zero_norm(self):
        with pytest.raises(DomainError):
            tail_bound_from_norm(0.0, 1.0)

    def test_tail_bound_rejects_negative_threshold(self):
        with pytest.raises(DomainError):
            tail_bound_from_norm(0.5, -1.0)

    def test_norm_from_tail_factor_four(self):
        got = norm_bound_from_tail(0.25)
        assert got.value == 1.0
        assert got.method is NormMethod.BOUND_ONLY

    def test_norm_from_tail_rejects_nonpositive(self):
        with pytest.raises(DomainError):
            norm_bound_from_tail(0.0)


class TestNormObject:
    def test_rejects_negative_or_nan(self):
        with pytest.raises(DomainError):
            SubgaussianNorm(-1.0, NormMethod.CLOSED_FORM)
        with pytest.raises(DomainError):
            SubgaussianNorm(math.nan, NormMethod.CLOSED_FORM)

    def test_rejects_untyped_method(self):
        with pytest.raises(DomainError):
            SubgaussianNorm(1.0, "closed_form")
