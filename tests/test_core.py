"""Exact-norm layer: closed form, companions, conversions.

Reference values were computed independently with a 40-digit mpmath
sweep and frozen here; comparisons allow a few ulp of float64 noise.
"""

import math
import warnings
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

from subgauss import (
    CenteredIndicator,
    DomainError,
    LogMgfCurve,
    MgfOverflowError,
    NormMethod,
    Probability,
    SubgaussianNorm,
    WeightedIndicatorSum,
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
    norm_bound_dependent,
    norm_bound_from_tail,
    poisson_binomial_table,
    q_asymptotic,
    q_norm,
    subgaussian_norm_numeric,
    tail_bound_from_norm,
)
from subgauss.core import _g_series, _log_odds, _q_squared, as_probability
from subgauss.sums import _term_norms

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


def _float_bits(x) -> bytes:
    return np.asarray(x, dtype=float).tobytes()


class TestRealRule:
    """One rule for what a probability or a coefficient is, at every entry point."""

    SCALAR_ENTRIES = {
        "Probability": lambda v: Probability(v).p,
        "as_probability": lambda v: as_probability(v).p,
        "q_norm": lambda v: q_norm(v).value,
        "log_mgf_values": lambda v: log_mgf_values(v, 1.0),
    }
    ARRAY_ENTRIES = {
        "sum probabilities": lambda v: WeightedIndicatorSum([1.0] * len(v), v).p_values,
        "sum coefficients": lambda v: WeightedIndicatorSum(v, [0.5] * len(v)).coeffs,
        "dp": lambda v: poisson_binomial_table(v).masses,
        "kernel array p": lambda v: log_mgf_values(np.asarray(v), 1.0),
    }
    ACCEPTED_SCALARS = [0, 1, 0.25, np.int64(1), np.uint8(0), np.float32(0.5),
                        np.float64(0.25), np.float16(0.5), np.array(0.5)]
    REJECTED_SCALARS = ["0.5", b"0.5", True, False, np.bool_(True), None, 0.5j,
                        Fraction(1, 2), Decimal("0.5"), 2 ** 70, [0.5]]
    ACCEPTED_ARRAYS = [[0.5], [1, 0], (0.25, 0.5), np.array([0.5], np.float32),
                       np.array([1, 0], np.int64), np.array([0.25], np.longdouble),
                       # numpy folds these into a float array, out of the rule's reach
                       [0.5, True]]
    REJECTED_ARRAYS = [["0.5"], [b"0.5"], [True], [True, False], np.array([0.5], object),
                       [0.5, None], ["0.5", 0.5], [0.5j], [2 ** 70]]

    @pytest.mark.parametrize("entry", SCALAR_ENTRIES)
    def test_scalars(self, entry):
        fn = self.SCALAR_ENTRIES[entry]
        for v in self.ACCEPTED_SCALARS:
            assert _float_bits(fn(v)) == _float_bits(fn(float(v)))
        for v in self.REJECTED_SCALARS:
            with pytest.raises(DomainError, match="must be a real number"):
                fn(v)

    @pytest.mark.parametrize("entry", ARRAY_ENTRIES)
    def test_arrays(self, entry):
        fn = self.ARRAY_ENTRIES[entry]
        for v in self.ACCEPTED_ARRAYS:
            assert _float_bits(fn(v)) == _float_bits(fn([float(x) for x in v]))
        for v in self.REJECTED_ARRAYS:
            with pytest.raises(DomainError, match="must be a real number"):
                fn(v)


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

    def test_vector_and_scalar_are_bitwise_own_logaddexp(self):
        # each branch runs only where it is kept; pinned against both
        # expressions written out and selected with np.where, on arrays and
        # on 0-d input, NaN bit patterns included
        rng = np.random.default_rng(6)
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
                got = log_mgf_values(p, lam)
                scalars = [log_mgf_values(p, t) for t in lam.tolist()]
                if p in (0.0, 1.0):
                    ref = np.zeros_like(lam)
                else:
                    direct = np.logaddexp(
                        math.log(p) + lam * (1.0 - p), math.log1p(-p) - lam * p
                    )
                    ref = np.where(np.abs(lam) <= cut, lam * lam * _g_series(p, lam),
                                   direct)
            assert got.tobytes() == ref.tobytes(), p
            assert all(v.shape == () for v in scalars), p
            assert np.array(scalars).tobytes() == ref.tobytes(), p


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

    def test_rejects_curve_not_vanishing_at_zero(self):
        with pytest.raises(DomainError):
            subgaussian_norm_numeric(LogMgfCurve(fn=lambda t: t + 1.0))

    def test_rejects_nonfinite_curve(self):
        with pytest.raises(DomainError):
            subgaussian_norm_numeric(LogMgfCurve(fn=lambda t: np.where(t == 0, 0.0, np.inf)))

    def test_variance_candidate_used_for_flat_window(self):
        # g = 0.1 on the whole window, below the declared variance / 2
        curve = LogMgfCurve(fn=lambda t: 0.1 * t * t, variance=0.25)
        assert subgaussian_norm_numeric(curve).value == math.sqrt(0.125)


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

    @pytest.mark.parametrize("tau, shown", [(math.nan, "nan"), (-1.0, "-1.0")])
    def test_tail_bound_rejects_bad_norm(self, tau, shown):
        with pytest.raises(DomainError, match=f"^norm must be a nonnegative real, got {shown}$"):
            tail_bound_from_norm(tau, 1.0)

    # 0, -0, moderate, x^2 / 4 tau^2 within an ulp of exp's underflow edge
    # (about 745.13 for tau = 0.5), and past it
    TAIL_XS = [0.0, -0.0, 1e-300, 0.3, 1.0, 2.5, 10.0, 27.29, 27.3, 27.31, 40.0]

    @pytest.mark.parametrize("shape", [(), (11,), (2, 11)])
    def test_tail_bound_array_is_bitwise_its_scalar_calls(self, shape):
        xs = np.resize(np.array(self.TAIL_XS), shape or (1,)).reshape(shape)
        got = tail_bound_from_norm(0.5, xs)
        want = [tail_bound_from_norm(0.5, x) for x in xs.ravel().tolist()]
        if shape == ():
            assert isinstance(got, float) and got.hex() == want[0].hex()
        else:
            assert got.shape == shape
            assert [v.hex() for v in got.ravel().tolist()] == [v.hex() for v in want]

    def test_tail_bound_takes_a_list(self):
        got = tail_bound_from_norm(SubgaussianNorm(0.5, NormMethod.CLOSED_FORM), self.TAIL_XS)
        want = [tail_bound_from_norm(0.5, x) for x in self.TAIL_XS]
        assert got.tolist() == want
        assert want[7] == 5e-324 and want[8] == 0.0  # the edge is reached
        assert tail_bound_from_norm(0.5, []).shape == (0,)

    @pytest.mark.parametrize("bad, shown", [
        (math.nan, "nan"), (math.inf, "inf"), (-math.inf, "-inf"), (-1.0, "-1.0"),
    ])
    def test_tail_bound_array_names_the_first_bad_threshold(self, bad, shown):
        xs = np.array([[0.0, 1.0, bad], [-2.0, math.nan, 1.0]])
        with pytest.raises(DomainError, match=f"^threshold must be a finite x >= 0, got {shown}$"):
            tail_bound_from_norm(0.5, xs)

    def test_tail_bound_zero_norm_on_arrays(self):
        with pytest.raises(DomainError, match="^tail bound undefined for zero norm at positive x$"):
            tail_bound_from_norm(0.0, [0.0, 0.0, 1e-300])
        assert tail_bound_from_norm(0.0, np.zeros((2, 3))).tolist() == [[1.0] * 3] * 2
        assert tail_bound_from_norm(0.0, [0.0, -0.0]).tolist() == [1.0, 1.0]

    def test_tail_bound_is_invariant_under_powers_of_two(self):
        # tau past 2^-500 or 2^500 is rescaled with x, bit for bit
        for tau in (1e-3, 0.3, 1.0, 7.5):
            for x in (0.0, 0.1, 1.0, 2.5, 10.0, 40.0):
                want = tail_bound_from_norm(tau, x)
                for k in (-600, 600):
                    got = tail_bound_from_norm(math.ldexp(tau, k), math.ldexp(x, k))
                    assert got.hex() == want.hex(), (tau, x, k)

    def test_tail_bound_at_extreme_norms(self):
        # 4 tau^2 underflows to 0 or overflows to inf without the rescale
        assert tail_bound_from_norm(1e155, 1e160) == 0.0
        assert tail_bound_from_norm(1e-170, [0.0, 1.0]).tolist() == [1.0, 0.0]

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


class TestTinyP:
    """Q and t* for p far below any series or cancellation threshold.

    At these p, 1 - 2p rounds to 1, so a closed form built on
    atanh(1 - 2p) would give Q = 0; the log1p/log form must serve them.
    """

    @pytest.mark.parametrize("p", [1e-20, 2.0 ** -60, 1e-300, 5e-324])
    def test_within_one_ulp_of_50_digit_reference(self, p):
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(50):
            m = mpmath.mpf(p)
            log_odds = mpmath.log((1 - m) / m)
            q_ref = float(mpmath.sqrt((1 - 2 * m) / (4 * log_odds)))
            lam_ref = float(2 * log_odds)
        assert abs(q_norm(p).value - q_ref) <= math.ulp(q_ref)
        assert abs(lambda_star(p) - lam_ref) <= math.ulp(lam_ref)


def _kernel_probe_ps() -> np.ndarray:
    """Probabilities that stress each side of the log-odds kernel."""
    rng = np.random.default_rng(20260818)
    half_steps = 0.5 + np.arange(-200, 201) * 2.0 ** -53
    parts = [
        rng.uniform(0.0, 1.0, 1000),
        rng.uniform(0.25, 0.75, 1000),
        0.5 + rng.uniform(-1e-5, 1e-5, 500),
        half_steps,
        np.exp(rng.uniform(math.log(5e-324), math.log(0.5), 800)),
        [5e-324, 2.0 ** -1074 * 3, 2.0 ** -1022],
        1.0 - np.exp(rng.uniform(math.log(1e-16), math.log(0.5), 300)),
    ]
    for edge in (0.25, 0.75):
        below, above = [edge], [edge]
        for _ in range(20):
            below.append(np.nextafter(below[-1], 0.0))
            above.append(np.nextafter(above[-1], 1.0))
        parts.append(below + above)
    ps = np.unique(np.concatenate([np.asarray(x, dtype=float) for x in parts]))
    return ps[(ps > 0.0) & (ps < 1.0)]


class TestKernelUlp:
    """Q and the log-odds against 50-digit mpmath, in units of the last place.

    The log-odds is read through lambda_star = 2 log((1 - p) / p), an exact
    doubling.  The error is taken in mpmath, so the reference's own rounding
    to float64 counts against the kernel.
    """

    Q_ULP = 2.0
    LOG_ODDS_ULP = 2.0

    def test_within_two_ulp_of_50_digit_reference(self):
        mpmath = pytest.importorskip("mpmath")
        ps = _kernel_probe_ps()
        assert len(ps) >= 4000
        worst_q = worst_l = (-1.0, None)
        with mpmath.workdps(50):
            for p in ps.tolist():
                m = mpmath.mpf(p)
                if p == 0.5:
                    q_ref = mpmath.sqrt(mpmath.mpf(0.125))
                    assert lambda_star(p) == 0.0
                else:
                    log_odds = mpmath.log((1 - m) / m)
                    q_ref = mpmath.sqrt((1 - 2 * m) / (4 * log_odds))
                    lam_ref = 2 * log_odds
                    err = float(abs(lambda_star(p) - lam_ref)) / math.ulp(float(lam_ref))
                    if err > worst_l[0]:
                        worst_l = (err, p)
                err = float(abs(q_norm(p).value - q_ref)) / math.ulp(float(q_ref))
                if err > worst_q[0]:
                    worst_q = (err, p)
        assert worst_q[0] <= self.Q_ULP, f"Q off by {worst_q[0]:.3f} ulp at p = {worst_q[1]!r}"
        assert worst_l[0] <= self.LOG_ODDS_ULP, (
            f"log-odds off by {worst_l[0]:.3f} ulp at p = {worst_l[1]!r}"
        )

    def test_array_kernel_is_bitwise_scalar(self):
        ps = _kernel_probe_ps()
        ps = np.concatenate(([0.0, 0.5, 1.0], ps))
        assert np.sqrt(_q_squared(ps)).tolist() == [q_norm(p).value for p in ps.tolist()]
        assert _log_odds(ps).tolist() == [Probability(p).log_odds for p in ps.tolist()]

    def test_q_norm_is_single_term_dependent_bound(self):
        for p in _kernel_probe_ps()[::10].tolist() + [0.0, 0.5, 1.0]:
            single = WeightedIndicatorSum([1.0], [p], independent=False)
            assert norm_bound_dependent(single).value == q_norm(p).value, p

    def test_sum_terms_are_per_term_q_norm(self):
        rng = np.random.default_rng(7)
        ps = rng.uniform(0.0, 1.0, 1000)
        ps[:6] = (0.0, 1.0, 0.5, 0.25, 0.75, 1e-300)
        cs = rng.uniform(-3.0, 3.0, 1000)
        terms = _term_norms(WeightedIndicatorSum(cs, ps))
        expected = [abs(c) * q_norm(p).value for c, p in zip(cs.tolist(), ps.tolist())]
        assert terms.tolist() == expected
