"""The array-first numeric layer against test-local copies of its scalar code.

The golden-section search, the log-MGF kernel, the numeric supremum and
gls_norm each take arrays now; every element must equal the scalar
computation bit for bit (compared as float bit patterns, so -0.0 and NaN
count).  The reference functions below are the scalar implementations as
they stood before the numeric layer went array-first.
"""

import math
import re

import numpy as np
import pytest

from subgauss import (
    CenteredIndicator,
    ConvergenceError,
    DomainError,
    LogMgfCurve,
    WeightedIndicatorSum,
    g_values,
    gls_norm,
    golden_section_argmax,
    log_mgf_values,
    subgaussian_norm_numeric,
    sum_log_mgf_curve,
)
from subgauss.core import _SERIES_CUTOFF, _indicator_curve

INVPHI = (math.sqrt(5.0) - 1.0) / 2.0
INVPHI2 = (3.0 - math.sqrt(5.0)) / 2.0


def scalar_golden(fn, lo, hi, tol=1e-12, max_iter=200):
    a, b = lo, hi
    h = b - a
    if h <= tol:
        mid = 0.5 * (a + b)
        return mid, fn(mid), 0, h, True
    c = a + INVPHI2 * h
    d = a + INVPHI * h
    fc = fn(c)
    fd = fn(d)
    best_x, best_f = (c, fc) if fc >= fd else (d, fd)
    iterations = 0
    for iterations in range(1, max_iter + 1):
        if fc >= fd:
            b, d, fd = d, c, fc
            h = b - a
            c = a + INVPHI2 * h
            fc = fn(c)
        else:
            a, c, fc = c, d, fd
            h = b - a
            d = a + INVPHI * h
            fd = fn(d)
        if fc >= best_f:
            best_x, best_f = c, fc
        if fd >= best_f:
            best_x, best_f = d, fd
        if h <= tol:
            return best_x, best_f, iterations, h, True
    return best_x, best_f, iterations, h, False


def scalar_series(p, lam):
    q = 1.0 - p
    pq = p * q
    d = 1.0 - 2.0 * p
    k2, k3, k4 = pq, pq * d, pq * (1.0 - 6.0 * pq)
    k5 = pq * d * (1.0 - 12.0 * pq)
    k6 = pq * (1.0 - 30.0 * pq + 120.0 * pq * pq)
    return k2 / 2.0 + lam * (
        k3 / 6.0 + lam * (k4 / 24.0 + lam * (k5 / 120.0 + lam * (k6 / 720.0)))
    )


def scalar_kernel(p, lam, over_t2):
    lam = np.asarray(lam, dtype=float)
    if p == 0.0 or p == 1.0:
        return np.zeros_like(lam)
    out = np.empty_like(lam)
    small = np.abs(lam) <= 1e-3
    ls = lam[small]
    series = scalar_series(p, ls)
    out[small] = series if over_t2 else ls * ls * series
    big = ~small
    lb = lam[big]
    with np.errstate(invalid="ignore"):
        direct = np.logaddexp(math.log(p) + lb * (1.0 - p), math.log1p(-p) - lb * p)
        out[big] = direct / (lb * lb) if over_t2 else direct
    return out


def scalar_numeric_sup(fn, variance=None, hint=None):
    lam_max = 60.0
    if hint:
        lam_max = max(lam_max, float(hint))
    grid = np.geomspace(1e-8, lam_max, 160)
    best = -math.inf if variance is None else 0.5 * float(variance)
    for sign in (1.0, -1.0):
        lams = sign * grid
        g = fn(lams) / (lams * lams)
        i = int(np.argmax(g))
        best = max(best, float(g[i]))
        lo = lams[max(i - 1, 0)]
        hi = lams[min(i + 1, len(lams) - 1)]
        lo, hi = min(lo, hi), max(lo, hi)
        tol = max(1e-12, 4.0 * float(np.spacing(max(-lo, hi))))
        res = scalar_golden(lambda t: float(fn(np.asarray(t))) / (t * t), lo, hi,
                            tol=tol, max_iter=200)
        assert res[4]
        best = max(best, res[1])
    return math.sqrt(max(best, 0.0))


def scalar_gls(p):
    if p == 0.0 or p == 1.0:
        return 0.0
    s_max = max(8.0, 4.0 * abs(math.log(min(p, 1.0 - p))))
    lp, lq = math.log(p), math.log1p(-p)

    def log_f(t):
        s = np.exp(t)
        return np.logaddexp(lp + s * lq, lq + s * lp) / s - 0.5 * t

    ts = np.linspace(0.0, math.log(s_max), 512)
    vals = log_f(ts)
    i = int(np.argmax(vals))
    lo, hi = ts[max(i - 1, 0)], ts[min(i + 1, len(ts) - 1)]
    res = scalar_golden(lambda t: float(log_f(np.asarray(t))), lo, hi, tol=1e-12)
    return math.exp(max(float(vals[i]), res[1]))


def bits(x):
    return np.asarray(x, dtype=float).view(np.int64)


def same_bits(a, b):
    return np.array_equal(bits(a), bits(b))


# p at the edges the kernel must keep bitwise: the endpoints, subnormal p,
# p within 1e-12 of 1/2 on both sides, and p near 1
EDGE_PS = [0.0, 1.0, 5e-324, 1e-310, 1e-300, 1e-12, 0.5, 0.5 - 1e-12, 0.5 + 1e-12,
           0.5 + 1e-13, 0.25, 0.75, 1.0 - 1e-12, 1.0 - 2.0 ** -53]


# p where numpy 2.4's vector log (first three) or log1p(-p) (last) rounds
# differently from libm on an AVX-512 machine, so a kernel that took its
# per-p constants from numpy would differ from the scalar call there
LIBM_WITNESS_PS = [0.9833347065534214, 0.8203077943609558, 0.9668786192650846,
                   0.6066357757671799]


def _edge_ps(seed, n):
    rng = np.random.default_rng(seed)
    return np.array(EDGE_PS + LIBM_WITNESS_PS + rng.uniform(0.0, 1.0, n).tolist()
                    + (10.0 ** rng.uniform(-300, -1, n)).tolist())


def _edge_ts(seed):
    rng = np.random.default_rng(seed)
    cut = _SERIES_CUTOFF
    seam = [cut, np.nextafter(cut, 1.0), np.nextafter(cut, 0.0)]
    pos = np.concatenate(([0.0, 1e-300, 5e-324, 1e3, math.inf], seam,
                          np.geomspace(1e-8, 1e3, 200), rng.uniform(0.0, 2e-3, 60)))
    return np.concatenate((pos, -pos, [math.nan]))


class TestGolden:
    # peaks and bracket widths from 1e-14 to 1e3, so elements converge at
    # different iterations; one bracket is already under tol and one is a
    # single point
    PEAKS = np.array([0.3, -2.0, 5.0, 1e-3, 0.0, 7.5, -0.25, 40.0, 0.5, 1.0])
    WIDTHS = np.array([1.0, 10.0, 1e3, 1e-3, 1e-14, 2.0, 0.5, 100.0, 0.0, 3e-7])

    def brackets(self):
        lo = self.PEAKS - 0.3 * self.WIDTHS
        return lo, lo + self.WIDTHS

    @pytest.mark.parametrize("max_iter", [200, 5, 0])
    @pytest.mark.parametrize("shape", ["plain", "flat", "step"])
    def test_batch_is_bitwise_scalar(self, shape, max_iter):
        peaks = self.PEAKS
        # products, not ** 2: a float's ** rounds through libm pow
        fns = {
            "plain": lambda x, c: -(x - c) * (x - c),
            "flat": lambda x, c: np.minimum(-(x - c) * (x - c), -1e-4),  # ties near the peak
            "step": lambda x, c: -np.floor(np.abs(x - c) * 8.0),
        }
        f = fns[shape]
        lo, hi = self.brackets()
        got = golden_section_argmax(lambda x: f(x, peaks), lo, hi, tol=1e-10,
                                    max_iter=max_iter)
        ref = [scalar_golden(lambda x, c=c: float(f(x, c)), a, b, tol=1e-10,
                             max_iter=max_iter)
               for a, b, c in zip(lo.tolist(), hi.tolist(), peaks.tolist())]
        x, v, its, w, conv = (list(col) for col in zip(*ref))
        assert same_bits(got.argmax, x)
        assert same_bits(got.value, v)
        assert same_bits(got.width, w)
        assert got.converged.tolist() == conv
        assert got.iterations == max(its)
        if max_iter == 200:
            assert len(set(its)) > 3  # the elements really froze at different steps
            assert conv == [True] * len(conv)
        else:
            assert conv.count(False) == len(conv) - 2  # only the two narrow ones

    def test_bracket_exactly_tol_wide_is_already_converged(self):
        # width == tol counts as converged, as in the scalar search
        got = golden_section_argmax(lambda x: -x * x, np.array([0.0, 0.0]),
                                    np.array([1e-10, 1.0]), tol=1e-10)
        ref = scalar_golden(lambda x: -x * x, 0.0, 1e-10, tol=1e-10)
        assert ref[2:] == (0, 1e-10, True)
        assert (got.argmax[0], got.value[0], got.width[0], got.converged[0]) == (
            ref[0], ref[1], ref[3], ref[4])

    def test_scalar_call_returns_python_scalars(self):
        got = golden_section_argmax(lambda t: -(t - 0.3) ** 2, -1.0, 2.0)
        ref = scalar_golden(lambda t: -(t - 0.3) ** 2, -1.0, 2.0)
        assert tuple(got) == ref
        assert [type(v) for v in got] == [float, float, int, float, bool]

    def test_scalar_search_hands_fn_floats(self):
        seen = []
        golden_section_argmax(lambda t: seen.append(t) or -t * t, -1.0, 1.0, max_iter=3)
        assert seen and all(isinstance(t, float) for t in seen)

    def test_two_dimensional_brackets(self):
        lo, hi = self.brackets()
        lo2, hi2 = lo[:8].reshape(4, 2), hi[:8].reshape(4, 2)
        peaks = self.PEAKS[:8].reshape(4, 2)
        got = golden_section_argmax(lambda x: -(x - peaks) * (x - peaks), lo2, hi2, tol=1e-10)
        flat = golden_section_argmax(lambda x: -(x - peaks.ravel()) * (x - peaks.ravel()),
                                     lo2.ravel(), hi2.ravel(), tol=1e-10)
        assert got.argmax.shape == (4, 2)
        assert same_bits(got.argmax.ravel(), flat.argmax)
        assert same_bits(got.width.ravel(), flat.width)

    def test_invalid_bracket_names_first_bad_element(self):
        with pytest.raises(ValueError, match=r"invalid bracket \[3.0, 2.0\]"):
            golden_section_argmax(lambda x: -x * x, np.array([0.0, 3.0, math.nan]),
                                  np.array([1.0, 2.0, 1.0]))
        with pytest.raises(ValueError, match=r"invalid bracket \[0.0, inf\]"):
            golden_section_argmax(lambda x: -x * x, 0.0, math.inf)
        with pytest.raises(ValueError, match="shape"):
            golden_section_argmax(lambda x: -x * x, np.zeros(2), np.ones(3))


class TestKernel:
    @pytest.mark.parametrize("over_t2", [False, True])
    def test_column_of_p_is_bitwise_scalar(self, over_t2):
        fn = g_values if over_t2 else log_mgf_values
        ps = _edge_ps(1, 40)
        ts = _edge_ts(2)
        with np.errstate(all="ignore"):
            got = fn(ps[:, None], ts)
            assert got.shape == (len(ps), len(ts))
            for p, row in zip(ps.tolist(), got):
                assert same_bits(row, scalar_kernel(p, ts, over_t2)), p
            # and a row of p against a column of t
            assert same_bits(fn(ps[None, :], ts[:, None]).T, got)

    @pytest.mark.parametrize("over_t2", [False, True])
    def test_elementwise_pairs_are_bitwise_scalar(self, over_t2):
        fn = g_values if over_t2 else log_mgf_values
        ps = _edge_ps(3, 200)
        rng = np.random.default_rng(4)
        ts = rng.permutation(np.resize(_edge_ts(5), len(ps)))
        with np.errstate(all="ignore"):
            got = fn(ps, ts)
            ref = [scalar_kernel(p, t, over_t2) for p, t in zip(ps.tolist(), ts.tolist())]
            assert same_bits(got, ref)
            # a float p and a 0-d t still give 0-d results
            for p in EDGE_PS:
                one = fn(p, 2e-3)
                assert one.shape == () and same_bits(one, scalar_kernel(p, 2e-3, over_t2))

    @pytest.mark.parametrize("bad", [math.nan, 1.5, -1e-300])
    def test_array_p_names_first_bad_value(self, bad):
        with pytest.raises(DomainError, match=re.escape(f"got {bad!r}")):
            log_mgf_values(np.array([0.2, bad, 2.0]), 1.0)


class TestNumericSup:
    def test_single_indicator_curves_are_bitwise_scalar(self):
        for p in _edge_ps(6, 15).tolist():
            ind = CenteredIndicator(p)
            hint = 4.0 * abs(2.0 * ind.prob.log_odds) if 0.0 < p < 1.0 else 0.0
            ref = scalar_numeric_sup(lambda lam: scalar_kernel(p, lam, False),
                                     variance=ind.variance, hint=hint)
            got = subgaussian_norm_numeric(ind.log_mgf_curve()).value
            assert same_bits(got, ref), p

    def test_batch_rows_are_bitwise_their_single_curves(self):
        ps = _edge_ps(7, 20)
        batch = subgaussian_norm_numeric(_indicator_curve(ps))
        assert len(batch) == len(ps)
        for p, norm in zip(ps.tolist(), batch):
            single = subgaussian_norm_numeric(CenteredIndicator(p).log_mgf_curve())
            assert same_bits(norm.value, single.value), p

    def test_tiny_weight_sum_rows_are_bitwise_their_single_curves(self):
        # weights below ~1e-150 put the window past 2^500, where g is read
        # scaled (j > 0); the batch mixes such rows with unscaled ones
        sums = [WeightedIndicatorSum([c, -2.5 * c], [p, 1.0 - p / 3.0])
                for c in (1e-160, 1e-200, 1e-300, 1.0, 1e-3)
                for p in (1e-9, 0.1, 0.3, 0.5 - 1e-12, 0.9, 1.0 - 1e-9)]
        curves = [sum_log_mgf_curve(s) for s in sums]
        assert sum(c.lambda_hint > 2.0 ** 500 for c in curves) == 18
        batch = LogMgfCurve(
            fn=lambda t: np.concatenate([c(t[r:r + 1]) for r, c in enumerate(curves)]),
            variance=np.array([c.variance for c in curves]),
            lambda_hint=np.array([c.lambda_hint for c in curves]),
            rows=len(curves),
        )
        got = [n.value for n in subgaussian_norm_numeric(batch)]
        ref = [subgaussian_norm_numeric(c).value for c in curves]
        assert same_bits(got, ref)

    def test_wide_hint_rows_get_their_own_grid(self):
        # p below ~5e-4 widens the window past lambda_max = 60
        ps = np.array([1e-300, 1e-9, 0.3, 1e-5, 0.7])
        got = [n.value for n in subgaussian_norm_numeric(_indicator_curve(ps))]
        ref = [subgaussian_norm_numeric(CenteredIndicator(p).log_mgf_curve()).value
               for p in ps.tolist()]
        assert same_bits(got, ref)

    def test_sum_curves_and_bare_callables_are_bitwise_scalar(self):
        for n in (1, 2, 16, 256):
            for p in (0.1, 0.3, 0.5):
                s = WeightedIndicatorSum.iid(n, p).scaled(1.0 / math.sqrt(n))
                curve = sum_log_mgf_curve(s)
                ref = scalar_numeric_sup(curve.fn, curve.variance, curve.lambda_hint)
                assert same_bits(subgaussian_norm_numeric(curve).value, ref), (n, p)
        for fn in (lambda t: 0.1 * t * t, lambda t: np.log(np.cosh(t))):
            assert same_bits(subgaussian_norm_numeric(fn).value, scalar_numeric_sup(fn))

    def test_batch_errors_name_the_offending_row(self, monkeypatch):
        def fn(lam):
            return np.where(np.arange(3)[:, None] == 1, 0.25, 0.0) + 0.1 * lam * lam
        with pytest.raises(DomainError, match="got 0.25"):
            subgaussian_norm_numeric(LogMgfCurve(fn=fn, rows=3))
        monkeypatch.setattr("subgauss.core._SUP_MAX_ITER", 2)
        with pytest.raises(ConvergenceError, match="after 2 iterations"):
            subgaussian_norm_numeric(_indicator_curve(np.array([0.2, 0.4])))


def test_gls_norm_is_bitwise_scalar():
    ps = np.concatenate((_edge_ps(8, 20), np.linspace(0.0, 1.0, 41)))
    for p in ps.tolist():
        assert same_bits(gls_norm(p), scalar_gls(p)), p
