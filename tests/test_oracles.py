"""Exact and Monte Carlo oracle layer.

The two exact oracles (DP over counts, full outcome enumeration) are
deliberately independent codepaths; several tests here pin them against
each other and against hand arithmetic.
"""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import subgauss
from subgauss import (
    CapExceededError,
    DependenceError,
    DistributionTable,
    DomainError,
    McEstimate,
    WeightedIndicatorSum,
    exact_sum_log_mgf,
    exact_tail,
    exhaustive_outcome_table,
    exhaustive_weighted_tail,
    log_mgf_values,
    monte_carlo_tail,
    poisson_binomial_table,
    q_norm,
    subgaussian_norm_numeric,
    sum_log_mgf_curve,
    tail_curve,
    wilson_interval,
)
import subgauss.oracles as oracles_module
from subgauss.oracles import MC_BLOCK_SIZE, _enumerate_outcomes

WILSON_UPPER_0_100 = 0.062220687715822974  # z = 2.5758293035489004

# The single-shot reference's value (each block drawn whole, stream v2):
# 37 909 lower-tail hits, against 35 169 upper.
FROZEN_MC_SUM = WeightedIndicatorSum(
    [1.0, -2.0, 0.5, 1.25, 0.75, -0.3, 1.7],
    [0.2, 0.4, 0.6, 0.8, 0.1, 0.55, 0.35],
)
FROZEN_MC = McEstimate(
    point=0.25272666666666666,
    ci_low=0.24984738819640842,
    ci_high=0.25562781927602524,
    n_samples=150_000,
    seed=2024,
)


def out_of_place_dp(ps):
    """The DP step written with fresh temporaries: the bitwise reference."""
    mass = np.zeros(len(ps) + 1)
    mass[0] = 1.0
    for k, p in enumerate(ps):
        q = 1.0 - p
        mass[k + 1] = mass[k] * p
        if k > 0:
            mass[1:k + 1] = mass[1:k + 1] * q + mass[:k] * p
        mass[0] *= q
    return mass


def assert_same_bits(got, want):
    """Bitwise equality; unlike array_equal it tells -0.0 from +0.0."""
    assert got.shape == want.shape
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


def _band_inputs():
    rng = np.random.default_rng(99)
    scattered = rng.uniform(0.0, 1.0, size=2000)
    null = rng.random(2000) < 0.2
    scattered[null] = rng.choice([0.0, 1.0], size=int(null.sum()))
    extreme = rng.uniform(0.0, 1.0, size=1500)
    picks = rng.random(1500) < 0.3
    extreme[picks] = rng.choice(
        [5e-324, 1e-300, 1.0 - 2.0 ** -53, 0.0, 1.0], size=int(picks.sum())
    )
    return {
        # p = 0 leaves the band as it is, p = 1 shifts it up by one atom
        "null terms scattered": scattered,
        "null terms leading": np.concatenate((np.ones(40), np.zeros(40), scattered[:500])),
        "extreme p": extreme,
        "fair coins": np.full(5000, 0.5),
        # 3000 terms: the first and last nonzero atoms are subnormal
        "uniform": rng.uniform(0.05, 0.95, size=3000),
        "one-sided": rng.uniform(0.0, 1e-3, size=4000),
    }


BAND_INPUTS = _band_inputs()


def binomial_upper_tail(mpmath, n, k):
    """P(K > k) for K ~ Binomial(n, 1/2), at 50 digits: the reference."""
    with mpmath.workdps(50):
        term = mpmath.binomial(n, k + 1) / mpmath.mpf(2) ** n
        total = mpmath.mpf(0)
        j = k + 1
        while j <= n and term > mpmath.mpf(10) ** -40:
            total += term
            term = term * (n - j) / (j + 1)
            j += 1
        return float(total)


def fsum_only_check(support, masses):
    """Table validation's sum checks by fsum alone: the reference.

    Returns the DomainError message, or None for an accepted table.
    """
    total = math.fsum(masses.tolist())
    if abs(total - 1.0) > 1e-12:
        return f"masses sum to {total!r}, not 1 within 1e-12"
    mean = math.fsum((support * masses).tolist())
    if abs(mean) > 1e-10:
        return f"table mean {mean!r} exceeds the 1e-10 tolerance"
    return None


def edge_table(n, total, mean, seed, step=2.0 ** -24):
    """A table whose fsum mass is `total` and fsum mean `mean`, exactly.

    The support is (i - z) * step.  Masses mirror about the zero atom z,
    so their moments cancel exactly; one atom at +-step carries
    |mean| / step (exact: step is a power of two) and the zero atom fixes
    the total.  In every 128 atoms the first 7 carry the mass and the
    rest hold 2.5e-20, under half an ulp of the large ones at 2^16 atoms:
    a float sum that adds the large masses first drops the small ones, so
    a blocked sum misses the total by several ulps.  z = 3 mod 64 keeps
    that layout mirrored.
    """
    rng = np.random.default_rng(seed)
    z = n // 2 - n // 2 % 64 + 3
    support = (np.arange(n) - z) * step
    j = np.arange(1, min(z, n - 1 - z) + 1)  # mirrored pairs z +- j
    large = (z + j) % 128 < 7
    half = np.where(large, rng.uniform(0.9, 1.1, size=j.size), 0.0)
    half *= (1.0 - 2.0 / n - abs(mean) / step) / (2.0 * math.fsum(half.tolist()))
    half[~large] = 2.5e-20
    half[0] = 0.0  # the +-step atoms hold only the mean
    masses = np.zeros(n)
    masses[z + j] = half
    masses[z - j] = half
    masses[z + (1 if mean > 0 else -1)] = abs(mean) / step
    masses[z] = math.fsum([total] + [-m for m in masses.tolist()])
    assert masses[z] > 0.0
    assert math.fsum(masses.tolist()) == total
    assert math.fsum((support * masses).tolist()) == mean
    return support, masses


def ulps_from(x, k):
    """The float k steps from x (toward +inf for k > 0)."""
    for _ in range(abs(k)):
        x = math.nextafter(x, math.inf if k > 0 else -math.inf)
    return x


def bit_loop_outcomes(s):
    """Outcomes by a uint32 bit mask per term: the enumeration reference."""
    idx = np.arange(1 << s.n_terms, dtype=np.uint32)
    raw = np.zeros(idx.size)
    prob = np.ones(idx.size)
    for j, (c, p) in enumerate(zip(s.coeffs.tolist(), s.p_values.tolist())):
        bit = ((idx >> np.uint32(j)) & np.uint32(1)).astype(bool)
        raw += np.where(bit, c, 0.0)
        prob *= np.where(bit, p, 1.0 - p)
    return raw - math.fsum((s.coeffs * s.p_values).tolist()), prob


def unmerged_tail(s, x, side, strict):
    """Tail summed over all 2^m outcomes, no atoms merged: the reference."""
    values, probs = bit_loop_outcomes(s)
    if side == "max_both":
        return max(unmerged_tail(s, x, "upper", strict),
                   unmerged_tail(s, x, "lower", strict))
    if side == "upper":
        sel = values > x if strict else values >= x
    else:
        sel = values < -x if strict else values <= -x
    return math.fsum(np.sort(probs[sel]).tolist())


def enumeration_sum(rng):
    """Float, unit, integer or quarter-dyadic weights; some p in {0, 1/2, 1}."""
    m = int(rng.integers(1, 13))
    kind = int(rng.integers(4))
    if kind == 0:
        coeffs = rng.normal(scale=2.0, size=m)
    elif kind == 1:
        coeffs = np.ones(m)
    elif kind == 2:
        coeffs = rng.integers(-3, 4, size=m).astype(float)
    else:
        coeffs = rng.integers(-8, 9, size=m) / 4.0
    probs = rng.uniform(0.0, 1.0, size=m)
    special = rng.random(m) < 0.3
    probs[special] = rng.choice([0.0, 0.5, 1.0], size=int(special.sum()))
    return WeightedIndicatorSum(coeffs, probs)


def reference_block_values(s, n_samples, seed):
    """The sample values of each block by the stream v2 definition: the
    block drawn whole, term-major, and its terms summed left to right."""
    shift = math.fsum(c * p for c, p in zip(s.coeffs, s.p_values))
    for block in range(-(-n_samples // MC_BLOCK_SIZE)):
        rows = min(MC_BLOCK_SIZE, n_samples - block * MC_BLOCK_SIZE)
        rng = np.random.Generator(
            np.random.PCG64DXSM(np.random.SeedSequence((seed, block)))
        )
        u = rng.random((s.n_terms, rows))
        vals = np.zeros(rows)
        for c, p, col in zip(s.coeffs.tolist(), s.p_values.tolist(), u):
            vals += c * (col < p)
        yield vals - shift


def single_shot_estimates(s, xs, n_samples, seed, side):
    """Each block drawn whole and counted by comparison: the reference
    that the chunked, sorted sampler must match."""
    up, lo = np.zeros(len(xs), dtype=int), np.zeros(len(xs), dtype=int)
    for vals in reference_block_values(s, n_samples, seed):
        up += [np.count_nonzero(vals > x) for x in xs]
        lo += [np.count_nonzero(vals < -x) for x in xs]
    ks = {"upper": up, "lower": lo, "max_both": np.maximum(up, lo)}[side]
    return tuple(
        McEstimate(k / n_samples, *wilson_interval(k, n_samples), n_samples, seed)
        for k in ks.tolist()
    )


def random_sum(rng, dyadic):
    """An independent sum; dyadic weights and probs put atoms on thresholds."""
    m = int(rng.integers(1, 13))
    if dyadic:
        coeffs = rng.choice([0.5, 1.0, 1.5, -2.0, 3.0], size=m)
        probs = rng.choice([0.25, 0.5, 0.75], size=m)
    else:
        coeffs = rng.normal(size=m)
        probs = rng.uniform(0.02, 0.98, size=m)
    return WeightedIndicatorSum(coeffs.tolist(), probs.tolist())


class TestDistributionTable:
    def test_rejects_unsorted_support(self):
        with pytest.raises(DomainError):
            DistributionTable(np.array([1.0, 0.0]), np.array([0.5, 0.5]))

    def test_rejects_mass_not_one(self):
        with pytest.raises(DomainError):
            DistributionTable(np.array([-0.5, 0.5]), np.array([0.3, 0.3]))

    def test_rejects_noncentered(self):
        with pytest.raises(DomainError):
            DistributionTable(np.array([0.0, 1.0]), np.array([0.5, 0.5]))

    def test_arrays_read_only(self):
        t = poisson_binomial_table([0.5, 0.5])
        with pytest.raises(ValueError):
            t.masses[0] = 1.0

    # the total steps 2^-52 above 1 and 2^-53 below; each list straddles
    # the 1e-12 edge by 4 ulps on either side
    MASS_EDGE = (
        [1.0 + k * 2.0 ** -52 for k in range(4499, 4508)]
        + [1.0 - k * 2.0 ** -53 for k in range(9003, 9012)]
    )
    MEAN_EDGE = [s * ulps_from(1e-10, k) for s in (1.0, -1.0) for k in range(-4, 5)]

    @pytest.mark.parametrize("n", [301, 1 << 16])
    @pytest.mark.parametrize("total", MASS_EDGE)
    def test_mass_edge_decided_as_fsum(self, n, total):
        support, masses = edge_table(n, total, 0.0, seed=n)
        self.check_like_reference(support, masses)

    @pytest.mark.parametrize("n", [301, 1 << 16])
    @pytest.mark.parametrize("mean", MEAN_EDGE)
    def test_mean_edge_decided_as_fsum(self, n, mean):
        support, masses = edge_table(n, 1.0, mean, seed=n + 1)
        self.check_like_reference(support, masses)

    def test_edges_are_straddled(self):
        verdicts = {
            fsum_only_check(*edge_table(301, total, 0.0, seed=1)) is None
            for total in self.MASS_EDGE
        }
        assert verdicts == {True, False}
        verdicts = {
            fsum_only_check(*edge_table(301, 1.0, mean, seed=1)) is None
            for mean in self.MEAN_EDGE
        }
        assert verdicts == {True, False}

    @pytest.mark.parametrize("mean", [3e-11, -3e-11, 2e-10, -2e-10])
    def test_large_support_falls_back_to_fsum(self, monkeypatch, mean):
        # |support| up to 2^20: the cheap bound is wider than the 1e-10
        # mean tolerance, so only fsum can decide
        support, masses = edge_table(1 << 16, 1.0, mean, seed=5, step=32.0)
        verdicts = self.spy_cheap_sums(monkeypatch)
        self.check_like_reference(support, masses)
        assert verdicts == [True, False]

    def test_ordinary_table_skips_fsum(self, monkeypatch):
        ps = np.random.default_rng(3).uniform(0.05, 0.95, size=2000)
        verdicts = self.spy_cheap_sums(monkeypatch)
        poisson_binomial_table(ps)
        assert verdicts == [True, True]

    @staticmethod
    def spy_cheap_sums(monkeypatch):
        verdicts = []
        real = oracles_module._surely_within

        def spy(x, target, tol):
            verdicts.append(real(x, target, tol))
            return verdicts[-1]

        monkeypatch.setattr(oracles_module, "_surely_within", spy)
        return verdicts

    @staticmethod
    def check_like_reference(support, masses):
        expected = fsum_only_check(support, masses)
        if expected is None:
            DistributionTable(support, masses)
        else:
            with pytest.raises(DomainError) as err:
                DistributionTable(support, masses)
            assert str(err.value) == expected


class TestPoissonBinomialDp:
    def test_fair_four_coins_binomial_exact(self):
        # C(4,k)/16 and half-integer support, all exactly representable
        t = poisson_binomial_table([0.5] * 4)
        assert np.array_equal(t.support, np.array([-2.0, -1.0, 0.0, 1.0, 2.0]))
        assert np.array_equal(
            t.masses, np.array([1.0, 4.0, 6.0, 4.0, 1.0]) / 16.0
        )

    def test_two_mixed_probs_hand_arithmetic(self):
        t = poisson_binomial_table([0.2, 0.5])
        assert t.masses == pytest.approx([0.4, 0.5, 0.1], rel=1e-15)
        assert t.support == pytest.approx([-0.7, 0.3, 1.3], rel=1e-15)

    def test_single_term(self):
        t = poisson_binomial_table([0.3])
        assert t.support == pytest.approx([-0.3, 0.7], rel=1e-15)
        assert t.masses == pytest.approx([0.7, 0.3], rel=1e-15)

    @pytest.mark.parametrize("bad", [math.nan, -1e-300, 1.0000000000000002])
    def test_rejects_bad_probability(self, bad):
        with pytest.raises(DomainError, match=f"got {bad!r}$"):
            poisson_binomial_table([0.5, bad, 7.0])

    def test_accepts_probability_objects(self):
        t = poisson_binomial_table([subgauss.Probability(0.2), 0.5])
        assert t.masses.tolist() == poisson_binomial_table([0.2, 0.5]).masses.tolist()

    def test_large_n_mass_conserved(self):
        t = poisson_binomial_table(np.linspace(0.01, 0.99, 2000))
        assert abs(t.total_mass() - 1.0) < 1e-12
        assert abs(t.mean()) < 1e-10

    @pytest.mark.parametrize("n", [1, 2, 17, 400, 3000, 10_000, 30_000])
    def test_in_place_update_is_bitwise_out_of_place(self, n):
        ps = np.random.default_rng(n).uniform(0.0, 1.0, size=n)
        t = poisson_binomial_table(ps)
        assert_same_bits(t.masses, out_of_place_dp(ps.tolist()))

    @pytest.mark.parametrize("name", sorted(BAND_INPUTS))
    def test_banded_update_is_bitwise_on_band_edge_inputs(self, name):
        ps = BAND_INPUTS[name]
        t = poisson_binomial_table(ps)
        assert_same_bits(t.masses, out_of_place_dp(ps.tolist()))

    def test_band_edges_reach_subnormal_atoms(self):
        # guards the input above: both ends of the band are subnormal
        masses = poisson_binomial_table(BAND_INPUTS["uniform"]).masses
        band = masses[np.flatnonzero(masses)]
        assert band[0] < np.finfo(float).tiny
        assert band[-1] < np.finfo(float).tiny

    def test_cap_exceeded_before_any_dp_work(self, monkeypatch):
        class NoNumpy:
            def __getattr__(self, name):
                raise AssertionError(f"DP touched np.{name} past the cap")

        monkeypatch.setattr(oracles_module, "np", NoNumpy())
        with pytest.raises(CapExceededError, match="100001 exceeds the DP cap 100000"):
            poisson_binomial_table([0.5] * 100_001)

    def test_fair_coins_at_the_cap(self):
        mpmath = pytest.importorskip("mpmath")
        n = 100_000
        t = poisson_binomial_table(np.full(n, 0.5))  # validated on construction
        assert t.n_atoms == n + 1
        assert abs(t.total_mass() - 1.0) <= 1e-12
        assert abs(t.mean()) <= 1e-10
        # 0, about 1 sigma and about 5 sigma; sigma = sqrt(n) / 2 = 158.1
        for x in (0.0, 158.0, 790.0):
            want = binomial_upper_tail(mpmath, n, n // 2 + int(x))
            for side in ("upper", "lower", "max_both"):
                assert abs(exact_tail(t, x, side=side) - want) <= 1e-12


class TestExactTail:
    def test_strict_vs_weak_at_atom(self):
        t = poisson_binomial_table([0.5] * 4)
        # P(S > 1) = 1/16, P(S >= 1) = 5/16
        assert exact_tail(t, 1.0, side="upper", strict=True) == 1.0 / 16.0
        assert exact_tail(t, 1.0, side="upper", strict=False) == 5.0 / 16.0

    def test_lower_side_is_negated_threshold(self):
        t = poisson_binomial_table([0.5] * 4)
        # P(S < -1) = 1/16
        assert exact_tail(t, 1.0, side="lower") == 1.0 / 16.0

    def test_max_both(self):
        t = exhaustive_outcome_table(WeightedIndicatorSum([1.0, 2.0], [0.1, 0.3]))
        x = 0.5
        up = exact_tail(t, x, side="upper")
        lo = exact_tail(t, x, side="lower")
        assert exact_tail(t, x, side="max_both") == max(up, lo)

    def test_rejects_nan(self):
        t = poisson_binomial_table([0.5])
        with pytest.raises(DomainError):
            exact_tail(t, math.nan)

    def test_rejects_unknown_side(self):
        t = poisson_binomial_table([0.5])
        with pytest.raises(DomainError):
            exact_tail(t, 0.0, side="both")

    def test_beyond_support_is_zero(self):
        t = poisson_binomial_table([0.5] * 4)
        assert exact_tail(t, 99.0, side="max_both") == 0.0

    def test_curve_matches_pointwise(self):
        t = poisson_binomial_table(np.linspace(0.1, 0.9, 30))
        xs = np.linspace(0.0, 10.0, 101)
        for side in ("upper", "lower", "max_both"):
            curve = tail_curve(t, xs, side=side)
            for x, c in zip(xs, curve):
                assert abs(c - exact_tail(t, float(x), side=side)) < 5e-15

    def test_curve_weak_inequality(self):
        t = poisson_binomial_table([0.5] * 4)
        got = tail_curve(t, np.array([1.0]), side="upper", strict=False)
        assert got[0] == 5.0 / 16.0


class TestEnumeration:
    def test_matches_dp_for_unit_coeffs(self):
        ps = [0.12, 0.5, 0.77, 0.3]
        t_dp = poisson_binomial_table(ps)
        t_en = exhaustive_outcome_table(WeightedIndicatorSum([1.0] * 4, ps))
        assert np.array_equal(t_dp.support, t_en.support)
        assert np.max(np.abs(t_dp.masses - t_en.masses)) < 1e-15

    def test_weighted_two_terms_hand_arithmetic(self):
        # S = 2 eta(0.5) - eta(0.5): four equally likely values
        s = WeightedIndicatorSum([2.0, -1.0], [0.5, 0.5])
        t = exhaustive_outcome_table(s)
        assert t.support == pytest.approx([-1.5, -0.5, 0.5, 1.5], rel=1e-15)
        assert t.masses == pytest.approx([0.25] * 4, rel=1e-15)

    def test_merges_coinciding_outcomes(self):
        # +-1 coin flips: S in {-2, 0, 2} with the middle atom doubled
        s = WeightedIndicatorSum([2.0, 2.0], [0.5, 0.5])
        t = exhaustive_outcome_table(s)
        assert t.n_atoms == 3
        assert t.masses == pytest.approx([0.25, 0.5, 0.25], rel=1e-15)

    @pytest.mark.parametrize("kind", ["real", "integer", "zero_mass"])
    def test_table_is_bitwise_the_unique_bincount_merge(self, kind):
        # the sort-only path (no ties) and the merge (ties) must both give
        # the bits of np.unique + bincount over the outcomes in index order
        rng = np.random.default_rng({"real": 1, "integer": 2, "zero_mass": 3}[kind])
        for _ in range(25):
            m = int(rng.integers(1, 13))
            if kind == "integer":
                coeffs = rng.integers(-3, 4, size=m).astype(float)
            else:
                coeffs = rng.uniform(-2.0, 2.0, size=m)
            ps = rng.uniform(0.0, 1.0, size=m)
            if kind == "zero_mass":
                ps[: m // 2] = rng.choice([0.0, 1.0, 5e-324, 1.0 - 2.0 ** -53], size=m // 2)
            s = WeightedIndicatorSum(coeffs, ps)
            values, probs = _enumerate_outcomes(s)
            support, inverse = np.unique(values, return_inverse=True)
            masses = np.bincount(inverse, weights=probs, minlength=support.size)
            t = exhaustive_outcome_table(s)
            assert t.support.tobytes() == support.tobytes()
            assert t.masses.tobytes() == masses.tobytes()

    def test_cap(self):
        with pytest.raises(CapExceededError):
            exhaustive_outcome_table(WeightedIndicatorSum.iid(21, 0.5))

    def test_requires_independence(self):
        s = WeightedIndicatorSum([1.0, 1.0], [0.5, 0.5], independent=False)
        with pytest.raises(DependenceError):
            exhaustive_outcome_table(s)

    @pytest.mark.parametrize("seed", range(25))
    def test_doubling_is_bitwise_bit_loop(self, seed):
        s = enumeration_sum(np.random.default_rng(seed))
        values, probs = _enumerate_outcomes(s)
        ref_values, ref_probs = bit_loop_outcomes(s)
        # byte comparison also tells -0.0 from 0.0
        assert values.tobytes() == ref_values.tobytes()
        assert probs.tobytes() == ref_probs.tobytes()

    @pytest.mark.parametrize("seed", range(25))
    def test_weighted_tail_is_bitwise_unmerged_sum(self, seed):
        rng = np.random.default_rng(seed)
        s = enumeration_sum(rng)
        values, _ = bit_loop_outcomes(s)
        # attained atoms (both signs) make strictness matter
        xs = np.abs(values[:4]).tolist() + [0.0, float(rng.uniform(0.0, 3.0))]
        for x in xs:
            for side in ("upper", "lower", "max_both"):
                for strict in (True, False):
                    got = exhaustive_weighted_tail(s, x, side, strict)
                    ref = unmerged_tail(s, x, side, strict)
                    assert got.hex() == ref.hex(), (x, side, strict)

    def test_weighted_tail_rejects_nan_and_unknown_side(self):
        s = WeightedIndicatorSum([1.0, 2.0], [0.5, 0.5])
        with pytest.raises(DomainError):
            exhaustive_weighted_tail(s, math.nan)
        with pytest.raises(DomainError):
            exhaustive_weighted_tail(s, 0.0, side="both")

    def test_weighted_tail_shortcut(self):
        s = WeightedIndicatorSum([1.5, -0.5, 1.0], [0.2, 0.6, 0.4])
        t = exhaustive_outcome_table(s)
        for x in (0.0, 0.3, 1.1):
            assert exhaustive_weighted_tail(s, x) == exact_tail(t, x)


class TestWilson:
    def test_frozen_upper_at_zero_successes(self):
        lo, hi = wilson_interval(0, 100)
        assert lo == 0.0
        assert math.isclose(hi, WILSON_UPPER_0_100, rel_tol=1e-14)

    def test_boundary_counts(self):
        assert wilson_interval(100, 100)[1] == 1.0

    def test_symmetric_at_half(self):
        lo, hi = wilson_interval(50, 100)
        assert lo == pytest.approx(1.0 - hi, abs=1e-15)

    def test_rejects_bad_counts(self):
        with pytest.raises(DomainError):
            wilson_interval(5, 4)
        with pytest.raises(DomainError):
            wilson_interval(-1, 4)


class TestMonteCarlo:
    def test_bit_reproducible(self):
        s = WeightedIndicatorSum.iid(6, 0.3)
        a = monte_carlo_tail(s, 0.8, 150_000, seed=42)
        b = monte_carlo_tail(s, 0.8, 150_000, seed=42)
        assert a == b

    def test_seed_changes_estimate(self):
        s = WeightedIndicatorSum.iid(6, 0.3)
        a = monte_carlo_tail(s, 0.8, 10_000, seed=1)
        b = monte_carlo_tail(s, 0.8, 10_000, seed=2)
        assert a.point != b.point

    def test_covers_exact_value(self):
        s = WeightedIndicatorSum([1.0, -2.0, 0.5, 1.0], [0.2, 0.4, 0.6, 0.8])
        exact = exhaustive_weighted_tail(s, 0.9)
        est = monte_carlo_tail(s, 0.9, 200_000, seed=0)
        assert est.covers(exact)
        assert est.n_samples == 200_000

    def test_side_selection(self):
        s = WeightedIndicatorSum.iid(5, 0.1)
        up = monte_carlo_tail(s, 0.8, 50_000, seed=3, side="upper")
        mx = monte_carlo_tail(s, 0.8, 50_000, seed=3, side="max_both")
        assert mx.point >= up.point

    def test_requires_independence(self):
        s = WeightedIndicatorSum([1.0, 1.0], [0.5, 0.5], independent=False)
        with pytest.raises(DependenceError):
            monte_carlo_tail(s, 0.5, 1000, seed=0)

    def test_validates_sample_count_and_seed(self):
        s = WeightedIndicatorSum.iid(2, 0.5)
        with pytest.raises(DomainError):
            monte_carlo_tail(s, 0.5, 99, seed=0)
        with pytest.raises(DomainError):
            monte_carlo_tail(s, 0.5, 1000, seed=-1)

    def test_frozen_estimate(self):
        # pins which uniforms each block draws, however it is chunked
        assert monte_carlo_tail(FROZEN_MC_SUM, 1.1, 150_000, seed=2024) == FROZEN_MC

    @pytest.mark.parametrize("threads", ["1", "2"])
    @pytest.mark.parametrize("n_samples", [100, 16_384, 16_385, 65_536, 70_001, 150_000])
    def test_curve_equals_pointwise(self, monkeypatch, n_samples, threads):
        monkeypatch.setenv("SUBGAUSS_THREADS", threads)
        rng = np.random.default_rng(n_samples)
        for dyadic in (True, False):
            s = random_sum(rng, dyadic)
            # |outcome| of random subsets: for dyadic sums these are atoms
            shift = math.fsum(c * p for c, p in zip(s.coeffs, s.p_values))
            atoms = [
                abs(math.fsum(np.compress(rng.random(s.n_terms) < 0.5, s.coeffs)) - shift)
                for _ in range(3)
            ]
            xs = [0.0, 1.0, *atoms, *rng.uniform(0.0, 3.0, size=2).tolist()]
            seed = int(rng.integers(0, 1000))
            for side in ("upper", "lower", "max_both"):
                curve = monte_carlo_tail(s, xs, n_samples, seed, side)
                assert curve == tuple(
                    monte_carlo_tail(s, x, n_samples, seed, side) for x in xs
                )
                assert curve == single_shot_estimates(s, xs, n_samples, seed, side)

    def test_frozen_estimate_is_the_reference(self):
        assert single_shot_estimates(
            FROZEN_MC_SUM, [1.1], 150_000, 2024, "max_both"
        ) == (FROZEN_MC,)

    def test_reference_is_the_scalar_loop(self):
        # the stream's doubles one at a time, term-major, summed in term
        # order by plain float arithmetic
        rng = np.random.default_rng(17)
        m, rows, seed = 9, 300, 5
        s = WeightedIndicatorSum(rng.normal(size=m), rng.uniform(0.05, 0.95, size=m))
        coeffs, probs = s.coeffs.tolist(), s.p_values.tolist()
        shift = math.fsum(c * p for c, p in zip(coeffs, probs))
        stream = np.random.Generator(
            np.random.PCG64DXSM(np.random.SeedSequence((seed, 0)))
        )
        u = [[stream.random() for _ in range(rows)] for _ in range(m)]
        want = []
        for i in range(rows):
            acc = 0.0
            for j in range(m):
                acc += coeffs[j] * (u[j][i] < probs[j])
            want.append(acc - shift)
        (got,) = reference_block_values(s, rows, seed)
        assert got.tolist() == want

    @pytest.mark.parametrize("threads", ["1", "2"])
    @pytest.mark.parametrize("n_samples", [100, 16_384, 16_385, 70_001])
    def test_thresholds_at_sample_values(self, monkeypatch, n_samples, threads):
        # a sample equal to a strict threshold is not counted, so a value
        # one ulp off would flip a count
        monkeypatch.setenv("SUBGAUSS_THREADS", threads)
        rng = np.random.default_rng(n_samples + 1)
        for m in (3, 40, 300):
            s = WeightedIndicatorSum(
                rng.normal(scale=2.0, size=m), rng.uniform(0.02, 0.98, size=m)
            )
            seed = int(rng.integers(0, 1000))
            vals = np.concatenate(list(reference_block_values(s, n_samples, seed)))
            xs = np.abs(rng.choice(vals, size=8)).tolist()
            for side in ("upper", "lower", "max_both"):
                assert monte_carlo_tail(s, xs, n_samples, seed, side) == (
                    single_shot_estimates(s, xs, n_samples, seed, side)
                )

    def test_same_bits_under_either_blas_kernel(self):
        # OPENBLAS_CORETYPE picks the kernels of a DYNAMIC_ARCH OpenBLAS;
        # where it has no effect the two runs agree trivially
        rng = np.random.default_rng(23)
        coeffs = rng.normal(size=200)
        probs = rng.uniform(0.05, 0.95, size=200)
        s = WeightedIndicatorSum(coeffs, probs)
        vals = np.concatenate(list(reference_block_values(s, 20_000, 3)))
        xs = np.abs(rng.choice(vals, size=16)).tolist()
        code = (
            "from subgauss import WeightedIndicatorSum, monte_carlo_tail\n"
            f"s = WeightedIndicatorSum({coeffs.tolist()!r}, {probs.tolist()!r})\n"
            f"print(repr(monte_carlo_tail(s, {xs!r}, 20_000, 3)))\n"
        )
        src = str(Path(subgauss.__file__).resolve().parents[1])
        pythonpath = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        outputs = []
        for core in ("Haswell", "SandyBridge"):
            env = dict(os.environ, OPENBLAS_CORETYPE=core, PYTHONPATH=pythonpath)
            r = subprocess.run(
                [sys.executable, "-c", code],
                capture_output=True, text=True, env=env, timeout=120,
            )
            assert r.returncode == 0, r.stderr
            outputs.append(r.stdout)
        assert outputs[0] == outputs[1]
        assert outputs[0] == repr(single_shot_estimates(s, xs, 20_000, 3, "max_both")) + "\n"

    def test_nan_anywhere_in_curve_raises(self):
        s = WeightedIndicatorSum.iid(3, 0.4)
        for xs in ([math.nan], [0.5, math.nan], [math.nan, 1.0, 2.0]):
            with pytest.raises(DomainError):
                monte_carlo_tail(s, xs, 1000, seed=0)

    def test_empty_curve(self):
        s = WeightedIndicatorSum.iid(3, 0.4)
        assert monte_carlo_tail(s, [], 1000, seed=0) == ()

    def test_memory_bounded_per_worker(self):
        # four 16 384-sample blocks of 2000 terms: a single-shot draw holds
        # about 530 MiB of uniforms, mask and cast mask per block in flight
        code = (
            "import resource\n"
            "from subgauss import WeightedIndicatorSum, monte_carlo_tail\n"
            "s = WeightedIndicatorSum.iid(2000, 0.3, 1.5)\n"
            "monte_carlo_tail(s, 10.0, 65_536, seed=0)\n"
            "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)\n"
        )
        src = str(Path(subgauss.__file__).resolve().parents[1])
        pythonpath = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        env = dict(os.environ, SUBGAUSS_THREADS="2", PYTHONPATH=pythonpath)
        r = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert r.returncode == 0, r.stderr
        assert int(r.stdout) < 300 * 1024  # ru_maxrss is in KiB on Linux


class TestSumLogMgf:
    def test_matches_per_term_sum(self):
        s = WeightedIndicatorSum([1.5, -0.5, 1.0], [0.2, 0.6, 0.4])
        lam = 1.7
        expected = math.fsum(
            float(log_mgf_values(p, c * lam)) for c, p in zip(s.coeffs, s.p_values)
        )
        assert float(exact_sum_log_mgf(s, lam)) == pytest.approx(expected, rel=1e-15)

    def test_iid_grouping_matches_explicit(self):
        # grouped path must agree with term-by-term to the last ulp scale
        s = WeightedIndicatorSum.iid(1000, 0.3)
        lam = 0.9
        got = float(exact_sum_log_mgf(s, lam))
        assert got == pytest.approx(1000.0 * float(log_mgf_values(0.3, lam)), rel=1e-15)

    def test_requires_independence(self):
        s = WeightedIndicatorSum([1.0, 1.0], [0.5, 0.5], independent=False)
        with pytest.raises(DependenceError):
            exact_sum_log_mgf(s, 1.0)

    def test_curve_scaling(self):
        # curve of S/sqrt(n) at t equals curve of S at t/sqrt(n)
        s = WeightedIndicatorSum.iid(4, 0.3)
        c_scaled = sum_log_mgf_curve(s.scaled(0.5))
        c_plain = sum_log_mgf_curve(s)
        assert c_scaled.at(2.0) == pytest.approx(c_plain.at(1.0), rel=1e-15)

    def test_curve_variance_declared(self):
        s = WeightedIndicatorSum([2.0, 1.0], [0.3, 0.5])
        c = sum_log_mgf_curve(s)
        assert c.variance == pytest.approx(4 * 0.21 + 0.25, rel=1e-15)

    def test_curve_vanishes_at_zero(self):
        s = WeightedIndicatorSum.iid(50, 0.2)
        assert sum_log_mgf_curve(s).at(0.0) == 0.0

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("c", [0.01, 1e-4, 1e-100, 1e-160, 1e-200, 1e-300])
    def test_curve_hint_reaches_a_small_weight_maximizer(self, c):
        # c X has its maximizer at t* = 2 log(9) / c: 439 for c = 0.01, past
        # |t| = 60, and past |t| = 2048, where floats are sparser than 1e-12;
        # from c = 1e-160 on, t^2 at t* overflows unless g is scaled
        s = WeightedIndicatorSum([c], [0.1])
        got = subgaussian_norm_numeric(sum_log_mgf_curve(s)).value
        assert got == pytest.approx(c * q_norm(0.1).value, rel=1e-13)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("c", [1e-155, 1e-160, 1e-300])
    def test_tiny_weight_sum_is_its_unit_sum_scaled(self, c):
        # from about 1e-154 on, c^2 and the variance leave the normal range
        unit = WeightedIndicatorSum([1.0, 2.0, -0.5], [0.1, 0.3, 0.8])
        want = subgaussian_norm_numeric(sum_log_mgf_curve(unit)).value
        got = subgaussian_norm_numeric(sum_log_mgf_curve(unit.scaled(c))).value
        assert got == pytest.approx(c * want, rel=1e-13)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_weights_far_apart_read_the_large_term_or_raise(self):
        for coeffs in ([1e-160, 1.0], [1.0, 1e-250]):
            s = WeightedIndicatorSum(coeffs, [0.1, 0.1])
            got = subgaussian_norm_numeric(sum_log_mgf_curve(s)).value
            assert got == pytest.approx(q_norm(0.1).value, rel=1e-13)
        # no one power-of-two scaling holds both maximizers
        with pytest.raises(DomainError, match="more scales than one search window"):
            subgaussian_norm_numeric(sum_log_mgf_curve(WeightedIndicatorSum([1e-300, 1.0],
                                                                            [0.1, 0.1])))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_hint_raises_without_warning(self):
        curve = sum_log_mgf_curve(WeightedIndicatorSum([1e-310], [0.1]))
        assert curve.lambda_hint == math.inf
        with pytest.raises(DomainError, match="^lambda_hint must be finite, got inf$"):
            subgaussian_norm_numeric(curve)

    @pytest.mark.parametrize("coeffs, probs, bits", [
        # windows below 2^500, read unscaled: the values before scaling existed
        ([1e-140], [0.1], "0x1.2652f34e71166p-467"),
        ([1e-149], [0.1], "0x1.3c072c065e2b0p-497"),
        # p = 1/2: the window comes from the hint's floor of 1 on |2 log_odds|
        ([1e-140], [0.5], "0x1.58e861fcca0f2p-467"),
        ([1.5, -0.5, 1.0], [0.2, 0.6, 0.4], "0x1.413575e5c4422p-1"),
        ([0.01], [0.1], "0x1.8b724bac1ee21p-9"),
    ])
    def test_unscaled_windows_keep_their_bits(self, coeffs, probs, bits):
        s = WeightedIndicatorSum(coeffs, probs)
        assert subgaussian_norm_numeric(sum_log_mgf_curve(s)).value.hex() == bits

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("c", [1.0, 0.5, 1e-146, 1e-147, 1e-148, 1e-149, 1e-150,
                                   1e-155, 1e-160, 1e-200, 1e-300])
    def test_tiny_weight_near_half_reads_c_q(self, c):
        # log_odds is about 0 near p = 1/2, so without the hint's floor the
        # window of a tiny weight stays unscaled and reads subnormal g; below
        # 2^500 it stays unscaled anyway, and its subnormal log-MGF values are noise
        for p in (0.5, 0.5 + 1e-12, 0.5 - 2.0 ** -54):
            got = subgaussian_norm_numeric(sum_log_mgf_curve(WeightedIndicatorSum([c], [p])))
            want = c * q_norm(p).value
            assert abs(got.value - want) <= 2.2e-16 * want, (p, got.value, want)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("c", [1.0, 0.5, 1e-150, 1e-155, 1e-160, 1e-200, 1e-300])
    def test_tiny_weight_off_half_reads_c_q(self, c):
        got = subgaussian_norm_numeric(sum_log_mgf_curve(WeightedIndicatorSum([c], [0.1])))
        want = c * q_norm(0.1).value
        assert abs(got.value - want) <= 2.2e-16 * want, (got.value, want)

    def test_curve_hint_skips_null_terms(self):
        s = WeightedIndicatorSum([0.0, 2.0, 5.0, 1.0], [0.3, 0.1, 0.0, 1.0])
        assert sum_log_mgf_curve(s).lambda_hint == pytest.approx(4.0 * math.log(9.0), rel=1e-15)
        assert sum_log_mgf_curve(WeightedIndicatorSum([3.0], [0.0])).lambda_hint == 0.0


class TestTailLayerErrors:
    """The tail layer's error messages, pinned word for word."""

    def test_curve_rejects_nan_threshold(self):
        t = poisson_binomial_table([0.5] * 4)
        with pytest.raises(DomainError, match="^thresholds must not be NaN$"):
            tail_curve(t, [0.0, math.nan])

    def test_curve_rejects_unknown_side(self):
        t = poisson_binomial_table([0.5] * 4)
        with pytest.raises(DomainError, match="^unknown side 'both'$"):
            tail_curve(t, [0.0, 1.0], side="both")

    def test_mc_rejects_2d_thresholds(self):
        s = WeightedIndicatorSum.iid(3, 0.4)
        with pytest.raises(DomainError, match="^thresholds must be a float or a 1-d sequence$"):
            monte_carlo_tail(s, [[0.0, 1.0]], 1000, seed=0)

    def test_mc_rejects_unknown_side_before_drawing(self, monkeypatch):
        def no_draw(fn, items):
            raise AssertionError("drew before checking the side")

        monkeypatch.setattr(oracles_module, "ordered_map", no_draw)
        s = WeightedIndicatorSum.iid(3, 0.4)
        with pytest.raises(DomainError, match="^unknown side 'both'$"):
            monte_carlo_tail(s, 0.5, 1000, seed=0, side="both")

    @pytest.mark.parametrize("support, masses", [
        ([-0.5, 0.5], [1.0]),
        ([], []),
        ([[-0.5, 0.5]], [[0.5, 0.5]]),
    ])
    def test_table_rejects_mismatched_or_empty(self, support, masses):
        with pytest.raises(DomainError, match="^support and masses must be matching 1-d arrays$"):
            DistributionTable(np.array(support), np.array(masses))

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_table_rejects_nonfinite_support(self, bad):
        with pytest.raises(DomainError, match="^support must be finite$"):
            DistributionTable(np.array([bad, 0.5]), np.array([0.5, 0.5]))

    def test_table_rejects_negative_mass(self):
        with pytest.raises(DomainError, match="^masses must be finite and nonnegative$"):
            DistributionTable(np.array([-1.0, 0.0, 1.0]), np.array([0.6, -0.2, 0.6]))

    def test_dp_rejects_no_probabilities(self):
        with pytest.raises(DomainError, match="^need at least one probability$"):
            poisson_binomial_table([])
