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
    sum_log_mgf_curve,
    tail_curve,
    wilson_interval,
)
from subgauss.oracles import MC_BLOCK_SIZE, _enumerate_outcomes

WILSON_UPPER_0_100 = 0.062220687715822974  # z = 2.5758293035489004

# The single-shot sampler's value (each block drawn whole): 37 901 lower-tail hits.
FROZEN_MC_SUM = WeightedIndicatorSum(
    [1.0, -2.0, 0.5, 1.25, 0.75, -0.3, 1.7],
    [0.2, 0.4, 0.6, 0.8, 0.1, 0.55, 0.35],
)
FROZEN_MC = McEstimate(
    point=0.25267333333333336,
    ci_low=0.24979425906437866,
    ci_high=0.2555742864593284,
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


def single_shot_estimates(s, xs, n_samples, seed, side):
    """Each block drawn whole and counted by comparison: the reference
    that the chunked, sorted sampler must match."""
    coeffs = np.asarray(s.coeffs)
    ps = np.asarray(s.p_values)
    shift = math.fsum(c * p for c, p in zip(s.coeffs, s.p_values))
    up, lo = np.zeros(len(xs), dtype=int), np.zeros(len(xs), dtype=int)
    for block in range(-(-n_samples // MC_BLOCK_SIZE)):
        rows = min(MC_BLOCK_SIZE, n_samples - block * MC_BLOCK_SIZE)
        rng = np.random.Generator(
            np.random.Philox(np.random.SeedSequence((seed, block)))
        )
        vals = (rng.random((rows, coeffs.size)) < ps) @ coeffs - shift
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

    def test_cap(self):
        with pytest.raises(CapExceededError):
            poisson_binomial_table([0.5] * 7, cap=6)

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

    @pytest.mark.parametrize("n", [1, 2, 17, 400, 3000])
    def test_in_place_update_is_bitwise_out_of_place(self, n):
        ps = np.random.default_rng(n).uniform(0.0, 1.0, size=n)
        t = poisson_binomial_table(ps)
        assert np.array_equal(t.masses, out_of_place_dp(ps.tolist()))


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
        values, probs = _enumerate_outcomes(s, 20)
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
    @pytest.mark.parametrize("n_samples", [100, 65_536, 70_001, 150_000])
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

    def test_nan_anywhere_in_curve_raises(self):
        s = WeightedIndicatorSum.iid(3, 0.4)
        for xs in ([math.nan], [0.5, math.nan], [math.nan, 1.0, 2.0]):
            with pytest.raises(DomainError):
                monte_carlo_tail(s, xs, 1000, seed=0)

    def test_empty_curve(self):
        s = WeightedIndicatorSum.iid(3, 0.4)
        assert monte_carlo_tail(s, [], 1000, seed=0) == ()

    def test_memory_bounded_per_worker(self):
        # one 65 536-sample block of 2000 terms: a single-shot draw holds
        # about 2 GiB of uniforms, mask and cast mask
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
        c_scaled = sum_log_mgf_curve(s, scale=0.5)
        c_plain = sum_log_mgf_curve(s)
        assert c_scaled.at(2.0) == pytest.approx(c_plain.at(1.0), rel=1e-15)

    def test_curve_variance_declared(self):
        s = WeightedIndicatorSum([2.0, 1.0], [0.3, 0.5])
        c = sum_log_mgf_curve(s)
        assert c.variance == pytest.approx(4 * 0.21 + 0.25, rel=1e-15)

    def test_curve_vanishes_at_zero(self):
        s = WeightedIndicatorSum.iid(50, 0.2)
        assert sum_log_mgf_curve(s).at(0.0) == 0.0
