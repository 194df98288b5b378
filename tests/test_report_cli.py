"""Report assembly, serialization contracts, and the CLI surface.

CLI tests run the real entry point in a subprocess: exit codes, format
selection, stdout/stderr separation, and thread-count independence are
all part of the public contract.
"""

import dataclasses
import hashlib
import inspect
import json
import math
import os
import shutil
import struct
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import subgauss.report as report_module
from subgauss import (
    BoundReport,
    BoundRow,
    CapExceededError,
    DomainError,
    McEstimate,
    SUITES,
    WeightedIndicatorSum,
    build_bound_report,
    domination_sweep,
    exact_law,
    monte_carlo_tail,
    poisson_binomial_table,
    report_from_json,
    report_to_csv,
    report_to_json,
    run_suite,
    run_suites,
)
import subgauss.cli as cli_module
from subgauss.cli import main as cli_main
from subgauss.verify import _domination_cases


def run_cli(*args, env_extra=None, timeout=120):
    env = dict(os.environ)
    env.update(env_extra or {})
    return subprocess.run(
        [sys.executable, "-m", "subgauss", *args],
        capture_output=True, text=True, env=env, timeout=timeout,
    )


class TestReportBuild:
    def test_dp_oracle_for_unit_coeffs(self):
        rep = build_bound_report(WeightedIndicatorSum.iid(40, 0.3), [0.0, 1.0])
        assert rep.metadata["exact_method"] == "dp"
        assert rep.rows[0].exact_tail is not None
        assert rep.rows[0].mc is None

    def test_exhaustive_oracle_for_small_weighted(self):
        s = WeightedIndicatorSum([2.0, -1.0, 0.5], [0.1, 0.5, 0.9])
        rep = build_bound_report(s, [0.5])
        assert rep.metadata["exact_method"] == "exhaustive"

    def test_mc_fallback_for_large_weighted(self):
        coeffs = [1.0 + 0.01 * k for k in range(25)]
        s = WeightedIndicatorSum(coeffs, [0.3] * 25)
        rep = build_bound_report(s, [2.0], seed=5, mc_samples=10_000)
        assert rep.metadata["exact_method"] == "mc"
        assert rep.metadata["seed"] == 5
        row = rep.rows[0]
        assert row.exact_tail is None
        assert row.mc is not None
        assert row.mc.n_samples == 10_000

    def test_mc_rows_equal_pointwise_estimates(self):
        coeffs = [1.0 + 0.01 * k for k in range(25)]
        s = WeightedIndicatorSum(coeffs, [0.3] * 25)
        xs = [0.0, 1.0, 2.0, 4.5]
        rep = build_bound_report(s, xs, seed=5, mc_samples=70_001)
        assert [r.mc for r in rep.rows] == [
            monte_carlo_tail(s, x, 70_001, 5) for x in xs
        ]

    @pytest.mark.parametrize("bad", [-0.5, math.inf, math.nan])
    def test_bad_threshold_raises_before_sampling(self, monkeypatch, bad):
        # no oracle runs first: not Monte Carlo, the DP or the enumeration
        def no_oracle(*args, **kwargs):
            raise AssertionError("ran an oracle before validating thresholds")

        for name in ("monte_carlo_tail", "poisson_binomial_table",
                     "exhaustive_outcome_table"):
            monkeypatch.setattr(report_module, name, no_oracle)
        for s in (
            WeightedIndicatorSum([1.0 + 0.01 * k for k in range(25)], [0.3] * 25),
            WeightedIndicatorSum.iid(40, 0.3),
            WeightedIndicatorSum([2.0, -1.0, 0.5], [0.1, 0.5, 0.9]),
        ):
            with pytest.raises(DomainError, match="thresholds must be finite"):
                build_bound_report(s, [1.0, bad, 2.0], mc_samples=1_000)

    def test_dependent_sum_has_no_oracle(self):
        s = WeightedIndicatorSum([1.0, 1.0], [0.5, 0.5], independent=False)
        rep = build_bound_report(s, [0.5])
        assert rep.metadata["exact_method"] == "none"
        assert rep.metadata["bound_kind"] == "triangle_dependent"
        assert rep.rows[0].exact_tail is None and rep.rows[0].mc is None

    def test_independent_sum_takes_the_quadratic_bound(self):
        rep = build_bound_report(WeightedIndicatorSum([1.0, 1.0], [0.5, 0.5]), [0.5])
        assert rep.metadata["bound_kind"] == "quadratic_independent"
        assert rep.metadata["bound_norm"] == math.sqrt(2.0 * 0.125)

    def test_exact_required_raises_past_caps(self):
        coeffs = [1.0 + 0.01 * k for k in range(25)]
        s = WeightedIndicatorSum(coeffs, [0.3] * 25)
        with pytest.raises(CapExceededError):
            build_bound_report(s, [1.0], exact_required=True)

    def test_exact_required_raises_for_dependent(self):
        s = WeightedIndicatorSum([1.0, 1.0], [0.5, 0.5], independent=False)
        with pytest.raises(CapExceededError):
            build_bound_report(s, [1.0], exact_required=True)

    def test_hoeffding_column_only_for_fair_unit_sums(self):
        fair = build_bound_report(WeightedIndicatorSum.iid(4, 0.5), [1.0])
        skew = build_bound_report(WeightedIndicatorSum.iid(4, 0.3), [1.0])
        assert fair.rows[0].hoeffding_bound is not None
        assert skew.rows[0].hoeffding_bound is None

    def test_fair_sum_quadratic_bound_recovers_hoeffding(self):
        # at p = 1/2 the norm bound and the classic bound coincide exactly
        rep = build_bound_report(WeightedIndicatorSum.iid(4, 0.5), [0.0, 1.0, 2.0])
        for row in rep.rows:
            assert row.hoeffding_bound == pytest.approx(
                row.subgaussian_bound, rel=1e-15
            )

    def test_row_invariant_enforced(self):
        with pytest.raises(DomainError):
            BoundRow(
                x=1.0, exact_tail=0.9, mc=None,
                subgaussian_bound=0.5, hoeffding_bound=None,
            )

    def test_digest_distinguishes_sums(self):
        a = build_bound_report(WeightedIndicatorSum.iid(3, 0.5), [1.0])
        b = build_bound_report(WeightedIndicatorSum.iid(3, 0.25), [1.0])
        c = build_bound_report(WeightedIndicatorSum.iid(3, 0.5), [2.0])
        assert a.metadata["terms_digest"] != b.metadata["terms_digest"]
        assert a.metadata["terms_digest"] == c.metadata["terms_digest"]

    def test_digest_frozen(self):
        coeffs, probs = [1.0, -2.5, 0.1, 0.0], [0.2, 0.5, 1.0, 1e-300]
        assert report_module._terms_digest(WeightedIndicatorSum(coeffs, probs)) == (
            "0bcaaf65a50777118b4ff9d58384bf34d0b3aedf002672e4fbe2aabcad359e33"
        )
        dependent = WeightedIndicatorSum(coeffs, probs, independent=False)
        assert report_module._terms_digest(dependent) == (
            "33370feb8897f6edbface88f3c082021c63d6c03d68c8c9afe0c1c3bfbbfcba5"
        )

    @pytest.mark.parametrize("independent", [True, False])
    @pytest.mark.parametrize("n_extra", [0, 10_000])
    def test_digest_is_sha256_of_packed_terms(self, independent, n_extra):
        # the canonical bytes the digest is defined by, built with struct
        rng = np.random.default_rng(9)
        coeffs = [-0.0, 5e-324, 1e16, 1e-300, 0.1] + rng.normal(0.0, 1e3, n_extra).tolist()
        probs = [-0.0, 5e-324, 1e-300, 1.0, 0.5] + rng.uniform(0.0, 1.0, n_extra).tolist()
        s = WeightedIndicatorSum(coeffs, probs, independent=independent)
        n = len(coeffs)
        canon = (b"subgauss-terms-v2\n" + struct.pack("<?q", independent, n)
                 + struct.pack(f"<{n}d", *coeffs) + struct.pack(f"<{n}d", *probs))
        assert report_module._terms_digest(s) == hashlib.sha256(canon).hexdigest()

    def test_digest_separates_what_the_terms_separate(self):
        coeffs, probs = [0.0, 1.5, -2.0], [0.25, 0.5, 0.75]
        base = report_module._terms_digest(WeightedIndicatorSum(coeffs, probs))
        variants = [
            WeightedIndicatorSum([-0.0, 1.5, -2.0], probs),
            WeightedIndicatorSum(coeffs, [-0.0, 0.5, 0.75]),
            WeightedIndicatorSum(coeffs[::-1], probs[::-1]),
            WeightedIndicatorSum(coeffs, probs[::-1]),
            WeightedIndicatorSum([0.5, 0.75], [0.0, 1.0]),
            WeightedIndicatorSum(coeffs, probs, independent=False),
        ]
        digests = {report_module._terms_digest(v) for v in variants}
        assert base not in digests and len(digests) == len(variants)
        # coefficients and probabilities swapped
        a = WeightedIndicatorSum([0.25, 0.5], [0.5, 0.25])
        b = WeightedIndicatorSum([0.5, 0.25], [0.25, 0.5])
        assert report_module._terms_digest(a) != report_module._terms_digest(b)

    def test_digest_ignores_array_layout(self):
        rng = np.random.default_rng(4)
        wide = rng.uniform(0.0, 1.0, (2, 64))
        coeffs, probs = wide[0, ::2], wide[1, ::2]
        assert not coeffs.flags.c_contiguous
        want = report_module._terms_digest(
            WeightedIndicatorSum(coeffs.copy(), probs.copy(), independent=False))
        # a sum built from strided input, and strided or big-endian arrays
        # handed to the digest directly
        assert report_module._terms_digest(
            WeightedIndicatorSum(coeffs, probs, independent=False)) == want
        for c, p in [(coeffs, probs), (coeffs.astype(">f8"), probs.astype(">f8"))]:
            terms = SimpleNamespace(coeffs=c, p_values=p, independent=False)
            assert report_module._terms_digest(terms) == want

    def test_report_metadata_names_the_digest_version(self):
        rep = build_bound_report(WeightedIndicatorSum.iid(3, 0.5), [1.0])
        keys = list(rep.metadata)
        assert keys[:2] == ["terms_digest", "terms_digest_version"]
        assert rep.metadata["terms_digest_version"] == 2

    def test_binomial_exact_tails_closed_form(self):
        # four fair coins: P(|S| > 0) side max is 5/16, P(|S| > 1) is 1/16
        rep = build_bound_report(WeightedIndicatorSum.iid(4, 0.5), [0.0, 1.0, 2.0])
        assert rep.rows[0].exact_tail == 5.0 / 16.0
        assert rep.rows[1].exact_tail == 1.0 / 16.0
        assert rep.rows[2].exact_tail == 0.0
        assert rep.rows[1].subgaussian_bound == pytest.approx(
            math.exp(-0.5), rel=1e-15
        )


PAST_BOTH_CAPS = ("exact tails infeasible: m = 21 exceeds both caps "
                  "(exhaustive 20, unit-weight DP 100000)")
DEPENDENT_LAW = ("exact tails are undefined for a dependent sum: the marginals "
                 "do not determine the joint law")


class TestExactLaw:
    """The one oracle chooser; its builders return sentinels here."""

    @pytest.fixture
    def tables(self, monkeypatch):
        tables = {"dp": object(), "exhaustive": object(), "mc": None, "none": None}
        monkeypatch.setattr(report_module, "poisson_binomial_table",
                            lambda probs: tables["dp"])
        monkeypatch.setattr(report_module, "exhaustive_outcome_table",
                            lambda s: tables["exhaustive"])
        return tables

    @pytest.mark.parametrize("s,method", [
        (WeightedIndicatorSum.iid(100_000, 0.3), "dp"),
        (WeightedIndicatorSum.iid(100_001, 0.3), "mc"),
        (WeightedIndicatorSum([1.0 + 0.01 * k for k in range(20)], [0.3] * 20),
         "exhaustive"),
        (WeightedIndicatorSum([1.0 + 0.01 * k for k in range(21)], [0.3] * 21), "mc"),
        (WeightedIndicatorSum([1.0, 1.0], [0.5, 0.5], independent=False), "none"),
    ], ids=["dp-at-cap", "unit-past-cap", "exhaustive-at-cap", "weighted-past-cap",
            "dependent"])
    def test_method_and_table(self, tables, s, method):
        got = exact_law(s)
        assert got[0] == method
        assert got[1] is tables[method]
        if method in ("dp", "exhaustive"):
            assert exact_law(s, required=True) == got

    @pytest.mark.parametrize("s,message", [
        (WeightedIndicatorSum([1.0 + 0.01 * k for k in range(21)], [0.3] * 21),
         PAST_BOTH_CAPS),
        (WeightedIndicatorSum([1.0, 1.0], [0.5, 0.5], independent=False),
         DEPENDENT_LAW),
    ])
    def test_required_raises_verbatim(self, tables, s, message):
        with pytest.raises(CapExceededError) as exc:
            exact_law(s, required=True)
        assert str(exc.value) == message

    def test_domination_cases_use_dp_exactly_for_dp_labels(self, tables):
        defaults = inspect.signature(domination_sweep).parameters
        args = [defaults[name].default for name in ("seed", "n_random")]
        cases = _domination_cases(*args, tuple(defaults["dp_sizes"].default))
        assert any(label.startswith("dp n=") for label, _, _ in cases)
        for label, coeffs, probs in cases:
            method, _ = exact_law(WeightedIndicatorSum(coeffs, probs))
            assert method == ("dp" if label.startswith("dp n=") else "exhaustive"), label


class TestSerialization:
    def test_csv_layout_and_formatting(self):
        rep = build_bound_report(WeightedIndicatorSum.iid(4, 0.5), [0.0, 2.0])
        lines = report_to_csv(rep).strip().split("\n")
        assert lines[0] == (
            "x,exact_tail,mc_point,mc_ci_low,mc_ci_high,"
            "subgaussian_bound,hoeffding_bound"
        )
        assert lines[1] == "0,0.3125,,,,1,1"
        cells = lines[2].split(",")
        assert cells[:5] == ["2", "0", "", "", ""]
        # norm bound goes through sqrt then square, costing one ulp vs exp(-2)
        assert float(cells[5]) == pytest.approx(math.exp(-2.0), rel=1e-15)
        assert cells[6] == f"{math.exp(-2.0):.17g}"
        # cells are %.17g, i.e. shortest-or-17 digits that round-trip
        assert f"{float(cells[5]):.17g}" == cells[5]

    def test_csv_blanks_for_missing_oracles(self):
        s = WeightedIndicatorSum([1.0, 1.0], [0.5, 0.5], independent=False)
        lines = report_to_csv(build_bound_report(s, [0.5])).strip().split("\n")
        row = lines[1].split(",")
        assert row[1] == "" and row[2] == "" and row[6] == ""

    def test_json_round_trip_bit_exact(self):
        coeffs = [1.0 + 0.01 * k for k in range(25)]
        s = WeightedIndicatorSum(coeffs, [0.37] * 25)
        rep = build_bound_report(s, [0.0, 1.3, 2.9], seed=11, mc_samples=5_000)
        back = report_from_json(report_to_json(rep))
        assert back.rows == rep.rows
        assert back.metadata == rep.metadata

    def test_json_nulls_for_missing_oracles(self):
        s = WeightedIndicatorSum([1.0, 1.0], [0.5, 0.5], independent=False)
        doc = json.loads(report_to_json(build_bound_report(s, [0.5])))
        assert doc["rows"][0]["exact_tail"] is None
        assert doc["rows"][0]["mc"] is None


class TestCliQ:
    def test_csv_default_grid(self):
        r = run_cli("q", "--grid", "0:1:5")
        assert r.returncode == 0
        lines = r.stdout.strip().split("\n")
        assert lines[0] == "p,q_norm,lambda_star,q_asymptotic,gls_norm"
        assert len(lines) == 6
        # endpoints leave the undefined companions blank
        assert lines[1].split(",")[2] == ""

    def test_json_explicit_points(self):
        r = run_cli("q", "-p", "0.5", "--format", "json")
        assert r.returncode == 0
        rows = json.loads(r.stdout)
        assert rows[0]["q_norm"] == math.sqrt(0.125)
        assert rows[0]["q_asymptotic"] is None

    def test_bad_grid_is_usage_error(self):
        r = run_cli("q", "--grid", "zero:one:five")
        assert r.returncode == 2
        assert r.stdout == ""
        assert "grid" in r.stderr

    def test_unknown_subcommand_is_usage_error(self):
        r = run_cli("qq")
        assert r.returncode == 2


class TestCliBound:
    def test_spec_file_with_header_and_comments(self, tmp_path):
        spec = tmp_path / "sum.txt"
        spec.write_text(
            "# demo sum\nindependent: true\n2.0 0.1  # heavy term\n-1.0 0.5\n"
        )
        r = run_cli("bound", str(spec), "--x-grid", "0,1")
        assert r.returncode == 0
        lines = r.stdout.strip().split("\n")
        assert len(lines) == 3
        assert lines[1].startswith("0,")

    def test_malformed_spec_line(self, tmp_path):
        spec = tmp_path / "bad.txt"
        spec.write_text("1.0 0.5 7.0\n")
        r = run_cli("bound", str(spec))
        assert r.returncode == 2
        assert "bad.txt:1" in r.stderr

    @pytest.mark.parametrize("text,message", [
        ("1.0 0.5\nindependent: maybe\n", "{path}:2: independent must be true or false, got 'maybe'"),
        ("# c p\n\n1.0 0.5 7.0\n", "{path}:3: expected 'coefficient probability', got '1.0 0.5 7.0'"),
        ("1.0 0.5\n2.0 x # note\n", "{path}:2: not numeric: '2.0 x'"),
        ("independent: false\n# nothing else\n", "{path}: no terms found"),
    ])
    def test_spec_errors_name_file_and_line(self, tmp_path, capsys, text, message):
        spec = tmp_path / "sum.txt"
        spec.write_text(text)
        assert cli_main(["bound", str(spec)]) == 2
        out, err = capsys.readouterr()
        assert (out, err) == ("", f"error: {message.format(path=spec)}\n")

    def test_spec_file_terms_are_float64_arrays(self, tmp_path):
        spec = tmp_path / "sum.txt"
        spec.write_text("independent: false\n0.25 0.1\n-3 1e-300  # tiny\n1e16 0.5\n")
        s = cli_module._read_sum_spec(str(spec))
        assert s.coeffs.tolist() == [0.25, -3.0, 1e16]
        assert s.p_values.tolist() == [0.1, 1e-300, 0.5]
        assert s.coeffs.dtype == np.float64 and not s.independent

    def test_missing_spec_file(self):
        r = run_cli("bound", "/nonexistent/sum.txt")
        assert r.returncode == 2

    def test_inline_terms(self):
        r = run_cli("bound", "--probs", "0.5,0.5,0.5", "--x-grid", "1", "--format", "json")
        assert r.returncode == 0
        doc = json.loads(r.stdout)
        assert doc["metadata"]["exact_method"] == "dp"
        assert doc["metadata"]["n_terms"] == 3

    @pytest.mark.parametrize("dependent", [[], ["--dependent"]], ids=["independent", "dependent"])
    def test_tiny_coefficient_bounds_at_its_scale(self, dependent):
        # c^2 and 4 B^2 underflow below about 1e-154 unless rescaled
        args = ["--coeffs", "1e-170", "--probs", "0.5", "--x-grid", "0,1", *dependent]
        r = run_cli("bound", *args, "--format", "json")
        assert r.returncode == 0, r.stderr
        doc = json.loads(r.stdout)
        assert doc["metadata"]["bound_norm"] == 3.535533905932738e-171
        assert [row["subgaussian_bound"] for row in doc["rows"]] == [1.0, 0.0]

    def test_huge_coefficient_warns_nothing(self):
        # c^2 overflows above about 1e154 unless rescaled
        r = run_cli("bound", "--coeffs", "1e160", "--probs", "0.5", "--format", "json")
        assert (r.returncode, r.stderr) == (0, "")
        assert json.loads(r.stdout)["metadata"]["bound_norm"] == 3.535533905932738e+159

    def test_all_null_terms_grid_is_zero(self):
        # the sum is almost surely 0, so its default grid collapses to x = 0
        r = run_cli("bound", "--probs", "0,0")
        assert r.returncode == 0, r.stderr
        rows = r.stdout.strip().split("\n")[1:]
        assert len(rows) == 17
        assert all(row.split(",")[0] == "0" for row in rows)

    def test_default_grid_ignores_null_terms(self):
        r = run_cli("bound", "--probs", "0,1,0.5", "--format", "json")
        assert r.returncode == 0, r.stderr
        xs = [row["x"] for row in json.loads(r.stdout)["rows"]]
        assert xs == [k / 32 for k in range(17)]

    def test_dependent_note_on_stderr_only(self):
        r = run_cli("bound", "--probs", "0.5,0.5", "--dependent", "--x-grid", "1")
        assert r.returncode == 0
        assert "dependent" in r.stderr
        assert "dependent" not in r.stdout

    def test_exact_required_infeasible_exit_code(self):
        r = run_cli(
            "bound", "--probs", "0.5,0.5", "--dependent",
            "--x-grid", "1", "--exact-required",
        )
        assert r.returncode == 3
        assert r.stdout == ""

    def test_bad_threshold_is_usage_error_before_exact_required(self):
        # thresholds are checked before the oracle is chosen, so a bad one
        # exits 2 even where --exact-required alone would exit 3
        r = run_cli(
            "bound", "--probs", "0.5,0.5", "--dependent",
            "--x-grid=-1,1", "--exact-required",
        )
        assert r.returncode == 2
        assert r.stdout == ""
        assert "thresholds must be finite and >= 0, got -1.0" in r.stderr

    def test_probability_out_of_range_is_usage_error(self):
        r = run_cli("bound", "--probs", "1.5", "--x-grid", "1")
        assert r.returncode == 2

    def test_spec_probability_out_of_range_is_usage_error(self, tmp_path):
        spec = tmp_path / "bad.txt"
        spec.write_text("1.0 0.5\n2.0 1.5\n")
        r = run_cli("bound", str(spec))
        assert r.returncode == 2
        assert r.stdout == ""
        assert "got 1.5" in r.stderr

    def test_thread_count_does_not_change_output(self):
        coeffs = ",".join(str(1.0 + 0.01 * k) for k in range(25))
        probs = ",".join(["0.3"] * 25)
        args = (
            "bound", "--coeffs", coeffs, "--probs", probs,
            "--x-grid", "0:3:4", "--seed", "9", "--mc-samples", "150000",
        )
        one = run_cli(*args, env_extra={"SUBGAUSS_THREADS": "1"})
        four = run_cli(*args, env_extra={"SUBGAUSS_THREADS": "4"})
        assert one.returncode == four.returncode == 0
        assert one.stdout == four.stdout

    def test_bad_thread_env_is_usage_error(self):
        coeffs = ",".join(str(1.0 + 0.01 * k) for k in range(25))
        probs = ",".join(["0.3"] * 25)
        r = run_cli(
            "bound", "--coeffs", coeffs, "--probs", probs, "--x-grid", "1",
            env_extra={"SUBGAUSS_THREADS": "many"},
        )
        assert r.returncode == 2
        assert "SUBGAUSS_THREADS" in r.stderr


class TestCliVerify:
    def test_all_suites_pass_small(self):
        r = run_cli(
            "verify", "--suite", "sharpness", "--grid", "6", "--format", "json"
        )
        assert r.returncode == 0
        doc = json.loads(r.stdout)
        assert doc[0]["suite"] == "sharpness"
        assert doc[0]["passed"] is True
        assert "sharpness:" in r.stderr

    def test_failing_suite_exit_code(self):
        r = run_cli("verify", "--suite", "sharpness", "--grid", "4", "--tol", "1e-30")
        assert r.returncode == 1
        assert "FAIL" in r.stderr

    def test_csv_output_goes_to_stdout(self):
        r = run_cli("verify", "--suite", "kearns-saul", "--grid", "9:50")
        assert r.returncode == 0
        lines = r.stdout.strip().split("\n")
        assert lines[0] == "suite,passed,worst,witness"
        assert lines[1].startswith("kearns-saul,true,")

    def test_tol_reaches_argmax(self, capsys):
        code = cli_main(["verify", "--suite", "argmax", "--grid", "5", "--tol", "1e-30"])
        err = capsys.readouterr().err
        [result] = run_suites({"argmax": {"p_count": 5, "tol": 1e-30}})
        assert code == 1 and not result.passed
        assert result.detail.startswith("max |argmax - t*| (tol 1e-30); ")
        assert err == result.summary() + "\n"

    @pytest.mark.parametrize("suite", ["kearns-saul", "sharpness", "argmax"])
    @pytest.mark.parametrize("grid", [[], ["--grid", "3"]], ids=["no-grid", "grid"])
    def test_seed_for_unseeded_suite_is_usage_error(self, capsys, suite, grid):
        code = cli_main(["verify", "--suite", suite, *grid, "--seed", "5"])
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, "")
        assert captured.err == f"error: --seed is for domination; {suite} takes no seed\n"

    @pytest.mark.parametrize("suite", ["domination", "all"])
    def test_seed_reaches_domination(self, capsys, monkeypatch, suite):
        seen = []
        monkeypatch.setattr(cli_module, "run_suites",
                            lambda kwargs: seen.append(kwargs) or run_suites(kwargs))
        code = cli_main(["verify", "--suite", suite, "--grid", "5:7", "--seed", "9",
                         "--format", "json"])
        out = capsys.readouterr().out
        kwargs = {
            "kearns-saul": {"p_count": 5, "lambda_count": 7},
            "sharpness": {"p_count": 5},
            "domination": {"n_random": 5, "grid_points": 7, "seed": 9},
            "argmax": {"p_count": 5},
        }
        if suite != "all":
            kwargs = {suite: kwargs[suite]}
        assert seen == [kwargs]
        assert code == 0
        assert out == _legacy_verify_json(run_suites(kwargs)) + "\n"

    def test_negative_n_random_is_usage_error(self, capsys):
        code = cli_main(["verify", "--suite", "domination", "--grid=-5:4"])
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, "")
        assert captured.err == "error: domination needs n_random >= 0, got -5\n"

    def test_nan_tol_fails_every_suite(self, capsys):
        code = cli_main(["verify", "--suite", "all", "--grid", "5:7", "--tol", "nan"])
        err = capsys.readouterr().err
        assert code == 1
        # a NaN margin <= tol is false, so every pair is a violation
        assert [line.split()[:2] for line in err.splitlines()] == [
            [f"{name}:", "FAIL"] for name in SUITES]
        assert "domination: FAIL worst=0 119 violations over 119 (sum, x) pairs\n" in err

    def test_unknown_suite_rejected_by_parser(self):
        r = run_cli("verify", "--suite", "nope")
        assert r.returncode == 2

    @pytest.mark.parametrize("suite,grid", [
        ("kearns-saul", "0"),
        ("kearns-saul", "3:0"),
        ("kearns-saul", "3:1"),
        ("sharpness", "0"),
        ("argmax", "1"),
        ("domination", "5:0"),
    ])
    def test_empty_grid_is_usage_error(self, capsys, suite, grid):
        code = cli_main(["verify", "--suite", suite, "--grid", grid])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert "grid" in captured.err

    @pytest.mark.parametrize("suite,grid,shape", [
        ("sharpness", "3:999", "N"),
        ("argmax", "4:2", "N"),
        ("kearns-saul", "3:5:7", "P[:L]"),
        ("domination", "5:7:1", "N[:X]"),
        ("all", "5:7:1", "N[:X]"),
    ])
    def test_unused_grid_count_is_usage_error(self, capsys, suite, grid, shape):
        code = cli_main(["verify", "--suite", suite, "--grid", grid])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == f"error: --grid for {suite} is {shape}, got {grid!r}\n"

    @pytest.mark.parametrize("args", [
        ["--format", "json"],
        [],
        ["--grid", "5:7"],
        ["--grid", "5:7", "--tol", "1e-30"],
        ["--grid", "3:0"],
    ])
    def test_all_suites_same_under_every_cap(self, capsys, monkeypatch, args):
        # the suites run in forked workers at cap 2; results, the error
        # reported and the exit code are those of the serial run
        runs = []
        for threads in ("1", "2"):
            monkeypatch.setenv("SUBGAUSS_THREADS", threads)
            code = cli_main(["verify", "--suite", "all", *args])
            runs.append((code, *capsys.readouterr()))
        assert runs[0] == runs[1]
        code, out, err = runs[0]
        if args[-1:] == ["1e-30"]:
            assert code == 1 and "FAIL" in err
        elif args[-1:] == ["3:0"]:
            assert (code, out) == (2, "")
            assert err == ("error: kearns-saul grid needs p_count >= 1 and "
                           "lambda_count >= 2, got 3:0\n")
        else:
            assert code == 0
            assert [line.split(":")[0] for line in err.splitlines()] == list(SUITES)


class TestCliExample32:
    def test_default_grid_and_columns(self):
        r = run_cli("example32", "--n", "64")
        assert r.returncode == 0
        lines = r.stdout.strip().split("\n")
        assert lines[0] == "x,scaled_tail,gauss_bound,ratio"
        assert len(lines) == 7  # x in {0.5, 1, 1.5, 2, 2.5, 3}

    def test_drops_nonpositive_thresholds(self):
        # = form: argparse would otherwise read the leading -1 as a flag
        r = run_cli("example32", "--n", "16", "--x-grid=-1,0,1")
        assert r.returncode == 0
        assert len(r.stdout.strip().split("\n")) == 2
        assert "dropped" in r.stderr

    def test_rejects_nan_threshold(self):
        # NaN is not <= 0, so it is an error rather than a dropped point
        r = run_cli("example32", "--n", "16", "--x-grid", "0.5,nan")
        assert r.returncode == 2
        assert r.stdout == ""
        assert r.stderr == "error: threshold must not be NaN\n"

    def test_tail_below_gauss_bound(self):
        r = run_cli("example32", "--n", "256", "--format", "json")
        rows = json.loads(r.stdout)
        for row in rows:
            assert row["scaled_tail"] <= row["gauss_bound"]

    def test_rejects_bad_n(self):
        r = run_cli("example32", "--n", "0")
        assert r.returncode == 2

    def test_rows_are_upper_tails_of_a_symmetric_law(self, capsys):
        # example32 prints the two-sided exact_tail as P(T > x); that holds
        # because fair-coin tables are mirror-symmetric, bit for bit
        for n in [*range(1, 301), 1023, 4096, 16_384]:
            t = poisson_binomial_table([0.5] * n)
            assert t.masses.tobytes() == t.masses[::-1].tobytes(), n
            assert np.array_equal(t.support, -t.support[::-1]), n
        # the grid puts x sqrt(n) / 2 on atoms for n = 1, 4, 4096 and 16384
        for n in (1, 4, 7, 300, 1023, 4096, 16_384):
            args = ["example32", "--n", str(n), "--x-grid", "0.25:3:12", "--format", "json"]
            assert cli_main(args) == 0
            t = poisson_binomial_table([0.5] * n)
            for row in json.loads(capsys.readouterr().out):
                x = row["x"] * math.sqrt(n) / 2.0
                upper = math.fsum(t.masses[t.support > x].tolist())
                assert row["scaled_tail"] == upper, (n, row["x"])


class TestCliMisc:
    def test_version_flag(self):
        r = run_cli("--version")
        assert r.returncode == 0
        assert r.stdout.startswith("subgauss ")

    def test_no_subcommand_is_usage_error(self):
        r = run_cli()
        assert r.returncode == 2

    def test_console_script_installed(self):
        # what the console-script wrapper generated for [project.scripts] runs
        wrapper = (
            "import sys; sys.argv[0] = 'subgauss'; "
            "from subgauss.__main__ import main; sys.exit(main())"
        )
        r = subprocess.run(
            [sys.executable, "-c", wrapper, "--version"],
            capture_output=True, text=True, timeout=120,
        )
        assert r.returncode == 0
        assert r.stdout.startswith("subgauss ")
        # a run from the source tree has no executable; an install does
        exe = shutil.which("subgauss")
        if exe is not None:
            r = subprocess.run(
                [exe, "--version"], capture_output=True, text=True, timeout=120
            )
            assert r.returncode == 0
        tomllib = pytest.importorskip("tomllib")
        pyproject = Path(__file__).resolve().parent.parent / "pyproject.toml"
        with open(pyproject, "rb") as fh:
            meta = tomllib.load(fh)
        assert meta["project"]["scripts"] == {"subgauss": "subgauss.__main__:main"}


# Test-local copies of the hand-written mappings the serializers used before
# the wire format was read off the dataclass fields.  The new code must keep
# every byte of them.
def _legacy_report_to_json(report):
    payload = {
        "metadata": report.metadata,
        "rows": [
            {
                "x": r.x,
                "exact_tail": r.exact_tail,
                "mc": None
                if r.mc is None
                else {
                    "point": r.mc.point,
                    "ci_low": r.mc.ci_low,
                    "ci_high": r.mc.ci_high,
                    "n_samples": r.mc.n_samples,
                    "seed": r.mc.seed,
                },
                "subgaussian_bound": r.subgaussian_bound,
                "hoeffding_bound": r.hoeffding_bound,
            }
            for r in report.rows
        ],
    }
    return json.dumps(payload, indent=2)


def _legacy_report_from_json(text):
    payload = json.loads(text)
    rows = tuple(
        BoundRow(
            x=row["x"],
            exact_tail=row["exact_tail"],
            mc=None
            if row["mc"] is None
            else McEstimate(
                point=row["mc"]["point"],
                ci_low=row["mc"]["ci_low"],
                ci_high=row["mc"]["ci_high"],
                n_samples=row["mc"]["n_samples"],
                seed=row["mc"]["seed"],
            ),
            subgaussian_bound=row["subgaussian_bound"],
            hoeffding_bound=row["hoeffding_bound"],
        )
        for row in payload["rows"]
    )
    return BoundReport(rows, payload["metadata"])


def _legacy_verify_json(results):
    return json.dumps(
        [
            {
                "suite": r.suite,
                "passed": r.passed,
                "worst": r.worst,
                "witness": r.witness,
                "detail": r.detail,
            }
            for r in results
        ],
        indent=2,
    )


_WIRE_REPORTS = {
    "dp": lambda: build_bound_report(
        WeightedIndicatorSum.iid(40, 0.3), [0.0, 0.7, 3.0, 40.0]
    ),
    "dp-fair": lambda: build_bound_report(
        WeightedIndicatorSum.iid(16, 0.5), [0.0, 1.0, 2.5]
    ),
    "exhaustive": lambda: build_bound_report(
        WeightedIndicatorSum([2.0, -1.0, 0.5], [0.1, 0.5, 0.9]), [0.0, 0.5, 1.25]
    ),
    "mc": lambda: build_bound_report(
        WeightedIndicatorSum([1.0 + 0.01 * k for k in range(25)], [0.37] * 25),
        [0.0, 1.3, 2.9], seed=11, mc_samples=5_000,
    ),
    "none": lambda: build_bound_report(
        WeightedIndicatorSum([1.0, -2.5, 0.3], [0.2, 0.5, 0.7], independent=False),
        [0.0, 0.4, 1.0],
    ),
}


class TestWireFormat:
    @pytest.mark.parametrize("kind", sorted(_WIRE_REPORTS))
    def test_report_json_matches_hand_written_mapping(self, kind):
        rep = _WIRE_REPORTS[kind]()
        assert rep.metadata["exact_method"] == kind.split("-")[0]
        text = report_to_json(rep)
        assert text == _legacy_report_to_json(rep)
        back = report_from_json(text)
        assert back == _legacy_report_from_json(text)
        assert report_to_json(back) == text

    def test_row_key_order_is_field_order(self):
        rep = _WIRE_REPORTS["mc"]()
        row = json.loads(report_to_json(rep))["rows"][0]
        assert list(row) == [f.name for f in dataclasses.fields(BoundRow)]
        assert list(row["mc"]) == [f.name for f in dataclasses.fields(McEstimate)]

    @pytest.mark.parametrize("kind", sorted(_WIRE_REPORTS))
    def test_mc_stream_version_only_where_sampled(self, kind):
        # dp, exhaustive and the dependent "none" report draw no samples
        rep = _WIRE_REPORTS[kind]()
        want = 2 if kind == "mc" else None
        keys = list(rep.metadata)
        assert keys[keys.index("mc_samples") + 1] == "mc_stream_version"
        assert rep.metadata["mc_stream_version"] == want
        back = report_from_json(report_to_json(rep))
        assert back.metadata["mc_stream_version"] == want
        assert list(back.metadata) == keys

    def test_unknown_row_key_raises_type_error(self):
        doc = json.loads(report_to_json(_WIRE_REPORTS["dp"]()))
        doc["rows"][1]["extra"] = 1.0
        with pytest.raises(TypeError):
            report_from_json(json.dumps(doc))

    def test_missing_row_key_raises_type_error(self):
        doc = json.loads(report_to_json(_WIRE_REPORTS["dp"]()))
        del doc["rows"][0]["hoeffding_bound"]
        with pytest.raises(TypeError):
            report_from_json(json.dumps(doc))

    def test_unknown_mc_key_raises_type_error(self):
        doc = json.loads(report_to_json(_WIRE_REPORTS["mc"]()))
        doc["rows"][2]["mc"]["stderr"] = 0.0
        with pytest.raises(TypeError):
            report_from_json(json.dumps(doc))

    def test_verify_json_matches_hand_written_mapping(self, capsys):
        code = cli_main(["verify", "--suite", "all", "--grid", "5:7", "--format", "json"])
        out = capsys.readouterr().out
        results = [
            run_suite("kearns-saul", p_count=5, lambda_count=7),
            run_suite("sharpness", p_count=5),
            run_suite("domination", n_random=5, grid_points=7),
            run_suite("argmax", p_count=5),
        ]
        assert [r.suite for r in results] == list(SUITES)
        assert code == 0
        assert out == _legacy_verify_json(results) + "\n"

    def test_verify_json_failing_sweep_matches(self, capsys):
        code = cli_main(["verify", "--suite", "sharpness", "--grid", "4",
                         "--tol", "1e-30", "--format", "json"])
        out = capsys.readouterr().out
        result = run_suite("sharpness", p_count=4, tol=1e-30)
        assert code == 1 and not result.passed
        assert out == _legacy_verify_json([result]) + "\n"

    def test_example32_empty_grid_keeps_csv_header(self):
        r = run_cli("example32", "--n", "16", "--x-grid", "0")
        assert r.returncode == 0
        assert r.stdout == "x,scaled_tail,gauss_bound,ratio\n"
        assert "dropped" in r.stderr

    def test_example32_empty_grid_json_is_empty_list(self):
        r = run_cli("example32", "--n", "16", "--x-grid", "0", "--format", "json")
        assert r.returncode == 0
        assert r.stdout == "[]\n"
