"""Report assembly, serialization contracts, and the CLI surface.

CLI tests run the real entry point in a subprocess: exit codes, format
selection, stdout/stderr separation, and thread-count independence are
all part of the public contract.
"""

import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import subgauss.report as report_module
from subgauss import (
    BoundRow,
    CapExceededError,
    DomainError,
    WeightedIndicatorSum,
    build_bound_report,
    monte_carlo_tail,
    report_from_json,
    report_to_csv,
    report_to_json,
)


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
        def no_sampling(*args, **kwargs):
            raise AssertionError("sampled before validating thresholds")

        monkeypatch.setattr(report_module, "monte_carlo_tail", no_sampling)
        s = WeightedIndicatorSum([1.0 + 0.01 * k for k in range(25)], [0.3] * 25)
        with pytest.raises(DomainError, match="thresholds must be finite"):
            build_bound_report(s, [1.0, bad, 2.0], mc_samples=1_000)

    def test_dependent_sum_has_no_oracle(self):
        s = WeightedIndicatorSum([1.0, 1.0], [0.5, 0.5], independent=False)
        rep = build_bound_report(s, [0.5])
        assert rep.metadata["exact_method"] == "none"
        assert rep.metadata["bound_kind"] == "triangle_dependent"
        assert rep.rows[0].exact_tail is None and rep.rows[0].mc is None

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
        # hashes the reprs of Python floats, never 'np.float64(...)'
        coeffs, probs = [1.0, -2.5, 0.1, 0.0], [0.2, 0.5, 1.0, 1e-300]
        assert report_module._terms_digest(WeightedIndicatorSum(coeffs, probs)) == (
            "11844b7d466c521c7bd8ac1b3354be5f19f252d3debb766f4a6c77bb1771613a"
        )
        dependent = WeightedIndicatorSum(coeffs, probs, independent=False)
        assert report_module._terms_digest(dependent) == (
            "4797eb5d70eb39a21bdf869768912c7f3bd943d0125064b5c0af5cb334aa9cc1"
        )

    def test_binomial_exact_tails_closed_form(self):
        # four fair coins: P(|S| > 0) side max is 5/16, P(|S| > 1) is 1/16
        rep = build_bound_report(WeightedIndicatorSum.iid(4, 0.5), [0.0, 1.0, 2.0])
        assert rep.rows[0].exact_tail == 5.0 / 16.0
        assert rep.rows[1].exact_tail == 1.0 / 16.0
        assert rep.rows[2].exact_tail == 0.0
        assert rep.rows[1].subgaussian_bound == pytest.approx(
            math.exp(-0.5), rel=1e-15
        )


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

    def test_missing_spec_file(self):
        r = run_cli("bound", "/nonexistent/sum.txt")
        assert r.returncode == 2

    def test_inline_terms(self):
        r = run_cli("bound", "--probs", "0.5,0.5,0.5", "--x-grid", "1", "--format", "json")
        assert r.returncode == 0
        doc = json.loads(r.stdout)
        assert doc["metadata"]["exact_method"] == "dp"
        assert doc["metadata"]["n_terms"] == 3

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

    def test_unknown_suite_rejected_by_parser(self):
        r = run_cli("verify", "--suite", "nope")
        assert r.returncode == 2


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

    def test_tail_below_gauss_bound(self):
        r = run_cli("example32", "--n", "256", "--format", "json")
        rows = json.loads(r.stdout)
        for row in rows:
            assert row["scaled_tail"] <= row["gauss_bound"]

    def test_rejects_bad_n(self):
        r = run_cli("example32", "--n", "0")
        assert r.returncode == 2


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
            "from subgauss.cli import main; sys.exit(main())"
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
        assert meta["project"]["scripts"] == {"subgauss": "subgauss.cli:main"}
