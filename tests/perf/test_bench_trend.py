"""Tests for the CI bench-trend gate (``benchmarks/bench_trend.py``)."""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

_BENCH_DIR = Path(__file__).resolve().parents[2] / "benchmarks"
_spec = importlib.util.spec_from_file_location(
    "bench_trend", _BENCH_DIR / "bench_trend.py"
)
bench_trend = importlib.util.module_from_spec(_spec)
sys.modules["bench_trend"] = bench_trend
_spec.loader.exec_module(bench_trend)


def report(quick=True, **ns_per_component):
    return {
        "schema": "repro.bench_hotpath/v1",
        "quick": quick,
        "components": {
            name: {"ns_per_op": ns, "ops": 1000, "speedup_vs_reference": 1.0}
            for name, ns in ns_per_component.items()
        },
    }


class TestCompareReports:
    def test_injected_regression_beyond_threshold_fails(self):
        base = report(simulate_segments=100.0, admission_fast=1000.0)
        cur = report(simulate_segments=125.0, admission_fast=1000.0)  # +25%
        result = bench_trend.compare_reports(base, cur, threshold=0.20)
        assert result["regressions"] == ["simulate_segments"]

    def test_small_regression_within_threshold_passes(self):
        base = report(simulate_segments=100.0)
        cur = report(simulate_segments=115.0)  # +15% < 20%
        result = bench_trend.compare_reports(base, cur, threshold=0.20)
        assert result["regressions"] == []
        assert result["rows"][0]["delta"] == pytest.approx(0.15)

    def test_improvement_passes(self):
        base = report(admission_fast=2000.0)
        cur = report(admission_fast=900.0)
        result = bench_trend.compare_reports(base, cur)
        assert result["regressions"] == []
        assert result["rows"][0]["delta"] < 0

    def test_boundary_is_strict(self):
        base = report(x=100.0)
        cur = report(x=120.0)  # exactly +20%
        result = bench_trend.compare_reports(base, cur, threshold=0.20)
        assert result["regressions"] == []

    def test_only_intersection_compared(self):
        base = report(old_only=10.0, shared=100.0)
        cur = report(new_only=10.0, shared=100.0)
        result = bench_trend.compare_reports(base, cur)
        assert [r["component"] for r in result["rows"]] == ["shared"]
        assert result["added"] == ["new_only"]
        assert result["removed"] == ["old_only"]

    def test_zero_baseline_does_not_divide(self):
        base = report(weird=0.0)
        cur = report(weird=50.0)
        result = bench_trend.compare_reports(base, cur)
        assert result["regressions"] == []


class TestFormatMarkdown:
    def test_table_contains_deltas_and_status(self):
        base = report(simulate_segments=100.0, admission_fast=100.0)
        cur = report(simulate_segments=150.0, admission_fast=60.0)
        result = bench_trend.compare_reports(base, cur)
        table = bench_trend.format_markdown(result)
        assert "| `simulate_segments` |" in table
        assert "+50.0%" in table and "REGRESSION" in table
        assert "-40.0%" in table and "improved" in table
        assert "**FAILED**" in table

    def test_clean_run_says_so(self):
        result = bench_trend.compare_reports(report(a=10.0), report(a=10.0))
        table = bench_trend.format_markdown(result)
        assert "No component regressed" in table


def scenario_report(gaps, *, baseline_equal=True):
    """Minimal cluster-scenario report: ``gaps`` is [(hit_gap, write_gap)]."""
    return {
        "kind": "cluster_scenario",
        "baseline_equal": baseline_equal,
        "phases": [
            {"index": i, "active": [], "hit_gap": hg, "write_gap": wg}
            for i, (hg, wg) in enumerate(gaps)
        ],
    }


class TestCompareScenarioReports:
    def test_gap_growth_beyond_threshold_and_slack_fails(self):
        base = scenario_report([(0.10, 0.05)])
        cur = scenario_report([(0.13, 0.05)])  # 0.13 > 0.10*1.2 + 0.005
        result = bench_trend.compare_scenario_reports(base, cur)
        assert result["regressions"] == ["phase0:hit_gap"]

    def test_slack_absorbs_noise_on_tiny_gaps(self):
        base = scenario_report([(0.001, 0.0)])
        cur = scenario_report([(0.004, 0.002)])  # huge relative, tiny absolute
        result = bench_trend.compare_scenario_reports(base, cur)
        assert result["regressions"] == []

    def test_absolute_gap_compared_sign_ignored(self):
        base = scenario_report([(-0.05, 0.02)])
        cur = scenario_report([(0.05, -0.02)])
        result = bench_trend.compare_scenario_reports(base, cur)
        assert result["regressions"] == []
        assert result["rows"][0]["baseline"] == pytest.approx(0.05)

    def test_improvement_passes(self):
        base = scenario_report([(0.20, 0.20)])
        cur = scenario_report([(0.05, 0.01)])
        assert bench_trend.compare_scenario_reports(
            base, cur
        )["regressions"] == []

    def test_null_gaps_skipped(self):
        base = scenario_report([(None, None)])
        cur = scenario_report([(0.9, 0.9)])
        result = bench_trend.compare_scenario_reports(base, cur)
        assert result["rows"] == [] and result["regressions"] == []

    def test_phase_count_delta_reported_not_failed(self):
        base = scenario_report([(0.1, 0.1), (0.1, 0.1)])
        cur = scenario_report([(0.1, 0.1)])
        result = bench_trend.compare_scenario_reports(base, cur)
        assert result["phase_count_delta"] == -1
        assert result["regressions"] == []

    def test_markdown_flags_regressions_and_baseline_mismatch(self):
        base = scenario_report([(0.10, 0.05)])
        cur = scenario_report([(0.50, 0.05)], baseline_equal=False)
        table = bench_trend.format_scenario_markdown(
            bench_trend.compare_scenario_reports(base, cur)
        )
        assert "REGRESSION" in table and "**FAILED**" in table
        assert "did not" in table  # baseline-mismatch note

    def test_markdown_clean_run_says_so(self):
        table = bench_trend.format_scenario_markdown(
            bench_trend.compare_scenario_reports(
                scenario_report([(0.1, 0.1)]), scenario_report([(0.1, 0.1)])
            )
        )
        assert "No phase's oracle gap regressed" in table


def eviction_report(closures, *, quick=True, ns=5_000.0):
    points = [
        {
            "fraction": frac,
            "capacity_bytes": 1_000_000,
            "gap_closure": closure,
            "mean_decision_ns": ns,
        }
        for frac, closure in closures
    ]
    return {
        "kind": "learned_eviction",
        "quick": quick,
        "points": points,
        "mean_gap_closure": sum(c for _, c in closures) / len(closures),
    }


class TestCompareEvictionReports:
    def test_detects_closure_regression(self):
        base = eviction_report([(0.01, 0.30), (0.02, 0.28)], quick=False)
        cur = eviction_report([(0.01, 0.30), (0.02, 0.15)], quick=False)
        result = bench_trend.compare_eviction_reports(base, cur, threshold=0.20)
        assert result["regressions"] == ["frac=0.02"]

    def test_slack_forgives_near_zero_wiggles(self):
        """Quick-mode closures sit near zero; the absolute slack keeps a
        0.03 → 0.02 move from tripping a 20%-relative gate."""
        base = eviction_report([(0.01, 0.03)])
        cur = eviction_report([(0.01, 0.02)])
        result = bench_trend.compare_eviction_reports(base, cur, threshold=0.20)
        assert result["regressions"] == []

    def test_improvement_never_fails(self):
        base = eviction_report([(0.01, 0.20)], quick=False)
        cur = eviction_report([(0.01, 0.45)], quick=False)
        result = bench_trend.compare_eviction_reports(base, cur)
        assert result["regressions"] == []

    def test_disjoint_points_listed_not_failed(self):
        base = eviction_report([(0.01, 0.30), (0.02, 0.30)], quick=False)
        cur = eviction_report([(0.02, 0.30), (0.04, 0.01)], quick=False)
        result = bench_trend.compare_eviction_reports(base, cur)
        assert result["regressions"] == []
        assert result["added"] == [0.04]
        assert result["removed"] == [0.01]

    def test_decision_cost_is_reported_not_gated(self):
        base = eviction_report([(0.01, 0.30)], quick=False, ns=1_000.0)
        cur = eviction_report([(0.01, 0.30)], quick=False, ns=50_000.0)
        result = bench_trend.compare_eviction_reports(base, cur)
        assert result["regressions"] == []
        assert result["rows"][0]["current_ns"] == 50_000.0

    def test_markdown_renders_failure_line(self):
        base = eviction_report([(0.01, 0.30)], quick=False)
        cur = eviction_report([(0.01, 0.10)], quick=False)
        result = bench_trend.compare_eviction_reports(base, cur)
        text = bench_trend.format_eviction_markdown(result)
        assert "Learned-eviction closure trend" in text
        assert "REGRESSION" in text
        assert "**FAILED**" in text


def staging_report(points, *, quick=True, violations=()):
    """Minimal staging report: ``points`` maps
    ``fraction -> {scheme: (hit_rate, ssd_writes)}``."""
    return {
        "kind": "staging",
        "quick": quick,
        "violations": list(violations),
        "points": [
            {
                "fraction": frac,
                "schemes": {
                    name: {
                        "hit_rate": hit,
                        "ssd_writes": writes,
                        "write_amplification": 1.2,
                    }
                    for name, (hit, writes) in schemes.items()
                },
            }
            for frac, schemes in points.items()
        ],
    }


class TestCompareStagingReports:
    def test_hit_rate_drop_beyond_threshold_and_slack_fails(self):
        base = staging_report({0.02: {"flashiness": (0.30, 450)}})
        cur = staging_report({0.02: {"flashiness": (0.20, 450)}})
        result = bench_trend.compare_staging_reports(base, cur, threshold=0.20)
        assert result["regressions"] == ["frac=0.02:flashiness:hit_rate"]

    def test_hit_slack_absorbs_low_rate_wiggles(self):
        """At near-zero hit rates the 20%-relative band is microscopic;
        the absolute slack keeps 0.05 → 0.04 from tripping the gate."""
        base = staging_report({0.02: {"composed": (0.05, 400)}})
        cur = staging_report({0.02: {"composed": (0.04, 400)}})
        result = bench_trend.compare_staging_reports(base, cur, threshold=0.20)
        assert result["regressions"] == []

    def test_write_growth_beyond_ceiling_fails(self):
        base = staging_report({0.02: {"composed": (0.33, 400)}})
        cur = staging_report({0.02: {"composed": (0.33, 500)}})  # > 400*1.2+16
        result = bench_trend.compare_staging_reports(base, cur, threshold=0.20)
        assert result["regressions"] == ["frac=0.02:composed:writes"]

    def test_write_slack_absorbs_small_absolute_growth(self):
        base = staging_report({0.02: {"composed": (0.33, 10)}})
        cur = staging_report({0.02: {"composed": (0.33, 25)}})  # <= 10*1.2+16
        result = bench_trend.compare_staging_reports(base, cur, threshold=0.20)
        assert result["regressions"] == []

    def test_improvement_never_fails(self):
        base = staging_report({0.02: {"flashiness": (0.30, 500)}})
        cur = staging_report({0.02: {"flashiness": (0.40, 300)}})
        result = bench_trend.compare_staging_reports(base, cur)
        assert result["regressions"] == []
        assert result["rows"][0]["regressed"] is False

    def test_disjoint_points_and_schemes_listed_not_failed(self):
        base = staging_report(
            {0.02: {"composed": (0.3, 400), "old": (0.1, 9_000)}, 0.05: {"composed": (0.4, 300)}}
        )
        cur = staging_report(
            {0.02: {"composed": (0.3, 400), "new": (0.0, 9_999)}, 0.10: {"composed": (0.5, 200)}}
        )
        result = bench_trend.compare_staging_reports(base, cur)
        assert result["regressions"] == []
        assert result["added"] == [0.10]
        assert result["removed"] == [0.05]
        assert [(r["fraction"], r["scheme"]) for r in result["rows"]] == [
            (0.02, "composed")
        ]

    def test_markdown_flags_regression_and_violations(self):
        base = staging_report({0.02: {"flashiness": (0.30, 450)}})
        cur = staging_report(
            {0.02: {"flashiness": (0.10, 450)}},
            violations=["frac=0.02: composed wrote more than flashiness"],
        )
        text = bench_trend.format_staging_markdown(
            bench_trend.compare_staging_reports(base, cur)
        )
        assert "Staging admission trend" in text
        assert "REGRESSION" in text and "**FAILED**" in text
        assert "composition-" in text  # violations note

    def test_markdown_clean_run_says_so(self):
        rep = staging_report({0.02: {"composed": (0.33, 400)}})
        text = bench_trend.format_staging_markdown(
            bench_trend.compare_staging_reports(rep, rep)
        )
        assert "No scheme's hit rate or write count regressed" in text


class TestMain:
    def _write(self, tmp_path, name, rep):
        p = tmp_path / name
        p.write_text(json.dumps(rep))
        return str(p)

    def test_regression_exits_nonzero(self, tmp_path):
        base = self._write(tmp_path, "base.json", report(a=100.0))
        cur = self._write(tmp_path, "cur.json", report(a=200.0))
        assert bench_trend.main(["--baseline", base, "--current", cur]) == 1

    def test_clean_exits_zero_and_writes_summary(self, tmp_path, monkeypatch):
        monkeypatch.delenv("GITHUB_STEP_SUMMARY", raising=False)
        base = self._write(tmp_path, "base.json", report(a=100.0))
        cur = self._write(tmp_path, "cur.json", report(a=101.0))
        summary = tmp_path / "summary.md"
        rc = bench_trend.main(
            ["--baseline", base, "--current", cur, "--summary", str(summary)]
        )
        assert rc == 0
        assert "Hot-path bench trend" in summary.read_text()

    def test_missing_baseline_skips_gracefully(self, tmp_path, monkeypatch):
        monkeypatch.delenv("GITHUB_STEP_SUMMARY", raising=False)
        cur = self._write(tmp_path, "cur.json", report(a=100.0))
        rc = bench_trend.main(
            ["--baseline", str(tmp_path / "nope.json"), "--current", cur]
        )
        assert rc == 0

    def test_corrupt_baseline_skips_gracefully(self, tmp_path, monkeypatch):
        monkeypatch.delenv("GITHUB_STEP_SUMMARY", raising=False)
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        cur = self._write(tmp_path, "cur.json", report(a=100.0))
        assert bench_trend.main(
            ["--baseline", str(bad), "--current", cur]
        ) == 0

    def test_missing_current_is_an_error(self, tmp_path):
        base = self._write(tmp_path, "base.json", report(a=100.0))
        rc = bench_trend.main(
            ["--baseline", base, "--current", str(tmp_path / "nope.json")]
        )
        assert rc == 2

    def test_custom_threshold(self, tmp_path):
        base = self._write(tmp_path, "base.json", report(a=100.0))
        cur = self._write(tmp_path, "cur.json", report(a=110.0))
        args = ["--baseline", base, "--current", cur]
        assert bench_trend.main([*args, "--threshold", "0.05"]) == 1
        assert bench_trend.main([*args, "--threshold", "0.20"]) == 0

    def test_scenario_kind_dispatch(self, tmp_path, monkeypatch):
        monkeypatch.delenv("GITHUB_STEP_SUMMARY", raising=False)
        base = self._write(
            tmp_path, "base.json", scenario_report([(0.10, 0.05)])
        )
        clean = self._write(
            tmp_path, "clean.json", scenario_report([(0.10, 0.05)])
        )
        worse = self._write(
            tmp_path, "worse.json", scenario_report([(0.40, 0.05)])
        )
        assert bench_trend.main(["--baseline", base, "--current", clean]) == 0
        assert bench_trend.main(["--baseline", base, "--current", worse]) == 1

    def test_kind_mismatch_skips_gracefully(self, tmp_path, monkeypatch):
        """A hotpath baseline against a scenario current (or vice versa)
        is a pipeline change, not a regression — the gate steps aside."""
        monkeypatch.delenv("GITHUB_STEP_SUMMARY", raising=False)
        hotpath = self._write(tmp_path, "hot.json", report(a=100.0))
        scenario = self._write(
            tmp_path, "scn.json", scenario_report([(0.9, 0.9)])
        )
        staging = self._write(
            tmp_path, "stg.json",
            staging_report({0.02: {"composed": (0.33, 400)}}),
        )
        assert bench_trend.main(
            ["--baseline", hotpath, "--current", scenario]
        ) == 0
        assert bench_trend.main(
            ["--baseline", scenario, "--current", hotpath]
        ) == 0
        assert bench_trend.main(
            ["--baseline", hotpath, "--current", staging]
        ) == 0
        assert bench_trend.main(
            ["--baseline", staging, "--current", scenario]
        ) == 0

    def test_eviction_kind_dispatch(self, tmp_path, monkeypatch):
        monkeypatch.delenv("GITHUB_STEP_SUMMARY", raising=False)
        base = self._write(
            tmp_path, "base.json",
            eviction_report([(0.01, 0.30)], quick=False),
        )
        clean = self._write(
            tmp_path, "clean.json",
            eviction_report([(0.01, 0.29)], quick=False),
        )
        worse = self._write(
            tmp_path, "worse.json",
            eviction_report([(0.01, 0.10)], quick=False),
        )
        assert bench_trend.main(["--baseline", base, "--current", clean]) == 0
        assert bench_trend.main(["--baseline", base, "--current", worse]) == 1

    def test_staging_kind_dispatch(self, tmp_path, monkeypatch):
        monkeypatch.delenv("GITHUB_STEP_SUMMARY", raising=False)
        base = self._write(
            tmp_path, "base.json",
            staging_report({0.02: {"composed": (0.33, 400)}}),
        )
        clean = self._write(
            tmp_path, "clean.json",
            staging_report({0.02: {"composed": (0.33, 410)}}),
        )
        worse = self._write(
            tmp_path, "worse.json",
            staging_report({0.02: {"composed": (0.10, 400)}}),
        )
        hotpath = self._write(tmp_path, "hot.json", report(a=100.0))
        assert bench_trend.main(["--baseline", base, "--current", clean]) == 0
        assert bench_trend.main(["--baseline", base, "--current", worse]) == 1
        # Kind mismatch is a pipeline change, not a regression.
        assert bench_trend.main(["--baseline", hotpath, "--current", base]) == 0
        assert bench_trend.main(["--baseline", base, "--current", hotpath]) == 0
