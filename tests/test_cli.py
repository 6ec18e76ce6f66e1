"""Tests for the command-line interface."""

import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import build_parser, main
from repro.trace.io import load_trace


BASE = ["--objects", "1500", "--days", "2", "--seed", "4"]


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])

    @pytest.mark.parametrize(
        "argv",
        [
            ["stats"],
            ["simulate", "--policy", "arc"],
            ["experiment", "--cost-v", "3"],
            ["sweep", "--policy", "lirs"],
            ["grid", "--workers", "2", "--start-method", "inline"],
            ["serve", "--port", "0", "--no-classifier", "--retrain-period",
             "86400"],
            ["loadgen", "--rate", "5000", "--connections", "8", "--limit",
             "1000"],
            ["scenario", "--requests", "500", "--no-oracle"],
            ["staging", "--fractions", "0.02", "0.05", "--redemption-delta",
             "2", "--no-check"],
            ["staging", "--cmt-fraction", "0.5"],
            ["serve", "--port", "0", "--spans", "--spans-capacity", "4096"],
            ["loadgen", "--chrome-trace", "lg.json"],
            ["scenario", "--requests", "500", "--chrome-trace", "sc.json"],
        ],
    )
    def test_commands_parse(self, argv):
        args = build_parser().parse_args(argv + BASE)
        assert args.command == argv[0]

    def test_spans_dump_parses_without_trace_args(self):
        args = build_parser().parse_args(
            ["spans-dump", "--port", "9999", "--limit", "50",
             "--output", "t.json"]
        )
        assert args.command == "spans-dump"
        assert args.port == 9999 and args.limit == 50


class TestConsoleScript:
    """The ``repro`` entry point (and its ``python -m repro`` twin)."""

    def test_pyproject_declares_entry_point(self):
        pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
        text = pyproject.read_text()
        assert "[project.scripts]" in text
        assert 'repro = "repro.cli:main"' in text

    def test_module_help_exits_zero(self):
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "--help"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert "serve" in proc.stdout and "loadgen" in proc.stdout

    def test_installed_script_help_exits_zero(self):
        script = shutil.which("repro")
        if script is None:
            pytest.skip("console script not installed in this environment")
        proc = subprocess.run([script, "--help"], capture_output=True, text=True)
        assert proc.returncode == 0
        assert "loadgen" in proc.stdout


class TestCommands:
    def test_stats(self, capsys):
        assert main(["stats", *BASE]) == 0
        out = capsys.readouterr().out
        assert "one-time objects" in out

    def test_stats_with_types(self, capsys):
        assert main(["stats", "--types", *BASE]) == 0
        assert "l5" in capsys.readouterr().out

    def test_generate_and_reload(self, tmp_path, capsys):
        path = tmp_path / "t.npz"
        assert main(["generate", str(path), *BASE]) == 0
        trace = load_trace(path)
        assert trace.n_objects == 1500
        assert "saved" in capsys.readouterr().out

    def test_simulate_from_saved_trace(self, tmp_path, capsys):
        path = tmp_path / "t.npz"
        main(["generate", str(path), *BASE])
        assert main(["simulate", "--trace", str(path), "--policy", "lru"]) == 0
        out = capsys.readouterr().out
        assert "hit rate" in out

    def test_simulate_all_policies(self, capsys):
        for policy in ("lru", "fifo", "s3lru", "arc", "lirs", "belady"):
            assert main(["simulate", "--policy", policy, *BASE]) == 0
        assert "hit rate" in capsys.readouterr().out

    def test_experiment(self, capsys):
        assert main(["experiment", "--no-belady", *BASE]) == 0
        out = capsys.readouterr().out
        assert "proposal" in out and "classifier" in out

    def test_sweep(self, capsys):
        assert main(["sweep", "--policy", "lru", *BASE]) == 0
        out = capsys.readouterr().out
        assert out.count("\n") >= 11  # header + 10 capacities

    def test_grid_inline(self, capsys):
        argv = ["grid", "--policies", "lru", "--fractions", "0.02",
                "--start-method", "inline", *BASE]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "LRU" in out and "proposal" in out

    def test_grid_parallel_spawn(self, capsys):
        import multiprocessing

        method = "spawn" if "spawn" in \
            multiprocessing.get_all_start_methods() else "fork"
        argv = ["grid", "--policies", "lru", "--fractions", "0.02", "0.05",
                "--metric", "byte_write_rate", "--workers", "2",
                "--start-method", method, *BASE]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "byte_write_rate" in out and "belady" in out

    def test_grid_rejects_unknown_start_method(self, capsys):
        assert main(["grid", "--start-method", "warp-drive", *BASE]) == 2
        assert "warp-drive" in capsys.readouterr().err

    def test_analyze(self, capsys):
        assert main(["analyze", *BASE]) == 0
        out = capsys.readouterr().out
        assert "Zipf" in out and "reuse" in out and "stack profile" in out

    def test_scenario_reference(self, tmp_path, capsys):
        import json

        output = tmp_path / "scenario.json"
        argv = ["scenario", "--requests", "2000", "--json", str(output),
                *BASE]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "pristine phases vs failure-free baseline: exact match" in out
        assert "oc1 down" in out
        report = json.loads(output.read_text())
        assert report["kind"] == "cluster_scenario"
        assert report["baseline_equal"] is True
        assert report["phases"]

    def test_scenario_chrome_trace_and_ledger(self, tmp_path, capsys):
        import json

        from repro.obs import validate_chrome_trace

        output = tmp_path / "scenario.json"
        trace_out = tmp_path / "trace.json"
        argv = ["scenario", "--requests", "2000", "--json", str(output),
                "--chrome-trace", str(trace_out), "--no-oracle", *BASE]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "write provenance (exact" in out
        assert "ui.perfetto.dev" in out

        report = json.loads(output.read_text())
        led = report["ledger"]
        assert led["exact"] is True
        assert sum(led["writes_by_cause"].values()) == led["cluster_ssd_writes"]

        doc = json.loads(trace_out.read_text())
        n_spans = validate_chrome_trace(doc)
        # One span per phase plus the replay root.
        assert n_spans == len(report["phases"]) + 1

    def test_staging_comparison(self, tmp_path, capsys):
        import json

        output = tmp_path / "staging.json"
        argv = ["staging", "--fractions", "0.05", "--json", str(output),
                *BASE]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "scheme" in out and "composed" in out and "life(d)" in out
        report = json.loads(output.read_text())
        assert report["flashiness_threshold"] == 1
        assert report["n_requests"] > 0
        (point,) = report["points"]
        assert point["fraction"] == pytest.approx(0.05)
        schemes = point["schemes"]
        assert set(schemes) == {
            "no-admission", "classifier", "flashiness", "composed"
        }
        assert (
            schemes["composed"]["ssd_writes"]
            <= schemes["no-admission"]["ssd_writes"]
        )

    def test_scenario_from_spec_file(self, tmp_path, capsys):
        import json

        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({
            "name": "tiny",
            "nodes": 2,
            "requests": 1500,
            "events": [{"kind": "node_kill", "at": 700, "node": "oc1"}],
        }))
        argv = ["scenario", "--spec", str(spec_path), "--no-oracle", *BASE]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "scenario 'tiny'" in out and "exact match" in out

    def test_scenario_rejects_bad_spec(self, tmp_path, capsys):
        spec_path = tmp_path / "bad.json"
        spec_path.write_text('{"nodes": 2, "requests": 100, "bogus": 1}')
        assert main(["scenario", "--spec", str(spec_path), *BASE]) == 2
        assert "unknown scenario keys" in capsys.readouterr().err


class TestBadInput:
    def test_value_error_is_one_line_and_exit_2(self, capsys):
        assert main(["staging", "--fractions", "0", *BASE]) == 2
        captured = capsys.readouterr()
        assert captured.err == (
            "repro staging: error: capacity fraction must be positive, "
            "got 0.0\n"
        )
        assert captured.out == ""

    def test_unknown_policy_is_one_line_and_exit_2(self, capsys):
        assert main(["simulate", "--policy", "lfu", *BASE]) == 2
        err = capsys.readouterr().err
        assert err.startswith(
            "repro simulate: error: unknown policy 'lfu'; choose from ["
        )
        assert err.endswith("]\n") and err.count("\n") == 1

    def test_missing_trace_is_one_line_and_exit_2(self, tmp_path, capsys):
        missing = tmp_path / "absent.npz"
        assert main(["simulate", "--trace", str(missing)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("repro simulate: error: ")
        assert str(missing) in err and err.count("\n") == 1
