"""Smoke test of the end-to-end benchmark.  Not part of tier-1 ``testpaths``;
run it explicitly:

    PYTHONPATH=src python -m pytest benchmarks/e2e/tests/test_smoke.py -q
"""

from __future__ import annotations

import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

E2E = Path(__file__).resolve().parents[1]
ROOT = E2E.parents[1]
sys.path.insert(0, str(E2E))

import e2e_common as C  # noqa: E402

C.add_src_to_path()


def run(*flags: str) -> tuple[int, list[dict], str]:
    proc = subprocess.run(
        [sys.executable, str(E2E / "run.py"), *flags],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    results = [json.loads(line) for line in proc.stdout.splitlines()
               if line.startswith('{"correct"')]
    return proc.returncode, results, proc.stdout + proc.stderr


def test_benchmark_json_repeats_the_metric_tables():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert doc["paths"] == ["benchmarks/e2e"]
    assert [w["name"] for w in doc["workloads"]] == list(C.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"], m["bound"])
            for m in doc["end_to_end"]] == list(C.END_TO_END)
    assert [(m["name"], m["unit"], m["better"])
            for m in doc["per_layer"]] == list(C.PER_LAYER)


def test_quick_run_of_every_workload_emits_every_metric():
    t0 = time.perf_counter()
    code, results, output = run("--quick", "--seconds", "0.5", "--seed", "7")
    elapsed = time.perf_counter() - t0
    assert code == 0, output
    assert len(results) == len(C.WORKLOADS)
    for result in results:
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        assert list(result["metrics"]) == [row[0] for row in C.END_TO_END]
        for name, unit, *_ in C.END_TO_END:
            metric = result["metrics"][name]
            assert metric["unit"] == unit
            assert metric["value"] > 0, name     # end-to-end metrics are never 0
    assert elapsed < 20, f"quick run took {elapsed:.1f} s"


@pytest.mark.parametrize("workload", ["serve_original", "replay_device"])
def test_quick_traced_run_emits_every_layer_and_honours_the_bypass(workload):
    code, results, output = run("--quick", "--seconds", "0.5", "--seed", "7",
                                "--workload", workload, "--trace", "1")
    assert code == 0, output
    (result,) = results
    metrics = result["metrics"]
    assert list(metrics) == [row[0] for row in C.PER_LAYER]
    assert all(metrics[name]["unit"] == unit for name, unit, _ in C.PER_LAYER)
    ssd = [m["value"] for name, m in metrics.items() if name.startswith("ssd.")]
    if workload == "replay_device":
        assert all(v > 0 for v in ssd)
        assert metrics["core.online.decisions"]["value"] == 0
    else:
        assert not any(ssd)
        assert metrics["server.stage_feature_us_per_req"]["value"] == 0
        assert metrics["server.node.process_batch_us_per_req"]["value"] > 0


def test_served_gate_trips_on_a_perturbed_counter():
    import e2e_child
    import e2e_serve

    trace = C.build_trace("serve_proposal", 7, 2_000)
    reference = e2e_child.served_reference(trace, "serve_proposal")
    # The benchmark's reference is built as replay_offline builds its own.
    from repro.server.node import replay_offline

    offline = replay_offline(trace, e2e_child.node_config("serve_proposal")).stats
    assert (offline.requests, offline.hits, offline.files_written,
            offline.admissions_denied) == (
        reference["requests"], reference["hits"], reference["files_written"],
        reference["admissions_denied"])

    stats = dict(reference)
    stats["ledger"] = {
        "total_writes": reference["files_written"],
        "total_bytes": reference["bytes_written"],
        "avoided_writes": reference["admissions_denied"],
    }
    assert e2e_serve.check_served(stats, reference, reference["hits"], 0) == []
    assert e2e_serve.check_served(stats, reference, reference["hits"] - 1, 0)
    assert e2e_serve.check_served(stats, reference, reference["hits"], 1)
    stats["files_written"] += 1
    assert e2e_serve.check_served(stats, reference, reference["hits"], 0)


def test_compare_refuses_different_seeds(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    a.write_text(json.dumps({"seed": 1, "sets": []}))
    b.write_text(json.dumps({"seed": 2, "sets": []}))
    code, _, output = run("--compare", str(a), str(b))
    assert code == 2 and "seeds differ" in output
