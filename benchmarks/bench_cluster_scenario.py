"""Cluster-scenario benchmark: the reference fault timeline, end to end.

Dual-mode module, like ``bench_staging.py``:

* **Script / CI**: ``python benchmarks/bench_cluster_scenario.py [--quick]``
  synthesises a workload, runs the repository's reference scenario
  (4 OC nodes, replication 2, hot-key flood + node kill/cold restart +
  rolling admission deploy) through :func:`repro.scenario.run_scenario`,
  prints the per-phase table and writes ``BENCH_cluster_scenario.json``.
  Exits non-zero if the pristine phases diverge from the failure-free
  baseline (exact counter equality) — that equality is the scenario
  engine's correctness gate, the analogue of the served == offline
  parity checks — if the write ledger is not exact, or if the
  ``--chrome-trace`` export fails :func:`validate_chrome_trace` (checked
  before the file is written).  ``--quick`` shrinks the trace for CI's
  ``e2e-smoke`` job (< 30 s); the default run uses the full reference
  scale (200 k base requests).
* **pytest-benchmark suite**: collected like the other ``bench_*``
  modules; runs quick mode and persists the table under ``results/``.

The JSON report is tagged ``"kind": "cluster_scenario"`` and carries the
per-phase oracle gaps.  Tier-1 pins every phase counter of a smaller run
(``tests/scenario/test_engine.py::TestPinnedReport``).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

_REPO_ROOT = Path(__file__).resolve().parent.parent

try:
    from repro.obs.spans import Tracer, validate_chrome_trace
    from repro.scenario import format_report, reference_scenario, run_scenario
    from repro.trace.generator import WorkloadConfig, generate_trace
except ImportError:  # script run without PYTHONPATH=src
    sys.path.insert(0, str(_REPO_ROOT / "src"))
    from repro.obs.spans import Tracer, validate_chrome_trace
    from repro.scenario import format_report, reference_scenario, run_scenario
    from repro.trace.generator import WorkloadConfig, generate_trace

DEFAULT_OUTPUT = _REPO_ROOT / "BENCH_cluster_scenario.json"

#: ISSUE-6 reference scale; ``--quick`` divides by ~7 for the CI smoke job.
FULL_REQUESTS = 200_000
QUICK_REQUESTS = 30_000

#: The generator yields ≈3.95 accesses/object, so this many objects gives
#: a trace comfortably longer than the requested replay.
_ACCESSES_PER_OBJECT = 3.5


def run_scenario_bench(
    *, quick: bool = False, requests: int | None = None, seed: int = 0,
    tracer=None,
):
    """Build the workload, run the reference scenario, return the report."""
    if requests is None:
        requests = QUICK_REQUESTS if quick else FULL_REQUESTS
    objects = max(2_000, int(requests / _ACCESSES_PER_OBJECT))
    trace = generate_trace(WorkloadConfig(n_objects=objects, seed=seed))
    if trace.n_accesses < requests:  # heavy-tail draw came up short
        requests = trace.n_accesses
    spec = reference_scenario(requests, seed=seed)
    return run_scenario(spec, trace, tracer=tracer)


def bench_cluster_scenario(benchmark, capsys):
    """pytest-benchmark entry: quick-mode run + baseline-equality gate."""
    from common import emit

    report = benchmark.pedantic(
        lambda: run_scenario_bench(quick=True), rounds=1, iterations=1
    )
    assert report.baseline_equal, (
        "pristine phases diverged from the failure-free baseline"
    )
    emit(capsys, "cluster_scenario", format_report(report))


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(
        description="Run the reference fault-injection scenario and write "
        "BENCH_cluster_scenario.json."
    )
    ap.add_argument("--quick", action="store_true",
                    help="small trace (CI smoke mode, < 30 s)")
    ap.add_argument("--requests", type=int, default=None,
                    help="base requests (default: 200k full, 30k quick)")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--output", default=str(DEFAULT_OUTPUT),
                    help="where to write BENCH_cluster_scenario.json")
    ap.add_argument("--chrome-trace", default=None,
                    help="also write per-phase replay spans as Chrome "
                         "trace-event JSON to this path (Perfetto-loadable)")
    args = ap.parse_args(argv)

    tracer = Tracer() if args.chrome_trace else None
    report = run_scenario_bench(
        quick=args.quick, requests=args.requests, seed=args.seed,
        tracer=tracer,
    )
    payload = report.to_dict()
    payload["quick"] = bool(args.quick)
    with open(args.output, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2)
    print(format_report(report))
    print(f"[saved to {args.output}]")
    if tracer is not None:
        doc = tracer.to_chrome(process_name="repro-scenario")
        n_spans = validate_chrome_trace(doc)
        with open(args.chrome_trace, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        print(f"[{n_spans} span(s) written to {args.chrome_trace}]")

    if not report.baseline_equal:
        print(
            "FAILED: pristine phases diverged from the failure-free baseline",
            file=sys.stderr,
        )
        return 1
    if report.ledger is not None and not report.ledger["exact"]:
        print(
            "FAILED: write ledger does not sum to the cluster's SSD writes",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
