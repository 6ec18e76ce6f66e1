"""Staging harness: classifier vs flashiness vs composed, at the device.

Dual-mode module:

* **Script / CI**: ``python benchmarks/bench_staging.py [--quick]``
  replays the reference trace through the four admission schemes of
  :func:`repro.experiments.staging.run_staging_comparison` — no
  admission, the paper's classifier, the Flashield-style flashiness bar
  (:class:`repro.cache.staging.StagingCache`) and their composition —
  each against its own :class:`~repro.ssd.cache_device.CacheSSD` with a
  DFTL-style cached mapping table, then writes ``BENCH_staging.json``
  (``"kind": "staging"``).  Both modes gate the composition contract
  (:func:`check_write_ordering`): composed must write no more than either
  mechanism alone while holding the ``min(classifier, flashiness)``
  hit-rate floor within the documented slack.  Tier-1 pins every
  scheme's hit rate and write count on a smaller trace
  (``tests/experiments/test_staging_comparison.py::TestPinnedComparison``).
* **pytest-benchmark suite**: collected like the other ``bench_*``
  modules; runs quick mode and persists the table under ``results/``.

The capacity points are footprint fractions 0.02/0.05/0.10 — a small /
medium / large cut through the paper's 2–20 GB grid shape, small enough
that admission quality (not recency saturation) decides the outcome.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

_REPO_ROOT = Path(__file__).resolve().parent.parent

try:
    from repro.experiments.staging import (
        check_write_ordering,
        format_staging_table,
        run_staging_comparison,
    )
except ImportError:  # script run without PYTHONPATH=src
    sys.path.insert(0, str(_REPO_ROOT / "src"))
    from repro.experiments.staging import (
        check_write_ordering,
        format_staging_table,
        run_staging_comparison,
    )

from repro.trace.generator import WorkloadConfig, generate_trace

DEFAULT_OUTPUT = _REPO_ROOT / "BENCH_staging.json"

KIND = "staging"

#: Full-mode reference trace: the CLI's default workload, where the
#: acceptance contract ("composed ≤ writes of either mechanism alone")
#: is anchored.
FULL_OBJECTS = 25_000
FULL_DAYS = 9.0
#: Quick-mode trace for the CI smoke: same shape, CI-sized.
QUICK_OBJECTS = 4_000
QUICK_DAYS = 3.0
SEED = 7


class BenchError(AssertionError):
    """The composition contract failed."""


def run_staging_bench(
    *,
    quick: bool = False,
    objects: int | None = None,
    seed: int = SEED,
) -> dict:
    """Run the four-scheme sweep and shape the JSON report."""
    n_objects = objects if objects is not None else (
        QUICK_OBJECTS if quick else FULL_OBJECTS
    )
    days = QUICK_DAYS if quick else FULL_DAYS
    trace = generate_trace(
        WorkloadConfig(n_objects=n_objects, days=days, seed=seed)
    )
    comparison = run_staging_comparison(trace, training_rng=seed)
    return {
        "kind": KIND,
        "quick": quick,
        "workload": {"n_objects": n_objects, "days": days, "seed": seed},
        "footprint_bytes": comparison.footprint_bytes,
        "n_requests": comparison.n_requests,
        "flashiness_threshold": comparison.flashiness_threshold,
        "dram_fraction": comparison.dram_fraction,
        "points": [p.to_dict() for p in comparison.points],
        "violations": check_write_ordering(comparison),
        "table": format_staging_table(comparison),
    }


def format_report(report: dict) -> str:
    mode = "quick" if report["quick"] else "full"
    w = report["workload"]
    lines = [
        f"staging head-to-head ({mode} mode, {w['n_objects']:,} objects, "
        f"{w['days']:g} days)",
        report["table"],
    ]
    if report["violations"]:
        lines.append("composition contract VIOLATED:")
        lines.extend(f"  {v}" for v in report["violations"])
    else:
        lines.append(
            "composition contract holds: composed writes <= either "
            "mechanism alone at the hit-rate floor"
        )
    return "\n".join(lines)


def check_gates(report: dict) -> None:
    """Raise :class:`BenchError` when the composition contract fails.

    Unlike the perf floors elsewhere, this gates in *both* modes: the
    sweep is seeded and deterministic, so a violation is a behaviour
    change, not noise.
    """
    if report["violations"]:
        raise BenchError(
            "composition contract failed: " + "; ".join(report["violations"])
        )


def write_report(report: dict, path: str) -> Path:
    out = Path(path)
    out.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    return out


def bench_staging(benchmark, capsys):
    """pytest-benchmark entry: quick-mode sweep + contract assertion."""
    from common import emit

    report = benchmark.pedantic(
        lambda: run_staging_bench(quick=True), rounds=1, iterations=1
    )
    check_gates(report)
    emit(capsys, "staging", format_report(report))


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(
        description="Head-to-head admission comparison (classifier vs "
        "flashiness vs composed) judged at the SSD device."
    )
    ap.add_argument("--quick", action="store_true",
                    help="CI-sized trace (the contract still gates)")
    ap.add_argument("--objects", type=int, default=None,
                    help="override the trace object count")
    ap.add_argument("--seed", type=int, default=SEED)
    ap.add_argument("--output", default=str(DEFAULT_OUTPUT),
                    help=f"report path (default: {DEFAULT_OUTPUT})")
    args = ap.parse_args(argv)

    report = run_staging_bench(
        quick=args.quick, objects=args.objects, seed=args.seed
    )
    print(format_report(report))
    path = write_report(report, args.output)
    print(f"[report written to {path}]")
    try:
        check_gates(report)
    except BenchError as exc:
        print(f"FAILED: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
