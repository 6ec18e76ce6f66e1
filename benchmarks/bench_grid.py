"""Grid fan-out benchmark: precompute wall time per start method.

Script mode (``python benchmarks/bench_grid.py [--quick]``) times
``GridRunner.precompute`` for each worker start method the platform offers
(plus the inline baseline) on identical traces, and prints a table of wall
times with the speedup over inline.  The pool hands every worker the
trace, re-access distances and feature matrix once, as its initializer
arguments — inherited under ``fork``, pickled once per worker (about
10 MB at the default scale) under ``spawn`` and ``forkserver``, where the
worker also rebuilds its own ``SegmentPlan``.  This table is the
instrument that says whether that per-worker cost shows against the
capacity blocks: run it at the parent before touching
``experiments/grid.py`` and keep the table.

The ``child MiB`` column is ``getrusage(RUSAGE_CHILDREN).ru_maxrss`` after
each method: the largest resident set of any child reaped *so far*, so a
row repeats the one above unless its own workers were larger (and
``forkserver``'s workers are the fork server's children, not ours).  The
last row is the largest worker of the whole run.

Scale knobs: ``REPRO_BENCH_OBJECTS`` (default 25 000) and ``--workers``
(default: one per capacity block, at most four).  The pytest entry runs
quick mode and persists the table under ``results/``.
"""

from __future__ import annotations

import argparse
import resource
import sys
import time
from pathlib import Path

_REPO_ROOT = Path(__file__).resolve().parent.parent

try:
    from repro.experiments import GridRunner
except ImportError:  # script run without PYTHONPATH=src
    sys.path.insert(0, str(_REPO_ROOT / "src"))
    from repro.experiments import GridRunner

import multiprocessing

from repro.trace.generator import WorkloadConfig, generate_trace

QUICK_FRACTIONS = [0.01, 0.03]
FULL_FRACTIONS = [0.01, 0.02, 0.04, 0.06, 0.08]


def _methods() -> list:
    available = multiprocessing.get_all_start_methods()
    return ["inline"] + [
        m for m in ("fork", "forkserver", "spawn") if m in available
    ]


def run_grid_bench(
    *,
    objects: int,
    days: float,
    seed: int,
    fractions,
    policies=("lru", "fifo", "lirs"),
    workers: int | None = None,
) -> str:
    # Force a real pool even on single-core boxes (the default would
    # resolve to min(blocks, cpus) and fall back to inline on 1 CPU).
    if workers is None:
        workers = min(4, len(fractions))
    rows = []
    baseline = None
    for method in _methods():
        # A fresh trace per method: identical content (same seed), but no
        # shared memoisation — each run pays its own plan/feature costs.
        trace = generate_trace(
            WorkloadConfig(n_objects=objects, days=days, seed=seed)
        )
        runner = GridRunner(trace, fractions=fractions, policies=policies)
        t0 = time.perf_counter()
        if method == "inline":
            runner.precompute(max_workers=1)
        else:
            runner.precompute(max_workers=workers, start_method=method)
        elapsed = time.perf_counter() - t0
        fingerprint = runner.point(policies[0], fractions[0]).rate(
            "proposal", "hit_rate"
        )
        if baseline is None:
            baseline = (elapsed, fingerprint)
        else:
            assert fingerprint == baseline[1], (
                f"{method} diverged from inline: "
                f"{fingerprint} != {baseline[1]}"
            )
        child_mib = (
            resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
        )
        rows.append((method, elapsed, baseline[0] / elapsed, child_mib))
    lines = [
        "grid precompute wall time by start method "
        f"({objects} objects, {len(fractions)} capacities, "
        f"{len(policies)} policies)",
        f"{'method':>12s} {'seconds':>9s} {'vs inline':>10s} {'child MiB':>10s}",
    ]
    for method, elapsed, speedup, child_mib in rows:
        lines.append(
            f"{method:>12s} {elapsed:9.2f} {speedup:9.2f}x {child_mib:10.0f}"
        )
    return "\n".join(lines)


def bench_grid_start_methods(benchmark, capsys):
    """pytest-benchmark entry: quick-mode table, persisted to results/."""
    from common import emit

    table = benchmark.pedantic(
        lambda: run_grid_bench(
            objects=4000, days=2.0, seed=9, fractions=QUICK_FRACTIONS
        ),
        rounds=1,
        iterations=1,
    )
    emit(capsys, "grid_start_methods", table)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true",
                        help="small trace + two capacities (CI smoke scale)")
    parser.add_argument("--objects", type=int, default=None)
    parser.add_argument("--days", type=float, default=None)
    parser.add_argument("--seed", type=int, default=9)
    parser.add_argument("--workers", type=int, default=None)
    args = parser.parse_args(argv)
    import os

    objects = args.objects or (
        4000 if args.quick
        else int(os.environ.get("REPRO_BENCH_OBJECTS", "25000"))
    )
    days = args.days or (2.0 if args.quick else 9.0)
    table = run_grid_bench(
        objects=objects,
        days=days,
        seed=args.seed,
        fractions=QUICK_FRACTIONS if args.quick else FULL_FRACTIONS,
        workers=args.workers,
    )
    print(table)
    return 0


if __name__ == "__main__":
    sys.exit(main())
