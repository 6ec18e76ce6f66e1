"""Learned-eviction harness: Belady-gap closure across the capacity grid.

Dual-mode module:

* **Script / CI**: ``python benchmarks/bench_learned_eviction.py
  [--quick]`` replays the reference trace through LRU, the learned
  policy (:class:`repro.cache.learned.LearnedCache` with the catalog
  metadata features) and the offline-optimal
  :class:`~repro.cache.belady.BeladyCache` at the paper's capacity
  points, reports the file-hit-rate **gap closure**

      (learned − lru) / (belady − lru)

  plus the SSD file-write rates, the timed per-eviction decision cost
  and the refit cost (``fit_seconds``, its share of the replay, ms per
  fit), writes ``BENCH_learned_eviction.json`` (``"kind":
  "learned_eviction"``) and exits non-zero when a floor is missed.  Full-mode floors: mean closure
  ≥ 25 % of the LRU→Belady gap and a compiled single prediction in the
  ns range (< 1 µs).  The policy's *time* is not gated here: it is
  judged by ``replay_learned``'s ``cpu_us_per_req`` bound in
  ``benchmarks/e2e``, on interleaved parent/change runs; the decision
  and refit timings in this report are information.  Both modes always
  verify that every pre-existing registry policy stays bit-identical
  under segmented replay — the learned policy must not disturb the
  nine incumbents.  Tier-1 pins the hits of the default policy, LRU and
  Belady at one paper capacity point
  (``tests/cache/test_learned.py::TestPinnedReplay``).
* **pytest-benchmark suite**: collected like the other ``bench_*``
  modules; runs quick mode and persists the table under ``results/``.

The capacity points are the paper's own (0.47 %–4.7 % of the trace
footprint, :func:`repro.config.paper_capacity_fractions`): tiny caches
are where eviction quality matters — at 5–20 % of footprint LRU is
recency-saturated and every policy converges.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

_REPO_ROOT = Path(__file__).resolve().parent.parent

try:
    from repro.cache.simulator import POLICY_REGISTRY, make_policy, simulate
except ImportError:  # script run without PYTHONPATH=src
    sys.path.insert(0, str(_REPO_ROOT / "src"))
    from repro.cache.simulator import POLICY_REGISTRY, make_policy, simulate

from repro.cache.learned import LearnedCache, eviction_metadata
from repro.config import paper_capacity_fractions
from repro.trace.generator import WorkloadConfig, generate_trace

DEFAULT_OUTPUT = _REPO_ROOT / "BENCH_learned_eviction.json"

KIND = "learned_eviction"

#: Full-mode reference trace: large enough that the online trainer has
#: matured labels well before the measured steady state.
FULL_OBJECTS = 50_000
#: Quick-mode trace for the CI smoke: same shape, CI-sized.
QUICK_OBJECTS = 4_000
SEED = 7

#: Full-mode floors (quick mode reports but never gates — the tiny trace
#: under-trains the head, that's expected).
MIN_MEAN_CLOSURE = 0.25
#: The compiled fast path itself must stay in the ns range everywhere.
MAX_PREDICT_NS = 1_000.0


class BenchError(AssertionError):
    """A quality floor or parity invariant failed."""


def _point_fractions() -> tuple[float, ...]:
    return tuple(paper_capacity_fractions())


def _time_predict(policy: LearnedCache, reps: int = 5_000) -> float | None:
    """ns per compiled single-row prediction on the policy's own head.

    Uses a real feature row from the post-replay resident set, so the
    measured walk takes the branch profile the eviction loop sees.
    Returns None when the head never trained (quick mode's tiny trace).
    """
    predict = policy.trainer.predict_one
    if predict is None or not len(policy):
        return None
    oid = next(iter(policy._recency))
    row = policy._feature_row(
        policy._meta[oid], policy._recency[oid], policy._clock, oid
    )
    predict(row)  # warm the code object before the timed reps
    t0 = time.perf_counter()
    for _ in range(reps):
        predict(row)
    return 1e9 * (time.perf_counter() - t0) / reps


def run_learned_eviction_bench(
    *,
    quick: bool = False,
    objects: int | None = None,
    seed: int = SEED,
) -> dict:
    """Measure closure/writes/decision-cost per capacity point."""
    n_objects = objects if objects is not None else (
        QUICK_OBJECTS if quick else FULL_OBJECTS
    )
    cfg = WorkloadConfig(n_objects=n_objects, seed=seed)
    trace = generate_trace(cfg)
    footprint = int(trace.catalog["size"].sum())
    metadata = eviction_metadata(trace)

    points = []
    for fraction in _point_fractions():
        cap = max(1, int(fraction * footprint))
        lru = simulate(trace, make_policy("lru", cap), policy_name="lru")
        belady = simulate(
            trace, make_policy("belady", cap, trace), policy_name="belady"
        )
        policy = LearnedCache(cap, metadata=metadata, timing=True)
        t0 = time.perf_counter()
        learned = simulate(trace, policy, policy_name="learned")
        wall = time.perf_counter() - t0
        gap = belady.hit_rate - lru.hit_rate
        closure = (learned.hit_rate - lru.hit_rate) / gap if gap > 0 else 0.0
        stats = policy.decision_stats()
        points.append(
            {
                "fraction": fraction,
                "capacity_bytes": cap,
                "lru_hit_rate": lru.hit_rate,
                "learned_hit_rate": learned.hit_rate,
                "belady_hit_rate": belady.hit_rate,
                "gap_closure": closure,
                "lru_file_write_rate": lru.file_write_rate,
                "learned_file_write_rate": learned.file_write_rate,
                "belady_file_write_rate": belady.file_write_rate,
                "mean_decision_ns": stats["mean_decision_ns"],
                "predict_ns": _time_predict(policy),
                "fit_seconds": stats["fit_seconds"],
                "fit_share": stats["fit_seconds"] / wall,
                "ms_per_fit": (
                    1e3 * stats["fit_seconds"] / stats["fits"]
                    if stats["fits"] else None
                ),
                "decision_stats": {
                    k: stats[k]
                    for k in (
                        "decisions",
                        "learned_evictions",
                        "fallback_evictions",
                        "protected_skips",
                        "churn_inserts",
                        "fits",
                        "fit_rows",
                        "matured_samples",
                    )
                },
                "simulate_seconds": wall,
            }
        )

    closures = [p["gap_closure"] for p in points]
    decision_ns = [
        p["mean_decision_ns"] for p in points if p["mean_decision_ns"]
    ]
    predict_ns = [p["predict_ns"] for p in points if p["predict_ns"]]
    return {
        "kind": KIND,
        "quick": quick,
        "workload": {"n_objects": n_objects, "seed": seed},
        "footprint_bytes": footprint,
        "points": points,
        "mean_gap_closure": sum(closures) / len(closures),
        "min_gap_closure": min(closures),
        "mean_decision_ns": (
            sum(decision_ns) / len(decision_ns) if decision_ns else None
        ),
        "mean_predict_ns": (
            sum(predict_ns) / len(predict_ns) if predict_ns else None
        ),
        "fit_share": (
            sum(p["fit_seconds"] for p in points)
            / sum(p["simulate_seconds"] for p in points)
        ),
        "segment_parity": check_segment_parity(seed=seed),
    }


def check_segment_parity(*, seed: int = SEED) -> dict:
    """Replay every registry policy with segments on/off; compare stats.

    The learned policy's arrival must leave the nine incumbents
    bit-identical under segmented replay — and the learned policy itself
    (which declines ``can_batch_hits``) trivially so.  Uses a small trace
    so both bench modes can afford the double replay.
    """
    trace = generate_trace(WorkloadConfig(n_objects=2_000, seed=seed))
    cap = int(0.05 * trace.catalog["size"].sum())
    equal: dict[str, bool] = {}
    for name in sorted(POLICY_REGISTRY):
        seg = simulate(trace, make_policy(name, cap, trace), use_segments=True)
        loop = simulate(trace, make_policy(name, cap, trace), use_segments=False)
        equal[name] = seg.stats == loop.stats
    return {"policies": equal, "all_equal": all(equal.values())}


def format_report(report: dict) -> str:
    mode = "quick" if report["quick"] else "full"
    lines = [
        f"learned eviction vs LRU/Belady ({mode} mode, "
        f"{report['workload']['n_objects']:,} objects)",
        f"{'frac':>6} {'lru':>7} {'learned':>8} {'belady':>7} "
        f"{'closure':>8} {'dec ns':>8} {'sim s':>7} {'fit s':>7} "
        f"{'fit %':>6} {'ms/fit':>7}",
    ]
    for p in report["points"]:
        ns = p["mean_decision_ns"]
        ns_cell = f"{ns:>8.0f}" if ns is not None else f"{'-':>8}"
        ms = p["ms_per_fit"]
        ms_cell = f"{ms:>7.1f}" if ms is not None else f"{'-':>7}"
        lines.append(
            f"{p['fraction']:>6.4f} {p['lru_hit_rate']:>7.4f} "
            f"{p['learned_hit_rate']:>8.4f} {p['belady_hit_rate']:>7.4f} "
            f"{p['gap_closure']:>+8.3f} {ns_cell} "
            f"{p['simulate_seconds']:>7.2f} {p['fit_seconds']:>7.2f} "
            f"{100 * p['fit_share']:>6.1f} {ms_cell}"
        )
    lines.append(
        f"mean closure {report['mean_gap_closure']:+.3f} "
        f"(min {report['min_gap_closure']:+.3f})"
    )
    if report["mean_decision_ns"] is not None:
        lines.append(
            f"mean decision {report['mean_decision_ns']:.0f} ns per eviction "
            f"(information; refits are {100 * report['fit_share']:.0f} % "
            "of the learned replays)"
        )
    if report["mean_predict_ns"] is not None:
        lines.append(
            f"compiled prediction {report['mean_predict_ns']:.0f} ns"
        )
    parity = report["segment_parity"]
    lines.append(
        "segment parity: "
        + ("all equal" if parity["all_equal"] else "MISMATCH "
           + ", ".join(n for n, ok in parity["policies"].items() if not ok))
    )
    return "\n".join(lines)


def check_gates(report: dict, *, quick: bool | None = None) -> None:
    """Raise :class:`BenchError` on any failed floor or parity break."""
    if not report["segment_parity"]["all_equal"]:
        bad = [
            n for n, ok in report["segment_parity"]["policies"].items()
            if not ok
        ]
        raise BenchError(f"segmented replay diverged for: {', '.join(bad)}")
    quick = report["quick"] if quick is None else quick
    if quick:
        return
    if report["mean_gap_closure"] < MIN_MEAN_CLOSURE:
        raise BenchError(
            f"mean Belady-gap closure {report['mean_gap_closure']:.3f} "
            f"is below the {MIN_MEAN_CLOSURE:.2f} floor"
        )
    if (
        report["mean_predict_ns"] is not None
        and report["mean_predict_ns"] > MAX_PREDICT_NS
    ):
        raise BenchError(
            f"compiled prediction {report['mean_predict_ns']:.0f} ns is "
            f"out of the ns range (>{MAX_PREDICT_NS:.0f} ns) — the fast "
            "path is not being used"
        )


def write_report(report: dict, path: str) -> Path:
    out = Path(path)
    out.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    return out


def bench_learned_eviction(benchmark, capsys):
    """pytest-benchmark entry: quick-mode measurement + parity assertion."""
    from common import emit

    report = benchmark.pedantic(
        lambda: run_learned_eviction_bench(quick=True), rounds=1, iterations=1
    )
    check_gates(report)  # parity always; floors are full-mode only
    emit(capsys, "learned_eviction", format_report(report))


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(
        description="Belady-gap closure of the learned-eviction policy "
        "across the paper's capacity points."
    )
    ap.add_argument("--quick", action="store_true",
                    help="CI-sized trace; floors are reported, not gated")
    ap.add_argument("--objects", type=int, default=None,
                    help="override the trace object count")
    ap.add_argument("--seed", type=int, default=SEED)
    ap.add_argument("--output", default=str(DEFAULT_OUTPUT),
                    help=f"report path (default: {DEFAULT_OUTPUT})")
    args = ap.parse_args(argv)

    report = run_learned_eviction_bench(
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
