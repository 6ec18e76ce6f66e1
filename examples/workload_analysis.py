#!/usr/bin/env python
"""Domain scenario 7 — characterising a photo workload before tuning it.

Uses the analysis toolkit the way the paper's §2 uses its production trace:
check Zipf-likeness of popularity, derive the LRU hit-rate curve
analytically from stack distances (no simulation), inspect reuse intervals,
and plot (textually) the diurnal one-time-share cycle that schedules
retraining.

Run:  python examples/workload_analysis.py
"""

import numpy as np

from repro.trace import (
    WorkloadConfig,
    compute_stats,
    generate_trace,
    one_time_share_by_hour,
    popularity_zipf_fit,
    reuse_interval_stats,
    stack_distance_profile,
)


def main(n_objects: int = 30_000) -> None:
    trace = generate_trace(WorkloadConfig(n_objects=n_objects, seed=2))
    print(compute_stats(trace).summary())

    print("\n=== popularity (paper cites Breslau et al.: Zipf-like) ===")
    fit = popularity_zipf_fit(trace, min_rank=5)
    print(f"Zipf exponent α = {fit.exponent:.2f}  (R² = {fit.r_squared:.3f}, "
          f"zipf-like: {fit.is_zipf_like})")
    print(f"top 1% of photos draw {100 * fit.top_1pct_share:.1f}% of requests")

    print("\n=== analytic LRU hit-rate curve (Mattson stack distances) ===")
    # 1/300 of the catalog up to all of it (100 … 30,000 objects by default).
    caps = n_objects * np.array([1, 5, 20, 80, 300]) // 300
    profile = stack_distance_profile(trace, caps)
    print(f"{'objects':>9s} {'hit rate':>9s}")
    for cap, h in zip(caps, profile):
        print(f"{cap:9,d} {h:9.3f}")

    print("\n=== reuse intervals (why small caches work) ===")
    ri = reuse_interval_stats(trace)
    print(f"median gap: {ri.median_seconds / 3600:.1f} h   "
          f"p90: {ri.p90_seconds / 3600:.1f} h")
    print(f"re-accesses within an hour: {100 * ri.within_hour_fraction:.0f}%  "
          f"within a day: {100 * ri.within_day_fraction:.0f}%")

    print("\n=== one-time share by hour (schedules the 05:00 retrain) ===")
    share = one_time_share_by_hour(trace)
    peak = int(np.argmax(share))
    trough = int(np.argmin(share))
    for h in range(24):
        bar = "#" * int(80 * share[h])
        marker = " ←p max" if h == peak else (" ←p min" if h == trough else "")
        print(f"  {h:02d}:00 {share[h]:.3f} {bar}{marker}")


if __name__ == "__main__":
    main()
