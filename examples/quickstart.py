#!/usr/bin/env python
"""Quickstart: the one-time-access-exclusion cache in ~20 lines.

Generates a small QQPhoto-like workload, runs the four configurations the
paper compares (Original, Proposal, Ideal, Belady) for an LRU cache at 1 %
of the trace footprint, and prints the headline numbers.

Run:  python examples/quickstart.py
"""

from repro import WorkloadConfig, run_experiment


def main(n_objects: int = 20_000) -> None:
    workload = WorkloadConfig(n_objects=n_objects, seed=42)
    result = run_experiment(workload, policy="lru", capacity_fraction=0.01)

    print(result.summary())
    print()
    clf = result.training.overall
    print(
        f"classifier (daily-retrained CART): "
        f"precision={clf['precision']:.3f} recall={clf['recall']:.3f} "
        f"accuracy={clf['accuracy']:.3f}"
    )
    print(
        f"SSD writes avoided: {100 * result.write_reduction:.1f}% of files, "
        f"{100 * result.byte_write_reduction:.1f}% of bytes"
    )
    print(f"hit-rate gain: {100 * result.hit_rate_gain:+.1f} pp")
    print(f"latency: {100 * result.latency_improvement:+.1f}%")


if __name__ == "__main__":
    main()
