#!/usr/bin/env python
"""Domain scenario 4 — response-time analysis (paper §5.3.5, Fig. 10).

Evaluates the Eq. 3–6 latency model on measured hit rates and explores its
sensitivity to device constants: how slow would classification have to be
before the proposal stops paying off?

Run:  python examples/latency_analysis.py
"""

from repro import WorkloadConfig, run_experiment
from repro.config import LatencyConstants
from repro.core.latency import LatencyModel


def main(n_objects: int = 25_000) -> None:
    trace_cfg = WorkloadConfig(n_objects=n_objects, seed=9)

    print("=== measured latency per policy (Fig. 10 style) ===")
    print(f"{'policy':8s} {'orig ms':>9s} {'prop ms':>9s} {'gain':>7s}")
    results = {}
    for policy in ("lru", "fifo", "s3lru", "arc", "lirs"):
        r = run_experiment(
            trace_cfg, policy=policy, capacity_fraction=0.01,
            include_belady=False, rng=0,
        )
        results[policy] = r
        print(f"{policy:8s} {1e3 * r.latency_original:9.3f} "
              f"{1e3 * r.latency_proposal:9.3f} "
              f"{100 * r.latency_improvement:6.1f}%")

    # --------------------------------------------------- sensitivity study
    print("\n=== how slow may classification get? (LRU) ===")
    r = results["lru"]
    h_orig, h_prop = r.original.hit_rate, r.proposal.hit_rate
    print(f"hit rates: original={h_orig:.3f} proposal={h_prop:.3f}")
    print(f"{'t_classify':>12s} {'improvement':>12s}")
    for t_classify in (0.4e-6, 4e-6, 40e-6, 400e-6, 1.2e-3):
        lm = LatencyModel(LatencyConstants(t_classify=t_classify))
        gain = (
            lm.average_latency(h_orig, classified=False)
            - lm.average_latency(h_prop, classified=True)
        ) / lm.average_latency(h_orig, classified=False)
        print(f"{1e6 * t_classify:10.1f}us {100 * gain:+11.2f}%")

    print("\n=== faster backends shrink the payoff ===")
    print(f"{'t_hddr':>10s} {'improvement':>12s}")
    for t_hddr in (10e-3, 3e-3, 1e-3, 0.3e-3):
        lm = LatencyModel(LatencyConstants(t_hddr=t_hddr))
        gain = lm.improvement(h_orig, h_prop)
        print(f"{1e3 * t_hddr:8.1f}ms {100 * gain:+11.2f}%")


if __name__ == "__main__":
    main()
