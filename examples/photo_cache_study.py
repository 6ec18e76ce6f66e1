#!/usr/bin/env python
"""Domain scenario 1 — a Tencent-style photo-cache capacity study.

Reproduces the paper's §2 analysis workflow on a synthetic 9-day trace:

1. trace statistics (the §2.2 one-time-access numbers);
2. the Fig.-3 photo-type request histogram;
3. a Fig.-2-style capacity sweep across replacement policies, showing the
   inflection point X and the shrinking Belady gap;
4. the one-time-access-exclusion payoff for LRU at two capacities.

Run:  python examples/photo_cache_study.py [--objects N]
"""

import argparse

from repro import WorkloadConfig, run_experiment
from repro.cache import make_policy, simulate
from repro.config import paper_capacity_fractions, paper_equivalent_bytes
from repro.trace import compute_stats, generate_trace
from repro.trace.stats import type_request_histogram


def main(n_objects: int = 60_000, seed: int = 7) -> None:
    print("=== generating 9-day QQPhoto-like trace ===")
    trace = generate_trace(WorkloadConfig(n_objects=n_objects, seed=seed))
    stats = compute_stats(trace)
    print(stats.summary())

    print("\n=== photo-type request shares (paper Fig. 3) ===")
    hist = type_request_histogram(trace)
    for name, share in sorted(hist.items(), key=lambda kv: -kv[1]):
        print(f"  {name}: {100 * share:5.1f}%  {'#' * int(80 * share)}")

    print("\n=== capacity sweep (paper Fig. 2) ===")
    fracs = paper_capacity_fractions()[::3]  # 2, 8, 14, 20 GB equivalents
    footprint = trace.footprint_bytes
    header = "policy   " + "".join(
        f"{paper_equivalent_bytes(f, footprint).paper_gb:>8.0f}GB" for f in fracs
    )
    print(header)
    for policy in ("lru", "s3lru", "arc", "lirs", "belady"):
        rates = []
        for f in fracs:
            cap = paper_equivalent_bytes(f, footprint).bytes
            rates.append(simulate(trace, make_policy(policy, cap, trace)).hit_rate)
        print(f"{policy:8s}" + "".join(f"{r:10.3f}" for r in rates))

    print("\n=== one-time-access exclusion for LRU ===")
    for f in (fracs[0], fracs[-1]):
        result = run_experiment(trace, policy="lru", capacity_fraction=f)
        print()
        print(result.summary())


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--objects", type=int, default=60_000)
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args()
    main(args.objects, args.seed)
