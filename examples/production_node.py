#!/usr/bin/env python
"""Domain scenario 8 — a production cache node, end to end.

Assembles the full stack a deployed server would run:

* DRAM LRU in front of an SSD-tier ARC cache (hierarchical node);
* the one-time-access-exclusion classifier on the *online* path
  (per-request feature construction, measured t_classify);
* the flash device model attached, so the run reports write
  amplification, wear and projected SSD lifetime.

Compares the node with and without the classification system.

Run:  python examples/production_node.py
"""

from repro.cache import LRUCache
from repro.cache.hierarchy import HierarchicalCache
from repro.core.admission import AlwaysAdmit
from repro.core.criteria import solve_criteria
from repro.core.features import PAPER_FEATURE_NAMES, extract_features
from repro.core.history_table import HistoryTable
from repro.core.labeling import one_time_labels, reaccess_distances
from repro.core.online import OnlineClassifierAdmission, OnlineFeatureTracker
from repro.core.training import paper_classifier
from repro.ssd import simulate_on_ssd
from repro.trace import WorkloadConfig, generate_trace


def build_node(ssd_capacity: int) -> HierarchicalCache:
    return HierarchicalCache.with_lru_dram(
        LRUCache(ssd_capacity), dram_fraction=0.05
    )


def main(n_objects: int = 15_000) -> None:
    trace = generate_trace(WorkloadConfig(n_objects=n_objects, seed=13))
    ssd_capacity = max(1, trace.footprint_bytes // 60)
    print(
        f"node: DRAM {0.05 * ssd_capacity / 2**20:.0f} MiB + "
        f"SSD {ssd_capacity / 2**20:.0f} MiB (LRU), "
        f"{trace.n_accesses:,} requests over 9 days"
    )

    # ---- train the admission classifier on day-1-style data
    distances = reaccess_distances(trace.object_ids)
    criteria = solve_criteria(distances, ssd_capacity, trace.mean_object_size())
    labels = one_time_labels(trace.object_ids, criteria.m_threshold)
    fm = extract_features(trace).select(PAPER_FEATURE_NAMES)
    day1 = trace.timestamps < 86400.0
    model = paper_classifier(cost_v=2.0, max_splits=30, seed=0).fit(
        fm.X[day1], labels[day1]
    )

    # ---- baseline node
    base = simulate_on_ssd(
        trace, build_node(ssd_capacity), admission=AlwaysAdmit(),
        policy_name="dram+lru",
    )
    print("\n=== without classification ===")
    print(base.summary())

    # ---- node with the online classification system
    table_cap = HistoryTable.paper_capacity(
        criteria.m_threshold, criteria.hit_rate, criteria.one_time_share
    )
    admission = OnlineClassifierAdmission(
        model,
        OnlineFeatureTracker(trace),
        criteria.m_threshold,
        HistoryTable(max(table_cap, 8)),
    )
    node = build_node(ssd_capacity)
    filtered = simulate_on_ssd(
        trace, node, admission=admission, policy_name="dram+lru+clf"
    )
    print("\n=== with online classification ===")
    print(filtered.summary())
    print(
        f"per-decision cost: {1e6 * admission.mean_decision_seconds:.1f} µs "
        f"over {admission.decisions:,} decisions "
        f"(denied {admission.denied:,}, rectified {admission.rectified_admits:,})"
    )
    print(
        f"DRAM absorbed {node.l1_hits:,} hits; SSD served {node.l2_hits:,}"
    )

    print(
        f"\nSSD lifetime: {base.lifetime.lifetime_days:,.0f} → "
        f"{filtered.lifetime.lifetime_days:,.0f} days "
        f"({filtered.lifetime.ratio_vs(base.lifetime):.2f}×)"
    )
    print(
        f"total hit rate: {base.simulation.hit_rate:.3f} → "
        f"{filtered.simulation.hit_rate:.3f}"
    )


if __name__ == "__main__":
    main()
