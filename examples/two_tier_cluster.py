#!/usr/bin/env python
"""Domain scenario 6 — the §2.1 two-tier photo caching architecture.

Simulates Fig. 1's download path: requests land on consistent-hash-sharded
Outside Cache (OC) nodes; misses fall through to the Datacenter Cache (DC)
and finally the backend photo store.  Compares the fleet with and without
the one-time-access-exclusion classifier at the OC tier, and sweeps the OC
node count to show shard-balance effects.

Run:  python examples/two_tier_cluster.py
"""

from repro.cache import LRUCache
from repro.cluster import CacheNode, TwoTierCluster, simulate_cluster
from repro.core.admission import ClassifierAdmission
from repro.core.criteria import solve_criteria
from repro.core.features import extract_features
from repro.core.labeling import one_time_labels, reaccess_distances
from repro.core.training import train_daily_classifier
from repro.trace import WorkloadConfig, generate_trace

N_OC = 4


def build_cluster(trace, oc_capacity, dc_capacity, admission_factory=None):
    nodes = {
        f"oc{i}": CacheNode(
            f"oc{i}",
            LRUCache(oc_capacity),
            admission=admission_factory() if admission_factory else None,
        )
        for i in range(N_OC)
    }
    return TwoTierCluster(nodes, CacheNode("dc", LRUCache(dc_capacity)))


def main(n_objects: int = 25_000) -> None:
    trace = generate_trace(WorkloadConfig(n_objects=n_objects, seed=3))
    fp = trace.footprint_bytes
    oc_capacity = max(1, fp // 200)   # each OC node: 0.5 % of footprint
    dc_capacity = max(1, fp // 25)    # DC: 4 % of footprint

    print(f"trace: {trace.n_accesses:,} requests, footprint {fp / 2**30:.2f} GiB")
    print(f"{N_OC} OC nodes × {oc_capacity / 2**20:.0f} MiB + "
          f"DC {dc_capacity / 2**20:.0f} MiB\n")

    print("=== traditional cluster (admit everything) ===")
    plain = simulate_cluster(trace, build_cluster(trace, oc_capacity, dc_capacity))
    print(plain.summary())

    # One classifier serves the whole OC tier (trained centrally at 05:00).
    # The criterion is solved at *tier* capacity: each node holds 1/k of the
    # space but also sees only 1/k of the stream, so the tier behaves like
    # one cache of the aggregate size.
    distances = reaccess_distances(trace.object_ids)
    criteria = solve_criteria(
        distances, N_OC * oc_capacity, trace.mean_object_size()
    )
    labels = one_time_labels(trace.object_ids, criteria.m_threshold)
    training = train_daily_classifier(trace, extract_features(trace), labels, rng=0)

    print("\n=== classifier at the OC tier ===")
    filtered = simulate_cluster(
        trace,
        build_cluster(
            trace,
            oc_capacity,
            dc_capacity,
            lambda: ClassifierAdmission.from_criteria(
                training.predictions, criteria
            ),
        ),
    )
    print(filtered.summary())

    saved = 1 - filtered.total_ssd_writes / plain.total_ssd_writes
    print(f"\nfleet-wide SSD writes avoided: {100 * saved:.1f}%")
    print(f"OC hit rate: {plain.oc_hit_rate:.3f} → {filtered.oc_hit_rate:.3f}")
    print(f"mean latency: {1e3 * plain.mean_latency:.3f} → "
          f"{1e3 * filtered.mean_latency:.3f} ms")

    print("\n=== node failure at mid-trace (consistent hashing at work) ===")
    from repro.cluster import simulate_cluster_with_events

    fail_at = trace.n_accesses // 2
    window = max(500, trace.n_accesses // 18)
    _, healthy = simulate_cluster_with_events(
        trace, build_cluster(trace, oc_capacity, dc_capacity), [],
        window_size=window,
    )
    result, series = simulate_cluster_with_events(
        trace,
        build_cluster(trace, oc_capacity, dc_capacity),
        [(fail_at, lambda c: c.remove_node("oc1"))],
        window_size=window,
    )
    print("window  healthy  with-failure")
    for w, (h, f) in enumerate(zip(healthy, series)):
        marker = "  ← oc1 fails" if w == fail_at // window else ""
        print(f"  {w:4d} {h:8.3f} {f:13.3f}{marker}")
    print(f"only oc1's shard re-missed: "
          f"{result.per_node_requests.get('oc1', 0):,} requests reached oc1 "
          f"(pre-failure traffic only)")

    print("\n=== shard balance vs OC node count ===")
    print(f"{'nodes':>6s} {'imbalance':>10s} {'OC hit':>8s}")
    for n in (2, 4, 8, 16):
        nodes = {
            f"oc{i}": CacheNode(f"oc{i}", LRUCache(max(1, 4 * oc_capacity // n)))
            for i in range(n)
        }
        cluster = TwoTierCluster(nodes, CacheNode("dc", LRUCache(dc_capacity)))
        r = simulate_cluster(trace, cluster)
        print(f"{n:6d} {r.load_imbalance:10.2f} {r.oc_hit_rate:8.3f}")


if __name__ == "__main__":
    main()
