"""Two-tier distributed photo cache — the §2.1 Tencent architecture.

Figure 1 of the paper: download requests hit an **Outside Cache** layer
(OC — many user-facing cache servers), whose misses fall through to a
**Datacenter Cache** (DC) in front of the backend photo store.  Both
tiers run SSD caches, and the classification system deploys at either.

* :mod:`repro.cluster.hashing` — deterministic consistent-hash ring for
  sharding objects across OC nodes;
* :mod:`repro.cluster.node` — one cache server (policy + optional
  admission filter + counters);
* :mod:`repro.cluster.cluster` — the two-tier request flow, per-tier hit
  rates, inter-tier traffic, and the latency model extended with network
  hops.

The fault-injecting scenario orchestrator on top of this package lives in
:mod:`repro.scenario`.
"""

from repro.cluster.hashing import ConsistentHashRing, stable_hash
from repro.cluster.node import CacheNode
from repro.cluster.cluster import (
    ClusterLatency,
    ClusterResult,
    TwoTierCluster,
    simulate_cluster,
    simulate_cluster_with_events,
)

__all__ = [
    "ConsistentHashRing",
    "stable_hash",
    "CacheNode",
    "ClusterLatency",
    "ClusterResult",
    "TwoTierCluster",
    "simulate_cluster",
    "simulate_cluster_with_events",
]
