"""The two-tier request flow: client → OC shard → DC → backend (§2.1).

The OC tier is a set of cache servers sharded by consistent hashing (each
photo has one home OC node, as in a CDN edge); the DC tier is one larger
cache in the datacenter; misses there read the backend store.  The paper's
classification system can be attached to either tier (or both) — the OC
deployment is what its evaluation models.

Outputs per tier: hit rates, inter-tier traffic (the DC's purpose is
"reduc[ing] the traffic burden of the backend"), per-node balance, and an
end-to-end latency that extends Eqs. 3–6 with network hops.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.cache.base import CacheStats
from repro.cluster.hashing import ConsistentHashRing
from repro.cluster.node import CacheNode
from repro.config import DEFAULT_LATENCY, LatencyConstants
from repro.trace.records import Trace

__all__ = [
    "ClusterLatency",
    "ClusterResult",
    "TwoTierCluster",
    "simulate_cluster",
    "simulate_cluster_with_events",
]


@dataclass(frozen=True)
class ClusterLatency:
    """Service times for the two-tier flow (seconds).

    ``device`` supplies the paper's Eq. 3–6 constants; the two network
    terms model the OC→DC and DC→backend hops of Fig. 1.
    """

    device: LatencyConstants = DEFAULT_LATENCY
    t_oc_dc: float = 2e-3        # metro round trip
    t_dc_backend: float = 0.5e-3 # intra-datacenter round trip

    def __post_init__(self) -> None:
        if self.t_oc_dc < 0 or self.t_dc_backend < 0:
            raise ValueError("network latencies must be non-negative")

    def oc_hit(self) -> float:
        return self.device.t_query + self.device.t_ssdr

    def dc_hit(self, *, classified_oc: bool) -> float:
        t = self.oc_hit() + self.t_oc_dc + self.device.t_query
        if classified_oc:
            t += self.device.t_classify
        return t

    def backend_read(self, *, classified_oc: bool, classified_dc: bool) -> float:
        t = (
            self.dc_hit(classified_oc=classified_oc)
            - self.device.t_ssdr  # DC missed: no SSD read there
            + self.t_dc_backend
            + self.device.t_hddr
        )
        if classified_dc:
            t += self.device.t_classify
        return t


@dataclass
class ClusterResult:
    """Aggregate outcome of one cluster simulation."""

    oc_nodes: dict[str, CacheNode]
    dc: CacheNode
    requests: int
    oc_hits: int
    dc_hits: int
    backend_reads: int
    bytes_total: int
    bytes_to_dc: int
    bytes_to_backend: int
    mean_latency: float
    per_node_requests: dict[str, int] = field(default_factory=dict)
    #: SSD writes performed by OC nodes removed mid-run (kill/decommission).
    #: Without this, a node's writes would vanish from the cluster totals
    #: the moment it leaves the ring — totals must stay monotone.
    retired_files_written: int = 0

    @property
    def oc_hit_rate(self) -> float:
        return self.oc_hits / self.requests if self.requests else 0.0

    @property
    def dc_hit_rate(self) -> float:
        """DC hits over DC-tier requests (i.e. OC misses)."""
        dc_requests = self.requests - self.oc_hits
        return self.dc_hits / dc_requests if dc_requests else 0.0

    @property
    def overall_hit_rate(self) -> float:
        return (self.oc_hits + self.dc_hits) / self.requests if self.requests else 0.0

    @property
    def backend_traffic_fraction(self) -> float:
        """Share of requested bytes that reach the backend store."""
        return self.bytes_to_backend / self.bytes_total if self.bytes_total else 0.0

    @property
    def load_imbalance(self) -> float:
        """max/mean requests per OC node (1.0 = perfectly balanced)."""
        counts = np.array(list(self.per_node_requests.values()), dtype=float)
        if counts.size == 0 or counts.mean() == 0:
            return 1.0
        return float(counts.max() / counts.mean())

    @property
    def total_ssd_writes(self) -> int:
        return (
            self.dc.stats.files_written
            + self.retired_files_written
            + sum(n.stats.files_written for n in self.oc_nodes.values())
        )

    def summary(self) -> str:
        return (
            f"requests={self.requests:,}  "
            f"OC hit={self.oc_hit_rate:.3f}  DC hit={self.dc_hit_rate:.3f}  "
            f"overall={self.overall_hit_rate:.3f}\n"
            f"traffic: client→OC 100%  OC→DC "
            f"{100 * self.bytes_to_dc / max(self.bytes_total, 1):.1f}%  "
            f"DC→backend {100 * self.backend_traffic_fraction:.1f}%\n"
            f"SSD writes (all nodes): {self.total_ssd_writes:,}  "
            f"OC load imbalance: {self.load_imbalance:.2f}  "
            f"mean latency: {1e3 * self.mean_latency:.3f} ms"
        )


class TwoTierCluster:
    """OC shard ring + DC cache + backend (Fig. 1's download path).

    Parameters
    ----------
    oc_nodes:
        Mapping of node name → :class:`CacheNode` for the OC tier.
    dc:
        The datacenter cache node.
    replicas:
        Virtual nodes for the consistent-hash ring.
    latency:
        Timing model for the three outcomes.
    """

    def __init__(
        self,
        oc_nodes: dict[str, CacheNode],
        dc: CacheNode,
        *,
        replicas: int = 64,
        latency: ClusterLatency | None = None,
    ):
        if not oc_nodes:
            raise ValueError("need at least one OC node")
        self.oc_nodes = dict(oc_nodes)
        self.dc = dc
        self.ring = ConsistentHashRing(self.oc_nodes, replicas=replicas)
        self.latency = latency or ClusterLatency()
        # Counters of nodes taken out of service: removal must never make
        # cumulative cluster totals go backwards, so the departing node's
        # stats object is parked here (the node itself keeps a reference —
        # always build a *fresh* CacheNode when re-adding under a name).
        self.retired_stats: list[CacheStats] = []

    def instrument(self, registry) -> None:
        """Expose the live nodes' :attr:`CacheNode.stats` (OC tier + DC, by
        node name) as derived ``repro_cluster_*`` families: a node added later
        appears by itself, a removed one's series ends, a restarted one starts
        from 0 — cumulative totals are :meth:`oc_tier_totals`."""

        def per_node(*fields):
            return lambda: [
                ((n.name, *label), getattr(n.stats, field))
                for n in (*self.oc_nodes.values(), self.dc)
                for field, *label in fields
            ]

        registry.counter(
            "repro_cluster_requests_total", "Cluster-node requests by node and result.",
            ("node", "result"), read=per_node(("hits", "hit"), ("misses", "miss")),
        )
        registry.counter(
            "repro_cluster_ssd_writes_total", "Cluster-node cache insertions (SSD writes) by node.",
            ("node",), read=per_node(("files_written",)),
        )
        registry.counter(
            "repro_cluster_admissions_denied_total", "Cluster-node admission denials by node.",
            ("node",), read=per_node(("admissions_denied",)),
        )

    def attach_ledger(self, ledger) -> None:
        """Route every node's write provenance into one ``WriteLedger``.

        Covers the OC tier and the DC; nodes added later must be bound by
        the caller (the scenario engine does, carrying the node's current
        model label and restart position).  The ledger is cluster-global
        and monotone: a removed node's recorded writes stay accounted, so
        per-cause totals always sum to the cumulative cluster write count
        (``oc_tier_totals().files_written + dc.stats.files_written``, i.e.
        :attr:`ClusterResult.total_ssd_writes` including retired stats).
        """
        for node in self.oc_nodes.values():
            node.bind_ledger(ledger)
        self.dc.bind_ledger(ledger)

    def reset(self) -> None:
        for node in self.oc_nodes.values():
            node.reset()
        self.dc.reset()
        self.retired_stats.clear()

    @property
    def retired_files_written(self) -> int:
        """SSD writes performed by OC nodes since removed from the ring."""
        return sum(s.files_written for s in self.retired_stats)

    def oc_tier_totals(self) -> CacheStats:
        """Cumulative OC-tier counters, *including* removed nodes.

        The live-node sum alone is not monotone across a kill — the dead
        node's history must keep counting toward cluster totals, exactly
        as a production fleet's cumulative telemetry would.
        """
        total = CacheStats()
        for stats in (*(n.stats for n in self.oc_nodes.values()), *self.retired_stats):
            total += stats
        return total

    def remove_node(self, name: str) -> CacheNode:
        """Take an OC node out of service (failure / decommission).

        The ring is rebuilt from the survivors; consistent hashing
        guarantees only the removed node's keys are remapped.  The node's
        cached contents are lost to the tier (its objects will re-miss),
        but its counters are retired into :attr:`retired_stats` so
        cumulative cluster totals stay monotone and consistent.
        """
        if name not in self.oc_nodes:
            raise KeyError(f"unknown node {name!r}")
        if len(self.oc_nodes) == 1:
            raise ValueError("cannot remove the last OC node")
        node = self.oc_nodes.pop(name)
        self.retired_stats.append(node.stats)
        self.ring = ConsistentHashRing(self.oc_nodes, replicas=self.ring.replicas)
        return node

    def add_node(self, node: CacheNode) -> None:
        """Bring a new (cold) OC node into service."""
        if node.name in self.oc_nodes:
            raise ValueError(f"node {node.name!r} already present")
        self.oc_nodes[node.name] = node
        self.ring = ConsistentHashRing(self.oc_nodes, replicas=self.ring.replicas)


def simulate_cluster_with_events(
    trace: Trace,
    cluster: TwoTierCluster,
    events,
    *,
    window_size: int = 5000,
) -> tuple[ClusterResult, np.ndarray]:
    """Replay a trace while topology events fire mid-stream.

    ``events`` is a list of ``(request_index, fn)`` pairs; each ``fn`` is
    called with the cluster just before the request at that index is
    served (e.g. ``lambda c: c.remove_node("oc2")``).  Returns the final
    :class:`ClusterResult` plus a per-window OC hit-rate series so the
    disruption and recovery are visible.
    """
    events = sorted(events, key=lambda e: e[0])
    for index, _ in events:
        if index < 0:
            raise ValueError("event indices must be non-negative")
    if window_size < 1:
        raise ValueError("window_size must be >= 1")

    lat = cluster.latency
    dc = cluster.dc
    oc_nodes = cluster.oc_nodes

    oids = trace.object_ids
    sizes = trace.catalog["size"][oids]
    oid_list = oids.tolist()
    size_list = sizes.tolist()
    n = len(oid_list)

    object_home: dict[int, str] = {}
    oc_hits = dc_hits = backend_reads = 0
    bytes_to_dc = bytes_to_backend = 0
    latency_sum = 0.0
    per_node_requests: dict[str, int] = {name: 0 for name in oc_nodes}
    # Plain int lists: a per-request NumPy scalar increment costs ~4× more.
    window_hits = [0] * -(-n // window_size)
    window_reqs = [0] * len(window_hits)

    classified_oc = any(nd.admission is not None for nd in oc_nodes.values())
    t_oc_hit = lat.oc_hit()
    t_dc_hit = lat.dc_hit(classified_oc=classified_oc)
    t_backend = lat.backend_read(
        classified_oc=classified_oc, classified_dc=dc.admission is not None
    )

    next_event = 0
    for i, oid in enumerate(oid_list):
        while next_event < len(events) and events[next_event][0] == i:
            events[next_event][1](cluster)
            object_home.clear()  # topology changed: re-resolve homes
            oc_nodes = cluster.oc_nodes
            for name in oc_nodes:
                per_node_requests.setdefault(name, 0)
            next_event += 1

        size = size_list[i]
        home = object_home.get(oid)
        if home is None:
            home = object_home[oid] = cluster.ring.lookup(oid)
        node = oc_nodes[home]
        per_node_requests[home] += 1
        w = i // window_size
        window_reqs[w] += 1

        if node.request(i, oid, size):
            oc_hits += 1
            window_hits[w] += 1
            latency_sum += t_oc_hit
            continue
        bytes_to_dc += size
        if dc.request(i, oid, size):
            dc_hits += 1
            latency_sum += t_dc_hit
            continue
        backend_reads += 1
        bytes_to_backend += size
        latency_sum += t_backend

    result = ClusterResult(
        oc_nodes=dict(oc_nodes),
        dc=dc,
        requests=n,
        oc_hits=oc_hits,
        dc_hits=dc_hits,
        backend_reads=backend_reads,
        bytes_total=int(sizes.sum()),
        bytes_to_dc=bytes_to_dc,
        bytes_to_backend=bytes_to_backend,
        mean_latency=latency_sum / n if n else 0.0,
        per_node_requests=per_node_requests,
        retired_files_written=cluster.retired_files_written,
    )
    series = np.array(
        [h / r if r else np.nan for h, r in zip(window_hits, window_reqs)]
    )
    return result, series


def simulate_cluster(trace: Trace, cluster: TwoTierCluster) -> ClusterResult:
    """Replay a trace through the two-tier cluster (counters reset first)."""
    cluster.reset()
    return simulate_cluster_with_events(trace, cluster, ())[0]
