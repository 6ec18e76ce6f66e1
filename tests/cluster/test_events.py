"""Tests for mid-stream topology events (node failure / scale-out)."""

import numpy as np
import pytest

from repro.cache import LRUCache
from repro.cluster import (
    CacheNode,
    TwoTierCluster,
    simulate_cluster_with_events,
)
from repro.trace import WorkloadConfig, generate_trace


@pytest.fixture(scope="module")
def trace():
    return generate_trace(WorkloadConfig(n_objects=5000, days=2.0, seed=71))


def build(trace, n_oc=4):
    fp = trace.footprint_bytes
    nodes = {
        f"oc{i}": CacheNode(f"oc{i}", LRUCache(max(1, fp // 150)))
        for i in range(n_oc)
    }
    return TwoTierCluster(nodes, CacheNode("dc", LRUCache(max(1, fp // 20))))


class TestTopologyMethods:
    def test_remove_rebuilds_ring(self, trace):
        cluster = build(trace)
        removed = cluster.remove_node("oc2")
        assert removed.name == "oc2"
        assert "oc2" not in cluster.oc_nodes
        for key in range(200):
            assert cluster.ring.lookup(key) != "oc2"

    def test_cannot_remove_last(self, trace):
        cluster = build(trace, n_oc=1)
        with pytest.raises(ValueError):
            cluster.remove_node("oc0")

    def test_remove_unknown(self, trace):
        with pytest.raises(KeyError):
            build(trace).remove_node("nope")

    def test_add_node(self, trace):
        cluster = build(trace, n_oc=2)
        cluster.add_node(CacheNode("oc9", LRUCache(1000)))
        assert "oc9" in cluster.oc_nodes
        assert any(cluster.ring.lookup(k) == "oc9" for k in range(5000))

    def test_add_duplicate(self, trace):
        cluster = build(trace)
        with pytest.raises(ValueError):
            cluster.add_node(CacheNode("oc0", LRUCache(100)))


class TestStatsRetirement:
    """Kill/restart must never make cumulative cluster totals go backwards."""

    def test_remove_node_retires_stats(self, trace):
        cluster = build(trace)
        # Warm the tier so oc1 has non-zero counters, then kill it.
        for i, oid in enumerate(trace.object_ids[:2000].tolist()):
            name = cluster.ring.lookup(oid)
            cluster.oc_nodes[name].request(i, oid, 100)
        before = cluster.oc_tier_totals()
        victim_writes = cluster.oc_nodes["oc1"].stats.files_written
        assert victim_writes > 0
        cluster.remove_node("oc1")
        after = cluster.oc_tier_totals()
        assert after.files_written == before.files_written
        assert after.requests == before.requests
        assert cluster.retired_files_written == victim_writes

    def test_totals_monotone_across_kill_restart(self, trace):
        """Cumulative write totals sampled across a kill + cold restart
        must be non-decreasing at every step (the production invariant
        for fleet-wide telemetry)."""
        n = trace.n_accesses
        cluster = build(trace)
        samples = []

        def sample(c):
            samples.append(
                c.oc_tier_totals().files_written + c.dc.stats.files_written
            )

        fp = trace.footprint_bytes
        events = [
            (n // 4, sample),
            (n // 3, lambda c: c.remove_node("oc1")),
            (n // 3, sample),
            (n // 2, sample),
            (2 * n // 3, lambda c: c.add_node(
                CacheNode("oc1", LRUCache(max(1, fp // 150)))
            )),
            (2 * n // 3, sample),
            (5 * n // 6, sample),
        ]
        result, _ = simulate_cluster_with_events(trace, cluster, events)
        sample(cluster)
        assert samples == sorted(samples)
        # The final result also counts the retired node's history.
        assert result.retired_files_written > 0
        assert result.total_ssd_writes == samples[-1]

    def test_reset_clears_retired(self, trace):
        cluster = build(trace)
        for i, oid in enumerate(trace.object_ids[:500].tolist()):
            name = cluster.ring.lookup(oid)
            cluster.oc_nodes[name].request(i, oid, 100)
        cluster.remove_node("oc0")
        assert cluster.retired_files_written > 0
        cluster.reset()
        assert cluster.retired_files_written == 0
        assert cluster.oc_tier_totals().requests == 0


class TestEventSimulation:
    def test_node_failure_dips_then_recovers(self, trace):
        """Compare against a no-failure run of the *same* trace: diurnal
        hit-rate swings are common-mode and cancel out."""
        n = trace.n_accesses
        fail_at = n // 2
        window = max(200, n // 20)
        _, healthy = simulate_cluster_with_events(
            trace, build(trace), [], window_size=window
        )
        result, failed = simulate_cluster_with_events(
            trace,
            build(trace),
            [(fail_at, lambda c: c.remove_node("oc1"))],
            window_size=window,
        )
        fail_w = fail_at // window
        # Identical before the event …
        np.testing.assert_allclose(failed[:fail_w], healthy[:fail_w])
        # … a real dip right after (remapped objects all re-miss) …
        dip = healthy[fail_w] - failed[fail_w]
        assert dip > 0.01
        # … then the system settles at the permanent capacity penalty of
        # running one node short: strictly worse than healthy, but bounded
        # (no collapse — survivors absorbed the remapped shard).
        post = healthy[fail_w:] - failed[fail_w:]
        assert np.nanmean(post) > 0.0
        assert np.nanmax(post) < 0.15

    def test_failure_survivors_absorb_traffic(self, trace):
        n = trace.n_accesses
        result, _ = simulate_cluster_with_events(
            trace,
            build(trace),
            [(n // 3, lambda c: c.remove_node("oc0"))],
        )
        # All requests still served, accounting intact.
        assert (
            result.oc_hits + result.dc_hits + result.backend_reads
            == result.requests
        )
        assert sum(result.per_node_requests.values()) == result.requests
        # The failed node stops receiving traffic after the event.
        assert result.per_node_requests["oc0"] <= n // 3 + 1

    def test_scale_out_mid_stream(self, trace):
        n = trace.n_accesses
        result, _ = simulate_cluster_with_events(
            trace,
            build(trace, n_oc=2),
            [(n // 2, lambda c: c.add_node(
                CacheNode("oc9", LRUCache(max(1, trace.footprint_bytes // 150)))
            ))],
        )
        assert result.per_node_requests.get("oc9", 0) > 0

    def test_invalid_inputs(self, trace):
        with pytest.raises(ValueError):
            simulate_cluster_with_events(trace, build(trace), [(-1, lambda c: None)])
        with pytest.raises(ValueError):
            simulate_cluster_with_events(trace, build(trace), [], window_size=0)
