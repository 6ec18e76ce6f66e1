"""Tests for mid-stream topology events (node failure / scale-out)."""

import numpy as np
import pytest

from repro.cache import LRUCache
from repro.cluster import (
    CacheNode,
    TwoTierCluster,
    simulate_cluster_with_events,
)
from repro.core.admission import OracleAdmission
from repro.core.labeling import one_time_labels
from repro.obs.registry import MetricsRegistry
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


class TestClusterFamilies:
    """``repro_cluster_*`` after ``TwoTierCluster.instrument``: a view of
    the stats of the nodes in service, whatever the topology does."""

    @staticmethod
    def assert_families_equal_live_stats(cluster, registry):
        live = {n.name: n.stats for n in (*cluster.oc_nodes.values(), cluster.dc)}

        def series(name):
            return {k: c.value for k, c in registry.get(name).children()}

        assert series("repro_cluster_requests_total") == {
            (name, result): count
            for name, stats in live.items()
            for result, count in (("hit", stats.hits), ("miss", stats.misses))
        }
        assert series("repro_cluster_ssd_writes_total") == {
            (name,): stats.files_written for name, stats in live.items()
        }
        assert series("repro_cluster_admissions_denied_total") == {
            (name,): stats.admissions_denied for name, stats in live.items()
        }

    def test_families_follow_node_stats_across_kill_and_restart(self, trace):
        n = trace.n_accesses
        fp = trace.footprint_bytes
        labels = one_time_labels(trace.object_ids, 2000)
        cluster = build(trace)
        for node in cluster.oc_nodes.values():
            node.admission = OracleAdmission(labels)
        registry = MetricsRegistry()
        cluster.instrument(registry)
        writes = registry.get("repro_cluster_ssd_writes_total")
        seen = {}

        def check(tag):
            def event(c):
                self.assert_families_equal_live_stats(c, registry)
                seen[tag] = {k[0]: ch.value for k, ch in writes.children()}
            return event

        events = [
            (n // 4, check("warm")),
            (n // 3, lambda c: c.remove_node("oc1")),
            (n // 3, check("killed")),
            (n // 2, lambda c: c.add_node(
                CacheNode("oc1", LRUCache(max(1, fp // 150)))
            )),
            (n // 2, check("restarted")),
            (n // 2, lambda c: c.add_node(
                CacheNode("oc7", LRUCache(max(1, fp // 150)))
            )),
            (3 * n // 4, check("scaled")),
        ]
        simulate_cluster_with_events(trace, cluster, events)
        check("end")(cluster)
        assert seen["warm"]["oc1"] > 0 and seen["warm"]["dc"] > 0
        assert any(
            n.stats.admissions_denied for n in cluster.oc_nodes.values()
        )
        # A removed node's series ends; a restarted one starts from 0 and a
        # node added later appears without re-instrumenting.  The
        # cumulative totals stay in oc_tier_totals() / retired_stats.
        assert "oc1" not in seen["killed"]
        assert seen["restarted"]["oc1"] == 0
        assert "oc7" not in seen["restarted"] and seen["scaled"]["oc7"] > 0
        assert cluster.retired_files_written >= seen["warm"]["oc1"]
        assert cluster.oc_tier_totals().files_written == (
            sum(v for name, v in seen["end"].items() if name != "dc")
            + cluster.retired_files_written
        )

    def test_exposition_lists_every_live_node(self, trace):
        cluster = build(trace, n_oc=2)
        registry = MetricsRegistry()
        cluster.instrument(registry)
        cluster.oc_nodes["oc0"].request(0, 1, 100)
        text = registry.render_prometheus()
        assert 'repro_cluster_requests_total{node="oc0",result="miss"} 1' in text
        assert 'repro_cluster_requests_total{node="dc",result="hit"} 0' in text
        assert 'repro_cluster_ssd_writes_total{node="oc0"} 1' in text
        assert 'repro_cluster_admissions_denied_total{node="oc1"} 0' in text


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
