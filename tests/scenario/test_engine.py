"""Tests for the scenario replay engine: determinism, baseline equality,
replication accounting and the oracle comparator."""

import json

import pytest

from repro.cache import LRUCache
from repro.cluster import CacheNode, TwoTierCluster, simulate_cluster
from repro.scenario import (
    EventSpec,
    ScenarioSpec,
    format_report,
    reference_scenario,
    run_scenario,
)
from repro.scenario.oracle import node_capacity_bytes
from repro.trace import WorkloadConfig, generate_trace

REQUESTS = 8_000


@pytest.fixture(scope="module")
def trace():
    return generate_trace(WorkloadConfig(n_objects=3000, days=2.0, seed=9))


@pytest.fixture(scope="module")
def reference_report(trace):
    return run_scenario(reference_scenario(REQUESTS, seed=0), trace)


def dump(report):
    return json.dumps(report.to_dict(), sort_keys=True)


class TestDeterminism:
    def test_same_seed_is_bit_identical(self, trace, reference_report):
        again = run_scenario(reference_scenario(REQUESTS, seed=0), trace)
        assert dump(again) == dump(reference_report)

    def test_different_seed_differs(self, trace, reference_report):
        other = run_scenario(reference_scenario(REQUESTS, seed=1), trace)
        assert dump(other) != dump(reference_report)


class TestBaselineEquality:
    def test_pristine_phases_match_failure_free_run(self, reference_report):
        assert reference_report.baseline_checked
        assert reference_report.baseline_equal

    def test_pristine_flag_tracks_first_fault(self, reference_report):
        phases = reference_report.phases
        assert phases[0].pristine
        assert not phases[-1].pristine
        # Pristine is a prefix property: once lost, never regained.
        flags = [p.pristine for p in phases]
        assert flags == sorted(flags, reverse=True)

    def test_skippable(self, trace):
        report = run_scenario(
            reference_scenario(REQUESTS, seed=0),
            trace,
            with_baseline=False,
            with_oracle=False,
        )
        assert not report.baseline_checked
        assert report.phases[0].oracle_hit_rate is None


class TestPinnedReport:
    def test_every_phase_counter_is_unchanged(self, reference_report):
        # Recorded at dff9871 (the same under OPENBLAS_NUM_THREADS=1 and
        # =2).  The replay is seeded, so a moved counter is a behaviour
        # change in routing, admission, failover or the fault timeline.
        assert [
            (p.requests, p.oc_hits, p.dc_hits, p.primary_writes,
             p.replica_writes, p.dc_writes, p.admissions_denied)
            for p in reference_report.phases
        ] == [
            (1600, 405, 375, 664, 670, 820, 1058),
            (1600, 754, 340, 472, 483, 506, 759),
            (1600, 437, 371, 658, 659, 792, 1006),
            (800, 136, 203, 424, 425, 461, 483),
            (1200, 252, 263, 558, 559, 685, 779),
            (800, 211, 154, 367, 369, 435, 439),
            (1200, 377, 108, 322, 314, 715, 1005),
        ]


class TestPhaseAccounting:
    def test_phases_partition_the_merged_trace(self, reference_report):
        phases = reference_report.phases
        assert phases[0].start == 0
        assert phases[-1].end == reference_report.merged_requests
        for a, b in zip(phases, phases[1:]):
            assert a.end == b.start
        assert (
            sum(p.requests for p in phases)
            == reference_report.merged_requests
            == reference_report.base_requests
            + reference_report.injected_requests
        )

    def test_request_flow_conserved_per_phase(self, reference_report):
        for p in reference_report.phases:
            assert p.oc_hits + p.dc_hits + p.backend_reads == p.requests
            assert p.bytes_hit <= p.bytes_requested

    def test_events_applied_enumeration(self, reference_report):
        applied = reference_report.events_applied
        kinds = [a.split(":")[0].split("@")[0] for a in applied]
        assert kinds.count("kill") == 1
        assert kinds.count("restart") == 1
        assert kinds.count("deploy") == 4   # staggered across 4 nodes
        assert kinds.count("hot_key_flood") == 1

    def test_fault_phases_are_tagged(self, reference_report):
        tags = [t for p in reference_report.phases for t in p.active]
        assert any("oc1 down" in t for t in tags)
        assert any(t.startswith("hot_key_flood") for t in tags)
        assert any(t.startswith("rolling_deploy") for t in tags)
        assert any(p.steady for p in reference_report.phases)

    def test_format_report_renders(self, reference_report):
        text = format_report(reference_report)
        assert "exact match" in text
        assert "oc1 down" in text
        assert "p999ms" in text


class TestUnreplicatedEquivalence:
    def test_matches_simulate_cluster_exactly(self, trace):
        """replication=1, no events: the engine is simulate_cluster with
        phase bookkeeping — every counter must agree exactly."""
        spec = ScenarioSpec(nodes=3, requests=trace.n_accesses)
        report = run_scenario(spec, trace, with_oracle=False)
        assert report.baseline_equal
        assert len(report.phases) == 1
        (p,) = report.phases

        node_cap = node_capacity_bytes(spec, trace)
        dc_cap = max(
            1, int(spec.dc_capacity_fraction * trace.footprint_bytes)
        )
        cluster = TwoTierCluster(
            {f"oc{i}": CacheNode(f"oc{i}", LRUCache(node_cap))
             for i in range(3)},
            CacheNode("dc", LRUCache(dc_cap)),
        )
        result = simulate_cluster(trace, cluster)
        assert p.requests == result.requests
        assert p.oc_hits == result.oc_hits
        assert p.dc_hits == result.dc_hits
        assert p.backend_reads == result.backend_reads
        assert p.replica_writes == 0
        assert p.primary_writes == sum(
            n.stats.files_written for n in cluster.oc_nodes.values()
        )
        assert p.dc_writes == cluster.dc.stats.files_written


class TestReplication:
    def test_replication_moves_only_write_counters_per_request(self, trace):
        """Replica copies arrive via fill(): request counters stay a
        partition of the traffic, and the write-through shows up only in
        replica_writes (replication 1 must report none)."""
        r1 = run_scenario(
            ScenarioSpec(nodes=3, requests=REQUESTS),
            trace, with_baseline=False, with_oracle=False,
        ).phases[0]
        r2 = run_scenario(
            ScenarioSpec(nodes=3, requests=REQUESTS, replication=2),
            trace, with_baseline=False, with_oracle=False,
        ).phases[0]
        assert r1.requests == r2.requests == REQUESTS
        assert r1.replica_writes == 0
        assert r2.replica_writes > 0
        assert r2.primary_writes >= 0
        # Warm standbys are paid for in shared capacity: the replicated
        # tier cannot out-hit the sharded one in steady state.
        assert r2.oc_hit_rate <= r1.oc_hit_rate

    def test_replicated_failover_softens_the_kill(self, trace):
        """Killing a node remaps its shard onto warm standbys at
        replication 2 vs cold nodes at replication 1: the hit-rate *drop*
        across the kill boundary must be strictly smaller."""
        n = REQUESTS
        events = (EventSpec(kind="node_kill", at=n // 2, node="oc1"),)

        def kill_drop(replication):
            spec = ScenarioSpec(
                nodes=3, requests=n, replication=replication, events=events
            )
            report = run_scenario(
                spec, trace, with_baseline=False, with_oracle=False
            )
            pre, post = report.phases
            return pre.oc_hit_rate - post.oc_hit_rate

        assert kill_drop(2) < kill_drop(1)


class TestOracleComparator:
    def test_gaps_present_and_bounded(self, reference_report):
        for p in reference_report.phases:
            assert p.oracle_hit_rate is not None
            assert 0.0 <= p.oracle_hit_rate <= 1.0
            assert abs(p.hit_gap) <= 1.0
            assert abs(p.write_gap) <= 1.0
        assert reference_report.max_abs_hit_gap is not None

    def test_sharding_never_beats_the_aggregate_cache_at_steady_state(
        self, reference_report
    ):
        """The idealised single cache pools all capacity, so in pristine
        phases the sharded cluster cannot have a higher hit rate beyond
        reservoir noise."""
        for p in reference_report.phases:
            if p.pristine:
                assert p.hit_gap <= 0.02


class TestLatency:
    def test_percentiles_ordered(self, reference_report):
        # The latency distribution is three-valued (OC/DC/backend), so the
        # mean can sit below p50; it must still sit under the tail.
        for p in reference_report.phases:
            assert 0.0 < p.latency_p50 <= p.latency_p99 <= p.latency_p999
            assert 0.0 < p.latency_mean <= p.latency_p999


class TestTraceTooShort:
    def test_clear_error(self, trace):
        spec = ScenarioSpec(nodes=2, requests=trace.n_accesses + 1)
        with pytest.raises(ValueError, match="scenario needs"):
            run_scenario(spec, trace)
