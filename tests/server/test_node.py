"""CacheNode state-machine tests: batch parity with the offline simulator."""

import numpy as np
import pytest

from repro.cache.base import CacheStats
from repro.cache.lru import LRUCache
from repro.cache.simulator import replay_range
from repro.core.labeling import ONE_TIME
from repro.ml.fastpath import fast_predictor
from repro.server.node import (
    CacheNode,
    NodeConfig,
    build_cache,
    classifier_admission,
    replay_offline,
    solve_node_criteria,
)


def drive(node: CacheNode, batch_sizes=(1,)) -> CacheStats:
    """Replay the node's whole trace in cycling batch sizes."""
    n = node.trace.n_accesses
    i = k = 0
    while i < n:
        step = min(batch_sizes[k % len(batch_sizes)], n - i)
        node.process_batch(list(range(i, i + step)))
        i += step
        k += 1
    return node.stats


def assert_stats_equal(a: CacheStats, b: CacheStats):
    for f in (
        "requests",
        "hits",
        "bytes_requested",
        "bytes_hit",
        "files_written",
        "bytes_written",
        "evictions",
        "admissions_denied",
    ):
        assert getattr(a, f) == getattr(b, f), f


CFG = NodeConfig(capacity_fraction=0.02)


class TestBatchParity:
    """The served node vs ``replay_offline``, end to end.

    Both sides drive one request loop over one admission built by one
    function; these pin the whole served stack (DRAM tier included) to the
    offline run.  Loop-vs-loop agreement per policy and the batch-boundary
    cases live in ``tests/cache/test_request_loop.py``.
    """

    def test_classified_node_matches_offline_simulate(self, tiny_trace):
        node = CacheNode(tiny_trace, CFG)
        assert node.model is not None  # the interesting path
        drive(node, batch_sizes=(1, 7, 64, 256, 13))
        ref = replay_offline(tiny_trace, CFG)
        assert_stats_equal(node.stats, ref.stats)

    def test_plain_ssd_tier_without_dram(self, tiny_trace):
        cfg = NodeConfig(capacity_fraction=0.02, dram_fraction=0.0)
        node = CacheNode(tiny_trace, cfg)
        drive(node, batch_sizes=(50,))
        ref = replay_offline(tiny_trace, cfg)
        assert_stats_equal(node.stats, ref.stats)


class TestSequencing:
    def test_rejects_non_contiguous_batch(self, tiny_trace):
        node = CacheNode(tiny_trace, CFG)
        with pytest.raises(ValueError):
            node.process_batch([1, 2])  # must start at 0
        node.process_batch([0, 1])
        with pytest.raises(ValueError):
            node.process_batch([3])  # gap

    def test_responses_report_hit_and_admission(self, tiny_trace):
        node = CacheNode(tiny_trace, NodeConfig(capacity_fraction=0.02, classifier=False))
        out = node.process_batch(list(range(200)))
        assert [r["index"] for r in out] == list(range(200))
        hits = sum(r["hit"] for r in out)
        assert hits == node.stats.hits
        assert sum(r["admitted"] for r in out) == node.stats.files_written


class TestTelemetry:
    def test_classify_times_cover_every_request(self, tiny_trace):
        """Every request that *needed* a decision — each miss, no hit."""
        node = CacheNode(tiny_trace, CFG)
        drive(node, batch_sizes=(64,))
        times = node.classify_timing.values()
        assert 0 < node.stats.hits < tiny_trace.n_accesses
        assert times.shape[0] == tiny_trace.n_accesses - node.stats.hits
        assert (times > 0).all()

    def test_trace_clock_advances(self, tiny_trace):
        node = CacheNode(tiny_trace, CFG)
        assert node.trace_clock == 0.0
        node.process_batch(list(range(100)))
        assert node.trace_clock == pytest.approx(
            float(tiny_trace.timestamps[99])
        )

    def test_reset_clears_state_but_keeps_model(self, tiny_trace):
        node = CacheNode(tiny_trace, CFG)
        drive(node, batch_sizes=(128,))
        model, version = node.model, node.model_version
        node.reset()
        assert node.processed == 0
        assert node.stats.requests == 0
        assert not node.denied_mask.any()
        assert node.model is model and node.model_version == version
        # A reset node replays to the identical result.
        drive(node, batch_sizes=(128,))
        assert_stats_equal(node.stats, replay_offline(tiny_trace, CFG).stats)


class TestModelSwap:
    def test_install_model_bumps_version_and_applies_next_batch(self, tiny_trace):
        node = CacheNode(tiny_trace, CFG)
        node.process_batch(list(range(500)))
        v0 = node.model_version

        class DenyAll:
            def predict(self, X):
                return np.ones(X.shape[0], dtype=np.int64)

        assert node.install_model(DenyAll()) == v0 + 1
        before = node.stats.admissions_denied
        out = node.process_batch(list(range(500, 1000)))
        # Every miss is now predicted one-time: admissions happen only via
        # history-table rectification.
        denied = sum(r["denied"] for r in out)
        assert node.stats.admissions_denied == before + denied
        assert denied > 0

    CFG = NodeConfig(capacity_fraction=0.02, dram_fraction=0.0)

    class DenyAll:
        def predict(self, X):
            return np.full(X.shape[0], ONE_TIME)

    def segment_reference(self, trace, seed_model, swapped_model, cut):
        """The offline replay, one admission, rebound at ``cut``."""
        criteria = solve_node_criteria(trace, self.CFG)
        admission = classifier_admission(trace, criteria, seed_model)
        cache, oids, sizes = build_cache(trace, self.CFG), trace.object_ids, trace.sizes
        outcomes: list = []
        replay_range(cache, admission, None, CacheStats(), oids, sizes, 0, cut,
                     outcomes=outcomes)
        admission.bind(fast_predictor(swapped_model), model=swapped_model)
        replay_range(cache, admission, None, CacheStats(), oids, sizes, cut,
                     trace.n_accesses, outcomes=outcomes)
        return [denied for _, denied in outcomes], admission.rectified_admits

    @pytest.mark.parametrize("reentrant", [False, True])
    def test_swap_takes_effect_at_the_batch_boundary_only(self, tiny_trace, reentrant):
        """Installed between two batches — or from inside the first one,
        standing in for another thread — the new model decides from the
        next batch on and never inside a running one."""
        trace, n, cut, swap_at = tiny_trace, tiny_trace.n_accesses, 600, 300
        node = CacheNode(trace, self.CFG)
        seed_model, swapped = node.model, self.DenyAll()

        class SwapsMidBatch(LRUCache):
            """Calls install_model from inside the request loop."""

            lookups = 0

            def access_if_present(self, oid, size):
                if self.lookups == swap_at:
                    node.install_model(swapped)
                self.lookups += 1
                return super().access_if_present(oid, size)

        if reentrant:
            node.cache = SwapsMidBatch(node.cache.capacity)
        first = node.process_batch(list(range(cut)))
        if reentrant:
            assert node.cache.lookups == cut and node.model is swapped
        else:
            node.install_model(swapped)
        assert node.model_version == 2
        rest = node.process_batch(list(range(cut, n)))

        denied, rectified = self.segment_reference(trace, seed_model, swapped, cut)
        assert [r["denied"] for r in first + rest] == denied
        assert node.rectified_admits == rectified
        # The first batch is the seed model's to the last request, so it is
        # a prefix of the whole-trace offline replay ...
        seed_only = self.segment_reference(trace, seed_model, seed_model, cut)[0]
        assert [r["denied"] for r in first] == seed_only[:cut]
        assert denied[cut:] != seed_only[cut:]
        # ... and written under the seed model's label, not the swapped one.
        assert node.ledger.writes_by_model()["v1"] == sum(r["admitted"] for r in first)

    def test_node_swapped_before_the_first_batch_equals_offline_with_that_model(
        self, tiny_trace
    ):
        node = CacheNode(tiny_trace, self.CFG)
        swapped = self.DenyAll()
        node.install_model(swapped)
        drive(node, batch_sizes=(5, 256))
        ref = replay_offline(tiny_trace, self.CFG, model=swapped)
        assert_stats_equal(node.stats, ref.stats)
        assert node.admission.model is swapped


class TestConfigValidation:
    def test_capacity_requires_exactly_one_spec(self, tiny_trace):
        with pytest.raises(ValueError):
            NodeConfig(capacity_fraction=None, capacity_bytes=None).resolve_capacity(
                tiny_trace
            )
        with pytest.raises(ValueError):
            NodeConfig(
                capacity_fraction=0.1, capacity_bytes=100
            ).resolve_capacity(tiny_trace)

    def test_capacity_bytes_passthrough(self, tiny_trace):
        cfg = NodeConfig(capacity_fraction=None, capacity_bytes=12345)
        assert cfg.resolve_capacity(tiny_trace) == 12345
