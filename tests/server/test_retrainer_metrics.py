"""Retrainer schedule/maturity tests and metrics-snapshot tests."""

import asyncio

import numpy as np
import pytest

from repro.cache.lru import LRUCache
from repro.cache.simulator import simulate
from repro.core.history_table import HistoryTable
from repro.core.online import OnlineClassifierAdmission, OnlineFeatureTracker
from repro.ml.tree import DecisionTreeClassifier
from repro.server.metrics import (
    admission_timing,
    format_metrics,
    metrics_snapshot,
    timing_stats,
)
from repro.server.node import CacheNode, NodeConfig
from repro.server.retrainer import Retrainer, RetrainerConfig

CFG = NodeConfig(capacity_fraction=0.02)


def make_node(trace, processed: int) -> CacheNode:
    node = CacheNode(trace, CFG)
    step = 256
    for lo in range(0, processed, step):
        node.process_batch(list(range(lo, min(lo + step, processed))))
    return node


class TestRetrainer:
    def test_requires_classifier_stack(self, tiny_trace):
        node = CacheNode(tiny_trace, NodeConfig(capacity_fraction=0.02, classifier=False))
        with pytest.raises(ValueError):
            Retrainer(node)

    def test_retrain_now_swaps_model_off_hot_path(self, tiny_trace):
        node = make_node(tiny_trace, 2000)
        retrainer = Retrainer(node, RetrainerConfig())
        old_model = node.model
        record = asyncio.run(retrainer.retrain_now())
        assert record["trained"]
        assert node.model is not old_model
        assert node.model_version == record["model_version"] == 2
        assert retrainer.retrains == 1

    def test_unmatured_prefix_skips_training(self, tiny_trace):
        # Fewer observed requests than the maturity horizon M: no sample
        # can be labelled yet, so the seed model must stay installed.
        node = make_node(tiny_trace, int(node_horizon(tiny_trace) // 2))
        retrainer = Retrainer(node)
        record = asyncio.run(retrainer.retrain_now())
        assert not record["trained"]
        assert node.model_version == 1

    def test_matured_labels_match_full_trace_oracle(self, tiny_trace):
        """The training rows selected at a cut use labels identical to the
        full-trace oracle labels at those positions."""
        from repro.core.labeling import one_time_labels

        node = make_node(tiny_trace, 2500)
        retrainer = Retrainer(node)
        rows = retrainer._select_training_rows(node.trace_clock)
        assert rows.shape[0] > 0
        m = node.criteria.m_threshold
        full = one_time_labels(tiny_trace.object_ids, m)
        prefix = one_time_labels(tiny_trace.object_ids[: node.processed], m)
        assert (prefix[rows] == full[rows]).all()

    def test_deploy_model_swaps_without_counting_as_retrain(self, tiny_trace):
        """The rolling-deploy hook: an externally trained model installs
        through the same atomic-swap path as a local retrain, is recorded
        in history with deployed=True, and stays out of ``retrains``."""
        from repro.core.features import PAPER_FEATURE_NAMES, extract_features
        from repro.core.labeling import one_time_labels

        node = make_node(tiny_trace, 2000)
        retrainer = Retrainer(node)
        seed_model = node.model
        fm = extract_features(tiny_trace).select(PAPER_FEATURE_NAMES)
        labels = one_time_labels(tiny_trace.object_ids, 100.0)
        fresh = DecisionTreeClassifier(max_splits=8, rng=1).fit(fm.X, labels)

        record = retrainer.deploy_model(fresh)
        assert node.model is fresh and node.model is not seed_model
        assert record["deployed"] and record["trained"]
        assert record["n_train"] == 0
        assert node.model_version == record["model_version"] == 2
        assert retrainer.history[-1] is record
        assert retrainer.retrains == 0  # external deploys excluded

        # A local retrain afterwards still counts — and bumps the version.
        trained = asyncio.run(retrainer.retrain_now())
        assert trained["trained"] and not trained.get("deployed")
        assert retrainer.retrains == 1
        assert node.model_version == 3

    def test_periodic_run_fires_at_boundaries(self, tiny_trace):
        async def run():
            node = make_node(tiny_trace, tiny_trace.n_accesses)
            retrainer = Retrainer(
                node, RetrainerConfig(period=86400.0, poll_seconds=0.01)
            )
            task = asyncio.ensure_future(retrainer.run())
            # trace_clock is already at end-of-trace: the poller should
            # sweep every elapsed boundary in one pass.
            for _ in range(200):
                await asyncio.sleep(0.01)
                days = node.trace_clock / 86400.0
                if len(retrainer.history) >= int(days):
                    break
            task.cancel()
            try:
                await task
            except asyncio.CancelledError:
                pass
            return node, retrainer

        node, retrainer = asyncio.run(run())
        assert len(retrainer.history) >= 8  # 9-day trace, 05:00 boundaries
        cuts = [rec["t_cut"] for rec in retrainer.history]
        assert cuts == sorted(cuts)
        assert all(abs((c - 5 * 3600.0) % 86400.0) < 1e-6 for c in cuts)
        assert node.model_version == 1 + retrainer.retrains


def node_horizon(trace) -> float:
    from repro.server.node import solve_node_criteria

    return solve_node_criteria(trace, CFG).m_threshold


class TestTimingStats:
    def test_empty(self):
        stats = timing_stats([])
        assert stats["count"] == 0 and stats["p99"] == 0.0

    def test_percentiles(self):
        arr = np.arange(1, 101) / 1e6
        stats = timing_stats(arr)
        assert stats["count"] == 100
        assert stats["mean"] == pytest.approx(arr.mean())
        assert stats["p50"] == pytest.approx(np.percentile(arr, 50))
        assert stats["max"] == pytest.approx(arr.max())

    def test_admission_decision_times_array(self, tiny_trace):
        """Satellite: OnlineClassifierAdmission records every decision's
        perf_counter duration, and the snapshot helper summarises it."""
        from repro.core.features import PAPER_FEATURE_NAMES, extract_features
        from repro.core.labeling import one_time_labels

        fm = extract_features(tiny_trace).select(PAPER_FEATURE_NAMES)
        labels = one_time_labels(tiny_trace.object_ids, 100.0)
        model = DecisionTreeClassifier(max_splits=10, rng=0).fit(fm.X, labels)
        adm = OnlineClassifierAdmission(
            model, OnlineFeatureTracker(tiny_trace), 100.0, HistoryTable(64)
        )
        simulate(
            tiny_trace,
            LRUCache(max(1, tiny_trace.footprint_bytes // 50)),
            admission=adm,
        )
        assert len(adm.decision_times) == adm.decisions > 0
        assert sum(adm.decision_times) == pytest.approx(adm.decision_seconds)
        stats = admission_timing(adm)
        assert stats["count"] == adm.decisions
        assert stats["mean"] == pytest.approx(adm.mean_decision_seconds)


class TestSnapshot:
    def test_snapshot_and_table(self, tiny_trace):
        node = make_node(tiny_trace, 1000)
        snap = metrics_snapshot(node)
        assert snap["processed"] == snap["requests"] == 1000
        assert snap["classifier"] is True
        assert snap["t_classify"]["count"] == 1000 - snap["hits"]  # per miss
        assert 0.0 <= snap["hit_rate"] <= 1.0
        assert "l1_hits" in snap  # hierarchical default
        table = format_metrics(snap)
        assert "file hit rate" in table
        assert "t_classify" in table

    def test_snapshot_is_json_serialisable(self, tiny_trace):
        import json

        node = make_node(tiny_trace, 500)
        json.dumps(metrics_snapshot(node))
