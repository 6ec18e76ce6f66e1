"""Tests for the evaluation grid (repro.experiments.grid)."""

import numpy as np
import pytest

from repro.experiments import CONFIGS, GridRunner, format_sweep_table
from repro.trace import WorkloadConfig, generate_trace


@pytest.fixture(scope="module")
def small_grid():
    trace = generate_trace(WorkloadConfig(n_objects=2500, days=3.0, seed=31))
    return GridRunner(
        trace, fractions=[0.01, 0.03], policies=("lru", "fifo", "lirs")
    )


class TestGridRunner:
    def test_point_has_all_configs(self, small_grid):
        gp = small_grid.point("lru", 0.01)
        assert all(getattr(gp, config) is not None for config in CONFIGS)
        assert gp.capacity_bytes == small_grid.capacity_bytes(0.01)

    def test_unknown_policy_rejected(self, small_grid):
        with pytest.raises(ValueError):
            small_grid.point("arc", 0.01)  # not in this grid's policy set

    def test_blocks_shared_across_policies(self, small_grid):
        a = small_grid.point("lru", 0.01)
        b = small_grid.point("fifo", 0.01)
        # Belady is capacity-level, identical object for both policies.
        assert a.belady is b.belady

    def test_sweep_lengths(self, small_grid):
        sweep = small_grid.sweep("lru", "hit_rate")
        assert set(sweep) == set(CONFIGS)
        assert all(len(v) == 2 for v in sweep.values())

    def test_ordering_invariants(self, small_grid):
        sweep = small_grid.sweep("lru", "hit_rate")
        belady = np.array(sweep["belady"])
        original = np.array(sweep["original"])
        assert (belady + 1e-9 >= original).all()

    def test_lirs_uses_scaled_criterion(self, small_grid):
        block = small_grid.block(0.01)
        assert block.lirs_criteria.m_threshold < block.criteria.m_threshold
        assert block.cost_v in (2.0, 3.0)

    def test_block_exposes_full_state(self, small_grid):
        block = small_grid.block(0.01)
        assert block.labels.shape[0] == small_grid.trace.n_accesses
        assert block.training.predictions.shape == block.labels.shape

    def test_classifier_metrics_attached(self, small_grid):
        gp = small_grid.point("lru", 0.01)
        assert {"precision", "recall", "accuracy"} <= set(gp.training.overall)

    def test_memoisation(self, small_grid):
        a = small_grid.point("lru", 0.01)
        b = small_grid.point("lru", 0.01)
        assert a.original is b.original


class TestParallelPrecompute:
    def test_parallel_matches_serial(self):
        trace = generate_trace(WorkloadConfig(n_objects=1500, days=2.0, seed=33))
        fractions = [0.02, 0.05]
        serial = GridRunner(trace, fractions=fractions, policies=("lru", "lirs"))
        serial.precompute(max_workers=1)
        parallel = GridRunner(trace, fractions=fractions, policies=("lru", "lirs"))
        parallel.precompute(max_workers=2)
        for f in fractions:
            s = serial.point("lru", f)
            p = parallel.point("lru", f)
            for config in CONFIGS:
                assert s.rate(config, "hit_rate") == pytest.approx(
                    p.rate(config, "hit_rate")
                )
                assert s.rate(config, "byte_write_rate") == pytest.approx(
                    p.rate(config, "byte_write_rate")
                )

    def test_precompute_idempotent(self):
        trace = generate_trace(WorkloadConfig(n_objects=1000, days=2.0, seed=34))
        runner = GridRunner(trace, fractions=[0.05], policies=("lru",))
        runner.precompute(max_workers=1)
        blocks_before = dict(runner._blocks)
        runner.precompute(max_workers=2)  # nothing left to do
        assert runner._blocks == blocks_before


class TestFormatting:
    def test_table_mentions_every_policy_and_config(self, small_grid):
        table = format_sweep_table("T", small_grid, "hit_rate")
        for policy in small_grid.policies:
            assert policy.upper() in table
        for config in CONFIGS:
            assert config in table

    def test_percent_and_raw_modes(self, small_grid):
        pct = format_sweep_table("T", small_grid, "hit_rate", percent=True)
        raw = format_sweep_table("T", small_grid, "hit_rate", percent=False)
        assert "%" in pct
        assert "%" not in raw.replace("%", "", 0) or "%" not in raw
