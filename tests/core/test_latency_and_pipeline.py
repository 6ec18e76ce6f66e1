"""Tests for the latency model (Eqs. 3–6) and the end-to-end pipeline."""

import pytest

from repro.config import LatencyConstants
from repro.core.latency import LatencyModel
from repro.core.pipeline import run_experiment
from repro.trace import WorkloadConfig, generate_trace


class TestLatencyModel:
    def test_hit_cost_equation_four(self):
        c = LatencyConstants(t_query=1e-6, t_ssdr=1e-4, t_hddr=3e-3, t_classify=4e-7)
        lm = LatencyModel(c)
        assert lm.hit_cost == pytest.approx(1e-6 + 1e-4)

    def test_miss_penalties_equations_five_six(self):
        c = LatencyConstants(t_query=1e-6, t_ssdr=1e-4, t_hddr=3e-3, t_classify=4e-7)
        lm = LatencyModel(c)
        assert lm.miss_penalty(classified=False) == pytest.approx(1e-6 + 3e-3)
        assert lm.miss_penalty(classified=True) == pytest.approx(1e-6 + 4e-7 + 3e-3)

    def test_average_latency_equation_three(self):
        lm = LatencyModel()
        h = 0.6
        expected = h * lm.hit_cost + (1 - h) * lm.miss_penalty(classified=False)
        assert lm.average_latency(h, classified=False) == pytest.approx(expected)

    def test_latency_decreases_with_hit_rate(self):
        lm = LatencyModel()
        ls = [lm.average_latency(h, classified=True) for h in (0.1, 0.5, 0.9)]
        assert ls[0] > ls[1] > ls[2]

    def test_improvement_sign(self):
        lm = LatencyModel()
        # Higher proposal hit rate → positive improvement despite t_classify.
        assert lm.improvement(0.4, 0.5) > 0
        # Equal hit rates → tiny negative (classification overhead only).
        assert lm.improvement(0.4, 0.4) < 0
        assert abs(lm.improvement(0.4, 0.4)) < 1e-3

    def test_invalid_hit_rate(self):
        with pytest.raises(ValueError):
            LatencyModel().average_latency(1.2, classified=False)

    def test_invalid_constants(self):
        with pytest.raises(ValueError):
            LatencyConstants(t_query=-1.0)


class TestRunExperiment:
    @pytest.fixture(scope="class")
    def result(self):
        trace = generate_trace(WorkloadConfig(n_objects=5000, days=4.0, seed=21))
        return run_experiment(trace, policy="lru", capacity_fraction=0.01, rng=0)

    def test_all_configurations_present(self, result):
        assert result.original is not None
        assert result.proposal is not None
        assert result.ideal is not None
        assert result.belady is not None

    def test_headline_orderings(self, result):
        """The paper's qualitative claims on every run."""
        # Proposal reduces SSD writes versus Original (the headline claim).
        assert (
            result.proposal.stats.files_written
            < result.original.stats.files_written
        )
        # Ideal (perfect classifier) beats the traditional cache.
        assert result.ideal.hit_rate >= result.original.hit_rate
        # Belady bounds everything from above.
        assert result.belady.hit_rate >= result.ideal.hit_rate - 0.01
        assert result.belady.hit_rate >= result.original.hit_rate

    def test_proposal_beats_original_hit_rate(self, result):
        assert result.proposal.hit_rate >= result.original.hit_rate - 0.005
        assert result.hit_rate_gain == pytest.approx(
            result.proposal.hit_rate - result.original.hit_rate
        )

    def test_write_reduction_positive(self, result):
        assert 0.0 < result.write_reduction <= 1.0
        assert 0.0 < result.byte_write_reduction <= 1.0

    def test_latency_improvement(self, result):
        assert result.latency_proposal < result.latency_original
        assert result.latency_improvement > 0

    def test_criteria_consistent(self, result):
        assert result.criteria.m_threshold > 0
        assert result.criteria.hit_rate == pytest.approx(
            result.original.hit_rate
        )

    def test_cost_v_default_small_cache(self, result):
        # 1% of footprint is far below the scaled 12 GB boundary → v = 2.
        assert result.cost_v == 2.0

    def test_summary_renders(self, result):
        s = result.summary()
        assert "original" in s and "proposal" in s and "belady" in s

    def test_lirs_criteria_scaled(self):
        trace = generate_trace(WorkloadConfig(n_objects=4000, days=3.0, seed=22))
        lru = run_experiment(
            trace, policy="lru", capacity_fraction=0.02,
            include_belady=False, rng=0,
        )
        lirs = run_experiment(
            trace, policy="lirs", capacity_fraction=0.02,
            include_belady=False, rng=0,
        )
        assert lirs.criteria.rs < 1.0
        # M_LIRS uses its own h, so compare through the rs mechanism only.
        assert lirs.criteria.m_threshold == pytest.approx(
            lirs.criteria.cache_bytes
            / lirs.criteria.mean_object_size
            / ((1 - lirs.criteria.hit_rate) * (1 - lirs.criteria.one_time_share))
            * lirs.criteria.rs,
            rel=1e-6,
        )
        assert lru.criteria.rs == 1.0

    def test_capacity_argument_validation(self):
        trace = generate_trace(WorkloadConfig(n_objects=1000, days=2.0, seed=23))
        with pytest.raises(ValueError):
            run_experiment(trace)  # neither capacity given
        with pytest.raises(ValueError):
            run_experiment(trace, capacity_fraction=0.1, capacity_bytes=100)

    def test_capacity_bytes_direct(self):
        trace = generate_trace(WorkloadConfig(n_objects=1000, days=2.0, seed=24))
        r = run_experiment(
            trace, capacity_bytes=2**20,
            include_belady=False, rng=0,
        )
        assert r.capacity_bytes == 2**20
        assert 0 < r.capacity_fraction < 1

    def test_workload_config_accepted(self):
        r = run_experiment(
            WorkloadConfig(n_objects=1000, days=2.0, seed=25),
            capacity_fraction=0.05,
            include_belady=False, rng=0,
        )
        assert r.original.stats.requests > 0
