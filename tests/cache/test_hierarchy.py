"""Tests for the DRAM + SSD hierarchical cache."""

import pytest

from repro.cache import LRUCache, simulate
from repro.cache.hierarchy import HierarchicalCache
from repro.core.admission import OracleAdmission
from repro.core.labeling import one_time_labels
from repro.trace import WorkloadConfig, generate_trace


def make(dram_cap=500, ssd_cap=5000):
    return HierarchicalCache(LRUCache(dram_cap), LRUCache(ssd_cap))


class TestBasicSemantics:
    def test_miss_fills_both_tiers(self):
        c = make()
        r = c.access(1, 100)
        assert not r.hit and r.inserted
        assert 1 in c.dram and 1 in c.ssd

    def test_len_counts_each_tier_copy(self):
        c = make()
        c.access(1, 100)
        assert len(c) == 2  # resident in DRAM and on the SSD
        c.access(2, 100, admit=False)
        assert len(c) == 3  # a denied object is DRAM-only
        ssd_only = HierarchicalCache.with_lru_dram(LRUCache(5000), dram_fraction=0.0)
        ssd_only.access(1, 100)
        assert len(ssd_only) == 1

    def test_l1_hit_counted(self):
        c = make()
        c.access(1, 100)
        r = c.access(1, 100)
        assert r.hit
        assert c.l1_hits == 1

    def test_l2_hit_promotes_to_dram(self):
        c = make(dram_cap=250)
        c.access(1, 100)
        c.access(2, 100)
        c.access(3, 100)  # 1 falls out of the 250-byte DRAM
        assert 1 not in c.dram and 1 in c.ssd
        r = c.access(1, 100)
        assert r.hit
        assert c.l2_hits == 1
        assert 1 in c.dram  # promoted back

    def test_denied_object_served_from_dram_next_time(self):
        """The key interaction: one-time photos still enjoy DRAM locality."""
        c = make()
        r = c.access(7, 100, admit=False)
        assert not r.inserted
        assert 7 not in c.ssd and 7 in c.dram
        # Immediate re-access: DRAM hit, still no SSD write.
        r2 = c.access(7, 100)
        assert r2.hit
        assert 7 not in c.ssd

    def test_inserted_reports_ssd_writes_only(self):
        c = make()
        r = c.access(1, 100, admit=False)
        assert not r.inserted  # DRAM fill is not an SSD write

    def test_capacity_is_ssd_capacity(self):
        c = make(ssd_cap=5000)
        assert c.capacity == 5000
        assert c.used_bytes <= 5000

    def test_dram_eviction_is_silent(self):
        c = make(dram_cap=200)
        c.access(1, 100, admit=False)
        c.access(2, 100, admit=False)
        r = c.access(3, 100, admit=False)  # evicts 1 from DRAM
        assert r.evicted == ()  # no SSD eviction reported

    def test_with_lru_dram_helper(self):
        c = HierarchicalCache.with_lru_dram(LRUCache(10_000), dram_fraction=0.1)
        assert c.dram.capacity == 1000
        # 0.0 is the zero-size-DRAM degenerate form, not an error.
        bare = HierarchicalCache.with_lru_dram(LRUCache(100), dram_fraction=0.0)
        assert bare.dram is None
        with pytest.raises(ValueError):
            HierarchicalCache.with_lru_dram(LRUCache(100), dram_fraction=1.0)
        with pytest.raises(ValueError):
            HierarchicalCache.with_lru_dram(LRUCache(100), dram_fraction=-0.1)

    def test_contains_spans_tiers(self):
        c = make(dram_cap=250)
        c.access(1, 100, admit=False)  # DRAM only
        c.access(2, 100)               # both
        assert 1 in c and 2 in c


class TestSimulatedBehaviour:
    @pytest.fixture(scope="class")
    def trace(self):
        return generate_trace(WorkloadConfig(n_objects=4000, days=2.0, seed=91))

    def test_dram_absorbs_hits_and_cuts_nothing(self, trace):
        """Adding DRAM must not lower the total hit rate."""
        cap = max(1, trace.footprint_bytes // 40)
        flat = simulate(trace, LRUCache(cap))
        hier = simulate(
            trace, HierarchicalCache.with_lru_dram(LRUCache(cap), dram_fraction=0.1)
        )
        assert hier.hit_rate >= flat.hit_rate - 0.005

    def test_admission_still_cuts_ssd_writes(self, trace):
        cap = max(1, trace.footprint_bytes // 40)
        labels = one_time_labels(trace.object_ids, 300)
        plain = simulate(
            trace, HierarchicalCache.with_lru_dram(LRUCache(cap))
        )
        filtered = simulate(
            trace,
            HierarchicalCache.with_lru_dram(LRUCache(cap)),
            admission=OracleAdmission(labels),
        )
        assert filtered.stats.files_written < plain.stats.files_written
        assert filtered.hit_rate >= plain.hit_rate - 0.02

    def test_l1_l2_hit_split(self, trace):
        cap = max(1, trace.footprint_bytes // 40)
        policy = HierarchicalCache.with_lru_dram(LRUCache(cap), dram_fraction=0.2)
        result = simulate(trace, policy)
        assert policy.l1_hits + policy.l2_hits == result.stats.hits
        assert policy.l1_hits > 0 and policy.l2_hits > 0
