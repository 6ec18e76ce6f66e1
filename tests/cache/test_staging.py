"""Staging-tier tests: Flashield semantics, differential identities,
conservation properties and segmented-replay parity.

The hypothesis suites pin the contracts the head-to-head comparison
rests on:

* every L2 (SSD) insert is exactly one promotion or one direct admit —
  no write can bypass the flashiness accounting;
* a hit lands in at most one level (``l1_hits + l2_hits == hits``);
* ``dram=None`` degenerates bit-identically to the bare L2 policy;
* flashiness threshold 0 is bit-identical to ``HierarchicalCache``
  (always-admit through the bar).
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache import LRUCache, simulate
from repro.cache.base import AccessResult
from repro.cache.hierarchy import HierarchicalCache
from repro.cache.simulator import POLICY_REGISTRY, make_policy
from repro.cache.staging import StagingCache
from repro.trace import WorkloadConfig, generate_trace

request_streams = st.lists(
    st.tuples(
        st.integers(0, 30),        # object id
        st.integers(1, 500),       # size
        st.booleans(),             # admit
    ),
    min_size=1,
    max_size=300,
)


def _stable_sizes(stream):
    """Object sizes must be stable per id within a run."""
    sizes: dict[int, int] = {}
    for oid, size, admit in stream:
        yield oid, sizes.setdefault(oid, size), admit


def make(dram_cap=500, ssd_cap=5000, threshold=1, **kwargs):
    return StagingCache(
        LRUCache(dram_cap),
        LRUCache(ssd_cap),
        threshold,
        **kwargs,
    )


class TestStagingSemantics:
    def test_miss_stages_without_ssd_write(self):
        c = make()
        r = c.access(1, 100)
        assert r == AccessResult(hit=False)
        assert 1 in c.dram and 1 not in c.ssd
        assert len(c._staged) == 1

    def test_second_access_promotes(self):
        c = make()
        c.access(1, 100)
        r = c.access(1, 100)
        assert r.hit and r.inserted  # the only hit+insert in the codebase
        assert 1 in c.ssd
        assert c.promotions == 1 and len(c._staged) == 0

    def test_threshold_two_needs_two_reaccesses(self):
        c = make(threshold=2)
        c.access(1, 100)
        assert not c.access(1, 100).inserted
        assert c.access(1, 100).inserted

    def test_denied_object_never_promoted(self):
        c = make()
        c.access(1, 100, admit=False)
        for _ in range(5):
            r = c.access(1, 100)
            assert r.hit and not r.inserted
        assert 1 not in c.ssd
        assert c.promotions == 0

    def test_redemption_overrides_denial(self):
        c = make(redemption_threshold=3)
        c.access(1, 100, admit=False)
        assert not c.access(1, 100).inserted
        assert not c.access(1, 100).inserted
        r = c.access(1, 100)  # third re-access crosses the redemption bar
        assert r.hit and r.inserted
        assert c.redemptions == 1 and c.promotions == 1

    def test_redemption_threshold_validated(self):
        with pytest.raises(ValueError):
            make(redemption_threshold=0)

    def test_dram_eviction_discards_evidence(self):
        c = make(dram_cap=200)
        c.access(1, 100)
        c.access(2, 100)
        c.access(3, 100)  # evicts 1 from the 200-byte DRAM
        assert c.staged_evicted == 1
        # 1 must re-earn its write from scratch: a miss, then a re-access.
        assert not c.access(1, 100).hit
        assert c.access(1, 100).inserted

    def test_oversized_for_ssd_never_admitted(self):
        c = make(dram_cap=5000, ssd_cap=300)
        c.access(1, 400)
        for _ in range(4):
            assert not c.access(1, 400).inserted
        assert 1 not in c.ssd

    def test_oversized_for_dram_not_staged(self):
        c = make(dram_cap=200, ssd_cap=5000)
        c.access(1, 400)  # cannot enter the staging area
        assert len(c._staged) == 0
        assert not c.access(1, 400).hit

    def test_bar_zero_writes_at_miss(self):
        c = make(threshold=0)
        r = c.access(1, 100)
        assert not r.hit and r.inserted
        assert c.direct_admits == 1

    def test_ssd_hit_counted_once(self):
        c = make(dram_cap=200)
        c.access(1, 100)
        c.access(1, 100)  # promoted
        c.access(2, 100)
        c.access(3, 100)  # 1 out of DRAM, still on SSD
        r = c.access(1, 100)
        assert r.hit and not r.inserted
        assert c.l2_hits == 1
        assert 1 in c.dram  # promoted back into DRAM

    def test_can_batch_hits_declined(self):
        assert make().can_batch_hits() is False

    def test_staging_stats_shape(self):
        c = make()
        c.access(1, 100)
        c.access(1, 100)
        assert c.promotions == 1
        assert c.l1_hits == 1
        assert len(c._staged) == 0

    def test_contains_and_len_span_tiers(self):
        c = make()
        c.access(1, 100)          # DRAM only (staged)
        c.access(2, 100)
        c.access(2, 100)          # promoted: DRAM + SSD
        assert 1 in c and 2 in c
        assert len(c) == 3        # 1 in DRAM, 2 in both tiers

    def test_for_capacity_validates_fraction(self):
        with pytest.raises(ValueError):
            StagingCache.for_capacity(1000, dram_fraction=1.0)
        with pytest.raises(ValueError):
            StagingCache.for_capacity(1000, dram_fraction=-0.1)
        assert StagingCache.for_capacity(1000, dram_fraction=0.0).dram is None

    def test_registry_entry(self):
        assert "staging" in POLICY_REGISTRY
        policy = make_policy("staging", 10_000)
        assert isinstance(policy, StagingCache)


class TestConservationProperties:
    @given(stream=request_streams, threshold=st.integers(0, 3))
    @settings(max_examples=60, deadline=None)
    def test_every_l2_insert_is_a_promotion_or_direct_admit(
        self, stream, threshold
    ):
        """No SSD write can bypass the flashiness accounting."""
        c = make(threshold=threshold)
        inserts = 0
        for oid, size, admit in _stable_sizes(stream):
            inserts += c.access(oid, size, admit=admit).inserted
        assert inserts == c.promotions + c.direct_admits

    @given(stream=request_streams, threshold=st.integers(0, 3))
    @settings(max_examples=60, deadline=None)
    def test_hit_lands_in_at_most_one_level(self, stream, threshold):
        c = make(threshold=threshold)
        hits = 0
        for oid, size, admit in _stable_sizes(stream):
            hits += c.access(oid, size, admit=admit).hit
        assert c.l1_hits + c.l2_hits == hits

    @given(stream=request_streams)
    @settings(max_examples=60, deadline=None)
    def test_staged_objects_are_dram_resident_non_ssd(self, stream):
        c = make()
        for oid, size, admit in _stable_sizes(stream):
            c.access(oid, size, admit=admit)
            for staged in c._staged:
                assert staged in c.dram and staged not in c.ssd


class TestDifferentialIdentities:
    @given(stream=request_streams)
    @settings(max_examples=60, deadline=None)
    def test_zero_dram_degenerates_to_bare_l2(self, stream):
        """``dram=None`` must be a transparent shell over the L2 policy."""
        staged = StagingCache(None, LRUCache(2000))
        bare = LRUCache(2000)
        for oid, size, admit in _stable_sizes(stream):
            assert staged.access(oid, size, admit=admit) == bare.access(
                oid, size, admit=admit
            )
        assert staged.used_bytes == bare.used_bytes
        assert len(staged) == len(bare)

    @given(stream=request_streams, dram_cap=st.integers(100, 1500))
    @settings(max_examples=60, deadline=None)
    def test_bar_zero_is_bit_identical_to_hierarchy(self, stream, dram_cap):
        """Threshold 0 == always-admit == plain ``HierarchicalCache``."""
        staged = StagingCache(
            LRUCache(dram_cap), LRUCache(3000), 0
        )
        hier = HierarchicalCache(LRUCache(dram_cap), LRUCache(3000))
        for oid, size, admit in _stable_sizes(stream):
            assert staged.access(oid, size, admit=admit) == hier.access(
                oid, size, admit=admit
            )
        assert staged.used_bytes == hier.used_bytes
        assert staged.dram.used_bytes == hier.dram.used_bytes

    @given(stream=request_streams)
    @settings(max_examples=40, deadline=None)
    def test_redemption_none_equals_omitted(self, stream):
        """The default (no redemption) and an unreachable bar disagree
        only when the bar is actually reached — with no denials they are
        identical to the plain staging cache."""
        plain = make()
        redeem = make(redemption_threshold=10**9)
        for oid, size, _ in _stable_sizes(stream):
            assert plain.access(oid, size) == redeem.access(oid, size)


class TestSegmentedReplayParity:
    """Satellite: ``use_segments=True`` must not change results for the
    two-tier policies (both decline ``can_batch_hits`` at the policy or
    hierarchy level unless the L2 allows it)."""

    @pytest.fixture(scope="class")
    def trace(self):
        return generate_trace(WorkloadConfig(n_objects=2000, days=2.0, seed=11))

    @pytest.mark.parametrize("name", ["hierarchy", "staging"])
    def test_segment_parity(self, trace, name):
        cap = max(1, trace.footprint_bytes // 20)
        seg = simulate(
            trace, make_policy(name, cap, trace), use_segments=True
        )
        loop = simulate(
            trace, make_policy(name, cap, trace), use_segments=False
        )
        assert seg.stats == loop.stats

    def test_hierarchy_delegates_batch_capability(self):
        hier = HierarchicalCache.for_capacity(10_000)
        assert hier.can_batch_hits() == hier.ssd.can_batch_hits()
