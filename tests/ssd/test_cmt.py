"""Cached mapping table (DFTL-style CMT) tests.

The CMT is accounting-only: it observes every host-visible translation
(writes and TRIMs) and models the DRAM pressure of the mapping table,
but never changes FTL behaviour.  The conservation suite pins
``hits + misses == lookups == ftl.stats.translation_lookups``.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ssd import MappingTableCache, PageMappedFTL, SSDGeometry
from repro.ssd.cache_device import CacheSSD


def tiny_geometry(user_kb=64, page=1024, ppb=8, op=0.25):
    return SSDGeometry(
        user_bytes=user_kb * 1024,
        page_bytes=page,
        pages_per_block=ppb,
        overprovision=op,
    )


class TestMappingTableCache:
    def test_validation(self):
        with pytest.raises(ValueError):
            MappingTableCache(0)
        with pytest.raises(ValueError):
            MappingTableCache(4, miss_penalty_us=-1.0)

    def test_miss_then_hit(self):
        cmt = MappingTableCache(4)
        assert cmt.lookup(1) is False
        assert cmt.lookup(1) is True
        assert cmt.stats.lookups == 2
        assert cmt.stats.hits == 1
        assert cmt.stats.misses == 1
        assert cmt.stats.hit_rate == 0.5
        assert cmt.stats.miss_rate == 0.5

    def test_lru_eviction(self):
        cmt = MappingTableCache(2)
        cmt.lookup(1)
        cmt.lookup(2)
        cmt.lookup(3)  # evicts 1
        assert cmt.stats.evictions == 1
        assert 1 not in cmt and 2 in cmt and 3 in cmt
        assert len(cmt) == 2

    def test_hit_refreshes_recency(self):
        cmt = MappingTableCache(2)
        cmt.lookup(1)
        cmt.lookup(2)
        cmt.lookup(1)  # 2 is now the LRU entry
        cmt.lookup(3)
        assert 1 in cmt and 2 not in cmt

    def test_added_latency(self):
        cmt = MappingTableCache(4, miss_penalty_us=10.0)
        cmt.lookup(1)
        cmt.lookup(1)
        cmt.lookup(2)
        assert cmt.added_latency_us == 20.0

    def test_occupancy_and_reset(self):
        cmt = MappingTableCache(4)
        cmt.lookup(1)
        cmt.lookup(2)
        assert len(cmt) == 2
        cmt.reset()
        assert len(cmt) == 0
        assert cmt.stats.lookups == 0

    @given(
        lpns=st.lists(st.integers(0, 40), min_size=1, max_size=400),
        capacity=st.integers(1, 16),
    )
    @settings(max_examples=60, deadline=None)
    def test_conservation_and_capacity(self, lpns, capacity):
        cmt = MappingTableCache(capacity)
        for lpn in lpns:
            cmt.lookup(lpn)
        s = cmt.stats
        assert s.hits + s.misses == s.lookups == len(lpns)
        assert len(cmt) <= capacity
        assert s.evictions == s.misses - len(cmt)


class TestFTLIntegration:
    def test_writes_and_trims_count_translations(self):
        ftl = PageMappedFTL(tiny_geometry(), cmt=MappingTableCache(8))
        ftl.write(0)
        ftl.write(1)
        ftl.trim(0)
        ftl.trim(0)  # no-op trim is still one translation
        assert ftl.stats.translation_lookups == 4
        assert ftl.cmt.stats.lookups == 4

    def test_translation_counter_without_cmt(self):
        ftl = PageMappedFTL(tiny_geometry())
        ftl.write(0)
        ftl.trim(0)
        assert ftl.cmt is None
        assert ftl.stats.translation_lookups == 2

    def test_gc_relocations_bypass_cmt(self):
        """GC is serviced from the victim block's reverse map, never
        through the host translation path."""
        g = tiny_geometry()
        ftl = PageMappedFTL(g, cmt=MappingTableCache(8))
        for lpn in range(g.user_pages):
            ftl.write(lpn)  # cold data everywhere
        for i in range(2000):
            ftl.write(i % 4)  # hot set forces GC to relocate cold pages
        assert ftl.stats.gc_pages_relocated > 0
        assert ftl.cmt.stats.lookups == ftl.stats.host_pages_written

    def test_cmt_never_changes_ftl_behaviour(self):
        """Identical op stream with and without a CMT: same FTL stats."""
        import numpy as np

        rng = np.random.default_rng(3)
        g = tiny_geometry()
        ops = list(zip(rng.random(3000), rng.integers(0, g.user_pages, 3000)))

        def run(cmt):
            ftl = PageMappedFTL(g, cmt=cmt)
            live = set()
            for p, lpn in ops:
                lpn = int(lpn)
                if p < 0.7:
                    ftl.write(lpn)
                    live.add(lpn)
                elif lpn in live:
                    ftl.trim(lpn)
                    live.discard(lpn)
            return ftl

        plain = run(None)
        cached = run(MappingTableCache(16))
        assert plain.stats == cached.stats
        plain.check_invariants()
        cached.check_invariants()

    @given(
        ops=st.lists(
            st.tuples(st.booleans(), st.integers(0, 31)),
            min_size=1,
            max_size=300,
        ),
        capacity=st.integers(1, 24),
    )
    @settings(max_examples=40, deadline=None)
    def test_cmt_conservation_against_ftl(self, ops, capacity):
        """Every host op is exactly one translation, hit or miss."""
        g = SSDGeometry(
            user_bytes=32 * 1024,
            page_bytes=1024,
            pages_per_block=8,
            overprovision=0.3,
        )
        ftl = PageMappedFTL(g, cmt=MappingTableCache(capacity))
        for is_write, lpn in ops:
            if is_write:
                ftl.write(lpn)
            else:
                ftl.trim(lpn)
        s = ftl.cmt.stats
        assert s.hits + s.misses == s.lookups
        assert s.lookups == ftl.stats.translation_lookups == len(ops)


class TestCacheDeviceWiring:
    def test_for_capacity_builds_cmt(self):
        dev = CacheSSD.for_capacity(1 << 20, mean_object_bytes=4096.0, cmt_fraction=0.25)
        assert dev.cmt is not None
        expected = max(1, int(dev.ftl.geometry.user_pages * 0.25))
        assert dev.cmt.capacity_entries == expected

    def test_cmt_disabled(self):
        dev = CacheSSD.for_capacity(1 << 20, mean_object_bytes=4096.0, cmt_fraction=None)
        assert dev.cmt is None

    def test_cmt_fraction_validated(self):
        with pytest.raises(ValueError):
            CacheSSD.for_capacity(1 << 20, mean_object_bytes=4096.0, cmt_fraction=0.0)
        with pytest.raises(ValueError):
            CacheSSD.for_capacity(1 << 20, mean_object_bytes=4096.0, cmt_fraction=1.5)
