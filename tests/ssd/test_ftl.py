"""Tests for the page-mapped FTL: mapping, GC, TRIM, wear."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ssd import SSDGeometry, PageMappedFTL
from repro.ssd.ftl import _UNMAPPED, DeviceFullError


def mapped(ftl, lpn):
    return ftl._l2p[lpn] != _UNMAPPED


def tiny_geometry(user_kb=64, page=1024, ppb=8, op=0.25):
    return SSDGeometry(
        user_bytes=user_kb * 1024,
        page_bytes=page,
        pages_per_block=ppb,
        overprovision=op,
    )


class TestBasicMapping:
    def test_write_maps_page(self):
        ftl = PageMappedFTL(tiny_geometry())
        ftl.write(0)
        assert mapped(ftl, 0)
        assert ftl.stats.host_pages_written == 1
        assert ftl.stats.nand_pages_written == 1

    def test_overwrite_invalidates_old(self):
        ftl = PageMappedFTL(tiny_geometry())
        ftl.write(5)
        ftl.write(5)
        assert sum(ftl._valid) == 1
        assert ftl.stats.nand_pages_written == 2
        ftl.check_invariants()

    def test_trim_unmaps(self):
        ftl = PageMappedFTL(tiny_geometry())
        ftl.write(3)
        ftl.trim(3)
        assert not mapped(ftl, 3)
        assert ftl.stats.trims == 1
        assert sum(ftl._valid) == 0

    def test_trim_unmapped_is_noop(self):
        ftl = PageMappedFTL(tiny_geometry())
        ftl.trim(3)
        assert ftl.stats.trims == 0

    def test_write_range(self):
        ftl = PageMappedFTL(tiny_geometry())
        for lpn in range(10):
            ftl.write(lpn)
        assert sum(ftl._valid) == 10
        assert all(mapped(ftl, i) for i in range(10))

    def test_out_of_range_rejected(self):
        ftl = PageMappedFTL(tiny_geometry())
        with pytest.raises(ValueError):
            ftl.write(10**9)
        with pytest.raises(ValueError):
            ftl.trim(-1)

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            PageMappedFTL(tiny_geometry(), wear_leveling="magic")
        with pytest.raises(ValueError):
            PageMappedFTL(tiny_geometry(), static_wl_spread=0)

    def test_geometry_too_small(self):
        """Two open blocks (host, GC) and two free ones need 4 blocks."""
        g = tiny_geometry(user_kb=2, ppb=8)
        assert g.n_blocks == 3
        with pytest.raises(ValueError, match="too small"):
            PageMappedFTL(g)


class TestGarbageCollection:
    def test_gc_reclaims_overwritten_space(self):
        """Repeated overwrites of a small working set must run forever."""
        ftl = PageMappedFTL(tiny_geometry())
        for i in range(2000):
            ftl.write(i % 16)
        assert ftl.stats.erases > 0
        assert sum(ftl._valid) == 16
        ftl.check_invariants()

    def test_write_amplification_at_least_one(self):
        ftl = PageMappedFTL(tiny_geometry())
        for i in range(1000):
            ftl.write(i % 32)
        assert ftl.stats.write_amplification >= 1.0
        assert (
            ftl.stats.nand_pages_written
            == ftl.stats.host_pages_written + ftl.stats.gc_pages_relocated
        )

    def test_sequential_overwrite_has_low_wa(self):
        """Whole-device sequential rewrites leave victims fully invalid."""
        # Big enough that the two pinned append points (host + GC) don't
        # consume the over-provisioning headroom.
        g = tiny_geometry(user_kb=64, op=0.5)
        ftl = PageMappedFTL(g)
        for _ in range(6):
            for lpn in range(g.user_pages):
                ftl.write(lpn)
        assert ftl.stats.write_amplification < 1.2

    def test_trim_reduces_wa_vs_no_trim(self):
        """The cache's eviction TRIMs are what keep GC cheap."""
        g = tiny_geometry(user_kb=32, op=0.25)
        rng = np.random.default_rng(0)
        ops = rng.integers(0, g.user_pages, 4000)

        with_trim = PageMappedFTL(g)
        live = set()
        for lpn in ops:
            lpn = int(lpn)
            if lpn in live:
                with_trim.trim(lpn)
                live.discard(lpn)
            else:
                with_trim.write(lpn)
                live.add(lpn)

        without = PageMappedFTL(g)
        for lpn in ops:  # same stream, overwrites instead of trims
            without.write(int(lpn))

        assert (
            with_trim.stats.write_amplification
            <= without.stats.write_amplification
        )

    def test_relocations_never_land_in_the_host_block(self):
        """GC programs relocated pages at its own append point: the host's
        open block holds only fresh host writes."""
        g = tiny_geometry(user_kb=64, op=0.25)
        ppb = g.pages_per_block
        ftl = PageMappedFTL(g)
        rng = np.random.default_rng(2)
        hot = int(g.user_pages * 0.8)
        moved_total = 0
        for lpn in rng.integers(0, hot, 4000).tolist():
            before = ftl._l2p.tolist()
            ftl.write(lpn)
            host_block = ftl._active[0]
            assert ftl._l2p[lpn] // ppb == host_block != ftl._active[1]
            moved = [
                ppn for other, (old, ppn) in enumerate(zip(before, ftl._l2p))
                if old != ppn and other != lpn
            ]
            assert all(ppn // ppb != host_block for ppn in moved)
            moved_total += len(moved)
        assert 0 < moved_total <= ftl.stats.gc_pages_relocated
        ftl.check_invariants()

    def test_device_never_fills_under_valid_addressing(self):
        """Geometry reserves physical > logical space, so any in-range
        workload (writes always invalidate their predecessor) must never
        raise DeviceFullError."""
        g = tiny_geometry(user_kb=16, op=0.05)
        ftl = PageMappedFTL(g)
        for i in range(5000):
            ftl.write(i % g.user_pages)
        ftl.check_invariants()
        assert issubclass(DeviceFullError, RuntimeError)

    def test_invariants_after_random_workload(self):
        rng = np.random.default_rng(1)
        g = tiny_geometry()
        ftl = PageMappedFTL(g)
        live = set()
        for op, lpn in zip(rng.random(5000), rng.integers(0, g.user_pages, 5000)):
            lpn = int(lpn)
            if op < 0.7:
                ftl.write(lpn)
                live.add(lpn)
            elif lpn in live:
                ftl.trim(lpn)
                live.discard(lpn)
        ftl.check_invariants()
        assert sum(ftl._valid) == len(live)


class TestWearLevelling:
    def _hammer(self, wear_leveling, n=6000):
        g = tiny_geometry(user_kb=64, op=0.25)
        ftl = PageMappedFTL(g, wear_leveling=wear_leveling, static_wl_spread=4)
        # Skewed workload: hammer a few pages, keep many pages cold.
        for lpn in range(g.user_pages):
            ftl.write(lpn)  # cold data everywhere
        for i in range(n):
            ftl.write(i % 4)  # hot set
        return ftl

    def test_dynamic_no_worse_than_none(self):
        none = self._hammer("none")
        dyn = self._hammer("dynamic")
        spread_none = none.erase_counts.max() - none.erase_counts.min()
        spread_dyn = dyn.erase_counts.max() - dyn.erase_counts.min()
        assert spread_dyn <= spread_none + 2

    def test_static_moves_cold_blocks(self):
        static = self._hammer("static")
        dyn = self._hammer("dynamic")
        # Static WL must touch (erase) strictly more distinct blocks.
        assert (static.erase_counts > 0).sum() >= (dyn.erase_counts > 0).sum()

    def test_erase_counts_shape(self):
        ftl = self._hammer("dynamic", n=100)
        assert ftl.erase_counts.shape == (ftl.geometry.n_blocks,)


class TestConservationProperties:
    """Flash conservation laws over random host op streams."""

    op_streams = st.lists(
        st.tuples(st.booleans(), st.integers(0, 31)),
        min_size=1,
        max_size=400,
    )

    @staticmethod
    def _replay(ops, cmt_capacity=None):
        from repro.ssd import MappingTableCache

        g = SSDGeometry(
            user_bytes=32 * 1024,
            page_bytes=1024,
            pages_per_block=8,
            overprovision=0.3,
        )
        cmt = (
            MappingTableCache(cmt_capacity)
            if cmt_capacity is not None
            else None
        )
        ftl = PageMappedFTL(g, cmt=cmt)
        for is_write, lpn in ops:
            if is_write:
                ftl.write(lpn)
            else:
                ftl.trim(lpn)
        return ftl

    @given(ops=op_streams)
    @settings(max_examples=40, deadline=None)
    def test_nand_programs_conserved(self, ops):
        """Host pages + GC relocations == NAND page programs, always."""
        ftl = self._replay(ops)
        s = ftl.stats
        assert (
            s.nand_pages_written == s.host_pages_written + s.gc_pages_relocated
        )

    @given(ops=op_streams)
    @settings(max_examples=40, deadline=None)
    def test_write_amplification_at_least_one(self, ops):
        ftl = self._replay(ops)
        if ftl.stats.host_pages_written:
            assert ftl.stats.write_amplification >= 1.0

    @given(ops=op_streams)
    @settings(max_examples=40, deadline=None)
    def test_trim_never_resurrects_a_mapping(self, ops):
        """After a trim, the lpn stays unmapped until the next write."""
        ftl = self._replay(ops)
        last_op: dict[int, bool] = {}
        for is_write, lpn in ops:
            last_op[lpn] = is_write
        for lpn, was_write in last_op.items():
            assert mapped(ftl, lpn) == was_write
        ftl.check_invariants()

    @given(ops=op_streams, cmt_capacity=st.integers(1, 24))
    @settings(max_examples=40, deadline=None)
    def test_cmt_accounts_every_translation(self, ops, cmt_capacity):
        """CMT hits + misses == translation lookups == host ops."""
        ftl = self._replay(ops, cmt_capacity=cmt_capacity)
        s = ftl.cmt.stats
        assert s.hits + s.misses == s.lookups
        assert s.lookups == ftl.stats.translation_lookups == len(ops)


class TestPropertyBased:
    @given(
        ops=st.lists(
            st.tuples(st.booleans(), st.integers(0, 31)),
            min_size=1,
            max_size=400,
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_mapping_matches_reference_model(self, ops):
        """The FTL must agree with a trivial dict model of live pages."""
        g = SSDGeometry(
            user_bytes=32 * 1024,
            page_bytes=1024,
            pages_per_block=8,
            overprovision=0.3,
        )
        ftl = PageMappedFTL(g)
        live = set()
        for is_write, lpn in ops:
            if is_write:
                ftl.write(lpn)
                live.add(lpn)
            else:
                ftl.trim(lpn)
                live.discard(lpn)
        assert sum(ftl._valid) == len(live)
        for lpn in range(32):
            assert mapped(ftl, lpn) == (lpn in live)
        ftl.check_invariants()
