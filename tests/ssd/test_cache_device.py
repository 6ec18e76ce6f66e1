"""Tests for the cache → SSD adapter and the combined simulation."""

import pytest

from repro.cache import LRUCache, simulate
from repro.core.admission import AlwaysAdmit, OracleAdmission
from repro.core.labeling import one_time_labels
from repro.ssd import CacheSSD, SSDGeometry, simulate_on_ssd
from repro.trace import WorkloadConfig, generate_trace


@pytest.fixture(scope="module")
def trace():
    return generate_trace(WorkloadConfig(n_objects=3000, days=2.0, seed=51))


class TestCacheSSD:
    def _device(self):
        return CacheSSD(
            SSDGeometry(user_bytes=2**22, page_bytes=4096, pages_per_block=32)
        )

    def test_insert_programs_pages(self):
        dev = self._device()
        dev.on_insert(1, 10_000)  # 3 pages at 4 KiB
        assert dev.ftl.stats.host_pages_written == 3
        assert dev.resident_objects == 1

    def test_evict_trims_pages(self):
        dev = self._device()
        dev.on_insert(1, 10_000)
        dev.on_evict(1)
        assert dev.ftl.stats.trims == 3
        assert dev.resident_objects == 0
        assert dev.ftl.valid_pages == 0

    def test_pages_recycled(self):
        dev = self._device()
        for round_ in range(200):
            dev.on_insert(round_, 8000)
            dev.on_evict(round_)
        dev.ftl.check_invariants()

    def test_double_insert_rejected(self):
        dev = self._device()
        dev.on_insert(1, 100)
        with pytest.raises(RuntimeError, match="twice"):
            dev.on_insert(1, 100)

    def test_unknown_evict_rejected(self):
        dev = self._device()
        with pytest.raises(RuntimeError, match="unknown"):
            dev.on_evict(99)

    def test_pool_exhaustion_is_loud(self):
        dev = CacheSSD(
            SSDGeometry(user_bytes=2**15, page_bytes=4096, pages_per_block=4)
        )
        with pytest.raises(RuntimeError, match="pool exhausted"):
            for i in range(100):
                dev.on_insert(i, 4096)

    def test_for_capacity_sizing(self):
        dev = CacheSSD.for_capacity(2**24, mean_object_bytes=40_000)
        assert dev.geometry.user_bytes > 2**24
        with pytest.raises(ValueError):
            CacheSSD.for_capacity(0, mean_object_bytes=1)

    def test_for_capacity_shrinks_blocks_for_tiny_devices(self):
        dev = CacheSSD.for_capacity(
            2**22, mean_object_bytes=40_000, n_streams=2,
            temperature=lambda oid, size: 0,
        )
        assert dev.geometry.n_blocks >= 16

    def test_temperature_routes_streams(self):
        dev = CacheSSD(
            SSDGeometry(
                user_bytes=2**20, page_bytes=4096, pages_per_block=16
            ),
            n_streams=2,
            temperature=lambda oid, size: oid % 2,
        )
        dev.on_insert(0, 4096 * 4)  # stream 0
        dev.on_insert(1, 4096 * 4)  # stream 1
        ppb = dev.geometry.pages_per_block
        blocks0 = {int(dev.ftl._l2p[int(l)]) // ppb for l in dev._owned[0]}
        blocks1 = {int(dev.ftl._l2p[int(l)]) // ppb for l in dev._owned[1]}
        assert blocks0.isdisjoint(blocks1)

    def test_bad_stream_leaks_no_pages(self):
        dev = CacheSSD(
            SSDGeometry(
                user_bytes=2**22, page_bytes=4096, pages_per_block=32
            ),
            n_streams=2,
            temperature=lambda oid, size: 2,
        )
        free = len(dev._free_lpns)
        with pytest.raises(ValueError, match="stream 2 out of range"):
            dev.on_insert(7, 16384)
        assert len(dev._free_lpns) == free
        assert dev.resident_objects == 0
        assert dev.ftl.stats.host_pages_written == 0

    def test_temperature_needs_streams(self):
        with pytest.raises(ValueError, match="n_streams"):
            CacheSSD(
                SSDGeometry(user_bytes=2**20, page_bytes=4096,
                            pages_per_block=16),
                temperature=lambda oid, size: 0,
            )

    def test_no_trim_defers_invalidation(self):
        geom = SSDGeometry(
            user_bytes=2**20, page_bytes=4096, pages_per_block=16
        )
        trimmed = CacheSSD(geom)
        lazy = CacheSSD(geom, trim_on_evict=False)
        for dev in (trimmed, lazy):
            dev.on_insert(1, 4096 * 4)
            dev.on_evict(1)
        assert trimmed.ftl.valid_pages == 0
        assert lazy.ftl.valid_pages == 4  # pages stay valid until reuse
        # Reuse of the lpns finally invalidates the old copies.
        lazy.on_insert(2, 4096 * 4)
        assert lazy.ftl.valid_pages == 4
        lazy.ftl.check_invariants()


class TestSimulateOnSSD:
    def test_report_consistency(self, trace):
        cap = max(1, trace.footprint_bytes // 30)
        report = simulate_on_ssd(
            trace, LRUCache(cap), admission=AlwaysAdmit(), policy_name="lru"
        )
        f = report.device.ftl.stats
        s = report.simulation.stats
        # Host page writes must account for every cached byte (rounded up).
        assert f.host_pages_written >= s.bytes_written // report.device.geometry.page_bytes
        assert f.write_amplification >= 1.0
        assert report.lifetime.lifetime_days > 0
        report.device.ftl.check_invariants()
        assert "WA=" in report.summary()

    def test_admission_filter_extends_lifetime(self, trace):
        """The paper's lifetime chain, end to end on the device model."""
        cap = max(1, trace.footprint_bytes // 30)
        labels = one_time_labels(trace.object_ids, 500)
        base = simulate_on_ssd(trace, LRUCache(cap), admission=AlwaysAdmit())
        ideal = simulate_on_ssd(
            trace, LRUCache(cap), admission=OracleAdmission(labels)
        )
        assert (
            ideal.simulation.stats.bytes_written
            < base.simulation.stats.bytes_written
        )
        assert ideal.lifetime.lifetime_days > base.lifetime.lifetime_days
        # Lifetime gain at least proportional to the byte-write reduction
        # (GC relief can only help further).
        reduction = (
            ideal.simulation.stats.bytes_written
            / base.simulation.stats.bytes_written
        )
        assert ideal.lifetime.ratio_vs(base.lifetime) >= 0.8 / reduction

    def test_observer_stream_matches_stats(self, trace):
        """Inserts seen by the observer == files_written in the stats."""

        class Counter(CacheSSD):
            def __init__(self):
                self.inserts = 0
                self.evicts = 0

            def on_insert(self, oid, size):
                self.inserts += 1

            def on_evict(self, oid):
                self.evicts += 1

        counter = Counter()
        cap = max(1, trace.footprint_bytes // 30)
        result = simulate(trace, LRUCache(cap), observer=counter)
        assert counter.inserts == result.stats.files_written
        assert counter.evicts == result.stats.evictions
