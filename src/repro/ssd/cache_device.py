"""Adapter: a cache simulation's mutation stream driving the FTL.

:class:`CacheSSD` implements :class:`repro.cache.base.CacheObserver`:
inserted objects are programmed page-by-page, evicted objects are TRIMmed.
Because the FTL is page-mapped, an object's logical pages need not be
contiguous, so allocation is a simple free-page stack — no fragmentation.

:func:`simulate_on_ssd` bundles the common pattern: run a trace through a
policy + admission filter while a device model records the flash-level
consequences (write amplification, erases, wear spread, lifetime).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cache.base import AdmissionPolicy, CacheObserver, CachePolicy
from repro.cache.simulator import SimulationResult, simulate
from repro.ssd.cmt import MappingTableCache
from repro.ssd.endurance import EnduranceModel, LifetimeEstimate
from repro.ssd.ftl import PageMappedFTL
from repro.ssd.geometry import SSDGeometry
from repro.ssd.wear import WearStats
from repro.trace.records import Trace

__all__ = ["CacheSSD", "SSDRunReport", "simulate_on_ssd"]


class CacheSSD(CacheObserver):
    """An SSD holding cache objects, fed by the simulator's observer hook.

    Parameters
    ----------
    geometry:
        Device layout.  ``user_bytes`` must exceed the cache capacity by
        enough slack to absorb per-object page rounding (an 1-byte object
        still occupies one page) — :meth:`for_capacity` picks a safe size.
    wear_leveling:
        Forwarded to :class:`~repro.ssd.ftl.PageMappedFTL`.
    """

    def __init__(
        self,
        geometry: SSDGeometry,
        *,
        wear_leveling: str = "dynamic",
        n_streams: int = 1,
        temperature=None,
        trim_on_evict: bool = True,
        cmt: MappingTableCache | None = None,
    ):
        """``temperature(oid, size) -> stream`` routes objects to write
        streams (multi-stream separation); e.g. the admission classifier's
        confidence can steer likely-short-lived objects away from
        long-lived ones, cutting GC write amplification.

        ``trim_on_evict=False`` models cache stacks that do not issue TRIM:
        an evicted object's pages stay valid until their logical pages are
        reallocated — the regime where lifetime-aware placement matters
        most.

        ``cmt`` attaches a DFTL-style cached mapping table: host-issued
        translations (writes and TRIMs) are accounted through it, so the
        report can expose translation-cache pressure per admission scheme."""
        if temperature is not None and n_streams < 2:
            raise ValueError("temperature routing needs n_streams >= 2")
        self.geometry = geometry
        self.ftl = PageMappedFTL(
            geometry, wear_leveling=wear_leveling, n_streams=n_streams, cmt=cmt
        )
        self.temperature = temperature
        self.trim_on_evict = trim_on_evict
        # Free logical pages as a stack; object -> list of owned lpns.
        self._free_lpns: list[int] = list(range(geometry.user_pages - 1, -1, -1))
        self._owned: dict[int, list[int]] = {}

    @classmethod
    def for_capacity(
        cls,
        cache_bytes: int,
        *,
        mean_object_bytes: float,
        page_bytes: int = 16 * 1024,
        slack: float = 0.25,
        wear_leveling: str = "dynamic",
        n_streams: int = 1,
        temperature=None,
        trim_on_evict: bool = True,
        cmt_fraction: float | None = 0.25,
        cmt_miss_penalty_us: float = 25.0,
        **geometry_kwargs,
    ) -> "CacheSSD":
        """Size a device for a cache of ``cache_bytes``.

        Page rounding wastes up to one page per object; with expected
        object count ``cache_bytes / mean_object_bytes``, the logical space
        is padded by that worst case plus ``slack``.

        ``cmt_fraction`` sizes the cached mapping table as a fraction of
        the device's logical pages (DFTL devices cache a sliver of the
        full table; 25 % keeps down-scaled experiments meaningfully
        pressured).  ``None`` disables the CMT model entirely.
        """
        if cache_bytes <= 0 or mean_object_bytes <= 0:
            raise ValueError("cache_bytes and mean_object_bytes must be positive")
        expected_objects = max(1, int(cache_bytes / mean_object_bytes))
        padding = expected_objects * page_bytes
        user_bytes = int((cache_bytes + padding) * (1.0 + slack))
        # Down-scaled experiments produce tiny devices; shrink the erase
        # block until the device has enough blocks for its append points
        # (plus sensible GC headroom) at the realistic page size.
        ppb = int(geometry_kwargs.pop("pages_per_block", 256))
        min_blocks = max(16, n_streams + 3)
        while ppb > 4:
            geometry = SSDGeometry(
                user_bytes=user_bytes,
                page_bytes=page_bytes,
                pages_per_block=ppb,
                **geometry_kwargs,
            )
            if geometry.n_blocks >= min_blocks:
                break
            ppb //= 2
        else:  # pragma: no cover - ppb floor reached
            geometry = SSDGeometry(
                user_bytes=user_bytes,
                page_bytes=page_bytes,
                pages_per_block=ppb,
                **geometry_kwargs,
            )
        cmt = None
        if cmt_fraction is not None:
            if not 0.0 < cmt_fraction <= 1.0:
                raise ValueError("cmt_fraction must be in (0, 1]")
            cmt = MappingTableCache(
                max(1, int(geometry.user_pages * cmt_fraction)),
                miss_penalty_us=cmt_miss_penalty_us,
            )
        return cls(
            geometry,
            wear_leveling=wear_leveling,
            n_streams=n_streams,
            temperature=temperature,
            trim_on_evict=trim_on_evict,
            cmt=cmt,
        )

    @property
    def cmt(self) -> MappingTableCache | None:
        return self.ftl.cmt

    # ----------------------------------------------------------- observer

    def on_insert(self, oid: int, size: int) -> None:
        if oid in self._owned:
            raise RuntimeError(f"object {oid} inserted twice without eviction")
        n = self.geometry.pages_for(size)
        free = self._free_lpns
        if n > len(free):
            raise RuntimeError(
                "logical page pool exhausted: increase the device slack "
                f"(object needs {n} pages, {len(free)} free)"
            )
        # Resolve the stream before taking pages, so a bad one leaks none.
        stream = self.temperature(oid, size) if self.temperature else 0
        if not 0 <= stream < self.ftl.n_streams:
            raise ValueError(f"stream {stream} out of range")
        lpns = free[:-n - 1:-1]  # the top n of the stack, in pop order
        del free[-n:]
        write = self.ftl.write
        for lpn in lpns:
            write(lpn, stream)
        self._owned[oid] = lpns

    def on_evict(self, oid: int) -> None:
        lpns = self._owned.pop(oid, None)
        if lpns is None:
            raise RuntimeError(f"eviction of unknown object {oid}")
        if self.trim_on_evict:
            trim = self.ftl.trim
            for lpn in lpns:
                trim(lpn)
        # Without TRIM the pages stay valid until the lpns are reused —
        # the FTL sees the death only at overwrite time.
        self._free_lpns.extend(lpns)

    # -------------------------------------------------------------- report

    @property
    def wear(self) -> WearStats:
        return WearStats.from_erase_counts(self.ftl.erase_counts)

    @property
    def resident_objects(self) -> int:
        return len(self._owned)

    def lifetime(
        self, host_bytes_per_day: float
    ) -> LifetimeEstimate:
        """Project lifetime from this run's measured write amplification."""
        return EnduranceModel(self.geometry).lifetime(
            host_bytes_per_day,
            write_amplification=self.ftl.stats.write_amplification,
            wear=self.wear if self.wear.max_erases > 0 else None,
        )


@dataclass
class SSDRunReport:
    """Cache-level and flash-level outcome of one simulated run."""

    simulation: SimulationResult
    device: CacheSSD
    host_bytes_per_day: float
    lifetime: LifetimeEstimate

    @property
    def cmt_miss_rate(self) -> float:
        """Translation-cache miss rate (0.0 when no CMT is attached)."""
        cmt = self.device.cmt
        return cmt.stats.miss_rate if cmt is not None else 0.0

    def summary(self) -> str:
        s = self.simulation.stats
        f = self.device.ftl.stats
        w = self.device.wear
        lines = [
            f"cache: hit={s.hit_rate:.3f} writes={s.files_written:,} "
            f"({s.bytes_written / 2**20:.1f} MiB)",
            f"flash: WA={f.write_amplification:.3f} erases={f.erases:,} "
            f"GC relocations={f.gc_pages_relocated:,} "
            f"wear spread={w.spread} levelling={w.levelling_efficiency:.3f}",
        ]
        cmt = self.device.cmt
        if cmt is not None:
            lines.append(
                f"cmt: miss={cmt.stats.miss_rate:.3f} "
                f"lookups={cmt.stats.lookups:,} "
                f"evictions={cmt.stats.evictions:,} "
                f"added latency={cmt.added_latency_us / 1e3:.1f} ms"
            )
        lines.append(
            f"lifetime: {self.lifetime.lifetime_days:,.0f} days at "
            f"{self.host_bytes_per_day / 2**30:.2f} GiB/day host writes"
        )
        return "\n".join(lines)


def simulate_on_ssd(
    trace: Trace,
    policy: CachePolicy,
    *,
    admission: AdmissionPolicy | None = None,
    device: CacheSSD | None = None,
    policy_name: str | None = None,
) -> SSDRunReport:
    """Replay ``trace`` with a device model attached.

    The returned report scales the run's write volume to bytes/day using
    the trace duration, then projects lifetime with the *measured* write
    amplification and wear state.
    """
    if device is None:
        device = CacheSSD.for_capacity(
            policy.capacity, mean_object_bytes=trace.mean_object_size()
        )
    result = simulate(
        trace, policy, admission=admission, observer=device,
        policy_name=policy_name,
    )
    days = trace.duration / 86400.0
    host_bytes_per_day = max(result.stats.bytes_written / days, 1.0)
    return SSDRunReport(
        simulation=result,
        device=device,
        host_bytes_per_day=host_bytes_per_day,
        lifetime=device.lifetime(host_bytes_per_day),
    )
