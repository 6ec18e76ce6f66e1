"""Page-mapped flash translation layer with greedy garbage collection.

Models the device behaviour the paper's lifetime argument rests on:

* out-of-place writes — a logical overwrite programs a fresh page and
  invalidates the old one;
* erase-before-reuse at block granularity — blocks are recycled by GC,
  which must *relocate* still-valid pages first (the source of write
  amplification);
* greedy victim selection (fewest valid pages), the baseline the paper's
  GC-optimisation citations ([5], [33]) improve upon;
* TRIM — the cache layer invalidates evicted objects, which is what keeps
  a cache SSD's GC cheap;
* one host append point, as in the paper's single-stream deployment, plus
  a dedicated append point for GC relocations;
* wear accounting per block, feeding :mod:`repro.ssd.endurance`.

The mapping tables are stdlib typed arrays (``array("q")`` per page,
``array("i")`` per block — the footprint of the equivalent NumPy arrays),
so even multi-GiB devices simulate comfortably and the per-page ``write``
/ ``trim`` index plain Python ints instead of boxing NumPy scalars.  The
few vector passes (GC victim choice, live-page scan, invariants) build a
NumPy view on demand with ``np.frombuffer``; no view is stored, so a
pickled or deep-copied FTL owns exactly one copy of each table.
"""

from __future__ import annotations

from array import array
from collections import deque
from dataclasses import dataclass

import numpy as np

from repro.ssd.geometry import SSDGeometry

__all__ = ["FTLStats", "PageMappedFTL", "DeviceFullError"]

_UNMAPPED = -1


class DeviceFullError(RuntimeError):
    """Raised when a write cannot proceed: every block is fully valid."""


@dataclass
class FTLStats:
    """Traffic and wear counters.

    ``write_amplification`` = NAND page programs / host page writes — the
    factor by which GC inflates the paper's "cache writes" once they reach
    the flash.
    """

    host_pages_written: int = 0
    nand_pages_written: int = 0
    gc_pages_relocated: int = 0
    erases: int = 0
    trims: int = 0
    gc_runs: int = 0
    #: Host-issued logical-to-physical translations (writes and TRIMs).
    #: When a :class:`repro.ssd.cmt.MappingTableCache` is attached, its
    #: ``hits + misses`` equals this count exactly (conservation suite).
    translation_lookups: int = 0

    @property
    def write_amplification(self) -> float:
        if self.host_pages_written == 0:
            return 1.0
        return self.nand_pages_written / self.host_pages_written


class PageMappedFTL:
    """A page-mapped FTL over :class:`~repro.ssd.geometry.SSDGeometry`.

    Parameters
    ----------
    geometry:
        Device layout.
    wear_leveling:
        ``"dynamic"`` (default) allocates the least-worn free block;
        ``"none"`` allocates FIFO;
        ``"static"`` additionally forces cold blocks into rotation when the
        erase-count spread exceeds ``static_wl_spread``.
    static_wl_spread:
        Erase-count gap that triggers static wear levelling.
    cmt:
        Optional :class:`repro.ssd.cmt.MappingTableCache` — every
        host-issued translation (write or TRIM) is looked up through it,
        modelling DFTL's cached mapping table.  GC-internal relocations
        bypass it (serviced from the victim block's reverse map).
    """

    def __init__(
        self,
        geometry: SSDGeometry,
        *,
        wear_leveling: str = "dynamic",
        static_wl_spread: int = 64,
        cmt=None,
    ):
        if wear_leveling not in ("none", "dynamic", "static"):
            raise ValueError(f"unknown wear_leveling: {wear_leveling!r}")
        if static_wl_spread < 1:
            raise ValueError("static_wl_spread must be >= 1")
        # The host and GC append points each pin one open block, and GC
        # keeps two blocks free (one is its spare) to make progress.
        if geometry.n_blocks < 4:
            raise ValueError(
                f"geometry too small: {geometry.n_blocks} blocks < 4"
            )
        self.geometry = geometry
        self.wear_leveling = wear_leveling
        self.static_wl_spread = static_wl_spread
        self.cmt = cmt
        g = geometry

        self._ppb = g.pages_per_block
        self._user_pages = g.user_pages
        self._l2p = array("q", [_UNMAPPED]) * g.user_pages
        self._p2l = array("q", [_UNMAPPED]) * g.total_pages
        self._valid = array("i", [0]) * g.n_blocks
        self._erases = np.zeros(g.n_blocks, dtype=np.int64)
        self._is_free = np.ones(g.n_blocks, dtype=bool)
        self._free: deque[int] = deque(range(g.n_blocks))

        # Append points: [0] takes host writes, [1] GC relocations, so
        # relocated (long-lived) pages never share a block with fresh ones.
        self._active = [self._take_free_block() for _ in range(2)]
        self._ptr = [0, 0]
        self.stats = FTLStats()

    # ------------------------------------------------------------ plumbing

    def _take_free_block(self) -> int:
        if not self._free:
            raise DeviceFullError("no free blocks available")
        if self.wear_leveling in ("dynamic", "static") and len(self._free) > 1:
            # Dynamic wear levelling: open the least-worn free block.
            block = min(self._free, key=lambda b: self._erases[b])
            self._free.remove(block)
        else:
            block = self._free.popleft()
        self._is_free[block] = False
        return block

    def _advance_active(self, point: int) -> None:
        """Open a fresh block when the append point's block is full."""
        if self._ptr[point] < self._ppb:
            return
        self._active[point] = self._take_free_block()
        self._ptr[point] = 0

    def _ensure_free_headroom(self) -> None:
        """GC until ≥2 free blocks remain (one is the GC spare)."""
        while len(self._free) <= 1:
            if not self._gc_once():
                break

    def _victim_candidates(self) -> np.ndarray:
        mask = ~self._is_free
        for block in self._active:
            mask[block] = False
        return np.nonzero(mask)[0]

    def _pick_victim(self) -> int | None:
        candidates = self._victim_candidates()
        if candidates.shape[0] == 0:
            return None
        ppb = self._ppb
        valid = np.frombuffer(self._valid, dtype=np.intc)
        best = candidates[np.argmin(valid[candidates])]
        if valid[best] >= ppb:
            return None  # no space to reclaim anywhere
        if self.wear_leveling == "static":
            spread = self._erases.max() - self._erases.min()
            if spread > self.static_wl_spread:
                # Force the least-erased (cold) block into rotation even if
                # it is mostly valid — classic static wear levelling.
                cold = candidates[np.argmin(self._erases[candidates])]
                if valid[cold] < ppb:
                    return int(cold)
        return int(best)

    def _gc_once(self) -> bool:
        """Reclaim one block; returns False when nothing can be reclaimed."""
        victim = self._pick_victim()
        if victim is None:
            return False
        stats = self.stats
        stats.gc_runs += 1
        l2p, p2l, valid, ptr = self._l2p, self._p2l, self._valid, self._ptr
        ppb = self._ppb
        base = victim * ppb
        live = np.flatnonzero(
            np.frombuffer(p2l, dtype=np.int64)[base : base + ppb] != _UNMAPPED
        )
        # Relocations always land on the dedicated GC append point.
        for old in (base + live).tolist():
            # A victim has < ppb valid pages, so at most one fresh
            # destination block (the GC spare) is ever needed per run.
            self._advance_active(1)
            # Relocate: invalidate the old location, program at the GC
            # append point.
            lpn = p2l[old]
            p2l[old] = _UNMAPPED
            valid[victim] -= 1
            stats.gc_pages_relocated += 1
            block = self._active[1]
            ppn = block * ppb + ptr[1]
            l2p[lpn] = ppn
            p2l[ppn] = lpn
            valid[block] += 1
            stats.nand_pages_written += 1
            ptr[1] += 1
        # Erase and return to the free pool.
        assert valid[victim] == 0
        self._erases[victim] += 1
        stats.erases += 1
        self._is_free[victim] = True
        self._free.append(victim)
        return True

    # -------------------------------------------------------------- public

    def write(self, lpn: int) -> None:
        """Host write of one logical page at the host append point.

        The whole per-page step is this one frame (plus the CMT lookup):
        it runs once per host page, so translation, invalidation and the
        program are inlined rather than helper calls.
        """
        if not 0 <= lpn < self._user_pages:
            raise ValueError(f"lpn {lpn} out of range")
        stats = self.stats
        # Host-side L2P consultation: counted, routed through the CMT.
        stats.translation_lookups += 1
        if self.cmt is not None:
            self.cmt.lookup(lpn)
        l2p, p2l, valid, ptr = self._l2p, self._p2l, self._valid, self._ptr
        ppb = self._ppb
        old = l2p[lpn]
        if old != _UNMAPPED:
            p2l[old] = _UNMAPPED
            valid[old // ppb] -= 1
            l2p[lpn] = _UNMAPPED
        stats.host_pages_written += 1
        if ptr[0] == ppb:
            self._ensure_free_headroom()
            if not self._free:
                raise DeviceFullError(
                    "device full: every block is completely valid"
                )
            self._advance_active(0)
        # Program at the host write pointer (GC never runs in between).
        block = self._active[0]
        offset = ptr[0]
        ppn = block * ppb + offset
        l2p[lpn] = ppn
        p2l[ppn] = lpn
        valid[block] += 1
        stats.nand_pages_written += 1
        ptr[0] = offset + 1

    def trim(self, lpn: int) -> None:
        """Host TRIM: the logical page no longer holds useful data."""
        if not 0 <= lpn < self._user_pages:
            raise ValueError(f"lpn {lpn} out of range")
        stats = self.stats
        # The device must consult the mapping to learn whether the page is
        # live, so even a no-op TRIM is one translation.
        stats.translation_lookups += 1
        if self.cmt is not None:
            self.cmt.lookup(lpn)
        ppn = self._l2p[lpn]
        if ppn != _UNMAPPED:
            self._p2l[ppn] = _UNMAPPED
            self._valid[ppn // self._ppb] -= 1
            self._l2p[lpn] = _UNMAPPED
            stats.trims += 1

    @property
    def erase_counts(self) -> np.ndarray:
        """Per-block erase counts (copy)."""
        return self._erases.copy()

    def check_invariants(self) -> None:
        """Internal consistency (used by tests)."""
        l2p = np.frombuffer(self._l2p, dtype=np.int64)
        p2l = np.frombuffer(self._p2l, dtype=np.int64)
        valid = np.frombuffer(self._valid, dtype=np.intc)
        mapped = np.nonzero(l2p != _UNMAPPED)[0]
        assert (p2l[l2p[mapped]] == mapped).all()
        per_block = np.bincount(
            l2p[mapped] // self._ppb, minlength=self.geometry.n_blocks
        )
        assert (per_block == valid).all()
        assert (valid >= 0).all()
