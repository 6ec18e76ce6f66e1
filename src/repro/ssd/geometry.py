"""Flash geometry: pages, blocks, and over-provisioning.

Defaults model a small MLC device in the spirit of the paper's cache SSDs:
16 KiB pages, 256 pages/block, 7 % over-provisioning, 3 000 P/E cycles.
Geometry is deliberately independent of capacity so tests can use tiny
devices with the same code paths.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["SSDGeometry"]


@dataclass(frozen=True)
class SSDGeometry:
    """Physical layout of the simulated device.

    Parameters
    ----------
    user_bytes:
        Advertised capacity (what the cache may address).
    page_bytes / pages_per_block:
        NAND program and erase granularities.
    overprovision:
        Extra physical space fraction reserved for the FTL (reduces GC
        write amplification).
    pe_cycle_limit:
        Rated program/erase endurance per block.
    """

    user_bytes: int
    page_bytes: int = 16 * 1024
    pages_per_block: int = 256
    overprovision: float = 0.07
    pe_cycle_limit: int = 3000

    def __post_init__(self) -> None:
        if self.user_bytes <= 0:
            raise ValueError("user_bytes must be positive")
        if self.page_bytes <= 0 or self.pages_per_block <= 0:
            raise ValueError("page_bytes and pages_per_block must be positive")
        if not 0.0 <= self.overprovision < 1.0:
            raise ValueError("overprovision must be in [0, 1)")
        if self.pe_cycle_limit <= 0:
            raise ValueError("pe_cycle_limit must be positive")

    # ------------------------------------------------------------- derived

    @property
    def block_bytes(self) -> int:
        return self.page_bytes * self.pages_per_block

    @property
    def user_pages(self) -> int:
        """Logical pages addressable by the host."""
        return -(-self.user_bytes // self.page_bytes)  # ceil division

    @property
    def n_blocks(self) -> int:
        """Physical blocks, always enough to hold every logical page + 2
        spare blocks so GC can always make progress."""
        needed_pages = self.user_pages
        blocks_for_user = -(-needed_pages // self.pages_per_block)
        op_blocks = int(blocks_for_user * self.overprovision)
        return blocks_for_user + max(op_blocks, 2)

    @property
    def total_pages(self) -> int:
        return self.n_blocks * self.pages_per_block

    def pages_for(self, n_bytes: int) -> int:
        """Pages needed to store an object of ``n_bytes``."""
        if n_bytes <= 0:
            raise ValueError("n_bytes must be positive")
        return -(-n_bytes // self.page_bytes)
