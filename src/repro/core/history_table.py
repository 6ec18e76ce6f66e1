"""The history table (§4.4.2): FIFO rectification of one-time verdicts.

The table remembers photos recently classified as one-time.  When such a
photo misses again *within* the criterion window ``M``, the earlier verdict
is proven wrong: the photo is admitted this time and dropped from the table.
The paper sizes the DRAM table at ``M·(1−h)·p × 0.05`` entries (≈2–5 % of
the SSD metadata table) with FIFO eviction.
"""

from __future__ import annotations

from collections import OrderedDict

__all__ = ["HistoryTable"]


class HistoryTable:
    """Bounded FIFO map: object id → trace index of its one-time verdict."""

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = int(capacity)
        self._entries: OrderedDict[int, int] = OrderedDict()
        self.rectifications = 0  # misclassifications corrected (telemetry)

    @staticmethod
    def paper_capacity(m_threshold: float, hit_rate: float, one_time_share: float) -> int:
        """The paper's sizing rule: ``M (1−h) p × 0.05`` entries."""
        return max(
            1, int(m_threshold * (1.0 - hit_rate) * one_time_share * 0.05)
        )

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, oid: int) -> bool:
        return oid in self._entries

    def overrules(self, oid: int, index: int, m_threshold: float) -> bool:
        """The whole §4.4.2 rule for a miss the classifier judged one-time.

        True — ``oid`` was tabled within ``m_threshold`` requests: the entry
        is forgotten, counted in :attr:`rectifications`, and the caller
        admits.  False — the verdict stands (the caller denies): ``oid`` is
        tabled at ``index``, in place if already there (FIFO age is
        insertion order), else evicting the oldest entry of a full table.
        """
        entries = self._entries
        stored = entries.get(oid)
        if stored is None:
            if len(entries) >= self.capacity:
                entries.popitem(last=False)
        elif index - stored < m_threshold:
            del entries[oid]
            self.rectifications += 1
            return True
        entries[oid] = index
        return False

    def clear(self) -> None:
        self._entries.clear()
        self.rectifications = 0
