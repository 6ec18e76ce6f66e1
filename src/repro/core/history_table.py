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

    def record(self, oid: int, index: int) -> None:
        """Remember that ``oid`` was judged one-time at trace position ``index``."""
        entries = self._entries
        if oid in entries:
            # Refresh the verdict position; keep FIFO age (no move_to_end —
            # FIFO evicts by insertion order, not recency).
            entries[oid] = index
            return
        if len(entries) >= self.capacity:
            entries.popitem(last=False)
        entries[oid] = index

    def rectify(self, oid: int, index: int, m_threshold: float) -> bool:
        """Check whether a renewed miss proves the earlier verdict wrong.

        Returns True — and forgets the entry — when ``oid`` was tabled and
        has come back within ``m_threshold`` requests; the caller should
        then admit the object.  Returns False otherwise (entry, if any, is
        left in place).
        """
        stored = self._entries.get(oid)
        if stored is None:
            return False
        if index - stored < m_threshold:
            del self._entries[oid]
            self.rectifications += 1
            return True
        return False

    def overrules(self, oid: int, index: int, m_threshold: float) -> bool:
        """The whole §4.4.2 rule for a miss the classifier judged one-time.

        True — the table overrules the verdict (``oid`` was tabled within
        ``m_threshold`` requests; admit it).  False — the verdict stands:
        it is tabled at ``index`` and the caller denies admission.
        """
        if self.rectify(oid, index, m_threshold):
            return True
        self.record(oid, index)
        return False

    def clear(self) -> None:
        self._entries.clear()
        self.rectifications = 0
