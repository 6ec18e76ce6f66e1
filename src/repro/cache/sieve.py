"""SIEVE (Zhang et al., NSDI'24) — lazy-promotion FIFO eviction.

The most recent point in the scan-resistance lineage this paper's
evaluation spans (FIFO → S3LRU/2Q → ARC/LIRS): a single FIFO queue, one
*visited* bit per object, and a roving **hand**.  Hits just set the bit
(no list movement — "lazy promotion"); eviction walks the hand from tail
toward head, clearing visited bits and evicting the first unvisited
object ("quick demotion" of one-timers).

Included because SIEVE attacks exactly the paper's problem — one-hit
wonders — structurally and with FIFO-write friendliness on flash.

Implementation: an intrusive doubly-linked list over dict nodes, O(1)
amortised per operation (the hand's work is paid for by the bits it
clears).
"""

from __future__ import annotations

from repro.cache.base import HIT, MISS, AccessResult, CachePolicy

__all__ = ["SieveCache"]


class _Node:
    __slots__ = ("oid", "size", "visited", "prev", "next")

    def __init__(self, oid: int, size: int):
        self.oid = oid
        self.size = size
        self.visited = False
        self.prev: _Node | None = None
        self.next: _Node | None = None


class SieveCache(CachePolicy):
    """SIEVE over integer object ids, size-aware."""

    def __init__(self, capacity_bytes: int):
        super().__init__(capacity_bytes)
        self._nodes: dict[int, _Node] = {}
        self._head: _Node | None = None  # newest
        self._tail: _Node | None = None  # oldest
        self._hand: _Node | None = None
        self._used = 0

    # ------------------------------------------------------------ list ops

    def _push_head(self, node: _Node) -> None:
        node.prev = None
        node.next = self._head
        if self._head is not None:
            self._head.prev = node
        self._head = node
        if self._tail is None:
            self._tail = node

    def _unlink(self, node: _Node) -> None:
        if node.prev is not None:
            node.prev.next = node.next
        else:
            self._head = node.next
        if node.next is not None:
            node.next.prev = node.prev
        else:
            self._tail = node.prev

    def _evict_one(self) -> int:
        hand = self._hand if self._hand is not None else self._tail
        # Walk toward the head, clearing visited bits, until an unvisited
        # object is found (guaranteed to terminate: bits only get cleared).
        while hand is not None and hand.visited:
            hand.visited = False
            hand = hand.prev
        if hand is None:  # wrapped past the head: restart from the tail
            hand = self._tail
            while hand is not None and hand.visited:
                hand.visited = False
                hand = hand.prev
            assert hand is not None, "eviction from an empty cache"
        victim = hand
        self._hand = victim.prev  # hand keeps its position (minus victim)
        self._unlink(victim)
        del self._nodes[victim.oid]
        self._used -= victim.size
        return victim.oid

    # --------------------------------------------------------------- access

    def can_batch_hits(self) -> bool:
        # A hit only sets the node's visited bit — no movement, no eviction
        # — so a run of hits collapses to one bit-set per distinct object.
        return True

    def access_batch(self, oids, sizes, distinct=None) -> tuple[int, tuple[int, ...]]:
        # Hit order is irrelevant for SIEVE (idempotent bit-sets), so one
        # membership sweep over the distinct objects suffices.
        n = len(oids)
        if n == 0:
            return 0, ()
        if distinct is None:
            if hasattr(oids, "tolist"):  # plain ints hash/compare faster
                oids = oids.tolist()
                sizes = sizes.tolist()
            if min(sizes) <= 0:
                return super().access_batch(oids, sizes)
            distinct = set(oids)
        get = self._nodes.get
        batch = []
        for o in distinct:
            node = get(o)
            if node is None:
                # Not the all-hit run the caller expected — fall back to
                # the exact early-stopping loop.
                return super().access_batch(oids, sizes)
            batch.append(node)
        for node in batch:
            node.visited = True
        return n, ()

    def access(self, oid: int, size: int, admit: bool = True) -> AccessResult:
        self._validate_request(size)
        node = self._nodes.get(oid)
        if node is not None:
            node.visited = True  # lazy promotion: no list movement
            return HIT
        if not admit or size > self.capacity:
            return MISS
        evicted = []
        while self._used + size > self.capacity:
            evicted.append(self._evict_one())
        node = _Node(oid, size)
        self._nodes[oid] = node
        self._push_head(node)
        self._used += size
        return AccessResult(hit=False, inserted=True, evicted=tuple(evicted))

    # ------------------------------------------------------------ interface

    @property
    def used_bytes(self) -> int:
        return self._used

    def __contains__(self, oid: int) -> bool:
        return oid in self._nodes

    def __len__(self) -> int:
        return len(self._nodes)
