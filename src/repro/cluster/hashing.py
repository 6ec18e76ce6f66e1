"""Deterministic consistent hashing for OC-node sharding.

Python's built-in ``hash`` is salted per process, so the ring uses FNV-1a —
stable across runs, cheap, and good enough dispersion for sharding
integer object ids.  Virtual nodes (replicas) smooth the load distribution;
lookups are a binary search over the sorted token array.
"""

from __future__ import annotations

import bisect

__all__ = ["stable_hash", "ConsistentHashRing"]

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_MASK = 0xFFFFFFFFFFFFFFFF


def stable_hash(key: str | int) -> int:
    """64-bit hash, identical across processes and runs.

    FNV-1a core with a splitmix64-style avalanche finaliser: plain FNV-1a
    barely stirs the high bits on short keys, which would skew a ring
    lookup that binary-searches the full 64-bit space.
    """
    data = str(key).encode()
    h = _FNV_OFFSET
    for byte in data:
        h ^= byte
        h = (h * _FNV_PRIME) & _MASK
    # splitmix64 finaliser
    h = (h ^ (h >> 30)) * 0xBF58476D1CE4E5B9 & _MASK
    h = (h ^ (h >> 27)) * 0x94D049BB133111EB & _MASK
    return h ^ (h >> 31)


class ConsistentHashRing:
    """Consistent-hash ring mapping keys to node names.

    Parameters
    ----------
    nodes:
        Node names (order-independent).
    replicas:
        Virtual nodes per physical node (higher = better balance).
    """

    def __init__(self, nodes, *, replicas: int = 64):
        nodes = list(nodes)
        if not nodes:
            raise ValueError("ring needs at least one node")
        if len(set(nodes)) != len(nodes):
            raise ValueError("duplicate node names")
        if replicas < 1:
            raise ValueError("replicas must be >= 1")
        self.replicas = replicas
        self._tokens: list[int] = []
        self._owners: list[str] = []
        points = []
        for node in nodes:
            for r in range(replicas):
                points.append((stable_hash(f"{node}#{r}"), node))
        points.sort()
        self._tokens = [t for t, _ in points]
        self._owners = [n for _, n in points]
        self.nodes = sorted(nodes)

    def lookup(self, key: str | int) -> str:
        """Node owning ``key`` (first token clockwise of its hash)."""
        h = stable_hash(key)
        idx = bisect.bisect_right(self._tokens, h)
        if idx == len(self._tokens):
            idx = 0
        return self._owners[idx]

    def lookup_n(self, key: str | int, n: int) -> tuple[str, ...]:
        """The ``n`` distinct nodes owning ``key``, in preference order.

        The walk continues clockwise past :meth:`lookup`'s token, skipping
        virtual nodes of owners already collected, so ``lookup_n(key, 1)``
        equals ``(lookup(key),)`` and replica sets are consistent under
        membership changes: removing a node deletes only its tokens, which
        leaves the relative walk order of every other owner untouched — a
        key's reduced owner sequence is its full sequence with the removed
        node struck out.
        """
        if n < 1:
            raise ValueError("n must be >= 1")
        if n > len(self.nodes):
            raise ValueError(
                f"cannot pick {n} distinct owners from {len(self.nodes)} nodes"
            )
        h = stable_hash(key)
        idx = bisect.bisect_right(self._tokens, h)
        owners: list[str] = []
        seen = set()
        tokens = len(self._tokens)
        for step in range(tokens):
            owner = self._owners[(idx + step) % tokens]
            if owner not in seen:
                seen.add(owner)
                owners.append(owner)
                if len(owners) == n:
                    break
        return tuple(owners)
