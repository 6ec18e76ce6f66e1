"""LIRS — Low Inter-reference Recency Set (Jiang & Zhang, SIGMETRICS'02).

Size-aware implementation.  Objects are partitioned into

* **LIR** (low inter-reference recency) — resident, pinned by the stack;
* **resident HIR** — resident but first in line for eviction (queue Q);
* **non-resident HIR** — metadata-only history kept in the stack S.

The stack S orders objects by recency; its bottom is always LIR (stack
pruning).  A resident-HIR hit whose entry is still in S proves a small
inter-reference recency → the object is promoted to LIR and the stack-bottom
LIR is demoted to the queue.  Evictions take the queue front.

Capacity is split ``Cs`` bytes for LIR and the remainder for resident HIR
(``lir_fraction`` = 95 % by default, the classic 99/1 split softened for
variable object sizes).  ``rs`` exposes ``Cs/C``, the ratio the paper uses
for the LIRS one-time-access criterion ``M_LIRS = M_LRU × R_s`` (§5.2).

Non-resident history is bounded: when it outgrows ``history_factor`` × the
resident population the stack is rebuilt keeping only the most recent
entries (amortised O(1) per access).
"""

from __future__ import annotations

from collections import OrderedDict

from repro.cache.base import HIT, MISS, AccessResult, CachePolicy

__all__ = ["LIRSCache"]

_LIR = 0          # resident, protected
_HIR = 1          # resident, eviction candidate (also in Q)
_NONRES = 2       # history only


class LIRSCache(CachePolicy):
    """Size-aware LIRS."""

    def __init__(
        self,
        capacity_bytes: int,
        *,
        lir_fraction: float = 0.95,
        history_factor: int = 4,
    ):
        super().__init__(capacity_bytes)
        if not 0.0 < lir_fraction < 1.0:
            raise ValueError("lir_fraction must be in (0, 1)")
        if history_factor < 1:
            raise ValueError("history_factor must be >= 1")
        self.lir_capacity = max(1, int(capacity_bytes * lir_fraction))
        self.history_factor = history_factor
        self._stack: OrderedDict[int, int] = OrderedDict()  # oid -> state
        self._queue: OrderedDict[int, int] = OrderedDict()  # oid -> size
        self._size: dict[int, int] = {}                     # resident sizes
        self._lir_bytes = 0
        self._hir_bytes = 0
        self._n_nonres = 0

    # ---------------------------------------------------------- invariants

    @property
    def rs(self) -> float:
        """R_s = C_s / C — the stack share of capacity (§5.2)."""
        return self.lir_capacity / self.capacity

    @property
    def used_bytes(self) -> int:
        return self._lir_bytes + self._hir_bytes

    def __contains__(self, oid: int) -> bool:
        return oid in self._size

    def __len__(self) -> int:
        return len(self._size)

    # ------------------------------------------------------------ plumbing

    def _prune(self) -> None:
        """Pop non-LIR entries off the stack bottom (classic pruning)."""
        stack = self._stack
        while stack:
            oid = next(iter(stack))
            state = stack[oid]
            if state == _LIR:
                return
            del stack[oid]
            if state == _NONRES:
                self._n_nonres -= 1
            # _HIR entries stay resident in Q; they just lose history.

    def _demote_bottom_lir(self) -> None:
        """Move the stack-bottom LIR object to the queue tail as HIR."""
        # Evictions mark stack entries non-resident without pruning, so the
        # bottom may be stale here — prune first (callers guarantee a LIR
        # entry exists whenever demotion is required).
        self._prune()
        oid = next(iter(self._stack))
        assert self._stack[oid] == _LIR, "stack bottom must be LIR"
        del self._stack[oid]
        size = self._size[oid]
        self._lir_bytes -= size
        self._hir_bytes += size
        self._queue[oid] = size
        self._prune()

    def _enforce_lir_quota(self) -> None:
        while self._lir_bytes > self.lir_capacity and len(self._stack) > 1:
            self._demote_bottom_lir()

    def _evict_one(self, evicted: list[int]) -> None:
        """Evict the queue front (demoting a LIR first if Q is empty)."""
        if not self._queue:
            self._demote_bottom_lir()
        oid, size = self._queue.popitem(last=False)
        self._hir_bytes -= size
        del self._size[oid]
        if oid in self._stack:
            self._stack[oid] = _NONRES
            self._n_nonres += 1
        evicted.append(oid)

    def _make_room(self, size: int, evicted: list[int]) -> None:
        while self.used_bytes + size > self.capacity:
            self._evict_one(evicted)

    def _bound_history(self) -> None:
        limit = max(1024, self.history_factor * max(len(self._size), 1))
        if self._n_nonres <= limit:
            return
        # Rebuild the stack keeping all resident entries and the most
        # recent half of the allowed non-resident history.
        keep_nonres = limit // 2
        items = list(self._stack.items())
        nonres_positions = [i for i, (_, s) in enumerate(items) if s == _NONRES]
        drop = set(nonres_positions[: len(nonres_positions) - keep_nonres])
        self._stack = OrderedDict(
            (oid, s) for i, (oid, s) in enumerate(items) if i not in drop
        )
        self._n_nonres = len(nonres_positions) - len(drop)
        self._prune()

    # --------------------------------------------------------------- access

    def access(self, oid: int, size: int, admit: bool = True) -> AccessResult:
        self._validate_request(size)
        stack = self._stack
        state = stack.get(oid)

        # --- LIR hit
        if state == _LIR:
            stack.move_to_end(oid)
            self._prune()
            return HIT

        # --- resident HIR hit
        if oid in self._queue:
            sz = self._size[oid]
            if state is not None:  # in stack → small IRR → promote to LIR
                del self._queue[oid]
                self._hir_bytes -= sz
                self._lir_bytes += sz
                stack[oid] = _LIR
                stack.move_to_end(oid)
                self._enforce_lir_quota()
                self._prune()
            else:  # not in stack: refresh history, stay HIR
                self._queue.move_to_end(oid)
                stack[oid] = _HIR
                self._bound_history()
            return HIT

        # --- miss
        if not admit or size > self.capacity:
            return MISS

        evicted: list[int] = []
        self._make_room(size, evicted)
        self._size[oid] = size

        if state == _NONRES:  # recently seen → small IRR → straight to LIR
            self._n_nonres -= 1
            stack[oid] = _LIR
            stack.move_to_end(oid)
            self._lir_bytes += size
            self._enforce_lir_quota()
            self._prune()
        elif self._lir_bytes + size <= self.lir_capacity:
            # Warm-up: fill the LIR pool first (classic LIRS bootstrap).
            stack[oid] = _LIR
            stack.move_to_end(oid)
            self._lir_bytes += size
        else:
            stack[oid] = _HIR
            stack.move_to_end(oid)
            self._queue[oid] = size
            self._hir_bytes += size
        self._bound_history()
        return AccessResult(hit=False, inserted=True, evicted=tuple(evicted))
