"""Sampled structured decision tracing for the cache node.

A :class:`DecisionTrace` is a fixed-capacity ring buffer of per-request
event dicts recorded on the node's hot path.  Sampling is *deterministic
in the trace position* (a multiplicative hash of ``index``), so two
replays of the same trace sample the same requests — and a distributed
deployment sampling by position would trace the same request on every
tier it touches.

Event schema (all keys always present)::

    {
      "index":      int,          # trace position
      "object_id":  int,
      "trace_time": float,        # trace-clock seconds
      "hit":        bool,
      "verdict":    int | null,   # classifier output (null: hit / no model)
      "denied":     bool,         # admission refused
      "rectified":  bool,         # history-table override (§4.4.2)
      "features":   [float] | null,   # classifier input row (null with verdict)
      "t_classify": float,        # this decision's gather + tree-walk seconds
    }

The classifier is consulted on a miss and on nothing else (Fig. 4), so a hit
carries ``verdict: null, features: null, t_classify: 0.0``; a miss carries
what the admission captured at decision time.

The buffer is drained over the TCP ``TRACE`` verb (``repro trace-dump``)
as JSON lines via :func:`repro.obs.structlog.json_line` — the same
encoding the structured logs use.
"""

from __future__ import annotations

from collections import deque

from repro.obs.structlog import json_line

__all__ = ["EVENT_FIELDS", "DecisionTrace"]

EVENT_FIELDS = (
    "index",
    "object_id",
    "trace_time",
    "hit",
    "verdict",
    "denied",
    "rectified",
    "features",
    "t_classify",
)

#: Knuth's multiplicative hash constant (2**32 / phi): spreads consecutive
#: indices uniformly over [0, 2**32) so rate-based sampling is unbiased
#: even for strided access patterns.
_HASH = 2654435761
_DENOM = float(2**32)


class DecisionTrace:
    """Ring-buffered, sampled per-decision event log."""

    def __init__(self, capacity: int = 4096, sample_rate: float = 1.0):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        if not 0.0 <= sample_rate <= 1.0:
            raise ValueError("sample_rate must be in [0, 1]")
        self.capacity = int(capacity)
        self.sample_rate = float(sample_rate)
        self._events: deque[dict] = deque(maxlen=self.capacity)
        self.seen = 0      # requests offered to the sampler
        self.sampled = 0   # events actually recorded

    def should_sample(self, index: int) -> bool:
        """Deterministic per-position sampling decision."""
        self.seen += 1
        if self.sample_rate >= 1.0:
            return True
        if self.sample_rate <= 0.0:
            return False
        return ((index * _HASH) & 0xFFFFFFFF) / _DENOM < self.sample_rate

    def record(self, event: dict) -> None:
        self.sampled += 1
        self._events.append(event)

    @property
    def dropped(self) -> int:
        """Sampled events evicted by the ring bound."""
        return self.sampled - len(self._events)

    def events(self, limit: int | None = None, *, clear: bool = False) -> list[dict]:
        """Most recent events, oldest first (at most ``limit``)."""
        out = list(self._events)
        if limit is not None:
            if limit < 0:
                raise ValueError("limit must be >= 0")
            out = out[-limit:] if limit else []
        if clear:
            self._events.clear()
        return out

    def clear(self) -> None:
        self._events.clear()
        self.seen = 0
        self.sampled = 0

    def __len__(self) -> int:
        return len(self._events)

    @staticmethod
    def to_jsonl(events: list[dict]) -> str:
        """Render events as JSON lines (one object per line)."""
        return "\n".join(json_line(e) for e in events)
