"""Dependency-free span tracing with Chrome trace-event export.

A *span* is one named, timed interval of work (``perf_counter_ns``
endpoints) with a category and free-form ``args``.  :class:`Tracer`
collects finished spans into a bounded ring buffer; the buffer drains
through the TCP ``SPANS`` verb (``repro spans-dump``) or in-process via
:meth:`Tracer.events` / :meth:`Tracer.to_chrome`, producing Chrome
trace-event JSON that loads directly in Perfetto / ``chrome://tracing``.

Design constraints, in order:

* **Strict no-op when disabled.**  ``Tracer(enabled=False)`` (and the
  shared :data:`NULL_TRACER`) return a singleton :data:`NULL_SPAN` from
  :meth:`Tracer.span` — no allocation, no clock read, no buffer touch.
  ``tests/obs/test_spans.py::TestDisabledNoOp`` pins it: a disabled
  tracer never reads its clock.
* **Trees survive asyncio interleaving.**  Chrome "complete" events
  (``ph: "X"``) nest purely by time containment *per tid*; concurrent
  request batches would interleave into nonsense on a single track.  The
  current track id travels in a :class:`contextvars.ContextVar`, so a
  span opened with no enclosing span starts a fresh track, children
  (including those in ``await``-ed code and tasks created inside the
  span) inherit it, and independent roots never share a tid.
* **Bounded memory.**  The ring keeps the newest ``capacity`` finished
  spans; :attr:`Tracer.dropped` counts evictions (never drained spans)
  so a drain can report loss honestly.

Span bodies use the context-manager form::

    with tracer.span("batch_inference", "node", n=len(rows)):
        verdicts = predictor.predict(rows)

and already-timed intervals (e.g. queue wait measured from a request's
enqueue timestamp) are recorded post-hoc with :meth:`Tracer.add`.
"""

from __future__ import annotations

import contextvars
import time
from collections import deque

__all__ = [
    "NULL_SPAN",
    "NULL_TRACER",
    "Span",
    "Tracer",
    "chrome_trace",
    "validate_chrome_trace",
]

#: Track id (Chrome ``tid``) of the innermost open span in this context;
#: ``None`` means "no enclosing span — the next span roots a new track".
_CURRENT_TRACK: contextvars.ContextVar[int | None] = contextvars.ContextVar(
    "repro_span_track", default=None
)


class _NullSpan:
    """Shared do-nothing span: the disabled tracer's entire overhead."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc) -> bool:
        return False

    def annotate(self, **args) -> "_NullSpan":
        return self

    @property
    def track(self) -> None:
        return None


NULL_SPAN = _NullSpan()


class _TrackScope:
    """Context manager pinning the current track id (see ``use_track``)."""

    __slots__ = ("track", "_token")

    def __init__(self, track: int):
        self.track = track

    def __enter__(self) -> int:
        self._token = _CURRENT_TRACK.set(self.track)
        return self.track

    def __exit__(self, *exc) -> bool:
        _CURRENT_TRACK.reset(self._token)
        return False


class Span:
    """One in-flight timed interval; record via ``with`` (enter = start,
    exit = stop + append to the owning tracer's ring)."""

    __slots__ = ("tracer", "name", "cat", "args", "track",
                 "start_ns", "end_ns", "_start_override", "_token")

    def __init__(self, tracer: "Tracer", name: str, cat: str,
                 args: dict, start_ns: int | None):
        self.tracer = tracer
        self.name = name
        self.cat = cat
        self.args = args
        self.track: int | None = None
        self.start_ns = 0
        self.end_ns = 0
        self._start_override = start_ns

    def __enter__(self) -> "Span":
        parent = _CURRENT_TRACK.get()
        self.track = parent if parent is not None else self.tracer.new_track()
        self._token = _CURRENT_TRACK.set(self.track)
        self.start_ns = (
            self._start_override
            if self._start_override is not None
            else self.tracer.clock()
        )
        return self

    def __exit__(self, *exc) -> bool:
        self.end_ns = self.tracer.clock()
        _CURRENT_TRACK.reset(self._token)
        self.tracer._record(
            self.name, self.cat, self.track, self.start_ns, self.end_ns,
            self.args,
        )
        return False

    def annotate(self, **args) -> "Span":
        """Attach/overwrite args mid-span (e.g. a result count)."""
        self.args.update(args)
        return self


class Tracer:
    """Bounded ring of finished spans with contextvar track propagation.

    One tracer is shared per process (node + server + retrainer see the
    same instance), so a drain sees a coherent timeline.  Single-writer
    asyncio use needs no locking; the deque append is atomic enough for
    the read-mostly drain path.
    """

    def __init__(self, capacity: int = 16_384, *, enabled: bool = True,
                 clock=time.perf_counter_ns):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self.enabled = enabled
        self.clock = clock
        self._spans: deque[dict] = deque(maxlen=capacity)
        self.recorded = 0      # spans ever finished (ring may have evicted)
        self._drained = 0      # spans removed by ``events(clear=True)``
        self._next_track = _TrackCounter()

    # ------------------------------------------------------------ recording

    def span(self, name: str, cat: str = "task",
             start_ns: int | None = None, **args):
        """A context-managed span; :data:`NULL_SPAN` when disabled.

        ``start_ns`` backdates the start (for intervals that began before
        the span object could exist, e.g. a batch whose root starts at
        the earliest request's enqueue time); children opened inside
        still nest on the same track.
        """
        if not self.enabled:
            return NULL_SPAN
        return Span(self, name, cat, args, start_ns)

    def add(self, name: str, cat: str, start_ns: int, end_ns: int, *,
            track: int | None = None, args: dict | None = None) -> None:
        """Record an already-measured interval without entering a span."""
        if not self.enabled:
            return
        if track is None:
            track = _CURRENT_TRACK.get()
            if track is None:
                track = self.new_track()
        self._record(name, cat, track, start_ns, end_ns,
                     {} if args is None else args)

    def use_track(self, track: int | None = None):
        """Pin the current track for a block, so spans opened inside —
        including manual :meth:`add` calls and nested context-managed
        spans — land on one tid.  No-op context when disabled."""
        if not self.enabled:
            return NULL_SPAN
        return _TrackScope(self.new_track() if track is None else track)

    def new_track(self) -> int:
        return self._next_track()

    def _record(self, name, cat, track, start_ns, end_ns, args) -> None:
        self._spans.append(
            {
                "name": name,
                "cat": cat,
                "track": track,
                "start_ns": start_ns,
                "end_ns": end_ns,
                "args": args,
            }
        )
        self.recorded += 1

    # -------------------------------------------------------------- reading

    def __len__(self) -> int:
        return len(self._spans)

    def __bool__(self) -> bool:
        # Never buffer-dependent: ``tracer or NULL_TRACER`` must keep the
        # real tracer even while its ring is still empty.
        return True

    @property
    def dropped(self) -> int:
        """Finished spans evicted by the ring bound (a drain is not a drop)."""
        return self.recorded - self._drained - len(self._spans)

    def events(self, limit: int | None = None, *, clear: bool = False) -> list[dict]:
        """The newest buffered spans, oldest-first (up to ``limit``)."""
        spans = list(self._spans)
        if limit is not None and limit < len(spans):
            spans = spans[len(spans) - limit:]
        if clear:
            self._drained += len(self._spans)
            self._spans.clear()
        return spans

    def clear(self) -> None:
        self._spans.clear()
        self.recorded = 0
        self._drained = 0

    def to_chrome(self, *, process_name: str = "repro") -> dict:
        """Chrome trace-event JSON of the buffered spans."""
        return chrome_trace(self.events(), process_name=process_name)


class _TrackCounter:
    """Monotonic track-id source (plain int counter, picklable-free)."""

    __slots__ = ("_n",)

    def __init__(self):
        self._n = 0

    def __call__(self) -> int:
        self._n += 1
        return self._n


#: Shared disabled tracer: lets call sites write
#: ``spans = node.spans or NULL_TRACER`` and drop the None checks.
NULL_TRACER = Tracer(capacity=1, enabled=False)


# --------------------------------------------------------------------------
# Chrome trace-event export
# --------------------------------------------------------------------------

def chrome_trace(events: list[dict], *, process_name: str = "repro",
                 pid: int = 1) -> dict:
    """Convert drained span dicts to the Chrome trace-event JSON format.

    Emits one "complete" (``ph: "X"``) event per span with microsecond
    ``ts``/``dur`` rebased to the earliest span, plus a ``process_name``
    metadata record so Perfetto labels the track group.  The output loads
    in https://ui.perfetto.dev (open → drop the JSON file).
    """
    trace_events: list[dict] = [
        {
            "name": "process_name",
            "ph": "M",
            "pid": pid,
            "tid": 0,
            "args": {"name": process_name},
        }
    ]
    if events:
        origin = min(e["start_ns"] for e in events)
        for e in events:
            trace_events.append(
                {
                    "name": e["name"],
                    "cat": e["cat"],
                    "ph": "X",
                    "ts": (e["start_ns"] - origin) / 1000.0,
                    "dur": max(e["end_ns"] - e["start_ns"], 0) / 1000.0,
                    "pid": pid,
                    "tid": e["track"],
                    "args": e["args"],
                }
            )
    return {"traceEvents": trace_events, "displayTimeUnit": "ms"}


def validate_chrome_trace(obj) -> int:
    """Sanity-check a Chrome trace-event document; returns the span count.

    Verifies the subset of the trace-event schema this repo emits (and
    that Perfetto requires to load a file): a top-level ``traceEvents``
    list whose entries have a string ``name``/``ph``, and whose complete
    (``"X"``) events carry numeric non-negative ``ts``/``dur`` plus
    integer ``pid``/``tid``.  Raises :class:`ValueError` on the first
    violation; ``benchmarks/bench_cluster_scenario.py`` checks its
    ``--chrome-trace`` export with this before writing it.
    """
    if not isinstance(obj, dict):
        raise ValueError("trace document must be a JSON object")
    events = obj.get("traceEvents")
    if not isinstance(events, list):
        raise ValueError("traceEvents must be a list")
    n_spans = 0
    for pos, e in enumerate(events):
        where = f"traceEvents[{pos}]"
        if not isinstance(e, dict):
            raise ValueError(f"{where}: not an object")
        if not isinstance(e.get("name"), str):
            raise ValueError(f"{where}: missing string 'name'")
        ph = e.get("ph")
        if not isinstance(ph, str) or not ph:
            raise ValueError(f"{where}: missing string 'ph'")
        if ph != "X":
            continue
        for key in ("ts", "dur"):
            v = e.get(key)
            if not isinstance(v, (int, float)) or isinstance(v, bool) or v < 0:
                raise ValueError(f"{where}: {key!r} must be a number >= 0")
        for key in ("pid", "tid"):
            v = e.get(key)
            if not isinstance(v, int) or isinstance(v, bool):
                raise ValueError(f"{where}: {key!r} must be an integer")
        if "args" in e and not isinstance(e["args"], dict):
            raise ValueError(f"{where}: 'args' must be an object")
        n_spans += 1
    return n_spans
