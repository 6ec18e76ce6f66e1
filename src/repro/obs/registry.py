"""Dependency-free metrics primitives for the serving stack.

A deliberately small subset of the Prometheus data model — enough to make
every layer of the node observable without adding a client-library
dependency:

* :class:`Counter` — monotone float, ``inc()``.
* :class:`Gauge` — settable float, ``set()/inc()/dec()``.
* :class:`Histogram` — fixed-bucket distribution, ``observe()``.  The
  default buckets are log-scale latency buckets (1 µs … ~8 s), matching
  the quantities the node actually measures (``t_classify``, service
  latency).
* :class:`Reservoir` — a bounded uniform sample (Vitter's Algorithm R)
  with *exact* count/sum/max tracking, used where percentile fidelity
  over the raw stream matters more than bucket counts (the STATS table's
  p50/p95/p99).  O(capacity) memory regardless of stream length.

All metric kinds support labels.  A family created with label names hands
out per-label-value children via :meth:`MetricFamily.labels`; a family
created without label names is used directly.  A counter or gauge whose
number already lives on its owner is registered *derived* (``read=``): the
registry stores nothing and asks the owner on every read.  It renders the
Prometheus text exposition format (version 0.0.4) for the HTTP exporter
and a JSON-able snapshot for ``/statsz`` / the TCP STATS verb.

Everything here is synchronous and single-threaded by design: in the
serving stack all mutation happens on the node's single writer task, so
no locks are needed (the same invariant the cache state relies on).
"""

from __future__ import annotations

import math
import random
import re

import numpy as np

__all__ = [
    "latency_buckets",
    "Counter",
    "Gauge",
    "Derived",
    "Histogram",
    "MetricFamily",
    "MetricsRegistry",
    "Reservoir",
]

_METRIC_NAME = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_NAME = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")


def latency_buckets(start: float = 1e-6, factor: float = 2.0, count: int = 24):
    """Log-scale bucket upper bounds: ``start * factor**i`` (1 µs … ~8 s)."""
    if start <= 0 or factor <= 1 or count < 1:
        raise ValueError("need start > 0, factor > 1, count >= 1")
    return tuple(start * factor**i for i in range(count))


def _format_value(value: float) -> str:
    """Prometheus sample-value formatting: integral floats without '.0'."""
    if value != value:  # NaN
        return "NaN"
    if value in (math.inf, -math.inf):
        return "+Inf" if value > 0 else "-Inf"
    if float(value).is_integer() and abs(value) < 2**53:
        return str(int(value))
    return repr(float(value))


def _escape_label_value(value: str) -> str:
    return (
        str(value)
        .replace("\\", "\\\\")
        .replace('"', '\\"')
        .replace("\n", "\\n")
    )


def _escape_help(text: str) -> str:
    return text.replace("\\", "\\\\").replace("\n", "\\n")


def _render_labels(names, values) -> str:
    if not names:
        return ""
    inner = ",".join(
        f'{n}="{_escape_label_value(v)}"' for n, v in zip(names, values)
    )
    return "{" + inner + "}"


# --------------------------------------------------------------------------
# Children (one per label-value combination)
# --------------------------------------------------------------------------


class Counter:
    """A monotonically increasing value."""

    __slots__ = ("value",)

    def __init__(self):
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters can only increase")
        self.value += amount

    def _reset(self) -> None:
        self.value = 0.0


class Gauge:
    """A value that can go up and down."""

    __slots__ = ("value",)

    def __init__(self):
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.value -= amount

    def _reset(self) -> None:
        self.value = 0.0


class Derived:
    """Read-only child of a derived family: what its owner held when read."""

    __slots__ = ("value",)

    def __init__(self, value: float = 0.0):
        self.value = float(value)

    def inc(self, *_args) -> None:
        raise TypeError("a derived metric is read from its owner, not written")

    dec = set = inc


class Histogram:
    """Fixed-bucket distribution with exact sum/count.

    ``observe_many`` records ``n`` identical observations in O(log buckets)
    — the micro-batched inference path amortises one measured duration over
    a whole batch, and looping would cost O(batch) for no information gain.
    """

    __slots__ = ("buckets", "counts", "sum", "count")

    def __init__(self, buckets):
        self.buckets = buckets  # ascending upper bounds, +Inf implicit
        self.counts = [0] * (len(buckets) + 1)
        self.sum = 0.0
        self.count = 0

    def _index(self, value: float) -> int:
        lo, hi = 0, len(self.buckets)
        while lo < hi:
            mid = (lo + hi) // 2
            if value <= self.buckets[mid]:
                hi = mid
            else:
                lo = mid + 1
        return lo

    def observe(self, value: float) -> None:
        self.counts[self._index(value)] += 1
        self.sum += value
        self.count += 1

    def observe_many(self, value: float, n: int) -> None:
        if n < 0:
            raise ValueError("n must be non-negative")
        if n:
            self.counts[self._index(value)] += n
            self.sum += value * n
            self.count += n

    def cumulative(self):
        """(upper_bound, cumulative_count) pairs, ending with +Inf."""
        total = 0
        out = []
        for le, c in zip((*self.buckets, math.inf), self.counts):
            total += c
            out.append((le, total))
        return out

    def _reset(self) -> None:
        self.counts = [0] * len(self.counts)
        self.sum = 0.0
        self.count = 0


_KINDS = {"counter": Counter, "gauge": Gauge, "histogram": Histogram}


# --------------------------------------------------------------------------
# Families and the registry
# --------------------------------------------------------------------------


class MetricFamily:
    """One named metric with zero or more labelled children.

    Without label names the family proxies directly to its single child,
    so ``registry.counter("x").inc()`` works; with label names, call
    :meth:`labels` first.

    A *derived* family (``read=``) keeps no children: every read calls its
    readers — each returns the value, or ``(label values, value)`` pairs
    when labelled (one label: the bare value will do, as ``dict.items``
    gives) — in order, a later sample replacing an earlier one of its key.
    """

    def __init__(self, name: str, kind: str, help: str, labelnames=(), read=None, **kwargs):
        if not _METRIC_NAME.match(name):
            raise ValueError(f"invalid metric name {name!r}")
        for label in labelnames:
            if not _LABEL_NAME.match(label) or label == "le":
                raise ValueError(f"invalid label name {label!r}")
        self.name = name
        self.kind = kind
        self.help = help
        self.labelnames = tuple(labelnames)
        self._kwargs = kwargs
        self._children: dict[tuple, object] = {}
        self._readers = [] if read is None else [read]
        self._default = None
        if not self.labelnames and read is None:
            self._default = self._make_child(())

    def _make_child(self, key: tuple):
        child = (
            Histogram(**self._kwargs)
            if self.kind == "histogram"
            else _KINDS[self.kind]()
        )
        self._children[key] = child
        return child

    def labels(self, *values, **kv):
        """The child for one label-value combination (created on demand)."""
        if kv:
            if values:
                raise ValueError("pass label values positionally or by name")
            try:
                values = tuple(str(kv[n]) for n in self.labelnames)
            except KeyError as exc:
                raise ValueError(f"missing label {exc}") from exc
            if len(kv) != len(self.labelnames):
                raise ValueError("unexpected label names")
        else:
            values = tuple(str(v) for v in values)
        if len(values) != len(self.labelnames):
            raise ValueError(
                f"{self.name} expects labels {self.labelnames}, got {values}"
            )
        if self._readers:
            return dict(self.children()).get(values) or Derived()
        child = self._children.get(values)
        if child is None:
            child = self._make_child(values)
        return child

    # Proxy the child API for unlabelled families.

    def _single(self):
        if self.labelnames:
            raise ValueError(f"{self.name} is labelled; call .labels() first")
        return self._default or self.labels()

    def inc(self, amount: float = 1.0) -> None:
        self._single().inc(amount)

    def dec(self, amount: float = 1.0) -> None:
        self._single().dec(amount)

    def set(self, value: float) -> None:
        self._single().set(value)

    def observe(self, value: float) -> None:
        self._single().observe(value)

    def observe_many(self, value: float, n: int) -> None:
        self._single().observe_many(value, n)

    @property
    def value(self) -> float:
        return self._single().value

    def children(self):
        if not self._readers:
            return self._children.items()
        samples = {}
        for read in self._readers:
            got = read()
            for key, value in got if self.labelnames else (((), got),):
                key = key if type(key) is tuple else (key,)
                samples[tuple(str(v) for v in key)] = Derived(value)
        return samples.items()

    def reset(self) -> None:
        for child in self._children.values():
            child._reset()


class MetricsRegistry:
    """Ordered collection of metric families with two output formats."""

    def __init__(self):
        self._families: dict[str, MetricFamily] = {}

    def _register(self, name, kind, help, labelnames, read=None, **kwargs) -> MetricFamily:
        existing = self._families.get(name)
        if existing is not None:
            if existing.kind != kind or existing.labelnames != tuple(labelnames):
                raise ValueError(
                    f"metric {name!r} already registered as "
                    f"{existing.kind}{existing.labelnames}"
                )
            if read is not None:
                if not existing._readers:
                    raise ValueError(f"metric {name!r} is written, not derived")
                existing._readers.append(read)
            return existing
        family = MetricFamily(name, kind, help, labelnames, read=read, **kwargs)
        self._families[name] = family
        return family

    def counter(self, name: str, help: str = "", labelnames=(), *, read=None) -> MetricFamily:
        return self._register(name, "counter", help, labelnames, read)

    def gauge(self, name: str, help: str = "", labelnames=(), *, read=None) -> MetricFamily:
        return self._register(name, "gauge", help, labelnames, read)

    def histogram(
        self, name: str, help: str = "", labelnames=(), *, buckets=None
    ) -> MetricFamily:
        buckets = tuple(buckets) if buckets is not None else latency_buckets()
        if list(buckets) != sorted(buckets) or len(set(buckets)) != len(buckets):
            raise ValueError("buckets must be strictly increasing")
        return self._register(name, "histogram", help, labelnames, buckets=buckets)

    def get(self, name: str) -> MetricFamily | None:
        return self._families.get(name)

    def __iter__(self):
        return iter(self._families.values())

    def reset(self) -> None:
        """Zero every stored child (registrations are kept; derived families untouched)."""
        for family in self._families.values():
            family.reset()

    # ------------------------------------------------------------- outputs

    def render_prometheus(self) -> str:
        """The text exposition format (version 0.0.4) for ``/metrics``."""
        lines: list[str] = []
        for fam in self._families.values():
            if fam.help:
                lines.append(f"# HELP {fam.name} {_escape_help(fam.help)}")
            lines.append(f"# TYPE {fam.name} {fam.kind}")
            for key, child in fam.children():
                if fam.kind == "histogram":
                    for le, cum in child.cumulative():
                        labels = _render_labels(
                            (*fam.labelnames, "le"),
                            (*key, "+Inf" if le == math.inf else _format_value(le)),
                        )
                        lines.append(f"{fam.name}_bucket{labels} {cum}")
                    labels = _render_labels(fam.labelnames, key)
                    lines.append(
                        f"{fam.name}_sum{labels} {_format_value(child.sum)}"
                    )
                    lines.append(f"{fam.name}_count{labels} {child.count}")
                else:
                    labels = _render_labels(fam.labelnames, key)
                    lines.append(
                        f"{fam.name}{labels} {_format_value(child.value)}"
                    )
        return "\n".join(lines) + "\n"

    def snapshot(self) -> dict:
        """JSON-able view of every family — the ``/statsz`` payload body."""
        out: dict = {}
        for fam in self._families.values():
            values = []
            for key, child in fam.children():
                labels = dict(zip(fam.labelnames, key))
                if fam.kind == "histogram":
                    values.append(
                        {
                            "labels": labels,
                            "count": child.count,
                            "sum": child.sum,
                            "buckets": {
                                ("+Inf" if le == math.inf else _format_value(le)): c
                                for le, c in child.cumulative()
                            },
                        }
                    )
                else:
                    values.append({"labels": labels, "value": child.value})
            out[fam.name] = {"type": fam.kind, "help": fam.help, "values": values}
        return out


# --------------------------------------------------------------------------
# Bounded sampling
# --------------------------------------------------------------------------


class Reservoir:
    """Uniform sample of a float stream at O(capacity) memory.

    Tracks ``count``/``sum``/``max``/``min`` exactly; percentiles are
    estimated from the retained sample (exact while ``count <= capacity``).
    ``len()`` reports the *total* observations recorded, iteration yields
    the retained sample — the pair every caller actually wants (exact
    totals for rates, a bounded sample for quantiles).
    """

    __slots__ = ("capacity", "count", "total", "max_value", "min_value",
                 "_samples", "_rng", "_seed")

    def __init__(self, capacity: int = 10_000, seed: int = 0):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = int(capacity)
        self._seed = seed
        self._rng = random.Random(seed)
        self.count = 0
        self.total = 0.0
        self.max_value = -math.inf
        self.min_value = math.inf
        self._samples: list[float] = []

    def add(self, value: float) -> None:
        value = float(value)
        self.count += 1
        self.total += value
        if value > self.max_value:
            self.max_value = value
        if value < self.min_value:
            self.min_value = value
        samples = self._samples
        if len(samples) < self.capacity:
            samples.append(value)
        else:
            j = self._rng.randrange(self.count)
            if j < self.capacity:
                samples[j] = value

    def add_repeated(self, value: float, n: int) -> None:
        """Record ``n`` identical observations (micro-batch amortisation).

        State-for-state equivalent to calling :meth:`add` ``n`` times —
        the same totals and the same RNG draw sequence, so the retained
        sample is bit-identical — but totals/extrema update once and the
        fill phase is a single ``extend``, keeping the serving hot loop's
        per-batch cost near O(replacement draws) instead of O(n).
        """
        if n <= 0:
            return
        value = float(value)
        count = self.count
        self.count = count + n
        self.total += value * n
        if value > self.max_value:
            self.max_value = value
        if value < self.min_value:
            self.min_value = value
        samples = self._samples
        capacity = self.capacity
        fill = min(n, capacity - len(samples))
        if fill > 0:
            samples.extend([value] * fill)
        randrange = self._rng.randrange
        for i in range(count + fill + 1, count + n + 1):
            j = randrange(i)
            if j < capacity:
                samples[j] = value

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def values(self) -> np.ndarray:
        """The retained sample as an array (for percentile estimation)."""
        return np.asarray(self._samples, dtype=np.float64)

    def percentile(self, q) -> float | np.ndarray:
        """Percentile estimate(s) from the retained sample.

        ``q`` is a percentile in [0, 100] or a sequence of them (as for
        :func:`numpy.percentile`); scenario reports use ``(50, 99, 99.9)``.
        Exact while ``count <= capacity``; 0.0 on an empty reservoir.
        """
        if not self._samples:
            q_arr = np.asarray(q, dtype=np.float64)
            return 0.0 if q_arr.ndim == 0 else np.zeros_like(q_arr)
        out = np.percentile(self.values(), q)
        return float(out) if np.ndim(out) == 0 else out

    def summary(self) -> dict:
        """count/mean/p50/p95/p99/max — count, mean and max are exact."""
        if not self.count:
            return {
                "count": 0, "mean": 0.0,
                "p50": 0.0, "p95": 0.0, "p99": 0.0, "max": 0.0,
            }
        arr = self.values()
        p50, p95, p99 = np.percentile(arr, [50, 95, 99])
        return {
            "count": int(self.count),
            "mean": float(self.mean),
            "p50": float(p50),
            "p95": float(p95),
            "p99": float(p99),
            "max": float(self.max_value),
        }

    def clear(self) -> None:
        self.count = 0
        self.total = 0.0
        self.max_value = -math.inf
        self.min_value = math.inf
        self._samples.clear()
        self._rng = random.Random(self._seed)

    def __len__(self) -> int:
        return self.count

    def __iter__(self):
        return iter(self._samples)

    @property
    def retained(self) -> int:
        """Samples currently held (``min(count, capacity)``)."""
        return len(self._samples)
