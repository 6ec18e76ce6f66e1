"""SSD write-provenance ledger: every flash write gets a cause.

The paper's value proposition is counted in SSD writes avoided, but a
bare ``writes_total`` counter cannot say *why* a write happened — was it
a front-door admission, a replica warm-standby fill, churn from a
hot-key flood, or a cold restart re-warming objects the cluster had
already paid for once?  Flashield (PAPERS.md) argues each flash write is
a costed, attributable event; :class:`WriteLedger` is that attribution.

Causes (:data:`CAUSES`):

``admission_accept``
    The admission path accepted a miss into the cache — the default.
``replica_fill``
    A write-through copy onto a non-primary owner
    (:meth:`repro.cluster.node.CacheNode.fill`).
``rewarm_after_restart``
    A write on a cold-restarted node for an object first requested
    *before* the restart: the cluster already wrote (or declined) this
    object once, and the restart is paying the flash cost again.
``flood``
    A write caused by a request injected by a hot-key flood event.
``eviction_churn``
    A re-admission of an object a learned eviction policy previously
    evicted (:attr:`repro.cache.base.AccessResult.churn`): flash spent
    paying for an eviction misprediction rather than for new bytes.
``staging_promote``
    A staged-then-admitted write: the object crossed a Flashield-style
    flashiness bar while staged in DRAM
    (:class:`repro.cache.staging.StagingCache`) and earned its flash
    write on a later hit, not at miss time.

Every write also carries a **model label** — which admission policy or
classifier version made the call (``v3`` on a live server, the
admission kind under the scenario engine) — and every denial is an
*avoided* write with its estimated bytes, making the paper's headline
metric a first-class counter.

The ledger is exact, not sampled: per-cause totals sum to the same
integers as the cluster's ``files_written`` counters (including stats
parked by :attr:`repro.cluster.cluster.TwoTierCluster.retired_stats`),
an invariant the scenario report checks on every run.  Counts live in
plain dicts (the only copy); a :class:`~repro.obs.registry.MetricsRegistry`
reads them as labelled Prometheus counters when it is rendered.
"""

from __future__ import annotations

__all__ = ["CAUSES", "WriteLedger", "write_cause"]

#: Write causes, in report order.  Order is part of the byte-identical
#: report contract — append new causes, never reorder.
CAUSES = (
    "admission_accept",
    "replica_fill",
    "rewarm_after_restart",
    "flood",
    "eviction_churn",
    "staging_promote",
)

_UNLABELLED = "none"


def write_cause(result, default: str = "admission_accept") -> str:
    """Why the insert reported by ``result`` happened — the one rule.

    A ``default`` that says why the request came (replica fill, router-set
    ``flood`` / ``rewarm_after_restart``) wins; only the plain accept is
    refined: a hit that inserts is a staging tier paying its deferred
    write, a learned head re-admitting its own victim a misprediction.
    """
    if default != "admission_accept":
        return default
    if result.hit:
        return "staging_promote"
    if result.churn:
        return "eviction_churn"
    return default


class WriteLedger:
    """Exact per-cause / per-model accounting of SSD writes and denials.

    Single-writer use (the simulator loop or the asyncio node's writer
    task); increments are plain dict updates so the hot path stays in
    the tens of nanoseconds.
    """

    def __init__(self, *, registry=None, default_model: str = _UNLABELLED):
        self.default_model = default_model
        self._writes: dict[tuple[str, str], int] = {}
        self._bytes: dict[tuple[str, str], int] = {}
        self._avoided: dict[str, int] = {}
        self._avoided_bytes: dict[str, int] = {}
        if registry is not None:
            # Derived families: the registry reads these dicts when rendered.
            registry.counter(
                "repro_ledger_writes_total",
                "SSD writes by provenance cause and deciding model.",
                ("cause", "model"),
                read=self._writes.items,
            )
            registry.counter(
                "repro_ledger_write_bytes_total",
                "SSD bytes written by provenance cause and deciding model.",
                ("cause", "model"),
                read=self._bytes.items,
            )
            registry.counter(
                "repro_ledger_avoided_writes_total",
                "Denied admissions (writes avoided) by deciding model.",
                ("model",),
                read=self._avoided.items,
            )
            registry.counter(
                "repro_ledger_avoided_bytes_total",
                "Estimated bytes not written thanks to denials, by model.",
                ("model",),
                read=self._avoided_bytes.items,
            )

    # ------------------------------------------------------------ recording

    def record_write(self, cause: str, nbytes: int, *,
                     model: str | None = None, n: int = 1) -> None:
        """Account ``n`` writes totalling ``nbytes`` to ``cause``."""
        if cause not in CAUSES:
            raise ValueError(f"unknown write cause {cause!r}")
        label = model if model is not None else self.default_model
        key = (cause, label)
        self._writes[key] = self._writes.get(key, 0) + n
        self._bytes[key] = self._bytes.get(key, 0) + nbytes

    def record_avoided(self, nbytes: int, *, model: str | None = None,
                       n: int = 1) -> None:
        """Account ``n`` denials that avoided writing ``nbytes``."""
        label = model if model is not None else self.default_model
        self._avoided[label] = self._avoided.get(label, 0) + n
        self._avoided_bytes[label] = self._avoided_bytes.get(label, 0) + nbytes

    # -------------------------------------------------------------- reading

    @property
    def total_writes(self) -> int:
        return sum(self._writes.values())

    @property
    def total_bytes(self) -> int:
        return sum(self._bytes.values())

    @property
    def avoided_writes(self) -> int:
        return sum(self._avoided.values())

    @property
    def avoided_bytes(self) -> int:
        return sum(self._avoided_bytes.values())

    def writes_by_cause(self) -> dict[str, int]:
        """``{cause: writes}`` over :data:`CAUSES` (zeros included)."""
        out = dict.fromkeys(CAUSES, 0)
        for (cause, _model), count in self._writes.items():
            out[cause] += count
        return out

    def bytes_by_cause(self) -> dict[str, int]:
        out = dict.fromkeys(CAUSES, 0)
        for (cause, _model), total in self._bytes.items():
            out[cause] += total
        return out

    def writes_by_model(self) -> dict[str, int]:
        """``{model_label: writes}``, sorted by label for determinism."""
        out: dict[str, int] = {}
        for (_cause, model), count in self._writes.items():
            out[model] = out.get(model, 0) + count
        return dict(sorted(out.items()))

    def avoided_by_model(self) -> dict[str, int]:
        return dict(sorted(self._avoided.items()))

    def snapshot(self) -> dict:
        """Deterministically ordered JSON-able section for reports."""
        return {
            "writes_by_cause": self.writes_by_cause(),
            "bytes_by_cause": self.bytes_by_cause(),
            "writes_by_model": self.writes_by_model(),
            "avoided_writes": self.avoided_writes,
            "avoided_bytes": self.avoided_bytes,
            "avoided_by_model": self.avoided_by_model(),
            "total_writes": self.total_writes,
            "total_bytes": self.total_bytes,
        }

    def checkpoint(self) -> dict:
        """Cheap copy of the cause counters for later :meth:`delta`."""
        return {
            "writes_by_cause": self.writes_by_cause(),
            "avoided_writes": self.avoided_writes,
            "avoided_bytes": self.avoided_bytes,
        }

    def delta(self, since: dict) -> dict:
        """Per-cause growth since a :meth:`checkpoint` (phase accounting)."""
        before = since["writes_by_cause"]
        now = self.writes_by_cause()
        return {
            "writes_by_cause": {c: now[c] - before.get(c, 0) for c in CAUSES},
            "avoided_writes": self.avoided_writes - since["avoided_writes"],
            "avoided_bytes": self.avoided_bytes - since["avoided_bytes"],
        }

    def clear(self) -> None:
        """Drop all accounting (the ``repro_ledger_*`` series, read from it, end)."""
        self._writes.clear()
        self._bytes.clear()
        self._avoided.clear()
        self._avoided_bytes.clear()
