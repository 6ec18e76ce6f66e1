"""A single cache server: replacement policy + optional admission filter."""

from __future__ import annotations

from repro.cache.base import AccessResult, AdmissionPolicy, CachePolicy, CacheStats
from repro.cache.simulator import request_step
from repro.obs.ledger import write_cause

__all__ = ["CacheNode"]


class CacheNode:
    """One cache server in the cluster.

    ``request`` is the entry point (``fill`` its replica write-through
    twin): both run the simulator's one Fig.-4 step and then count the
    outcome into :class:`~repro.cache.base.CacheStats`.
    """

    def __init__(
        self,
        name: str,
        policy: CachePolicy,
        admission: AdmissionPolicy | None = None,
    ):
        self.name = name
        self.policy = policy
        self.admission = admission
        self.stats = CacheStats()
        # Write provenance (see :meth:`bind_ledger`): when a ledger is
        # bound, every insertion is recorded under ``write_cause`` (the
        # router sets it per request — flood / rewarm / default accept;
        # :meth:`fill` always records ``replica_fill``) with ``model_label``
        # naming the admission policy that made the call, and every denial
        # becomes an avoided write.  ``None`` keeps the hot path untouched.
        self.ledger = None
        self.write_cause = "admission_accept"
        self.model_label = "none"
        #: Merged-trace index at which this incarnation cold-started, or
        #: ``None`` for an original node (rewarm-cause detection).
        self.restarted_at: int | None = None

    def bind_ledger(
        self,
        ledger,
        *,
        model_label: str | None = None,
        restarted_at: int | None = None,
    ) -> None:
        """Attach a :class:`~repro.obs.ledger.WriteLedger` to this node."""
        self.ledger = ledger
        if model_label is not None:
            self.model_label = model_label
        self.restarted_at = restarted_at

    def reset(self) -> None:
        """Clear counters and admission state.

        Cache *contents* are deliberately kept — production cache servers
        stay warm across measurement windows.  Build a fresh node for a
        cold-start run.
        """
        self.stats = CacheStats()
        if self.admission is not None:
            self.admission.reset()

    def request(self, index: int, oid: int, size: int) -> bool:
        """Serve one request; returns True on hit."""
        return self._step(index, oid, size, False).hit

    def fill(self, index: int, oid: int, size: int) -> bool:
        """Replica write-through: offer ``oid`` without serving a request.

        Used by replicated routing (``repro.scenario``): the primary serves
        the request via :meth:`request`; secondaries are *offered* the
        object so their copies stay warm for failover.  A resident copy is
        refreshed (recency touch); a non-resident one goes through this
        node's own admission filter.  No request/hit counters move — only
        the write-side ones.  Returns True iff the object was written.
        """
        return self._step(index, oid, size, True).inserted

    def _step(self, index: int, oid: int, size: int, fill: bool) -> AccessResult:
        """:func:`~repro.cache.simulator.request_step` + this node's books.

        Counters and the ledger cause are derived from the step's
        ``(result, denied)`` — nothing here feeds back into it — and
        :attr:`stats` is the only copy of the counts (a registry reads it
        through :meth:`repro.cluster.cluster.TwoTierCluster.instrument`).
        """
        result, denied = request_step(self.policy, self.admission, index, oid, size)
        stats = self.stats
        if fill:
            # An offer, not a request: only the write-side counters move.
            if result.inserted:
                stats.files_written += 1
                stats.bytes_written += size
            stats.evictions += len(result.evicted)
            if denied:
                stats.admissions_denied += 1
        else:
            stats.record(size, result, denied)
        ledger = self.ledger
        if ledger is not None:
            if denied:
                ledger.record_avoided(size, model=self.model_label)
            if result.inserted:
                # A replica-driven write stays ``replica_fill`` (keeps the
                # phase-level replica_writes reconciliation exact).
                cause = write_cause(
                    result, "replica_fill" if fill else self.write_cause
                )
                ledger.record_write(cause, size, model=self.model_label)
        return result
