"""The scenario replay engine: shard-aware traffic under a fault timeline.

:func:`run_scenario` takes a :class:`~repro.scenario.spec.ScenarioSpec`
and a base trace and produces a :class:`~repro.scenario.report.ScenarioReport`:

1. **Merge** — every ``hot_key_flood`` event is synthesised and
   interleaved into the base trace (:mod:`repro.scenario.flood`); all
   later event triggers are converted from base- to merged-trace indices
   through the composed displacement map.
2. **Replay** — requests route through a
   :class:`~repro.cluster.cluster.TwoTierCluster` with replication factor
   ``spec.replication``: :meth:`~repro.cluster.hashing.ConsistentHashRing.lookup_n`
   names the owners, the *primary* serves the request (so request-flow
   counters match the unreplicated :func:`~repro.cluster.cluster.simulate_cluster`
   exactly in steady state), and the secondaries take a write-through
   :meth:`~repro.cluster.node.CacheNode.fill` that keeps warm standby
   copies for failover.  Kills, restarts and per-node rolling-deploy
   admission swaps fire between requests at their trigger indices.
3. **Baseline** — the same merged trace replays once more with the event
   timeline stripped; phases that end before the first fault must match
   it with exact counter equality (checked, reported, and asserted by the
   test suite).
4. **Oracle** — :func:`~repro.scenario.oracle.run_oracle` replays the
   merged trace through one aggregate-capacity cache and the per-phase
   hit/write gap is attached to each phase.

Determinism: one ``numpy.random.Generator`` seeded from ``spec.seed``
drives flood synthesis and the admission-noise seed; phase latency
reservoirs are seeded from ``spec.seed`` too.  Two runs of the same spec
over the same trace produce byte-identical reports.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from repro.cache.simulator import make_policy
from repro.cluster.cluster import TwoTierCluster
from repro.cluster.node import CacheNode
from repro.core.labeling import one_time_labels
from repro.obs.ledger import WriteLedger
from repro.obs.registry import Reservoir
from repro.scenario.flood import FloodInfo, apply_floods
from repro.scenario.oracle import build_admission, node_capacity_bytes, run_oracle
from repro.scenario.report import PhaseStats, ScenarioReport
from repro.scenario.spec import ScenarioSpec
from repro.trace.records import Trace

__all__ = ["run_scenario"]

#: Latency samples retained per phase (Vitter reservoir; exact until then).
_RESERVOIR_CAPACITY = 10_000


@dataclass(frozen=True)
class _Action:
    """One engine-visible state change, in merged-trace coordinates."""

    index: int      # fires just before this merged request is served
    seq: int        # tie-break: spec order
    kind: str       # "kill" | "restart" | "deploy"
    node: str
    admission: str | None = None  # deploy target


@dataclass
class _Prepared:
    """Everything derived from (spec, trace) before any replay runs."""

    merged: Trace
    labels: np.ndarray
    admission_seed: int
    actions: list[_Action]
    boundaries: list[int]
    floods: list[FloodInfo]
    injected: int
    first_divergence: int | None    # merged index of the first action
    windows: list[tuple[str, int, int]]   # (kind, start, end) merged coords
    down_spans: dict[str, list[tuple[int, int]]]  # node → [(start, end))
    flood_mask: np.ndarray          # merged request injected by a flood?
    first_seen: np.ndarray          # merged index of each oid's first access


@dataclass
class _PhaseCounters:
    requests: int = 0
    oc_hits: int = 0
    dc_hits: int = 0
    backend_reads: int = 0
    bytes_requested: int = 0
    bytes_hit: int = 0
    total_oc_writes: int = 0    # boundary delta of live+retired writes
    replica_writes: int = 0
    dc_writes: int = 0
    admissions_denied: int = 0
    # Ledger deltas (main replay only; the baseline carries no ledger).
    writes_by_cause: dict[str, int] | None = None
    avoided_writes: int = 0
    avoided_bytes: int = 0
    reservoir: Reservoir = field(
        default_factory=lambda: Reservoir(_RESERVOIR_CAPACITY)
    )

    @property
    def primary_writes(self) -> int:
        return self.total_oc_writes - self.replica_writes

    def equal_counters(self, other: "_PhaseCounters") -> bool:
        return (
            self.requests == other.requests
            and self.oc_hits == other.oc_hits
            and self.dc_hits == other.dc_hits
            and self.backend_reads == other.backend_reads
            and self.bytes_requested == other.bytes_requested
            and self.bytes_hit == other.bytes_hit
            and self.total_oc_writes == other.total_oc_writes
            and self.replica_writes == other.replica_writes
            and self.dc_writes == other.dc_writes
            and self.admissions_denied == other.admissions_denied
        )


def _truncate(trace: Trace, n: int) -> Trace:
    if trace.n_accesses < n:
        raise ValueError(
            f"trace has {trace.n_accesses:,} requests; "
            f"the scenario needs {n:,}"
        )
    if trace.n_accesses == n:
        return trace
    return Trace(
        accesses=np.ascontiguousarray(trace.accesses[:n]),
        catalog=trace.catalog,
        owner_active_friends=trace.owner_active_friends,
        owner_avg_views=trace.owner_avg_views,
        duration=trace.duration,
        viral_mask=trace.viral_mask,
    )


def _prepare(spec: ScenarioSpec, base_trace: Trace) -> _Prepared:
    rng = np.random.default_rng(spec.seed)
    base = _truncate(base_trace, spec.requests)
    floods = [e for e in spec.events if e.kind == "hot_key_flood"]
    merged, index_map, infos = apply_floods(base, floods, rng)
    labels = one_time_labels(merged.object_ids, spec.m_window)
    admission_seed = int(rng.integers(0, 2**63 - 1))
    n_merged = merged.n_accesses
    # Provenance inputs for the write ledger: a merged position is
    # flood-injected iff it is *not* the image of a base position, and an
    # access re-warms a restarted node iff its oid was first requested
    # before that node's restart index.
    flood_mask = np.ones(n_merged, dtype=bool)
    flood_mask[index_map] = False
    _, first_idx, inverse = np.unique(
        merged.object_ids, return_index=True, return_inverse=True
    )
    first_seen = first_idx[inverse]

    def to_merged(i: int) -> int:
        return int(index_map[i]) if i < spec.requests else n_merged

    actions: list[_Action] = []
    seq = 0
    for ev in spec.events:
        if ev.kind == "node_kill":
            actions.append(_Action(to_merged(ev.at), seq, "kill", ev.node))
        elif ev.kind == "node_restart":
            actions.append(_Action(to_merged(ev.at), seq, "restart", ev.node))
        elif ev.kind == "rolling_deploy":
            # Staggered swap: node j of k flips at at + j*length//k, in
            # name order — the whole fleet converges inside the window.
            for j, name in enumerate(spec.node_names):
                at = ev.at + (j * ev.length) // spec.nodes
                actions.append(
                    _Action(to_merged(at), seq, "deploy", name, ev.admission)
                )
        seq += 1
    actions.sort(key=lambda a: (a.index, a.seq))

    bounds = {0, n_merged}
    for ev in spec.events:
        bounds.add(to_merged(ev.at))
        if ev.length:
            bounds.add(to_merged(ev.end))
    boundaries = sorted(bounds)

    windows = [
        (ev.kind, to_merged(ev.at), to_merged(ev.end))
        for ev in spec.events
        if ev.length
    ]
    down_spans: dict[str, list[tuple[int, int]]] = {}
    open_kill: dict[str, int] = {}
    for ev in spec.events:  # events are sorted by trigger index
        if ev.kind == "node_kill":
            open_kill[ev.node] = to_merged(ev.at)
        elif ev.kind == "node_restart":
            start = open_kill.pop(ev.node)
            down_spans.setdefault(ev.node, []).append((start, to_merged(ev.at)))
    for node, start in open_kill.items():
        down_spans.setdefault(node, []).append((start, n_merged))

    return _Prepared(
        merged=merged,
        labels=labels,
        admission_seed=admission_seed,
        actions=actions,
        boundaries=boundaries,
        floods=infos,
        injected=sum(f.n_injected for f in infos),
        first_divergence=min((a.index for a in actions), default=None),
        windows=windows,
        down_spans=down_spans,
        flood_mask=flood_mask,
        first_seen=first_seen,
    )


def _replay(
    spec: ScenarioSpec,
    prep: _Prepared,
    *,
    with_actions: bool,
    ledger: WriteLedger | None = None,
    tracer=None,
) -> tuple[list[_PhaseCounters], TwoTierCluster]:
    """Drive the merged trace through a fresh cluster; one counter set
    per phase (phases are the slices between ``prep.boundaries``).

    ``ledger`` attaches write provenance: every node built here (initial
    fleet, restarts, the DC tier) is bound to it, the router stamps each
    request's cause before serving it, and :func:`close_phase` folds the
    per-cause deltas into the phase counters.  ``tracer`` records one
    wall-clock span per phase (plus a ``replay`` root) for Chrome-trace
    export; neither touches the replayed counters, so the baseline pass
    simply omits both.
    """
    merged = prep.merged
    node_cap = node_capacity_bytes(spec, merged)
    dc_cap = max(1, int(spec.dc_capacity_fraction * merged.footprint_bytes))
    # Per-node admission kind, updated by rolling deploys so a restart
    # after a deploy comes back with the *deployed* model, not the
    # original one (matching a real fleet, where the image is upgraded).
    admission_kind = {name: spec.admission for name in spec.node_names}

    def fresh_node(name: str, restarted_at: int | None = None) -> CacheNode:
        node = CacheNode(
            name,
            make_policy(spec.policy, node_cap),
            admission=build_admission(
                admission_kind[name], prep.labels, spec, prep.admission_seed
            ),
        )
        if ledger is not None:
            node.bind_ledger(
                ledger,
                model_label=admission_kind[name],
                restarted_at=restarted_at,
            )
        return node

    cluster = TwoTierCluster(
        {name: fresh_node(name) for name in spec.node_names},
        CacheNode("dc", make_policy(spec.policy, dc_cap)),
    )
    if ledger is not None:
        # The DC tier has no admission model; its writes are labelled by
        # tier so per-model breakdowns stay about the OC classifiers.
        cluster.dc.bind_ledger(ledger, model_label="dc")
    lat = cluster.latency
    dc = cluster.dc

    def latency_constants() -> tuple[float, float, float]:
        classified = any(
            nd.admission is not None for nd in cluster.oc_nodes.values()
        )
        return (
            lat.oc_hit(),
            lat.dc_hit(classified_oc=classified),
            lat.backend_read(classified_oc=classified, classified_dc=False),
        )

    actions = prep.actions if with_actions else []
    boundaries = prep.boundaries
    phases = [
        _PhaseCounters(
            reservoir=Reservoir(_RESERVOIR_CAPACITY, seed=spec.seed + pidx)
        )
        for pidx in range(len(boundaries) - 1)
    ]

    oids = merged.object_ids
    sizes = merged.catalog["size"][oids]
    oid_list = oids.tolist()
    size_list = sizes.tolist()
    n = len(oid_list)

    owner_memo: dict[int, tuple[str, ...]] = {}
    oc_nodes = cluster.oc_nodes
    r_live = min(spec.replication, len(oc_nodes))
    t_oc, t_dc, t_b = latency_constants()

    flood_list = prep.flood_mask.tolist() if ledger is not None else None
    first_seen_list = prep.first_seen.tolist() if ledger is not None else None

    tracing = tracer is not None and tracer.enabled
    span_track = tracer.new_track() if tracing else None
    t_replay0 = time.perf_counter_ns() if tracing else 0
    t_phase0 = t_replay0

    next_action = 0
    phase_idx = 0
    ph = phases[0]
    next_boundary = boundaries[1]
    oc_writes_mark = 0   # total OC writes (live+retired) at phase start
    dc_writes_mark = 0
    denied_mark = 0
    ledger_mark = ledger.checkpoint() if ledger is not None else None

    def close_phase() -> tuple[int, int, int]:
        nonlocal ledger_mark, t_phase0
        totals = cluster.oc_tier_totals()
        ph.total_oc_writes = totals.files_written - oc_writes_mark
        ph.dc_writes = dc.stats.files_written - dc_writes_mark
        ph.admissions_denied = totals.admissions_denied - denied_mark
        if ledger is not None:
            d = ledger.delta(ledger_mark)
            ph.writes_by_cause = d["writes_by_cause"]
            ph.avoided_writes = d["avoided_writes"]
            ph.avoided_bytes = d["avoided_bytes"]
            ledger_mark = ledger.checkpoint()
        if tracing:
            now = time.perf_counter_ns()
            tracer.add(
                f"phase{phase_idx}", "scenario", t_phase0, now,
                track=span_track,
                args={
                    "start": boundaries[phase_idx],
                    "end": boundaries[phase_idx + 1],
                    "requests": ph.requests,
                },
            )
            t_phase0 = now
        return totals.files_written, dc.stats.files_written, totals.admissions_denied

    for i in range(n):
        if i == next_boundary:
            oc_writes_mark, dc_writes_mark, denied_mark = close_phase()
            phase_idx += 1
            ph = phases[phase_idx]
            next_boundary = boundaries[phase_idx + 1]
        while next_action < len(actions) and actions[next_action].index == i:
            a = actions[next_action]
            if a.kind == "kill":
                cluster.remove_node(a.node)
            elif a.kind == "restart":
                cluster.add_node(fresh_node(a.node, restarted_at=i))
            else:  # deploy: atomic per-node admission swap
                admission_kind[a.node] = a.admission
                live = cluster.oc_nodes.get(a.node)
                if live is not None:
                    live.admission = build_admission(
                        a.admission, prep.labels, spec, prep.admission_seed
                    )
                    live.model_label = a.admission
            owner_memo.clear()
            oc_nodes = cluster.oc_nodes
            r_live = min(spec.replication, len(oc_nodes))
            t_oc, t_dc, t_b = latency_constants()
            next_action += 1

        oid = oid_list[i]
        size = size_list[i]
        owners = owner_memo.get(oid)
        if owners is None:
            owners = owner_memo[oid] = cluster.ring.lookup_n(oid, r_live)

        primary = oc_nodes[owners[0]]
        if ledger is not None:
            # Stamp this request's provenance before it can insert.  Flood
            # wins (the request would not exist without the injection);
            # then rewarm (first seen before the primary's cold restart —
            # the cluster already paid this object's flash cost once);
            # replica fills stay `replica_fill` inside fill() itself.
            if flood_list[i]:
                cause = "flood"
            elif (
                primary.restarted_at is not None
                and first_seen_list[i] < primary.restarted_at
            ):
                cause = "rewarm_after_restart"
            else:
                cause = "admission_accept"
            primary.write_cause = cause
            dc.write_cause = "flood" if flood_list[i] else "admission_accept"

        ph.requests += 1
        ph.bytes_requested += size
        if primary.request(i, oid, size):
            ph.oc_hits += 1
            ph.bytes_hit += size
            latency = t_oc
        elif dc.request(i, oid, size):
            ph.dc_hits += 1
            latency = t_dc
        else:
            ph.backend_reads += 1
            latency = t_b
        ph.reservoir.add(latency)
        for k in range(1, len(owners)):
            if oc_nodes[owners[k]].fill(i, oid, size):
                ph.replica_writes += 1

    close_phase()
    if tracing:
        tracer.add(
            "replay", "scenario", t_replay0, time.perf_counter_ns(),
            track=span_track,
            args={"requests": n, "phases": len(phases)},
        )
    return phases, cluster


def _active_tags(prep: _Prepared, start: int, end: int) -> tuple[str, ...]:
    """Human-readable faults overlapping the phase [start, end)."""
    tags = []
    for kind, w_start, w_end in prep.windows:
        if w_start < end and start < w_end:
            tags.append(f"{kind}[{w_start},{w_end})")
    for node, spans in sorted(prep.down_spans.items()):
        for d_start, d_end in spans:
            if d_start < end and start < d_end:
                tags.append(f"{node} down")
    return tuple(tags)


def run_scenario(
    spec: ScenarioSpec,
    base_trace: Trace,
    *,
    with_baseline: bool = True,
    with_oracle: bool = True,
    tracer=None,
) -> ScenarioReport:
    """Run one scenario end to end; see the module docstring for stages.

    ``with_baseline``/``with_oracle`` skip the comparison replays (each
    costs roughly one extra pass over the merged trace) for quick smoke
    runs; the full report needs both.  ``tracer`` (a
    :class:`~repro.obs.spans.Tracer`) records per-phase wall-clock spans
    of the main replay for Chrome-trace export.

    The main replay always carries a :class:`~repro.obs.ledger.WriteLedger`;
    its provenance section lands in ``report.ledger`` with an ``exact``
    flag asserting the per-cause totals sum to the cluster's own SSD
    write counters (retired incarnations included).
    """
    prep = _prepare(spec, base_trace)
    ledger = WriteLedger()
    phases_raw, _cluster = _replay(
        spec, prep, with_actions=True, ledger=ledger, tracer=tracer
    )

    baseline_equal = True
    if with_baseline:
        baseline_raw, _ = _replay(spec, prep, with_actions=False)
    oracle_raw = (
        run_oracle(
            spec, prep.merged, prep.labels, prep.boundaries, prep.admission_seed
        )
        if with_oracle
        else None
    )

    boundaries = prep.boundaries
    phases: list[PhaseStats] = []
    for pidx, raw in enumerate(phases_raw):
        start, end = boundaries[pidx], boundaries[pidx + 1]
        active = _active_tags(prep, start, end)
        pristine = (
            prep.first_divergence is None or end <= prep.first_divergence
        )
        if with_baseline and pristine:
            baseline_equal &= raw.equal_counters(baseline_raw[pidx])
        p50, p99, p999 = (
            float(x) for x in raw.reservoir.percentile((50, 99, 99.9))
        )
        phase = PhaseStats(
            index=pidx,
            start=start,
            end=end,
            active=active,
            steady=not active,
            pristine=pristine,
            requests=raw.requests,
            oc_hits=raw.oc_hits,
            dc_hits=raw.dc_hits,
            backend_reads=raw.backend_reads,
            bytes_requested=raw.bytes_requested,
            bytes_hit=raw.bytes_hit,
            primary_writes=raw.primary_writes,
            replica_writes=raw.replica_writes,
            dc_writes=raw.dc_writes,
            admissions_denied=raw.admissions_denied,
            writes_by_cause=raw.writes_by_cause,
            avoided_writes=raw.avoided_writes,
            avoided_bytes=raw.avoided_bytes,
            latency_mean=raw.reservoir.mean,
            latency_p50=p50,
            latency_p99=p99,
            latency_p999=p999,
        )
        if oracle_raw is not None:
            o = oracle_raw[pidx]
            if o["requests"]:
                phase.oracle_hit_rate = o["hits"] / o["requests"]
                phase.oracle_write_rate = o["writes"] / o["requests"]
        phases.append(phase)

    events_applied = [
        f"{a.kind}:{a.node}@{a.index}"
        + (f"->{a.admission}" if a.admission else "")
        for a in prep.actions
    ] + [
        f"hot_key_flood@{info.event.at}+{info.n_injected}req"
        for info in prep.floods
    ]

    # Provenance section + the exactness invariant: the ledger must sum
    # (integer equality) to every SSD write the cluster counted, retired
    # node incarnations included.
    totals = _cluster.oc_tier_totals()
    cluster_ssd_writes = totals.files_written + _cluster.dc.stats.files_written
    ledger_section = ledger.snapshot()
    ledger_section["cluster_ssd_writes"] = cluster_ssd_writes
    ledger_section["exact"] = ledger.total_writes == cluster_ssd_writes

    return ScenarioReport(
        name=spec.name,
        spec=spec.to_dict(),
        phases=phases,
        base_requests=spec.requests,
        injected_requests=prep.injected,
        merged_requests=prep.merged.n_accesses,
        baseline_checked=with_baseline,
        baseline_equal=baseline_equal,
        events_applied=events_applied,
        ledger=ledger_section,
    )
