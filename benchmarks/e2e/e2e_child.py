"""The fresh child process of ``run.py``: sets a workload up, says ``ready``,
then replays it (untraced: repeatedly, for ``--seconds``) or records the
per-layer numbers (``--traced``).

It talks to its parent in JSON lines on stdout: one ``{"event": "ready"}``
when set-up is complete and one ``{"event": "result"}`` at the end.  The
program under test is reached only through public functions of
``repro.cache``, ``repro.core``, ``repro.ml``, ``repro.server``,
``repro.ssd`` and ``repro.trace``; every clock and proxy lives here.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from dataclasses import astuple

import e2e_common as C

C.add_src_to_path()

import numpy as np  # noqa: E402

from repro.cache.base import AdmissionPolicy, CacheObserver, CachePolicy  # noqa: E402
from repro.cache.learned import LearnedCache, eviction_metadata  # noqa: E402
from repro.cache.lru import LRUCache  # noqa: E402
from repro.cache.segments import SegmentPlan  # noqa: E402
from repro.cache.simulator import make_policy, simulate  # noqa: E402
from repro.core.features import PAPER_FEATURE_NAMES, extract_features  # noqa: E402
from repro.core.history_table import HistoryTable  # noqa: E402
from repro.core.labeling import one_time_labels  # noqa: E402
from repro.core.online import OnlineClassifierAdmission, OnlineFeatureTracker  # noqa: E402
from repro.ml.cost_sensitive import CostMatrix, CostSensitiveClassifier  # noqa: E402
from repro.ml.fastpath import fast_predictor  # noqa: E402
from repro.ml.tree import DecisionTreeClassifier  # noqa: E402
from repro.server.node import (  # noqa: E402
    CacheNode,
    NodeConfig,
    build_cache,
    history_capacity,
    solve_node_criteria,
    train_seed_model,
)
from repro.server.protocol import (  # noqa: E402
    BIN_GET,
    FrameDecoder,
    pack_get_request,
    pack_get_response,
)
from repro.ssd.cache_device import CacheSSD, simulate_on_ssd  # noqa: E402
from repro.ssd.cmt import MappingTableCache  # noqa: E402
from repro.ssd.ftl import PageMappedFTL  # noqa: E402
from repro.trace.analysis import stack_distances  # noqa: E402
from repro.trace.io import load_trace, save_trace  # noqa: E402
from repro.trace.records import Trace  # noqa: E402

MAX_REPLAYS = 64


def emit(event: str, **fields) -> None:
    print(json.dumps({"event": event, **fields}), flush=True)


class Stages(dict):
    """Wall seconds of the named set-up steps."""

    def timed(self, name: str, fn, *args):
        t0 = time.perf_counter()
        out = fn(*args)
        self[name] = self.get(name, 0.0) + time.perf_counter() - t0
        return out


def node_config(workload: str) -> NodeConfig:
    """What ``repro serve --capacity-fraction 0.02 [--no-classifier]`` builds;
    the replay twin drops the DRAM tier so the policy is a bare LRU."""
    return NodeConfig(
        capacity_fraction=C.CAPACITY_FRACTION,
        classifier=workload in ("serve_proposal", "replay_proposal"),
        dram_fraction=0.0 if workload == "replay_proposal" else 0.05,
    )


def offline_stack(trace, cfg: NodeConfig, stages: Stages):
    """(cache, admission) built step for step as ``replay_offline`` builds
    them, keeping the admission object so its counters can be read."""
    cache = build_cache(trace, cfg)
    if not cfg.classifier:
        return cache, None
    criteria = stages.timed("core.criteria_solve_s", solve_node_criteria, trace, cfg)
    model = stages.timed("ml.tree.fit_s", train_seed_model, trace, cfg, criteria)
    if model is None:
        return cache, None
    admission = OnlineClassifierAdmission(
        model,
        OnlineFeatureTracker(trace),
        criteria.m_threshold,
        HistoryTable(history_capacity(criteria)),
        timing_capacity=0,
    )
    return cache, admission


def served_reference(trace, workload: str) -> dict:
    """The counters a server must report after replaying ``trace``, keyed as
    the STATS verb keys them.  ``use_segments=False``: same result by the
    simulator's parity contract, without paying for a plan."""
    cfg = node_config(workload)
    cache, admission = offline_stack(trace, cfg, Stages())
    result = simulate(trace, cache, admission=admission, policy_name=cfg.policy,
                      use_segments=False)
    s = result.stats
    return {
        "requests": s.requests,
        "hits": s.hits,
        "files_written": s.files_written,
        "bytes_written": s.bytes_written,
        "evictions": s.evictions,
        "admissions_denied": s.admissions_denied,
        "rectified_admits": admission.rectified_admits if admission else 0,
    }


def sum_stats(results) -> dict:
    total: dict[str, int] = {}
    for r in results:
        for key, value in vars(r.stats).items():
            total[key] = total.get(key, 0) + int(value)
    return total


# --------------------------------------------------------------- programs
#
# Each program's ``setup`` runs once before "ready"; ``replay`` is the timed
# call on fresh policy state and returns (requests, summed CacheStats as a
# dict, extra counters); ``verify`` runs once after the timed replays.


class Program:
    def __init__(self, trace, stages: Stages):
        self.trace = trace
        self.stages = stages
        self.capacity = max(1, int(C.CAPACITY_FRACTION * trace.footprint_bytes))

    def setup(self) -> None:
        pass

    def fresh(self):
        """State one replay consumes, built outside the timed region."""
        return None

    def replay(self, state):
        raise NotImplementedError

    def verify(self, last) -> list[str]:
        return []


class ReplayProposal(Program):
    def setup(self) -> None:
        cfg = node_config("replay_proposal")
        _, self.admission = offline_stack(self.trace, cfg, self.stages)
        if self.admission is None:
            raise SystemExit("replay_proposal: the seed model did not train")
        # simulate() looks the plan up on first use; pay for it here, not
        # in replay number one.
        self.stages.timed("cache.segments.plan_build_s", SegmentPlan.for_trace, self.trace)

    def fresh(self):
        return LRUCache(self.capacity)

    def replay(self, cache, admission=None):
        adm = admission if admission is not None else self.admission
        result = simulate(self.trace, cache, admission=adm, policy_name="lru")
        inner = self.admission
        extra = {
            "decisions": inner.decisions,
            "denied": inner.denied,
            "rectified": inner.rectified_admits,
        }
        return self.trace.n_accesses, sum_stats([result]), extra


class ReplayDevice(Program):
    def setup(self) -> None:
        self.stages.timed("cache.segments.plan_build_s", SegmentPlan.for_trace, self.trace)

    def fresh(self):
        return LRUCache(self.capacity)

    def replay(self, cache):
        report = simulate_on_ssd(self.trace, cache)
        ftl = report.device.ftl
        f = ftl.stats
        cmt = report.device.cmt.stats
        extra = {
            "host_pages": f.host_pages_written,
            "nand_pages": f.nand_pages_written,
            "gc_pages_relocated": f.gc_pages_relocated,
            "erases": f.erases,
            "cmt_lookups": cmt.lookups,
            "cmt_misses": cmt.misses,
            "write_amp": f.write_amplification,
        }
        self.last_report = report
        return self.trace.n_accesses, sum_stats([report.simulation]), extra

    def verify(self, last) -> list[str]:
        problems = []
        ftl = self.last_report.device.ftl
        try:
            ftl.check_invariants()
        except AssertionError:
            problems.append("PageMappedFTL.check_invariants() failed")
        f = ftl.stats
        if f.nand_pages_written != f.host_pages_written + f.gc_pages_relocated:
            problems.append("NAND programs != host pages + GC relocations")
        return problems


class ReplayHot(Program):
    def setup(self) -> None:
        footprint = self.trace.footprint_bytes
        self.capacities = [int(f * footprint) for f in C.HOT_FRACTIONS]

    def fresh(self):
        # A new Trace object carries no cached SegmentPlan, so the plan is
        # built inside the timed region, once, as GridRunner amortises it.
        t = self.trace
        return Trace.from_column_arrays(t.column_arrays(), t.duration)

    def replay(self, trace, wrap=None, use_segments=True):
        results = []
        for cap in self.capacities:
            policy = LRUCache(cap)
            results.append(
                simulate(trace, wrap(policy) if wrap else policy,
                         use_segments=use_segments)
            )
        per_capacity = {"per_capacity": [list(astuple(r.stats)) for r in results]}
        return len(results) * trace.n_accesses, sum_stats(results), per_capacity

    def verify(self, last) -> list[str]:
        if self.replay(self.trace, use_segments=False)[1:] != last[1:]:
            return ["segmented replay differs from the use_segments=False replay"]
        return []


class ReplayLearned(Program):
    def fresh(self):
        return make_policy("learned", self.capacity, self.trace)

    def replay(self, policy, wrap=None):
        result = simulate(self.trace, wrap(policy) if wrap else policy)
        d = policy.decision_stats()
        extra = {
            "decisions": d["decisions"],
            "learned_evictions": d["learned_evictions"],
            "fallback_evictions": d["fallback_evictions"],
            "churn_inserts": d["churn_inserts"],
        }
        return self.trace.n_accesses, sum_stats([result]), extra

    def verify(self, last) -> list[str]:
        lru = simulate(self.trace, LRUCache(self.capacity))
        learned_hits = last[1]["hits"]
        if learned_hits < lru.stats.hits:
            return [f"learned hits {learned_hits} < LRU hits {lru.stats.hits}"]
        return []


PROGRAMS = {
    "replay_proposal": ReplayProposal,
    "replay_device": ReplayDevice,
    "replay_hot": ReplayHot,
    "replay_learned": ReplayLearned,
}


# ------------------------------------------------------------ timed proxies
#
# Each proxy wraps a public seam.  Every call is counted, spanned (for the
# Chrome trace) and, where a ``log`` is given, recorded as (method key,
# args) so the layer can afterwards be driven on exactly that input stream
# in a tight loop with no clock inside -- see ``driven_ns``.

ACCESS, PRESENT, BATCH = 0, 1, 2
SHOULD_ADMIT, ON_HIT = 0, 1
ON_INSERT, ON_EVICT = 0, 1


class TimedPolicy(CachePolicy):
    """Delegates to ``inner``.  Counts request batches for the span recorder:
    ``count_on`` names the method the simulator calls once per request."""

    def __init__(self, inner: CachePolicy, rec: C.SpanRecorder, count_on: str, log=None):
        super().__init__(inner.capacity)
        self._inner = inner
        self._rec = rec
        self._requests = 0
        self._count_access = count_on == "access"
        self._access = rec.wrap("cache.policy.access", inner.access, log, ACCESS)
        self._present = rec.wrap(
            "cache.policy.access_if_present", inner.access_if_present, log, PRESENT
        )
        self._batch = rec.wrap(
            "cache.segments.access_batch", inner.access_batch, log, BATCH
        )

    def _tick(self, n: int) -> None:
        self._requests += n
        self._rec.batch = self._requests // C.IN_PROCESS_BATCH

    def access(self, oid, size, admit=True):
        if self._count_access:
            self._tick(1)
        return self._access(oid, size, admit)

    def access_if_present(self, oid, size):
        if not self._count_access:
            self._tick(1)
        return self._present(oid, size)

    def access_batch(self, oids, sizes, distinct=None):
        consumed, evicted = self._batch(oids, sizes, distinct)
        self._tick(consumed)
        return consumed, evicted

    def can_batch_hits(self) -> bool:
        return self._inner.can_batch_hits()

    @property
    def used_bytes(self) -> int:
        return self._inner.used_bytes

    def __contains__(self, oid) -> bool:
        return oid in self._inner

    def __len__(self) -> int:
        return len(self._inner)


class TimedAdmission(AdmissionPolicy):
    def __init__(self, inner: AdmissionPolicy, rec: C.SpanRecorder, log):
        self._inner = inner
        self._should_admit = rec.wrap(
            "core.online.should_admit", inner.should_admit, log, SHOULD_ADMIT
        )
        self._on_hit = rec.wrap("core.online.on_hit", inner.on_hit, log, ON_HIT)

    def should_admit(self, index, oid, size):
        return self._should_admit(index, oid, size)

    def on_hit(self, index, oid, size):
        self._on_hit(index, oid, size)

    def reset(self) -> None:
        self._inner.reset()


class TimedObserver(CacheObserver):
    def __init__(self, inner: CacheObserver, rec: C.SpanRecorder, log):
        self._on_insert = rec.wrap("ssd.device.on_insert", inner.on_insert, log, ON_INSERT)
        self._on_evict = rec.wrap("ssd.device.on_evict", inner.on_evict, log, ON_EVICT)

    def on_insert(self, oid, size):
        self._on_insert(oid, size)

    def on_evict(self, oid):
        self._on_evict(oid)


class TimedCalls:
    """Forwards everything to ``inner``; the named methods are proxied."""

    def __init__(self, inner, rec: C.SpanRecorder, layer: str, methods, log):
        self._inner = inner
        for key, method in enumerate(methods):
            setattr(self, method,
                    rec.wrap(f"{layer}.{method}", getattr(inner, method), log, key))

    def __getattr__(self, name):
        return getattr(self._inner, name)


def _noop(*args):
    return None


def _drive(log, fns) -> int:
    t0 = time.process_time_ns()
    for key, args in log:
        fns[key](*args)
    return time.process_time_ns() - t0


def clocked_ns(log, fns, keys) -> dict:
    """Wall ns per method key, each call clocked on its own -- for calls long
    enough (several microseconds) that two clock reads do not matter."""
    clock = time.perf_counter_ns
    out = dict.fromkeys(keys, 0)
    for key, args in log:
        if key in out:
            t0 = clock()
            fns[key](*args)
            out[key] += clock() - t0
        else:
            fns[key](*args)
    return out


def driven_ns(log, fns) -> int:
    """CPU ns the functions take on a recorded call stream: the stream is
    replayed in a tight loop, and the same loop over no-ops is subtracted."""
    return max(0, _drive(log, fns) - _drive(log, [_noop] * len(fns)))


# -------------------------------------------------------------- untraced


def run_replays(program: Program, seconds: float) -> dict:
    walls, cpus, outcomes = [], [], []
    last = None
    deadline = time.perf_counter() + seconds
    while len(walls) < 3 or (time.perf_counter() < deadline and len(walls) < MAX_REPLAYS):
        state = program.fresh()
        w0, c0 = time.perf_counter(), time.process_time()
        last = program.replay(state)
        cpus.append(time.process_time() - c0)
        walls.append(time.perf_counter() - w0)
        outcomes.append(last[1:])
    # VmHWM, not ru_maxrss: the latter starts at the parent's peak across exec.
    peak_rss_mb = C.proc_peak_rss_mb(os.getpid())
    problems = program.verify(last)
    if any(o != outcomes[0] for o in outcomes):
        problems.append("simulated outcomes differ between replays of one run")
    requests, stats, extra = last
    return {
        "requests": requests,
        "replays": len(walls),
        "wall_s": walls,
        "cpu_s": cpus,
        "stats": stats,
        "extra": extra,
        "peak_rss_mb": peak_rss_mb,
        "problems": problems,
    }


# ---------------------------------------------------------------- traced


def setup_layers(trace, cfg: NodeConfig, stages: Stages) -> dict:
    """Drive the set-up layers' public functions directly, one by one."""
    out = {}
    npz = C.WORK / f"child{time.time_ns()}.npz"
    C.WORK.mkdir(parents=True, exist_ok=True)
    try:
        save_trace(trace, npz)
        t0 = time.perf_counter()
        load_trace(npz)
        out["trace.load_s"] = time.perf_counter() - t0
    finally:
        npz.unlink(missing_ok=True)
    out["trace.generate_s"] = stages.get("trace.generate_s", 0.0)
    if not cfg.classifier:
        return out
    t0 = time.perf_counter()
    criteria = solve_node_criteria(trace, cfg)
    out["core.criteria_solve_s"] = time.perf_counter() - t0
    t0 = time.perf_counter()
    labels = one_time_labels(trace.object_ids, criteria.m_threshold)
    out["core.labeling_s"] = time.perf_counter() - t0
    # The fit alone, on the rows train_seed_model selects.
    mask = trace.timestamps < cfg.train_seconds
    X = extract_features(trace).select(PAPER_FEATURE_NAMES).X[mask]
    model = CostSensitiveClassifier(
        DecisionTreeClassifier(max_splits=cfg.max_splits, rng=cfg.seed),
        CostMatrix(fn_cost=1.0, fp_cost=cfg.cost_v),
    )
    t0 = time.perf_counter()
    model.fit(X, labels[mask])
    out["ml.tree.fit_s"] = time.perf_counter() - t0
    out["ml.tree.fit_rows"] = int(mask.sum())
    out["ml.tree.nodes"] = int(model.model_.node_count_)
    t0 = time.perf_counter()
    fast_predictor(model)
    out["ml.fastpath.compile_s"] = time.perf_counter() - t0
    return out


def plan_layers(trace, capacity: int) -> dict:
    sizes = trace.sizes.astype(np.int64, copy=False)
    t0 = time.perf_counter()
    stack_distances(trace.object_ids, weights=sizes)
    t1 = time.perf_counter()
    plan = SegmentPlan(trace)
    t2 = time.perf_counter()
    return {
        "trace.stack_distances_s": t1 - t0,
        "cache.segments.plan_build_s": t2 - t1,
        "cache.segments.coverage": plan.coverage(capacity),
        "cache.segments.batches": len(plan.batches(capacity)),
    }


def decision_layers(trace, admission, adm_log) -> dict:
    """``features_into`` and ``predict_one`` on the recorded miss stream.

    A fresh tracker observes every request, as the admission path does; the
    pass runs once building the features on misses and once skipping them,
    and the difference is the build.  No clock sits inside either loop.
    """
    predict_one = fast_predictor(admission.model).predict_one
    stream = [(args[0], key == SHOULD_ADMIT) for key, args in adm_log]
    n_miss = max(1, sum(1 for _, is_miss in stream if is_miss))
    rows = []

    def build(features_into, i, buf):
        features_into(i, buf)

    def skip(features_into, i, buf):
        pass

    def collect(features_into, i, buf):
        rows.append(tuple(features_into(i, buf)))

    def observe_pass(on_miss) -> int:
        tracker = OnlineFeatureTracker(trace)
        features_into, observe = tracker.features_into, tracker.observe
        buf = [0.0] * len(tracker.feature_names)
        t0 = time.process_time_ns()
        for i, is_miss in stream:
            if is_miss:
                on_miss(features_into, i, buf)
            observe(i)
        return time.process_time_ns() - t0

    build_ns = observe_pass(build) - observe_pass(skip)
    observe_pass(collect)       # the rows the predictor saw
    return {
        "core.online.features_into_ns": max(0, build_ns) / n_miss,
        "ml.fastpath.predict_one_ns":
            driven_ns([(0, (row,)) for row in rows], [predict_one]) / n_miss,
    }


def traced_replay(program: Program, workload: str) -> dict:
    """Three untraced replays (their median is the reference time), one
    replay through the proxies, then each layer driven on its recorded
    stream."""
    trace = program.trace
    layers: dict[str, float] = {}
    rec = C.SpanRecorder()
    rec.calibrate()

    base_runs = []
    for _ in range(3):
        state = program.fresh()
        c0 = time.process_time_ns()
        base = program.replay(state)
        base_runs.append(time.process_time_ns() - c0)
    base_ns = C.median(base_runs)
    requests, stats, extra = base

    def traced(fn) -> int:
        rec.batch = 0
        c0 = time.process_time_ns()
        rec.wrap("cache.simulator.simulate", fn)()
        return time.process_time_ns() - c0

    policy_log: list = []

    def policy_driven(fresh_policies) -> int:
        """CPU ns of the policy on its recorded streams, one (fresh policy,
        log) pair per replayed capacity."""
        total = batch_ns = 0
        for policy, log in fresh_policies:
            fns = [policy.access, policy.access_if_present, policy.access_batch]
            total += driven_ns(log, fns)
            if any(key == BATCH for key, _ in log):
                # access_batch calls are few and long: clock them one by one
                # on another fresh replay of the same stream.
                twin = LRUCache(policy.capacity)
                fns = [twin.access, twin.access_if_present, twin.access_batch]
                batch_ns += clocked_ns(log, fns, [BATCH])[BATCH]
        layers["cache.segments.access_batch_ns_per_req"] = batch_ns / requests
        return total

    if workload == "replay_proposal":
        adm_log: list = []
        cache = TimedPolicy(program.fresh(), rec, "access_if_present", policy_log)
        admission = TimedAdmission(program.admission, rec, adm_log)
        traced_ns = traced(lambda: program.replay(cache, admission))
        policy_ns = policy_driven([(program.fresh(), policy_log)])
        inner = program.admission
        inner.reset()
        adm_ns = driven_ns(adm_log, [inner.should_admit, inner.on_hit])
        inner.reset()
        hits_only = [entry for entry in adm_log if entry[0] == ON_HIT]
        on_hit_ns = driven_ns(hits_only, [inner.should_admit, inner.on_hit])
        children_ns = policy_ns + adm_ns
        layers["core.online.should_admit_ns"] = (
            max(0, adm_ns - on_hit_ns) / max(1, extra["decisions"])
        )
        layers.update(decision_layers(trace, inner, adm_log))
        layers["core.online.decisions"] = extra["decisions"]
        layers["core.online.denied_share"] = extra["denied"] / max(1, extra["decisions"])
        layers["core.history_table.rectifications"] = extra["rectified"]
        layers.update(plan_layers(trace, program.capacity))
    elif workload == "replay_device":
        ftl_log: list = []
        cmt_log: list = []
        probe = CacheSSD.for_capacity(
            program.capacity, mean_object_bytes=trace.mean_object_size()
        )
        cmt_args = (probe.cmt.capacity_entries, probe.cmt.miss_penalty_us)
        cmt = TimedCalls(probe.cmt, rec, "ssd.cmt", ["lookup"], cmt_log)
        device = CacheSSD(probe.geometry, cmt=cmt)
        device.ftl = TimedCalls(device.ftl, rec, "ssd.ftl", ["write", "trim"], ftl_log)
        observer_log: list = []
        observer = TimedObserver(device, rec, observer_log)
        cache = TimedPolicy(LRUCache(program.capacity), rec, "access", policy_log)
        traced_ns = traced(lambda: simulate(trace, cache, observer=observer))
        policy_ns = policy_driven([(program.fresh(), policy_log)])
        # Each layer of the device on its own recorded stream: the
        # observer's calls are long (an object is several pages), so they
        # can also be clocked one by one to split inserts from evictions.
        def fresh_device():
            return CacheSSD.for_capacity(
                program.capacity, mean_object_bytes=trace.mean_object_size()
            )

        dev = fresh_device()
        observer_ns = driven_ns(observer_log, [dev.on_insert, dev.on_evict])
        dev = fresh_device()
        split = clocked_ns(observer_log, [dev.on_insert, dev.on_evict],
                           [ON_INSERT, ON_EVICT])
        n_insert = sum(1 for key, _ in observer_log if key == ON_INSERT)
        n_evict = len(observer_log) - n_insert
        fresh_cmt = MappingTableCache(cmt_args[0], miss_penalty_us=cmt_args[1])
        cmt_ns = driven_ns(cmt_log, [fresh_cmt.lookup])
        fresh_ftl = PageMappedFTL(
            probe.geometry,
            cmt=MappingTableCache(cmt_args[0], miss_penalty_us=cmt_args[1]),
        )
        ftl_ns = driven_ns(ftl_log, [fresh_ftl.write, fresh_ftl.trim])
        children_ns = policy_ns + observer_ns
        f = program.last_report.device.ftl.stats
        layers.update({
            "ssd.device.on_insert_us": split[ON_INSERT] / max(1, n_insert) / 1e3,
            "ssd.device.on_evict_us": split[ON_EVICT] / max(1, n_evict) / 1e3,
            "ssd.ftl.write_us_per_page":
                max(0, ftl_ns - cmt_ns) / max(1, f.host_pages_written) / 1e3,
            "ssd.cmt.lookup_ns": cmt_ns / max(1, len(cmt_log)),
            "ssd.ftl.host_pages": f.host_pages_written,
            "ssd.ftl.gc_pages_relocated": f.gc_pages_relocated,
            "ssd.ftl.gc_share": f.gc_pages_relocated / max(1, f.nand_pages_written),
            "ssd.ftl.erases": f.erases,
            "ssd.cmt.lookups": extra["cmt_lookups"],
            "ssd.cmt.miss_rate": extra["cmt_misses"] / max(1, extra["cmt_lookups"]),
            "ssd.cmt.added_latency_ms": program.last_report.device.cmt.added_latency_us / 1e3,
            "ssd.lifetime_days": program.last_report.lifetime.lifetime_days,
        })
        layers.update(plan_layers(trace, program.capacity))
    elif workload == "replay_hot":
        logs: list[list] = []

        def wrap(policy):
            logs.append([])
            return TimedPolicy(policy, rec, "access", logs[-1])

        fresh = program.fresh()
        traced_ns = traced(lambda: program.replay(fresh, wrap=wrap))
        policy_ns = policy_driven(
            [(LRUCache(cap), log) for cap, log in zip(program.capacities, logs)]
        )
        children_ns = policy_ns
        layers.update(plan_layers(trace, program.capacities[0]))
    else:  # replay_learned: ~100 us per policy call, so the clocks are noise
        policy = LearnedCache(
            program.capacity, metadata=eviction_metadata(trace), timing=True
        )
        wrapped = TimedPolicy(policy, rec, "access")
        traced_ns = traced(lambda: program.replay(policy, wrap=lambda p: wrapped))
        d = policy.decision_stats()
        policy_ns = rec.net_ns("cache.policy.access")
        children_ns = policy_ns
        evictions = extra["learned_evictions"] + extra["fallback_evictions"]
        layers.update({
            "cache.learned.decision_us":
                1e6 * d["decision_seconds"] / max(1, d["decisions"]),
            "cache.learned.decisions": extra["decisions"],
            "cache.learned.learned_share": extra["learned_evictions"] / max(1, evictions),
            "cache.learned.fallback_evictions": extra["fallback_evictions"],
            "cache.learned.churn_inserts": extra["churn_inserts"],
        })

    layers["cache.policy.access_ns"] = policy_ns / requests
    # The loop's own time: the untraced replay minus the layers it calls.
    layers["cache.simulator.loop_ns_per_req"] = max(0, base_ns - children_ns) / requests
    layers["cache.policy.hits"] = stats["hits"]
    layers["cache.policy.inserts"] = stats["files_written"]
    layers["cache.policy.evictions"] = stats["evictions"]
    layers["trace_overhead_share"] = max(0.0, traced_ns / base_ns - 1.0)
    rec.write_chrome_trace(C.WORK / f"trace_{workload}.json", workload)
    return {
        "layers": layers,
        "requests": requests,
        "cpu_us_per_req": base_ns / requests / 1e3,
        "stats": stats,
    }


def in_process_serve(trace, workload: str) -> dict:
    """The serving layers driven in-process on the recorded request wire:
    ``FrameDecoder.feed`` -> ``CacheNode.process_batch`` -> ``pack_get_response``,
    once bare (the reference time) and once with a span around each call."""
    cfg = node_config(workload)
    n = min(trace.n_accesses, C.IN_PROCESS_REQUESTS)
    batch = C.IN_PROCESS_BATCH
    oids, sizes = trace.object_ids.tolist(), trace.sizes.tolist()
    wire = [
        b"".join(pack_get_request(i, oids[i], sizes[i])
                 for i in range(lo, min(lo + batch, n)))
        for lo in range(0, n, batch)
    ]

    def pipeline(rec):
        node = CacheNode(trace, cfg)
        decoder = FrameDecoder()
        clock = time.perf_counter_ns
        c0 = time.process_time()
        for k, chunk in enumerate(wire):
            t0 = clock()
            frames = decoder.feed(chunk)
            t1 = clock()
            indices = [f[1] for f in frames if f[0] == BIN_GET]
            t2 = clock()
            results = node.process_batch(indices)
            t3 = clock()
            b"".join(
                pack_get_response(r["index"], r["hit"], r["admitted"], r["denied"])
                for r in results
            )
            t4 = clock()
            if rec is not None:
                rec.batch = k
                root = rec.add("server.request_batch", t0, t4,
                               child_ns=(t1 - t0) + (t4 - t2))
                rec.add("server.protocol.decode", t0, t1, root)
                rec.add("server.node.process_batch", t2, t3, root)
                rec.add("server.protocol.encode", t3, t4, root)
        return time.process_time() - c0, node

    bare_cpu, node = pipeline(None)
    rec = C.SpanRecorder(keep_batches=len(wire))
    traced_cpu, _ = pipeline(rec)
    layers = {
        "server.protocol.decode_ns_per_frame": rec.total_ns["server.protocol.decode"] / n,
        "server.protocol.encode_ns_per_frame": rec.total_ns["server.protocol.encode"] / n,
        "server.node.process_batch_us_per_req":
            rec.total_ns["server.node.process_batch"] / n / 1e3,
        "trace_overhead_share": max(0.0, traced_cpu / bare_cpu - 1.0),
    }
    if node.model is not None:
        # The columnar feature fill and the batch predictor on their own,
        # over the same index batches.
        tracker = OnlineFeatureTracker(trace)
        predictor = fast_predictor(node.model)
        rows = np.empty((batch, len(tracker.feature_names)))
        feat = pred = 0
        clock = time.perf_counter_ns
        for lo in range(0, n, batch):
            indices = list(range(lo, min(lo + batch, n)))
            t0 = clock()
            filled = tracker.features_into_batch(indices, rows)
            t1 = clock()
            predictor.predict(filled)
            t2 = clock()
            feat += t1 - t0
            pred += t2 - t1
        layers["core.online.features_into_batch_ns_per_row"] = feat / n
        layers["ml.fastpath.predict_batch_ns_per_row"] = pred / n
    rec.write_chrome_trace(C.WORK / f"trace_{workload}.json", workload)
    return {"layers": layers, "requests": n}


# ------------------------------------------------------------------ main


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=C.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--objects", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=8.0)
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    stages = Stages()
    trace = stages.timed("trace.generate_s", C.build_trace,
                         args.workload, args.seed, args.objects)
    if args.workload in C.SERVE_WORKLOADS:
        # Only the traced in-process pass runs here; the served run itself
        # is the parent's business.
        emit("ready", stages=stages)
        result = in_process_serve(trace, args.workload)
        result["layers"].update(setup_layers(trace, node_config(args.workload), stages))
        emit("result", **result)
        return 0

    program = PROGRAMS[args.workload](trace, stages)
    program.setup()
    emit("ready", stages=stages)
    if args.setup_only:
        return 0
    if args.traced:
        result = traced_replay(program, args.workload)
        result["layers"].update(setup_layers(trace, node_config(args.workload), stages))
        emit("result", **result)
    else:
        emit("result", **run_replays(program, args.seconds))
    return 0


if __name__ == "__main__":
    sys.exit(main())
