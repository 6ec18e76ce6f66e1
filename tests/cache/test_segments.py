"""SegmentPlan unit tests + segments-on/off bit-parity suite.

The parity contract is the whole point of the vectorised-segments path:
``simulate(use_segments=True)`` must produce the *same observable run* as
the per-request loop — identical :class:`CacheStats`, identical
insert/evict event order, identical admission-callback sequences — for
every policy, admission config, warmup split, and adversarial stream.
These tests pass an explicit ``segment_plan`` built with ``min_run=1`` so
batching engages even on tiny traces (bypassing the coverage gate), which
maximises the number of batch/loop boundary crossings per trace byte.
"""

import gc
import sys
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache import POLICY_REGISTRY, make_policy, simulate
from repro.cache.base import AdmissionPolicy, CacheObserver
from repro.cache.lru import LRUCache
from repro.cache.segments import DEFAULT_MIN_RUN, SegmentPlan
from repro.cache.simulator import replay_range
from repro.core.admission import AlwaysAdmit, OracleAdmission
from repro.core.labeling import one_time_labels
from repro.perf.hotpath import SEGMENT_TRACE_QUICK
from repro.trace import WorkloadConfig, generate_trace
from repro.trace.analysis import COLD_MISS
from repro.trace.records import ACCESS_DTYPE, CATALOG_DTYPE, Trace

# ----------------------------------------------------------- trace builder


def make_trace(oids, sizes_by_oid=None) -> Trace:
    """A minimal valid Trace from an explicit request stream."""
    oids = np.asarray(oids, dtype=np.int64)
    n_objects = int(oids.max()) + 1
    catalog = np.zeros(n_objects, dtype=CATALOG_DTYPE)
    if sizes_by_oid is None:
        catalog["size"] = 100 + 7 * np.arange(n_objects)
    else:
        for oid, size in sizes_by_oid.items():
            catalog["size"][oid] = size
        missing = catalog["size"] == 0
        catalog["size"][missing] = 100
    accesses = np.zeros(oids.shape[0], dtype=ACCESS_DTYPE)
    accesses["timestamp"] = np.arange(oids.shape[0], dtype=np.float64)
    accesses["object_id"] = oids
    return Trace(
        accesses=accesses,
        catalog=catalog,
        owner_active_friends=np.zeros(1),
        owner_avg_views=np.zeros(1),
        duration=float(oids.shape[0]) + 1.0,
    )


class Recorder(CacheObserver):
    def __init__(self):
        self.events = []

    def on_insert(self, oid, size):
        self.events.append(("insert", oid, size))

    def on_evict(self, oid):
        self.events.append(("evict", oid))


class DenySome(AdmissionPolicy):
    """Deterministic denials + a full callback log (misses and hits)."""

    def __init__(self, modulus=3):
        self.modulus = modulus
        self.calls = []

    def should_admit(self, index, oid, size):
        ok = oid % self.modulus != 0
        self.calls.append(("miss", index, oid, ok))
        return ok

    def on_hit(self, index, oid, size):
        self.calls.append(("hit", index, oid))

    def reset(self):
        self.calls.clear()


# -------------------------------------------------------- SegmentPlan unit


class TestSegmentPlan:
    def test_min_run_validation(self):
        trace = make_trace([0, 1, 0, 1])
        with pytest.raises(ValueError, match="min_run"):
            SegmentPlan(trace, min_run=0)

    def test_runs_are_sorted_disjoint_and_long_enough(self, tiny_trace):
        plan = SegmentPlan(tiny_trace)
        cap = max(1, tiny_trace.footprint_bytes // 5)
        runs = plan.hit_runs(cap)
        assert runs.dtype == np.int64
        lengths = runs[:, 1] - runs[:, 0]
        assert (lengths >= DEFAULT_MIN_RUN).all()
        assert (runs[1:, 0] >= runs[:-1, 1]).all()
        assert runs.size == 0 or (
            runs[0, 0] >= 0 and runs[-1, 1] <= tiny_trace.n_accesses
        )

    def test_every_nominated_access_hits_under_admit_all_lru(self, tiny_trace):
        """The Mattson proof: demand <= C ⇒ that access is an LRU hit."""
        cap = max(1, tiny_trace.footprint_bytes // 5)
        plan = SegmentPlan(tiny_trace, min_run=1)
        runs = plan.hit_runs(cap)
        assert runs.shape[0] > 0  # the check must actually check something

        policy = make_policy("lru", cap)
        oid_list = tiny_trace.object_ids.tolist()
        size_list = tiny_trace.sizes.tolist()
        in_run = np.zeros(tiny_trace.n_accesses, dtype=bool)
        for s, e in runs:
            in_run[s:e] = True
        for i, oid in enumerate(oid_list):
            result = policy.access(oid, size_list[i])
            if in_run[i]:
                assert result.hit, f"nominated access {i} missed"

    def test_batches_distinct_is_dedup_by_last_occurrence(self, tiny_trace):
        cap = max(1, tiny_trace.footprint_bytes // 5)
        plan = SegmentPlan(tiny_trace, min_run=4)
        oids = tiny_trace.object_ids
        batches = plan.batches(cap)
        assert len(batches) == plan.hit_runs(cap).shape[0]
        for s, e, distinct in batches:
            run = oids[s:e].tolist()
            expected = list(dict.fromkeys(reversed(run)))[::-1]
            assert distinct == expected

    def test_batches_memoised_per_capacity(self, tiny_trace):
        plan = SegmentPlan(tiny_trace)
        cap = max(1, tiny_trace.footprint_bytes // 5)
        assert plan.batches(cap) is plan.batches(cap)

    def test_coverage_matches_run_mass(self, tiny_trace):
        plan = SegmentPlan(tiny_trace)
        cap = max(1, tiny_trace.footprint_bytes // 5)
        runs = plan.hit_runs(cap)
        expected = (runs[:, 1] - runs[:, 0]).sum() / tiny_trace.n_accesses
        assert plan.coverage(cap) == pytest.approx(expected)
        assert plan.coverage(0) == 0.0

    def test_cold_first_accesses_never_nominated(self):
        trace = make_trace([0, 1, 2, 3, 0, 1, 2, 3])
        plan = SegmentPlan(trace, min_run=1)
        runs = plan.hit_runs(trace.footprint_bytes * 10)
        covered = set()
        for s, e in runs:
            covered.update(range(s, e))
        assert covered == {4, 5, 6, 7}

    def test_nonpositive_sizes_saturate(self):
        trace = make_trace([0, 1, 0, 1, 0, 1], sizes_by_oid={0: 100, 1: 100})
        trace.catalog["size"][1] = 0  # adversarial zero-size object
        plan = SegmentPlan(trace, min_run=1)
        runs = plan.hit_runs(10**9)
        covered = set()
        for s, e in runs:
            covered.update(range(s, e))
        assert 3 not in covered and 5 not in covered  # re-accesses of oid 1
        assert plan._demand[1] == COLD_MISS

    def test_prefix_bytes_is_exclusive_prefix_sum(self, tiny_trace):
        plan = SegmentPlan(tiny_trace)
        sizes = tiny_trace.sizes
        assert plan.prefix_bytes[0] == 0
        assert plan.prefix_bytes[-1] == sizes.sum()
        assert plan.prefix_bytes[10] == sizes[:10].sum()

    def test_for_trace_caches_on_the_trace(self, tiny_trace):
        a = SegmentPlan.for_trace(tiny_trace)
        b = SegmentPlan.for_trace(tiny_trace)
        assert a is b


# ------------------------------------------------------------ parity suite


ALL_POLICIES = sorted(POLICY_REGISTRY) + ["belady"]


def run_both(trace, policy_name, cap, *, admission_factory=None,
             warmup_fraction=0.0):
    """Simulate segments off and on; return (stats, events, calls) pairs."""
    out = []
    plan = SegmentPlan(trace, min_run=1)
    for use in (False, True):
        rec = Recorder()
        adm = admission_factory() if admission_factory is not None else None
        result = simulate(
            trace,
            make_policy(policy_name, cap, trace),
            admission=adm,
            observer=rec,
            warmup_fraction=warmup_fraction,
            use_segments=use,
            segment_plan=plan if use else None,
        )
        out.append((
            vars(result.stats).copy(),
            rec.events,
            list(adm.calls) if isinstance(adm, DenySome) else None,
        ))
    return out


def assert_parity(trace, policy_name, cap, **kwargs):
    off, on = run_both(trace, policy_name, cap, **kwargs)
    assert on[0] == off[0], f"stats diverged for {policy_name}"
    assert on[1] == off[1], f"event order diverged for {policy_name}"
    assert on[2] == off[2], f"admission calls diverged for {policy_name}"


@pytest.mark.parametrize("policy_name", ALL_POLICIES)
class TestParityAllPolicies:
    def test_synthetic_trace_admit_all(self, tiny_trace, policy_name):
        cap = max(1, tiny_trace.footprint_bytes // 5)
        assert_parity(tiny_trace, policy_name, cap,
                      admission_factory=AlwaysAdmit)

    def test_synthetic_trace_no_admission(self, tiny_trace, policy_name):
        cap = max(1, tiny_trace.footprint_bytes // 5)
        assert_parity(tiny_trace, policy_name, cap)

    def test_synthetic_trace_oracle(self, tiny_trace, policy_name):
        cap = max(1, tiny_trace.footprint_bytes // 5)
        labels = one_time_labels(tiny_trace.object_ids, 3.0)
        assert_parity(tiny_trace, policy_name, cap,
                      admission_factory=lambda: OracleAdmission(labels))

    def test_synthetic_trace_denying_with_hit_callbacks(
        self, tiny_trace, policy_name
    ):
        # DenySome overrides on_hit, forcing the batch path to replay the
        # per-hit callback sequence, and its denials leave objects
        # non-resident so candidate runs contain real misses (stall path).
        cap = max(1, tiny_trace.footprint_bytes // 5)
        assert_parity(tiny_trace, policy_name, cap,
                      admission_factory=DenySome)

    def test_warmup_splits_runs(self, tiny_trace, policy_name):
        cap = max(1, tiny_trace.footprint_bytes // 5)
        assert_parity(tiny_trace, policy_name, cap, warmup_fraction=0.37)

    def test_adversarial_alternating_stream(self, policy_name):
        # Hit runs of a small working set alternating with one-timer
        # bursts: maximises batch entries/exits and mid-run first accesses.
        rng = np.random.default_rng(7)
        stream = []
        fresh = 100
        for block in range(20):
            stream.extend(rng.integers(0, 8, size=15).tolist())  # hot set
            for _ in range(4):                                   # cold burst
                stream.append(fresh)
                fresh += 1
        trace = make_trace(stream)
        cap = trace.catalog["size"][:12].sum()  # holds the hot set, barely
        assert_parity(trace, policy_name, int(cap),
                      admission_factory=DenySome)


class TestParityHypothesis:
    @given(
        data=st.lists(st.integers(0, 12), min_size=2, max_size=200),
        cap_objects=st.integers(1, 14),
        deny=st.booleans(),
    )
    @settings(max_examples=60, deadline=None)
    def test_lru_fifo_sieve_random_streams(self, data, cap_objects, deny):
        trace = make_trace(data)
        cap = int(trace.catalog["size"][: cap_objects + 1].sum())
        factory = DenySome if deny else AlwaysAdmit
        for policy_name in ("lru", "fifo", "sieve", "s3lru"):
            assert_parity(trace, policy_name, max(1, cap),
                          admission_factory=factory)

    @given(data=st.lists(st.integers(0, 5), min_size=2, max_size=80))
    @settings(max_examples=30, deadline=None)
    def test_tiny_capacity_thrashing(self, data):
        trace = make_trace(data)
        cap = int(trace.catalog["size"].max())  # one object fits at a time
        for policy_name in ("lru", "fifo", "sieve"):
            assert_parity(trace, policy_name, cap)


class TestSimulatorIntegration:
    def test_gate_disengages_below_coverage(self, tiny_trace, monkeypatch):
        # Force can_batch_hits policies through simulate() with default
        # args on the paper-like tiny trace: whether or not the gate
        # engages, results must match the loop (here we just confirm the
        # default call works and equals use_segments=False).
        cap = max(1, tiny_trace.footprint_bytes // 20)
        on = simulate(tiny_trace, make_policy("lru", cap))
        off = simulate(tiny_trace, make_policy("lru", cap),
                       use_segments=False)
        assert vars(on.stats) == vars(off.stats)

    def test_explicit_plan_bypasses_gate(self):
        # 6 requests — far below any sane coverage on its own, but an
        # explicit plan must still engage (this is what the parity suite
        # relies on).
        trace = make_trace([0, 1, 0, 1, 0, 1])
        plan = SegmentPlan(trace, min_run=1)
        cap = int(trace.catalog["size"][:2].sum())
        calls = []
        policy = make_policy("lru", cap)
        orig = policy.access_batch
        policy.access_batch = lambda *a, **k: calls.append(1) or orig(*a, **k)
        simulate(trace, policy, segment_plan=plan)
        assert calls, "access_batch was never reached despite explicit plan"

    def test_hit_dominated_replay_counts(self):
        """Segment batching on a hit-dominated trace, counted not clocked.

        Admit-all LRU at 20 % of the footprint over ``SEGMENT_TRACE_QUICK``
        (seed 0) with an explicit plan: one ``access_batch`` per candidate
        run, one ``replay_range`` for the gap before each, and a per-request
        ``access`` only for what the runs do not cover.  Under admit-all
        every run is a proven hit, so no batch stalls and the looped
        requests are exactly the uncovered share.
        """
        trace = generate_trace(WorkloadConfig(seed=0, **SEGMENT_TRACE_QUICK))
        cap = int(0.20 * trace.footprint_bytes)
        plan = SegmentPlan(trace)
        n = trace.n_accesses
        assert n == 47_984
        assert plan.coverage(cap) == pytest.approx(0.880, abs=5e-4)

        names = {
            LRUCache.access.__code__: "access",
            LRUCache.access_batch.__code__: "access_batch",
            replay_range.__code__: "replay_range",
        }
        calls: Counter = Counter()

        def profile(frame, event, arg):
            if event == "call" and frame.f_code in names:
                calls[names[frame.f_code]] += 1

        gc.disable()
        sys.setprofile(profile)
        try:
            result = simulate(trace, LRUCache(cap), segment_plan=plan)
        finally:
            sys.setprofile(None)
            gc.enable()

        runs = len(plan.batches(cap))
        assert calls == {"access_batch": 840, "replay_range": 840, "access": 5_744}
        assert calls["access_batch"] == runs
        assert calls["access"] == n - round(plan.coverage(cap) * n)
        assert result.stats.requests == n

    def test_hit_dominated_default_plan_parity(self):
        """Segments on vs off over ``SEGMENT_TRACE_QUICK`` with its own plan.

        The parity suite above forces ``min_run=1`` on tiny traces; this
        replays the hit-dominated shape at 20 % of the footprint with the
        default plan ``simulate`` builds for a grid.  Admit-all and a
        deny-every-seventh admission must give the same stats, the same
        insert/evict order and the same admission callbacks, and the
        denying run must actually deny.
        """
        trace = generate_trace(WorkloadConfig(seed=0, **SEGMENT_TRACE_QUICK))
        cap = int(0.20 * trace.footprint_bytes)
        plan = SegmentPlan.for_trace(trace)
        assert 0.0 < plan.coverage(cap) <= 1.0
        for factory in (None, lambda: DenySome(modulus=7)):
            out = []
            for use in (False, True):
                rec = Recorder()
                adm = factory() if factory is not None else None
                result = simulate(
                    trace,
                    LRUCache(cap),
                    admission=adm,
                    observer=rec,
                    use_segments=use,
                    segment_plan=plan if use else None,
                )
                out.append((
                    vars(result.stats).copy(),
                    rec.events,
                    list(adm.calls) if adm is not None else None,
                ))
            off, on = out
            assert on[0] == off[0]
            assert on[1] == off[1]
            assert on[2] == off[2]
            assert off[0]["requests"] == trace.n_accesses
            if factory is not None:
                verdicts = [c[3] for c in off[2] if c[0] == "miss"]
                assert False in verdicts and True in verdicts
