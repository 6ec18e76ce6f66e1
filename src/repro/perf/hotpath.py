"""The hot-path perf-regression harness behind ``repro bench-hotpath``.

Measures ns/decision for each layer of the per-miss admission stack —
feature construction, single-row tree inference, end-to-end admission —
for both the *reference* path (``tracker.features(i)`` into a fresh
ndarray + ``model.predict(x.reshape(1, -1))[0]``) and the *fast* path (the
generated gather of :class:`~repro.core.online.OnlineFeatureTracker` fused
with :func:`~repro.ml.fastpath.fast_predictor` into one decision
callable), and verifies the two paths make **bit-identical admission
decisions** over a full trace replay.

Since the vectorised-segments PR it also measures the *simulator* itself:
a hit-dominated replay through ``simulate()`` with segment batching on vs
off (``simulate_segments`` / ``simulate_loop_reference``), parity-checked
to the event level — identical insert/evict sequences and identical
admission-verdict sequences under a denying admission policy.

The report is written as ``BENCH_hotpath.json``:

.. code-block:: json

    {
      "schema": "repro.bench_hotpath/v1",
      "quick": false,
      "components_selected": ["tree", "tracker", "admission", "segments"],
      "trace": {"objects": ..., "requests": ..., "seed": ...},
      "components": {
        "<component>": {"ns_per_op": ..., "ops": ...,
                         "speedup_vs_reference": ...}
      },
      "parity": {"requests": ..., "identical": true, ...},
      "segments": {"requests": ..., "coverage": ..., "parity": {...}},
      "t_classify_us": {"fast": ..., "reference": ..., "paper": 0.4}
    }

``components`` is the schema contract: each entry maps a component name to
``{ns_per_op, ops, speedup_vs_reference}`` where the speedup is measured
against that component's ``*_reference`` twin (reference rows carry 1.0).
The ``components`` argument / ``--components`` flag selects which groups
(:data:`COMPONENT_GROUPS`) are measured; unselected groups simply don't
appear in the report.  :func:`check_report` is the CI gate — every parity
section present must hold, and outside ``--quick`` the compiled single-row
classifier must clear the 5× floor and segment batching the 3× floor.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import numpy as np

from repro.cache.base import AdmissionPolicy, CacheObserver
from repro.cache.lru import LRUCache
from repro.cache.segments import SegmentPlan
from repro.cache.simulator import simulate
from repro.core.criteria import solve_criteria
from repro.core.features import PAPER_FEATURE_NAMES, extract_features
from repro.core.history_table import HistoryTable
from repro.core.labeling import one_time_labels, reaccess_distances
from repro.core.online import OnlineClassifierAdmission, OnlineFeatureTracker
from repro.ml.cost_sensitive import CostMatrix, CostSensitiveClassifier
from repro.ml.fastpath import fast_predictor
from repro.ml.gbdt import GradientBoostingClassifier
from repro.ml.tree import DecisionTreeClassifier
from repro.trace.generator import WorkloadConfig, generate_trace
from repro.trace.records import Trace

__all__ = [
    "BenchError",
    "COMPONENT_GROUPS",
    "run_hotpath_bench",
    "check_report",
    "format_report",
    "write_report",
]

SCHEMA = "repro.bench_hotpath/v1"
PAPER_T_CLASSIFY_US = 0.4

#: Selectable measurement groups (``--components``): feature tracker,
#: single-row/batch tree inference, end-to-end admission (incl. the
#: fast/reference decision-parity replay), the segmented simulator, the
#: span tracer's enabled vs disabled (no-op) record path, and the
#: compiled GBDT ensemble vs its ``decision_function`` reference.
COMPONENT_GROUPS = ("tree", "tracker", "admission", "segments", "spans", "gbdt")

#: GBDT size for the ``gbdt`` component: large enough that the ensemble
#: walk dominates timing, small enough that fitting stays a CI-smoke cost.
GBDT_ESTIMATORS_FULL, GBDT_ESTIMATORS_QUICK = 30, 10

#: Default scales: full mode targets the acceptance floor of a ≥100k-request
#: parity replay; quick mode is the CI smoke size.
FULL_OBJECTS, FULL_DAYS = 27_000, 10.0
QUICK_OBJECTS, QUICK_DAYS = 4_000, 2.0

#: The segments component replays a *hit-dominated* workload — many
#: requests per object, few one-timers, heavy popularity skew (a hot-shard
#: steady state rather than the paper's upload-heavy average day) — because
#: that is the regime segment batching exists for.  The cache gets 20 % of
#: the footprint (the paper-scale "20 GB" point, where LRU already hits
#: ~98 %).
SEGMENT_TRACE_FULL = dict(
    n_objects=4_000, days=10.0, mean_accesses=60.0,
    one_time_fraction=0.02, extra_tail_alpha=1.15,
)
SEGMENT_TRACE_QUICK = dict(
    n_objects=1_200, days=4.0, mean_accesses=40.0,
    one_time_fraction=0.02, extra_tail_alpha=1.15,
)
SEGMENT_CAPACITY_FRACTION = 0.20


class BenchError(AssertionError):
    """A hot-path invariant (parity or speedup floor) failed."""


# --------------------------------------------------------------- timing core


def _bench_loop(fn, rows, *, budget_seconds: float) -> tuple[float, int]:
    """ns/op and op count for ``fn(row)`` cycled over ``rows``.

    Runs whole passes over ``rows`` (so every measurement sees the same
    input mix) until the time budget is spent; one warmup pass first.
    """
    for row in rows:
        fn(row)
    ops = 0
    elapsed = 0.0
    perf = time.perf_counter
    while elapsed < budget_seconds:
        t0 = perf()
        for row in rows:
            fn(row)
        elapsed += perf() - t0
        ops += len(rows)
    return 1e9 * elapsed / ops, ops


def _component(ns: float, ops: int, reference_ns: float | None = None) -> dict:
    return {
        "ns_per_op": ns,
        "ops": ops,
        "speedup_vs_reference": 1.0 if reference_ns is None else reference_ns / ns,
    }


# ----------------------------------------------------------- parity fixture


class _RecordingAdmission(OnlineClassifierAdmission):
    """Admission wrapper that logs the exact admit/deny verdict sequence."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.verdict_log: list[bool] = []

    def should_admit(self, index: int, oid: int, size: int) -> bool:
        ok = super().should_admit(index, oid, size)
        self.verdict_log.append(ok)
        return ok


def _parity_run(trace: Trace, model, m_threshold: float, cap: int, *, fast: bool):
    adm = _RecordingAdmission(
        model,
        OnlineFeatureTracker(trace),
        m_threshold,
        HistoryTable(1024),
        use_fast_path=fast,
    )
    result = simulate(trace, LRUCache(cap), admission=adm)
    return adm, result


class _EventRecorder(CacheObserver):
    """Captures the cache's full mutation stream, in order."""

    def __init__(self):
        self.events: list[tuple[str, int]] = []

    def on_insert(self, oid: int, size: int) -> None:
        self.events.append(("insert", oid))

    def on_evict(self, oid: int) -> None:
        self.events.append(("evict", oid))


class _DenyingAdmission(AdmissionPolicy):
    """Deterministic deny-some admission with a verdict log.

    Denials leave objects non-resident, invalidating the segment plan's
    hit proofs mid-run — exactly the adversarial case the batch fallback
    path must survive bit-identically.
    """

    def __init__(self, modulus: int = 7):
        self.modulus = modulus
        self.verdict_log: list[bool] = []

    def should_admit(self, index: int, oid: int, size: int) -> bool:
        ok = oid % self.modulus != 0
        self.verdict_log.append(ok)
        return ok

    def reset(self) -> None:
        self.verdict_log.clear()


def _segment_parity(trace: Trace, cap: int, plan: SegmentPlan) -> dict:
    """Event-level parity: segments on vs off, admit-all and denying."""
    out: dict = {}
    for label, make_adm in (("always_admit", None), ("denying", _DenyingAdmission)):
        events = {}
        stats = {}
        verdicts = {}
        for use in (False, True):
            rec = _EventRecorder()
            adm = make_adm() if make_adm is not None else None
            result = simulate(
                trace,
                LRUCache(cap),
                admission=adm,
                observer=rec,
                use_segments=use,
                segment_plan=plan if use else None,
            )
            events[use] = rec.events
            stats[use] = vars(result.stats).copy()
            verdicts[use] = list(adm.verdict_log) if adm is not None else []
        out[label] = {
            "identical": (
                events[True] == events[False]
                and stats[True] == stats[False]
                and verdicts[True] == verdicts[False]
            ),
            "events": len(events[False]),
            "decisions": len(verdicts[False]),
            "stats_segments": stats[True],
            "stats_loop": stats[False],
        }
    out["identical"] = all(v["identical"] for v in out.values() if isinstance(v, dict))
    return out


# ------------------------------------------------------------------ harness


def run_hotpath_bench(
    *,
    trace: Trace | None = None,
    objects: int | None = None,
    days: float | None = None,
    seed: int = 0,
    quick: bool = False,
    budget_seconds: float | None = None,
    components=None,
) -> dict:
    """Measure the per-miss decision stack and return the report dict.

    ``trace`` overrides synthetic generation (``objects``/``days``/
    ``seed``).  ``quick`` shrinks the workload and per-component timing
    budget for CI smoke runs; parity is verified in both modes.
    ``components`` selects which :data:`COMPONENT_GROUPS` to measure
    (default: all) — the CI quick gate runs only ``admission`` +
    ``segments``, whose code paths this repo's hot-path work actually
    touches, instead of re-measuring every component on every push.
    """
    if components is None:
        groups = set(COMPONENT_GROUPS)
    else:
        groups = set(components)
        unknown = groups - set(COMPONENT_GROUPS)
        if unknown:
            raise ValueError(
                f"unknown component groups {sorted(unknown)}; "
                f"choose from {COMPONENT_GROUPS}"
            )
        if not groups:
            raise ValueError("components must name at least one group")
    if budget_seconds is None:
        budget_seconds = 0.05 if quick else 0.4

    needs_main_trace = bool(groups & {"tree", "tracker", "admission", "gbdt"})
    if trace is None and needs_main_trace:
        trace = generate_trace(
            WorkloadConfig(
                n_objects=objects or (QUICK_OBJECTS if quick else FULL_OBJECTS),
                days=days or (QUICK_DAYS if quick else FULL_DAYS),
                seed=seed,
            )
        )

    report: dict = {
        "schema": SCHEMA,
        "quick": quick,
        "components_selected": sorted(groups),
        "components": {},
    }
    out = report["components"]
    if trace is not None:
        report["trace"] = {
            "objects": trace.n_objects,
            "requests": trace.n_accesses,
            "seed": seed,
        }

    model = compiled = fm = labels = None
    m = 0.0
    cap = 0
    if groups & {"tree", "admission", "gbdt"}:
        # The paper's labelling pipeline feeds every model component.
        cap = max(1, trace.footprint_bytes // 100)
        criteria = solve_criteria(
            reaccess_distances(trace.object_ids), cap, trace.mean_object_size()
        )
        m = criteria.m_threshold
        labels = one_time_labels(trace.object_ids, m)
        fm = extract_features(trace).select(PAPER_FEATURE_NAMES)
    if groups & {"tree", "admission"}:
        # The production model: cost-sensitive CART on the paper's five
        # features.
        model = CostSensitiveClassifier(
            DecisionTreeClassifier(max_splits=30, rng=seed),
            CostMatrix(fn_cost=1.0, fp_cost=2.0),
        ).fit(fm.X, labels)
        compiled = fast_predictor(model)

    if "tree" in groups:
        rng = np.random.default_rng(seed)
        sample = fm.X[rng.choice(fm.X.shape[0], size=256, replace=False)]
        sample_lists = [row.tolist() for row in sample]

        # ---- single-row tree inference: the Eq.-6 t_classify term itself.
        ref_ns, ref_ops = _bench_loop(
            lambda x: model.predict(x.reshape(1, -1))[0],
            list(sample),
            budget_seconds=budget_seconds,
        )
        out["tree_single_reference"] = _component(ref_ns, ref_ops)
        one_ns, one_ops = _bench_loop(
            model.predict_one, sample_lists, budget_seconds=budget_seconds
        )
        out["tree_single_predict_one"] = _component(one_ns, one_ops, ref_ns)
        cmp_ns, cmp_ops = _bench_loop(
            compiled.predict_one, sample_lists, budget_seconds=budget_seconds
        )
        out["tree_single_compiled"] = _component(cmp_ns, cmp_ops, ref_ns)

        # ---- batch inference: per-row cost of one micro-batch matrix call.
        bref_ns, bref_ops = _bench_loop(
            model.predict, [sample], budget_seconds=budget_seconds
        )
        out["tree_batch_reference"] = _component(
            bref_ns / len(sample), bref_ops * len(sample)
        )
        bcmp_ns, bcmp_ops = _bench_loop(
            compiled.predict, [sample], budget_seconds=budget_seconds
        )
        out["tree_batch_compiled"] = _component(
            bcmp_ns / len(sample), bcmp_ops * len(sample), bref_ns / len(sample)
        )

    if "tracker" in groups:
        # ---- feature tracker: a fresh ndarray per row vs the generated
        # gather into a reused buffer.  Replayed over a trace prefix so the
        # recency state is real.
        prefix = min(trace.n_accesses, 4096)
        tracker_ref = OnlineFeatureTracker(trace)
        indices = list(range(prefix))
        for i in indices:  # steady-state running state for both trackers
            tracker_ref.observe(i)
        tref_ns, tref_ops = _bench_loop(
            tracker_ref.features, indices, budget_seconds=budget_seconds
        )
        out["tracker_features_reference"] = _component(tref_ns, tref_ops)
        buf = [0.0] * len(tracker_ref.feature_names)
        tfast_ns, tfast_ops = _bench_loop(
            lambda i: tracker_ref.features_into(i, buf),
            indices,
            budget_seconds=budget_seconds,
        )
        out["tracker_features_into"] = _component(tfast_ns, tfast_ops, tref_ns)

    if "admission" in groups:
        # ---- end-to-end admission + exact decision parity over a replay.
        fast_adm, fast_result = _parity_run(trace, model, m, cap, fast=True)
        ref_adm, ref_result = _parity_run(trace, model, m, cap, fast=False)
        out["admission_reference"] = _component(
            1e9 * ref_adm.mean_decision_seconds, ref_adm.decisions
        )
        out["admission_fast"] = _component(
            1e9 * fast_adm.mean_decision_seconds,
            fast_adm.decisions,
            1e9 * ref_adm.mean_decision_seconds,
        )
        report["parity"] = {
            "requests": trace.n_accesses,
            "decisions": fast_adm.decisions,
            "identical": (
                fast_adm.verdict_log == ref_adm.verdict_log
                and fast_result.stats == ref_result.stats
            ),
            "stats_fast": vars(fast_result.stats).copy(),
            "stats_reference": vars(ref_result.stats).copy(),
        }
        report["t_classify_us"] = {
            "fast": 1e6 * fast_adm.mean_decision_seconds,
            "reference": 1e6 * ref_adm.mean_decision_seconds,
            "paper": PAPER_T_CLASSIFY_US,
        }

    if "segments" in groups:
        report["segments"] = _bench_segments(seed, quick, out)

    if "spans" in groups:
        _bench_spans(out, budget_seconds)

    if "gbdt" in groups:
        report["gbdt"] = _bench_gbdt(
            fm.X, labels, seed, quick, out, budget_seconds
        )

    return report


def _bench_gbdt(
    X: np.ndarray,
    labels: np.ndarray,
    seed: int,
    quick: bool,
    out: dict,
    budget_seconds: float,
) -> dict:
    """Compiled GBDT ensemble vs the generic ``decision_function`` walk.

    Fits a boosted ensemble on the same one-time labels as the CART
    component, then measures single-row and per-row batch inference for
    the reference path (``predict(x.reshape(1, -1))[0]`` / ``predict``)
    against the compiled walkers from :func:`fast_predictor`.  Parity is
    exact over the *full* feature matrix — class verdicts and raw margins
    both bit-identical — and the section records ``compiled`` so the CI
    gate can prove the ensemble did not fall back to the generic wrapper.
    """
    gb = GradientBoostingClassifier(
        n_estimators=GBDT_ESTIMATORS_QUICK if quick else GBDT_ESTIMATORS_FULL,
        max_depth=3,
        rng=seed,
    ).fit(X, labels)
    cp = fast_predictor(gb)
    margins = gb.compile_decision_function()

    rng = np.random.default_rng(seed)
    sample = X[rng.choice(X.shape[0], size=256, replace=False)]
    sample_lists = [row.tolist() for row in sample]

    ref_ns, ref_ops = _bench_loop(
        lambda x: gb.predict(x.reshape(1, -1))[0],
        list(sample),
        budget_seconds=budget_seconds,
    )
    out["gbdt_single_reference"] = _component(ref_ns, ref_ops)
    cmp_ns, cmp_ops = _bench_loop(
        cp.predict_one, sample_lists, budget_seconds=budget_seconds
    )
    out["gbdt_single_compiled"] = _component(cmp_ns, cmp_ops, ref_ns)

    bref_ns, bref_ops = _bench_loop(
        gb.predict, [sample], budget_seconds=budget_seconds
    )
    out["gbdt_batch_reference"] = _component(
        bref_ns / len(sample), bref_ops * len(sample)
    )
    bcmp_ns, bcmp_ops = _bench_loop(
        cp.predict, [sample], budget_seconds=budget_seconds
    )
    out["gbdt_batch_compiled"] = _component(
        bcmp_ns / len(sample), bcmp_ops * len(sample), bref_ns / len(sample)
    )

    ref_verdicts = gb.predict(X)
    ref_margins = gb.decision_function(X)
    single_rows = min(X.shape[0], 512)
    identical = (
        np.array_equal(cp.predict(X), ref_verdicts)
        and np.array_equal(margins.predict(X), ref_margins)
        and all(
            cp.predict_one(X[i].tolist()) == ref_verdicts[i]
            and margins.predict_one(X[i].tolist()) == ref_margins[i]
            for i in range(single_rows)
        )
    )
    return {
        "rows": int(X.shape[0]),
        "single_rows_checked": single_rows,
        "n_estimators": len(gb.estimators_),
        "n_nodes": cp.n_nodes,
        "compiled": cp.compiled,
        "parity": {"identical": bool(identical), "rows": int(X.shape[0])},
    }


def _bench_segments(seed: int, quick: bool, out: dict) -> dict:
    """Measure ``simulate()`` segments-on vs -off on a hit-dominated trace.

    Timing replays run admit-all (the regime the grid's Original sweeps
    live in); parity additionally replays under a denying admission whose
    mid-run misses force the batch fallback path.  The per-trace
    :class:`SegmentPlan` is prebuilt and shared — exactly how ``simulate``
    amortises it across a grid — so the timed delta isolates the replay
    loop itself.
    """
    params = SEGMENT_TRACE_QUICK if quick else SEGMENT_TRACE_FULL
    seg_trace = generate_trace(WorkloadConfig(seed=seed, **params))
    seg_cap = max(1, int(SEGMENT_CAPACITY_FRACTION * seg_trace.footprint_bytes))
    plan = SegmentPlan.for_trace(seg_trace)
    n = seg_trace.n_accesses

    reps = 2 if quick else 3
    times = {}
    for use in (False, True):
        best = float("inf")
        for _ in range(reps + 1):  # one warmup rep
            t0 = time.perf_counter()
            simulate(
                seg_trace,
                LRUCache(seg_cap),
                use_segments=use,
                segment_plan=plan if use else None,
            )
            best = min(best, time.perf_counter() - t0)
        times[use] = best

    loop_ns = 1e9 * times[False] / n
    seg_ns = 1e9 * times[True] / n
    out["simulate_loop_reference"] = _component(loop_ns, n * reps)
    out["simulate_segments"] = _component(seg_ns, n * reps, loop_ns)

    return {
        "requests": n,
        "objects": seg_trace.n_objects,
        "capacity_bytes": seg_cap,
        "coverage": plan.coverage(seg_cap),
        "min_run": plan.min_run,
        "parity": _segment_parity(seg_trace, seg_cap, plan),
    }


def _bench_spans(out: dict, budget_seconds: float) -> None:
    """Span-tracer overhead: enabled record path vs the disabled no-op.

    The disabled path is what every instrumented hot loop pays when
    tracing is off (``tracer.span`` returning :data:`NULL_SPAN` without
    touching the clock or the ring), so it is the number the CI trend
    gate watches; the enabled path prices turning tracing on.
    """
    from repro.obs.spans import Tracer

    rows = list(range(256))
    enabled = Tracer(capacity=4096)

    def record_enabled(i):
        with enabled.span("bench", "perf"):
            pass

    ref_ns, ref_ops = _bench_loop(
        record_enabled, rows, budget_seconds=budget_seconds
    )
    out["spans_enabled_reference"] = _component(ref_ns, ref_ops)

    disabled = Tracer(capacity=4096, enabled=False)

    def record_disabled(i):
        with disabled.span("bench", "perf"):
            pass

    noop_ns, noop_ops = _bench_loop(
        record_disabled, rows, budget_seconds=budget_seconds
    )
    out["spans_disabled_noop"] = _component(noop_ns, noop_ops, ref_ns)


# ----------------------------------------------------------------- reporting


def check_report(
    report: dict, *, min_speedup: float = 0.0, min_segment_speedup: float = 0.0
) -> None:
    """Raise :class:`BenchError` on parity failure or a missed speed floor.

    Sections absent from the report (deselected via ``components=``) are
    skipped; every section *present* must pass.
    """
    parity = report.get("parity")
    if parity is not None and not parity["identical"]:
        raise BenchError(
            "fast and reference admission paths diverged: "
            f"fast={parity['stats_fast']} reference={parity['stats_reference']}"
        )
    segments = report.get("segments")
    if segments is not None and not segments["parity"]["identical"]:
        raise BenchError(
            "segmented and loop simulations diverged: "
            f"{segments['parity']}"
        )
    gbdt = report.get("gbdt")
    if gbdt is not None:
        if not gbdt["compiled"]:
            raise BenchError(
                "GBDT fell back to the generic predict wrapper instead of "
                "compiling its ensemble"
            )
        if not gbdt["parity"]["identical"]:
            raise BenchError(
                "compiled GBDT diverged from decision_function over "
                f"{gbdt['parity']['rows']:,} rows"
            )
    components = report["components"]
    if min_speedup > 0 and "tree_single_compiled" in components:
        speedup = components["tree_single_compiled"]["speedup_vs_reference"]
        if speedup < min_speedup:
            raise BenchError(
                f"compiled single-row classification speedup {speedup:.1f}× "
                f"is below the {min_speedup:.1f}× floor"
            )
    if min_segment_speedup > 0 and "simulate_segments" in components:
        speedup = components["simulate_segments"]["speedup_vs_reference"]
        if speedup < min_segment_speedup:
            raise BenchError(
                f"segmented simulation speedup {speedup:.1f}× is below "
                f"the {min_segment_speedup:.1f}× floor"
            )


def format_report(report: dict) -> str:
    header = f"hot-path benchmark ({'quick' if report['quick'] else 'full'} mode)"
    trace = report.get("trace")
    if trace is not None:
        header += (
            f" — {trace['requests']:,} requests, {trace['objects']:,} objects"
        )
    lines = [
        header,
        f"{'component':28s} {'ns/op':>12s} {'ops':>10s} {'speedup':>9s}",
    ]
    for name, c in report["components"].items():
        lines.append(
            f"{name:28s} {c['ns_per_op']:12,.0f} {c['ops']:10,} "
            f"{c['speedup_vs_reference']:8.1f}x"
        )
    parity = report.get("parity")
    if parity is not None:
        lines.append(
            f"decision parity over {parity['requests']:,} requests "
            f"({parity['decisions']:,} decisions): "
            + ("IDENTICAL" if parity["identical"] else "DIVERGED")
        )
    t = report.get("t_classify_us")
    if t is not None:
        lines.append(
            f"t_classify: {t['fast']:.2f} µs fast / {t['reference']:.2f} µs "
            f"reference (paper's C implementation: {t['paper']:.1f} µs)"
        )
    segments = report.get("segments")
    if segments is not None:
        lines.append(
            f"segment batching over {segments['requests']:,} requests "
            f"({100 * segments['coverage']:.1f}% proven-hit coverage): "
            + ("IDENTICAL" if segments["parity"]["identical"] else "DIVERGED")
        )
    gbdt = report.get("gbdt")
    if gbdt is not None:
        lines.append(
            f"gbdt ensemble ({gbdt['n_estimators']} trees, "
            f"{gbdt['n_nodes']:,} nodes, "
            + ("compiled" if gbdt["compiled"] else "generic fallback")
            + f") over {gbdt['parity']['rows']:,} rows: "
            + ("IDENTICAL" if gbdt["parity"]["identical"] else "DIVERGED")
        )
    return "\n".join(lines)


def write_report(report: dict, path: str | Path) -> Path:
    path = Path(path)
    path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    return path
