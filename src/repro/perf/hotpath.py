"""The hit-dominated workload shape behind ``replay_hot``.

A hot-shard steady state rather than the paper's upload-heavy average day:
many requests per object, few one-timers, heavy popularity skew — the
regime segment batching (:mod:`repro.cache.segments`) exists for.  At 20 %
of the footprint LRU already hits ≈ 98 %.

Both shapes stay here only because of who imports them:
``benchmarks/e2e/e2e_common.py::build_trace`` builds ``replay_hot`` from
:data:`SEGMENT_TRACE_FULL` (moving that import is an edit to the e2e
benchmark itself), and ``tests/trace/test_stack_distances.py`` and
``tests/cache/test_segments.py`` pin their counts on
:data:`SEGMENT_TRACE_QUICK`.  Pass either to
:class:`~repro.trace.generator.WorkloadConfig` with a seed.
"""

SEGMENT_TRACE_FULL = dict(
    n_objects=4_000, days=10.0, mean_accesses=60.0,
    one_time_fraction=0.02, extra_tail_alpha=1.15,
)
SEGMENT_TRACE_QUICK = dict(
    n_objects=1_200, days=4.0, mean_accesses=40.0,
    one_time_fraction=0.02, extra_tail_alpha=1.15,
)
