"""Columnar feature extraction (``features_into_batch``) parity.

``features_into_batch`` fills a whole run's feature matrix with one
vectorised call instead of a per-row loop.  The contract is *bit-identical
rows and end state* against the per-row ``features_into`` + ``observe``
pair — the path every replay, offline and served, takes — kept here as
the reference.  Property-tested over random batch partitions.  (Nothing in
``src/`` calls the columnar form since the served node classifies at miss
time; ``benchmarks/e2e`` still probes its per-row cost.)
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.features import PAPER_FEATURE_NAMES
from repro.core.online import OnlineFeatureTracker
from repro.trace.generator import WorkloadConfig, generate_trace


@pytest.fixture(scope="module")
def trace():
    return generate_trace(WorkloadConfig(n_objects=150, mean_accesses=5.0, seed=11))


def row_reference(trace, indices):
    """The per-row loop the batch path must reproduce exactly."""
    tracker = OnlineFeatureTracker(trace)
    rows = np.empty((len(indices), len(PAPER_FEATURE_NAMES)))
    for r, i in enumerate(indices):
        tracker.features_into(i, rows[r])
        tracker.observe(i)
    return rows, tracker


def batch_partition(trace, indices, sizes):
    """Replay the same positions through batches of the given sizes."""
    tracker = OnlineFeatureTracker(trace)
    rows = np.empty((len(indices), len(PAPER_FEATURE_NAMES)))
    pos = 0
    for size in sizes:
        chunk = indices[pos : pos + size]
        if not chunk:
            continue
        tracker.features_into_batch(chunk, rows[pos : pos + len(chunk)])
        pos += len(chunk)
    return rows, tracker


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_any_batch_partition_matches_row_loop(trace, data):
    """Bit-identical rows however the prefix is cut into micro-batches."""
    n = data.draw(st.integers(min_value=1, max_value=300), label="prefix")
    n = min(n, trace.n_accesses)
    indices = list(range(n))
    sizes = []
    remaining = n
    while remaining > 0:
        size = data.draw(
            st.integers(min_value=1, max_value=remaining), label="batch"
        )
        sizes.append(size)
        remaining -= size
    ref_rows, _ = row_reference(trace, indices)
    got_rows, _ = batch_partition(trace, indices, sizes)
    assert np.array_equal(ref_rows, got_rows)


def test_end_state_matches_row_loop(trace):
    """After a batched replay, subsequent per-row features are unchanged."""
    n = min(400, trace.n_accesses - 5)
    _, ref_tracker = row_reference(trace, list(range(n)))
    _, got_tracker = batch_partition(trace, list(range(n)), [64] * (n // 64 + 1))
    for i in range(n, n + 5):
        assert np.array_equal(
            ref_tracker.features(i), got_tracker.features(i)
        )


def test_duplicate_oids_within_one_batch(trace):
    """Intra-batch re-accesses see the previous occurrence's timestamp.

    The generator's traces repeat objects heavily; force a batch that is
    one object's whole access run to pin the in-batch recency wiring.
    """
    oid = int(trace.object_ids[0])
    positions = np.nonzero(trace.object_ids == oid)[0][:8].tolist()
    assert len(positions) >= 2, "fixture object must repeat"
    ref_rows, _ = row_reference(trace, positions)
    got_rows, _ = batch_partition(trace, positions, [len(positions)])
    assert np.array_equal(ref_rows, got_rows)


def test_features_returns_fresh_copy_not_scratch_view(trace):
    """``features`` must copy out of the reused scratch row."""
    tracker = OnlineFeatureTracker(trace)
    a = tracker.features(0)
    a_snapshot = a.copy()
    tracker.observe(0)
    b = tracker.features(1)
    assert b is not a
    assert np.array_equal(a, a_snapshot), "first row mutated by second call"


def test_empty_batch_is_a_no_op(trace):
    tracker = OnlineFeatureTracker(trace)
    out = np.full((4, len(PAPER_FEATURE_NAMES)), -1.0)
    rows = tracker.features_into_batch([], out)
    assert rows.shape == (0, len(PAPER_FEATURE_NAMES))
    assert (out == -1.0).all()
    assert np.array_equal(tracker.features(0), row_reference(trace, [])[1].features(0))
