"""``Trace`` round trips: columns and pickle carry the whole trace, exactly.

``column_arrays()`` → ``from_column_arrays()`` is how ``benchmarks/e2e``
makes a fresh trace object over the same arrays; pickle is how a spawned
grid worker receives its trace.  Both must reproduce every column — names,
order, dtypes, values — plus ``viral_mask`` and ``duration``.
"""

import pickle

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.trace import Trace
from repro.trace.records import ACCESS_DTYPE, CATALOG_DTYPE, TRACE_COLUMNS


def _random_trace(rng, n_objects, n_accesses):
    catalog = np.zeros(n_objects, dtype=CATALOG_DTYPE)
    catalog["size"] = rng.integers(1, 10_000, size=n_objects)
    catalog["photo_type"] = rng.integers(0, 12, size=n_objects)
    catalog["owner_id"] = rng.integers(0, 3, size=n_objects)
    catalog["upload_time"] = -rng.random(n_objects) * 100.0
    accesses = np.zeros(n_accesses, dtype=ACCESS_DTYPE)
    accesses["timestamp"] = np.sort(rng.random(n_accesses) * 500.0)
    accesses["object_id"] = rng.integers(0, n_objects, size=n_accesses)
    accesses["terminal"] = rng.integers(0, 2, size=n_accesses)
    return Trace(
        accesses=accesses,
        catalog=catalog,
        owner_active_friends=rng.integers(0, 50, size=3),
        owner_avg_views=rng.random(3) * 10,
        duration=600.0,
        viral_mask=(
            rng.random(n_objects) < 0.2 if rng.random() < 0.5 else None
        ),
    )


def _via_columns(trace):
    return Trace.from_column_arrays(trace.column_arrays(), trace.duration)


def _via_pickle(trace):
    return pickle.loads(pickle.dumps(trace))


def _assert_same_trace(got, trace):
    assert got is not trace
    assert got.duration == trace.duration
    originals = trace.column_arrays()
    copies = got.column_arrays()
    assert list(copies) == list(originals)
    assert list(copies)[: len(TRACE_COLUMNS)] == list(TRACE_COLUMNS)
    assert ("viral_mask" in copies) == (trace.viral_mask is not None)
    for key, arr in originals.items():
        assert copies[key].dtype == arr.dtype
        np.testing.assert_array_equal(copies[key], arr)


class TestTraceRoundTrip:
    @settings(
        max_examples=25,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        n_objects=st.integers(min_value=1, max_value=30),
        n_accesses=st.integers(min_value=1, max_value=80),
    )
    def test_trace_columns_round_trip(self, seed, n_objects, n_accesses):
        trace = _random_trace(
            np.random.default_rng(seed), n_objects, n_accesses
        )
        _assert_same_trace(_via_columns(trace), trace)
        _assert_same_trace(_via_pickle(trace), trace)

    def test_single_request_trace(self):
        trace = _random_trace(np.random.default_rng(7), 1, 1)
        for got in (_via_columns(trace), _via_pickle(trace)):
            assert got.n_accesses == 1
            _assert_same_trace(got, trace)


class TestRequestLists:
    def test_lists_are_the_columns_memoised(self):
        trace = _random_trace(np.random.default_rng(3), 20, 200)
        oids, sizes = trace.request_lists()
        assert oids == trace.object_ids.tolist()
        assert sizes == trace.sizes.tolist()
        assert all(type(x) is int for x in oids + sizes)
        got = trace.request_lists()
        assert got[0] is oids and got[1] is sizes

    def test_pickle_leaves_the_memo_behind(self):
        trace = _random_trace(np.random.default_rng(4), 20, 200)
        lists = trace.request_lists()
        got = _via_pickle(trace)
        assert "_request_lists" in vars(trace)
        assert "_request_lists" not in vars(got)
        assert got.request_lists() == lists


class TestSeenObjects:
    """``footprint_bytes`` / ``mean_object_size()`` from the seen mask equal
    the ``np.unique`` reference, never-accessed catalog objects included."""

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        n_objects=st.integers(min_value=1, max_value=60),
        n_accesses=st.integers(min_value=1, max_value=80),
    )
    def test_equal_the_unique_reference(self, seed, n_objects, n_accesses):
        trace = _random_trace(np.random.default_rng(seed), n_objects, n_accesses)
        seen = np.unique(trace.object_ids)
        sizes = trace.catalog["size"][seen]
        for _ in range(2):  # computed, then memoised
            fp, mean = trace.footprint_bytes, trace.mean_object_size()
            assert type(fp) is int and fp == int(sizes.sum())
            assert type(mean) is float and mean == float(sizes.mean())

    def test_never_accessed_objects_do_not_count(self):
        trace = _random_trace(np.random.default_rng(5), 50, 10)
        seen = np.unique(trace.object_ids)
        assert seen.shape[0] < trace.n_objects
        assert trace.footprint_bytes == int(trace.catalog["size"][seen].sum())
        assert trace.footprint_bytes < int(trace.catalog["size"].sum())

    def test_pickle_leaves_the_memo_behind(self):
        trace = _random_trace(np.random.default_rng(6), 20, 200)
        fields = set(vars(trace))
        stats = trace.footprint_bytes, trace.mean_object_size()
        memo = set(vars(trace)) - fields
        assert memo  # the statistics are memoised on the instance ...
        got = _via_pickle(trace)
        assert not memo & set(vars(got))  # ... and stay behind
        assert (got.footprint_bytes, got.mean_object_size()) == stats
