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
