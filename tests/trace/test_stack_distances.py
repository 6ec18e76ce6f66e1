"""Exactness, input contract and memory gate of ``stack_distances``.

The array pass in :mod:`repro.trace.analysis` replaced a per-access Fenwick
loop.  That loop lives on here as an independent oracle, beside an O(n²)
transcription of the definition; the pass must equal both element for
element, because nothing downstream can see a wrong distance: an
over-estimate merely shrinks a :class:`SegmentPlan`'s coverage and an
under-estimate is caught by the run-time revalidation of every batch.
"""

import gc
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.segments import SegmentPlan
from repro.perf.hotpath import SEGMENT_TRACE_QUICK
from repro.trace import WorkloadConfig, generate_trace
from repro.trace import analysis
from repro.trace.analysis import COLD_MISS, stack_distances

# ----------------------------------------------------------------- oracles


def fenwick_distances(object_ids, weights=None) -> np.ndarray:
    """The retired implementation: one Fenwick-tree update per access."""
    oid_list = np.asarray(object_ids).tolist()
    n = len(oid_list)
    w_list = [1] * n if weights is None else np.asarray(weights).tolist()
    # Fenwick (BIT) over access positions marking "most recent occurrence"
    # of each object with that object's weight.
    tree = [0] * (n + 1)
    last_pos: dict[int, int] = {}
    distances = np.empty(n, dtype=np.int64)
    for i in range(n):
        oid = oid_list[i]
        prev = last_pos.get(oid)
        if prev is None:
            distances[i] = COLD_MISS
        else:
            # Distinct weight touched in (prev, i) = marks in that range:
            # prefix_sum(i - 1) - prefix_sum(prev).
            s = 0
            j = i
            while j > 0:
                s += tree[j]
                j -= j & (-j)
            j = prev + 1
            while j > 0:
                s -= tree[j]
                j -= j & (-j)
            distances[i] = s
            # Clear the previous-occurrence mark.
            w = w_list[prev]
            j = prev + 1
            while j <= n:
                tree[j] -= w
                j += j & (-j)
        w = w_list[i]
        j = i + 1
        while j <= n:
            tree[j] += w
            j += j & (-j)
        last_pos[oid] = i
    return distances


def definition_distances(object_ids, weights=None) -> np.ndarray:
    """The definition, O(n²): walk back to the previous access of the same
    object, counting each distinct object once at its latest occurrence."""
    ids = list(object_ids)
    w = [1] * len(ids) if weights is None else list(weights)
    out = np.full(len(ids), COLD_MISS, dtype=np.int64)
    for i, oid in enumerate(ids):
        seen = set()
        total = 0
        for k in range(i - 1, -1, -1):
            if ids[k] == oid:
                out[i] = total
                break
            if ids[k] not in seen:
                seen.add(ids[k])
                total += w[k]
    return out


def stream_with_reuses(m, n_objects, rng) -> np.ndarray:
    """A shuffled request stream with exactly ``m`` re-accesses."""
    ids = np.concatenate([np.arange(n_objects), rng.integers(0, n_objects, m)])
    rng.shuffle(ids)
    return ids


# --------------------------------------------------------------- exactness


#: Few objects, many requests: nearly every access is a reuse.
duplicated_ids = st.lists(st.integers(0, 7), max_size=120) | st.lists(
    st.integers(0, 40), max_size=120
)


class TestExactness:
    @settings(max_examples=200, deadline=None)
    @given(
        ids=duplicated_ids,
        weight_seed=st.none() | st.integers(0, 2**32 - 1),
        slab=st.sampled_from([4, 16, 1 << 15]),
    )
    def test_equals_both_oracles(self, ids, weight_seed, slab):
        ids = np.asarray(ids, dtype=np.int64)
        weights = None
        if weight_seed is not None:
            rng = np.random.default_rng(weight_seed)
            weights = rng.integers(1, 10**9, ids.shape[0], endpoint=True)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(analysis, "_SLAB", slab)
            got = stack_distances(ids, weights=weights)
        assert got.dtype == np.int64
        np.testing.assert_array_equal(got, fenwick_distances(ids, weights))
        np.testing.assert_array_equal(got, definition_distances(ids, weights))

    @pytest.mark.parametrize("k", [1, 2, 3, 5, 8, 11])
    @pytest.mark.parametrize("delta", [-1, 0, 1])
    def test_reuse_counts_around_powers_of_two(self, k, delta):
        """The level count changes at m = 2**k + 1 and the last group is
        one short / full / one element at the three counts."""
        m = 2**k + delta
        rng = np.random.default_rng(1000 * k + delta)
        ids = stream_with_reuses(m, n_objects=max(2, m // 7), rng=rng)
        weights = rng.integers(1, 10**6, ids.shape[0])
        assert ids.shape[0] - np.unique(ids).shape[0] == m
        np.testing.assert_array_equal(
            stack_distances(ids, weights=weights),
            fenwick_distances(ids, weights),
        )
        np.testing.assert_array_equal(
            stack_distances(ids), fenwick_distances(ids)
        )

    @pytest.mark.parametrize("slab", [4, 16])
    @pytest.mark.parametrize("m", [1, 3, 4, 5, 63, 64, 65, 700, 1031])
    def test_small_slabs_carry_across_groups(self, monkeypatch, slab, m):
        """Groups wider than a slab: cumsums and partition cursors carry
        from slab to slab, and the last slab and last group are short."""
        monkeypatch.setattr(analysis, "_SLAB", slab)
        rng = np.random.default_rng(m)
        ids = stream_with_reuses(m, n_objects=max(1, m // 5), rng=rng)
        weights = rng.integers(1, 10**9, ids.shape[0])
        np.testing.assert_array_equal(
            stack_distances(ids, weights=weights),
            fenwick_distances(ids, weights),
        )

    def test_totals_beyond_int32_and_float53(self):
        rng = np.random.default_rng(7)
        ids = stream_with_reuses(3000, n_objects=150, rng=rng)
        weights = rng.integers(2**49, 2**50, ids.shape[0])
        got = stack_distances(ids, weights=weights)
        np.testing.assert_array_equal(got, fenwick_distances(ids, weights))
        assert got[got != COLD_MISS].max() > 2**53

    def test_subtract_earlier_larger_is_the_weighted_inversion_table(self):
        rng = np.random.default_rng(3)
        m = 300
        order = rng.permutation(m).astype(np.int32)
        weight = rng.integers(1, 10**9, m)
        expected = np.zeros(m, dtype=np.int64)
        for pos, v in enumerate(order.tolist()):
            earlier = order[:pos]
            expected[v] = -weight[earlier[earlier > v]].sum()
        out = np.zeros(m, dtype=np.int64)
        analysis._subtract_earlier_larger(order.copy(), weight, out)
        np.testing.assert_array_equal(out, expected)


# ---------------------------------------------------------- input contract


class TestInputContract:
    def test_empty_stream(self):
        out = stack_distances(np.array([], dtype=np.int64))
        assert out.shape == (0,) and out.dtype == np.int64
        assert stack_distances([], weights=[]).shape == (0,)

    def test_all_distinct_is_all_cold(self):
        out = stack_distances(np.arange(50), weights=np.arange(50) + 1)
        assert (out == COLD_MISS).all()

    def test_single_object_stream(self):
        out = stack_distances(np.zeros(6, dtype=np.int64), weights=[5] * 6)
        assert out.tolist() == [COLD_MISS, 0, 0, 0, 0, 0]

    def test_one_reuse(self):
        assert stack_distances([0, 1, 2, 0], weights=[1, 2, 3, 4]).tolist() == [
            COLD_MISS, COLD_MISS, COLD_MISS, 5,
        ]

    def test_ids_must_be_one_dimensional(self):
        with pytest.raises(ValueError, match="1-D"):
            stack_distances([[0, 1], [1, 0]])
        with pytest.raises(ValueError, match="1-D"):
            stack_distances(np.int64(3))

    def test_ids_must_be_integers(self):
        """Float ids would be truncated by the grouping sort's int64 cast
        (1.2 and 1.7 are different objects, 1 and 1 are not)."""
        with pytest.raises(ValueError, match="integers"):
            stack_distances([1.2, 1.7, 1.2])

    def test_weights_must_align(self):
        with pytest.raises(ValueError, match="align"):
            stack_distances([0, 1, 0], weights=[1, 2])
        with pytest.raises(ValueError, match="align"):
            stack_distances([0, 1, 0], weights=[[1, 2, 3]])

    def test_float_weights_are_rejected_not_truncated(self):
        """The loop summed floats and truncated per access (5 here); an
        int64 cast inside the array pass would silently answer 4."""
        with pytest.raises(ValueError, match="integer or bool"):
            stack_distances([0, 1, 2, 0], weights=[1.5, 2.6, 2.6, 1.5])

    def test_bool_and_narrow_integer_weights_are_widened(self):
        ids = [0, 1, 2, 1, 0]
        flags = np.array([True, False, True, True, False])
        assert stack_distances(ids, weights=flags).tolist()[3:] == [1, 2]
        narrow = np.array([200, 200, 200, 200, 200], dtype=np.uint8)
        assert stack_distances(ids, weights=narrow).tolist()[3:] == [200, 400]

    def test_negative_weights_are_summed_as_given(self):
        rng = np.random.default_rng(11)
        ids = stream_with_reuses(400, n_objects=30, rng=rng)
        weights = rng.integers(-1000, 1000, ids.shape[0])
        np.testing.assert_array_equal(
            stack_distances(ids, weights=weights),
            fenwick_distances(ids, weights),
        )


# ------------------------------------------------ the plan built on top of it


@pytest.fixture(scope="module")
def segment_trace():
    return generate_trace(WorkloadConfig(seed=1, **SEGMENT_TRACE_QUICK))


def next_occurrence(oids) -> np.ndarray:
    """``next_occ`` by one backward scan; ``n`` where there is none."""
    n = len(oids)
    out = np.full(n, n, dtype=np.int64)
    later: dict[int, int] = {}
    for i in range(n - 1, -1, -1):
        out[i] = later.get(oids[i], n)
        later[oids[i]] = i
    return out


def check_plan_against_oracle(trace):
    plan = SegmentPlan(trace)
    sizes = trace.sizes.astype(np.int64)
    distances = fenwick_distances(trace.object_ids, sizes)
    demand = np.where(distances == COLD_MISS, COLD_MISS, distances + sizes)
    np.testing.assert_array_equal(plan._demand, demand)
    next_occ = next_occurrence(trace.object_ids.tolist())
    np.testing.assert_array_equal(plan._next_occ, next_occ)
    assert plan._next_occ.dtype == np.int64
    reference = SegmentPlan.from_arrays(
        {
            "oids": np.ascontiguousarray(trace.object_ids),
            "demand": demand,
            "prefix_bytes": np.concatenate(([0], np.cumsum(sizes))),
            "next_occ": next_occ,
        }
    )
    covered = 0
    for fraction in (0.05, 0.20, 0.60):
        capacity = int(fraction * trace.footprint_bytes)
        np.testing.assert_array_equal(
            plan.hit_runs(capacity), reference.hit_runs(capacity)
        )
        assert plan.batches(capacity) == reference.batches(capacity)
        covered += len(plan.batches(capacity))
    assert covered > 0


class TestPlanFromOracleDistances:
    def test_hit_dominated_trace(self, segment_trace):
        check_plan_against_oracle(segment_trace)

    def test_upload_heavy_trace(self, tiny_trace):
        check_plan_against_oracle(tiny_trace)


# -------------------------------------------------------------- memory gate


def traced_peak(fn, *args, **kwargs) -> int:
    gc.collect()
    tracemalloc.start()
    try:
        fn(*args, **kwargs)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestTracedPeak:
    """What keeps ``replay_hot``'s peak RSS where the loop left it — a
    deterministic byte count, not a clock or a process-level reading."""

    def test_no_higher_than_the_loop_on_the_segment_trace(self, segment_trace):
        ids = np.ascontiguousarray(segment_trace.object_ids)
        sizes = segment_trace.sizes.astype(np.int64)
        new = traced_peak(stack_distances, ids, weights=sizes)
        old = traced_peak(fenwick_distances, ids, sizes)
        assert new <= old, (new / ids.shape[0], old / ids.shape[0])

    def test_reuse_count_just_past_a_power_of_two(self):
        """m = 2**k + 1 is where a pass that padded its groups to a power
        of two would hold twice the buffers."""
        rng = np.random.default_rng(5)
        ids = stream_with_reuses(2**13 + 1, n_objects=800, rng=rng)
        sizes = rng.integers(1, 10**6, ids.shape[0])
        new = traced_peak(stack_distances, ids, weights=sizes)
        old = traced_peak(fenwick_distances, ids, sizes)
        assert new <= 1.25 * old, (new / ids.shape[0], old / ids.shape[0])
