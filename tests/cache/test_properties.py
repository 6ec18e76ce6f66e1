"""Hypothesis property tests over all cache policies.

Invariants checked on arbitrary request streams:

* ``used_bytes`` never exceeds capacity;
* a hit is reported iff the object was resident immediately before;
* evicted objects are no longer resident; inserted objects are;
* ``len`` equals the number of distinct resident objects;
* bypassed requests leave residency byte-count unchanged.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache import (
    ARCCache,
    BeladyCache,
    FIFOCache,
    GDSFCache,
    LearnedCache,
    LIRSCache,
    LRUCache,
    S3LRUCache,
    SieveCache,
    TwoQCache,
    compute_next_use,
)

POLICY_FACTORIES = {
    "lru": LRUCache,
    "fifo": FIFOCache,
    "s3lru": S3LRUCache,
    "arc": ARCCache,
    "lirs": LIRSCache,
    "2q": TwoQCache,
    "gdsf": GDSFCache,
    "sieve": SieveCache,
    # Untrained on these short streams (LRU-fallback path), but the
    # residency/byte-accounting invariants must hold regardless of mode.
    "learned": LearnedCache,
}

request_streams = st.lists(
    st.tuples(
        st.integers(0, 30),        # object id
        st.integers(1, 500),       # size
        st.booleans(),             # admit
    ),
    min_size=1,
    max_size=300,
)


@pytest.mark.parametrize("name", sorted(POLICY_FACTORIES))
class TestUniversalInvariants:
    @given(stream=request_streams, capacity=st.integers(100, 3000))
    @settings(max_examples=60, deadline=None)
    def test_invariants_hold(self, name, stream, capacity):
        policy = POLICY_FACTORIES[name](capacity)
        sizes: dict[int, int] = {}
        resident: set[int] = set()
        for oid, size, admit in stream:
            # Object sizes must be stable per id within a run.
            size = sizes.setdefault(oid, size)
            was_resident = oid in policy
            assert was_resident == (oid in resident)
            r = policy.access(oid, size, admit=admit)
            assert r.hit == was_resident
            if r.inserted:
                resident.add(oid)
            for victim in r.evicted:
                assert victim not in policy
                resident.discard(victim)
            if r.hit or r.inserted:
                assert oid in policy
            assert policy.used_bytes <= capacity
            assert policy.used_bytes == sum(sizes[o] for o in resident)
            assert len(policy) == len(resident)

    @given(stream=request_streams)
    @settings(max_examples=30, deadline=None)
    def test_bypass_changes_nothing(self, name, stream):
        policy = POLICY_FACTORIES[name](1000)
        for oid, size, _ in stream:
            before = policy.used_bytes
            was_resident = oid in policy
            r = policy.access(oid, size, admit=False)
            if not was_resident:
                assert not r.inserted
                assert policy.used_bytes == before


class TestBeladyProperties:
    @given(
        ids=st.lists(st.integers(0, 20), min_size=1, max_size=400),
        capacity=st.integers(1, 15),
    )
    @settings(max_examples=60, deadline=None)
    def test_belady_dominates_lru_unit_sizes(self, ids, capacity):
        """For unit sizes Belady (MIN) is optimal: ≥ LRU hit count."""
        arr = np.asarray(ids, dtype=np.int64)
        belady = BeladyCache(capacity, compute_next_use(arr), bypass_dead=False)
        lru = LRUCache(capacity)
        b_hits = l_hits = 0
        for oid in ids:
            b_hits += belady.access(oid, 1).hit
            l_hits += lru.access(oid, 1).hit
        assert b_hits >= l_hits

    @given(
        stream=request_streams,
        capacity=st.integers(100, 3000),
        bypass_dead=st.booleans(),
    )
    @settings(max_examples=40, deadline=None)
    def test_residency_accounting(self, stream, capacity, bypass_dead):
        """The universal invariants, for the oracle that needs the stream's
        future: bytes within capacity and equal to the residents' sizes,
        ``len`` the resident count."""
        sizes: dict[int, int] = {}
        stream = [(oid, sizes.setdefault(oid, size), a) for oid, size, a in stream]
        ids = np.asarray([oid for oid, _, _ in stream], dtype=np.int64)
        policy = BeladyCache(capacity, compute_next_use(ids), bypass_dead=bypass_dead)
        resident: set[int] = set()
        for oid, size, admit in stream:
            r = policy.access(oid, size, admit=admit)
            assert r.hit == (oid in resident)
            if r.inserted:
                resident.add(oid)
            resident.difference_update(r.evicted)
            assert policy.used_bytes <= capacity
            assert policy.used_bytes == sum(sizes[o] for o in resident)
            assert len(policy) == len(resident)

    @given(ids=st.lists(st.integers(0, 10), min_size=1, max_size=200))
    @settings(max_examples=40, deadline=None)
    def test_next_use_is_strictly_forward(self, ids):
        nxt = compute_next_use(np.asarray(ids, dtype=np.int64))
        big = np.iinfo(np.int64).max
        for i, v in enumerate(nxt):
            if v != big:
                assert v > i
                assert ids[v] == ids[i]
                # No intermediate occurrence of the same id.
                assert all(ids[j] != ids[i] for j in range(i + 1, v))
