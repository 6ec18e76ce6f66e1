"""Parity tests for the single-lookup ``access_if_present`` peek.

The simulator's admission branch used to pay two hash lookups per
request (``oid in policy`` then ``access``).  ``access_if_present``
collapses them; these tests pin the contract for every policy: the peek
must report a hit **iff** the object was resident, mutate recency state
exactly like a hit-side ``access``, and leave the cache untouched on a
miss.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache import (
    ARCCache,
    FIFOCache,
    GDSFCache,
    LIRSCache,
    LRUCache,
    S3LRUCache,
    SieveCache,
    TwoQCache,
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
}

request_streams = st.lists(
    st.tuples(
        st.integers(0, 25),     # object id
        st.integers(1, 400),    # size
        st.booleans(),          # admit on miss
    ),
    min_size=1,
    max_size=250,
)


@pytest.mark.parametrize("name", sorted(POLICY_FACTORIES))
class TestAccessIfPresentParity:
    @given(stream=request_streams, capacity=st.integers(100, 2500))
    @settings(max_examples=40, deadline=None)
    def test_matches_contains_then_access(self, name, stream, capacity):
        """Peek-based and contains-based replays stay lock-step identical."""
        peeked = POLICY_FACTORIES[name](capacity)
        legacy = POLICY_FACTORIES[name](capacity)
        for oid, size, admit in stream:
            result = peeked.access_if_present(oid, size)
            was_hit_legacy = oid in legacy
            legacy_result = legacy.access(oid, size, admit=admit)
            assert (result is not None) == was_hit_legacy
            if result is not None:
                assert result.hit
            else:
                miss_result = peeked.access(oid, size, admit=admit)
                assert not miss_result.hit
            resident = [o for o in range(26) if o in peeked]
            assert resident == [o for o in range(26) if o in legacy], (
                f"residency diverged after ({oid}, {size}, {admit})"
            )
            assert len(peeked) == len(legacy)
            assert peeked.used_bytes == legacy.used_bytes
            assert legacy_result.hit == was_hit_legacy

    @given(stream=request_streams)
    @settings(max_examples=25, deadline=None)
    def test_miss_peek_is_pure(self, name, stream):
        """A miss-side peek must not change residency or byte accounting."""
        policy = POLICY_FACTORIES[name](2000)
        for oid, size, admit in stream:
            policy.access(oid, size, admit=admit)
        before = ([o for o in range(26) if o in policy], policy.used_bytes)
        for absent in range(100, 110):
            assert policy.access_if_present(absent, 1) is None
        assert ([o for o in range(26) if o in policy], policy.used_bytes) == before
