"""Tests for the deterministic consistent-hash ring."""

from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import ConsistentHashRing, stable_hash


class TestStableHash:
    def test_deterministic(self):
        assert stable_hash("photo42") == stable_hash("photo42")
        assert stable_hash(42) == stable_hash(42)

    def test_64bit_range(self):
        for key in ("a", "b", 123, 456789):
            assert 0 <= stable_hash(key) < 2**64

    def test_disperses(self):
        hashes = [stable_hash(i) for i in range(1000)]
        assert len(set(hashes)) == 1000
        # Spread across the space, not clustered in one quadrant.
        quadrants = set(h >> 62 for h in hashes)
        assert len(quadrants) == 4


class TestRing:
    def test_lookup_stable(self):
        ring = ConsistentHashRing(["a", "b", "c"])
        assert ring.lookup(7) == ring.lookup(7)

    def test_all_nodes_receive_keys(self):
        ring = ConsistentHashRing([f"n{i}" for i in range(5)], replicas=128)
        counts = Counter(map(ring.lookup, range(10_000)))
        assert all(c > 0 for c in counts.values())

    def test_balance_with_replicas(self):
        ring = ConsistentHashRing([f"n{i}" for i in range(8)], replicas=256)
        counts = np.array(list(Counter(map(ring.lookup, range(50_000))).values()))
        assert counts.max() / counts.mean() < 1.5

    def test_node_removal_is_minimal_disruption(self):
        """Consistency: removing one node must only remap its own keys."""
        nodes = [f"n{i}" for i in range(6)]
        full = ConsistentHashRing(nodes, replicas=64)
        reduced = ConsistentHashRing(nodes[:-1], replicas=64)
        moved = 0
        kept_wrong = 0
        for key in range(20_000):
            before = full.lookup(key)
            after = reduced.lookup(key)
            if before == nodes[-1]:
                moved += 1  # had to move
            elif before != after:
                kept_wrong += 1  # unnecessary remap
        assert kept_wrong == 0
        assert moved > 0

    def test_order_independent(self):
        a = ConsistentHashRing(["x", "y", "z"])
        b = ConsistentHashRing(["z", "x", "y"])
        for key in range(500):
            assert a.lookup(key) == b.lookup(key)

    def test_invalid(self):
        with pytest.raises(ValueError):
            ConsistentHashRing([])
        with pytest.raises(ValueError):
            ConsistentHashRing(["a", "a"])
        with pytest.raises(ValueError):
            ConsistentHashRing(["a"], replicas=0)

    @given(st.lists(st.integers(0, 10**9), min_size=1, max_size=200))
    @settings(max_examples=30)
    def test_every_key_maps_to_a_member(self, keys):
        ring = ConsistentHashRing(["a", "b", "c"], replicas=16)
        for key in keys:
            assert ring.lookup(key) in ("a", "b", "c")


class TestLookupN:
    def test_first_owner_matches_lookup(self):
        ring = ConsistentHashRing([f"n{i}" for i in range(5)], replicas=64)
        for key in range(500):
            assert ring.lookup_n(key, 1) == (ring.lookup(key),)
            assert ring.lookup_n(key, 3)[0] == ring.lookup(key)

    def test_full_width_is_a_permutation(self):
        nodes = [f"n{i}" for i in range(6)]
        ring = ConsistentHashRing(nodes, replicas=64)
        for key in range(200):
            assert sorted(ring.lookup_n(key, 6)) == sorted(nodes)

    def test_invalid_n(self):
        ring = ConsistentHashRing(["a", "b"])
        with pytest.raises(ValueError):
            ring.lookup_n(1, 0)
        with pytest.raises(ValueError):
            ring.lookup_n(1, 3)

    def test_replica_spread(self):
        """Secondary owners must also spread, not pile on one node."""
        ring = ConsistentHashRing([f"n{i}" for i in range(6)], replicas=128)
        secondary = [ring.lookup_n(key, 2)[1] for key in range(20_000)]
        counts = np.array(
            [secondary.count(f"n{i}") for i in range(6)], dtype=float
        )
        assert counts.min() > 0
        assert counts.max() / counts.mean() < 1.6

    @given(
        keys=st.lists(st.integers(0, 10**9), min_size=1, max_size=50),
        n=st.integers(1, 5),
    )
    @settings(max_examples=40)
    def test_owners_distinct(self, keys, n):
        ring = ConsistentHashRing([f"n{i}" for i in range(5)], replicas=32)
        for key in keys:
            owners = ring.lookup_n(key, n)
            assert len(owners) == n
            assert len(set(owners)) == n

    @given(
        keys=st.lists(st.integers(0, 10**9), min_size=1, max_size=50),
        removed=st.integers(0, 5),
    )
    @settings(max_examples=40)
    def test_ownership_stable_under_removal(self, keys, removed):
        """Removing one node strikes it from every key's owner sequence
        without reordering the survivors — the property that makes
        replicated failover hit the warm standby."""
        nodes = [f"n{i}" for i in range(6)]
        gone = nodes[removed]
        full = ConsistentHashRing(nodes, replicas=32)
        reduced = ConsistentHashRing(
            [m for m in nodes if m != gone], replicas=32
        )
        for key in keys:
            before = full.lookup_n(key, 6)
            after = reduced.lookup_n(key, 5)
            assert after == tuple(o for o in before if o != gone)
