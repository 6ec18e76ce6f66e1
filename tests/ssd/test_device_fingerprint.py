"""Pinned flash state and per-page call counts for the device model.

The digests were recorded while the FTL's tables were still NumPy arrays,
before its per-page ``write`` / ``trim`` were inlined onto stdlib typed
arrays: a moved digest means the device now programs, relocates or erases
differently, which no storage change may do.
"""

import copy
import hashlib
import pickle
import sys
from collections import Counter
from dataclasses import astuple

import pytest

from repro.cache import LRUCache
from repro.ssd import (
    CacheSSD,
    MappingTableCache,
    PageMappedFTL,
    SSDGeometry,
    simulate_on_ssd,
)
from repro.trace import WorkloadConfig, generate_trace

#: Five device configurations, each reaching a different part of the FTL:
#: a second host stream, overwrite-only invalidation, the static
#: wear-levelling victim rule (its spread lowered so it fires on a short
#: trace), and FIFO block allocation with no translation cache.
CONFIGS = {
    "default": {},
    "streams": {"n_streams": 2, "temperature": lambda oid, size: oid % 2},
    "no_trim": {"trim_on_evict": False},
    "static_wl": {"wear_leveling": "static"},
    "no_wl_no_cmt": {"wear_leveling": "none", "cmt_fraction": None},
}

DIGESTS = {
    "default": "a3b8179bdc7b562dd13861f231ccb53b3eeb018003b8232c92b063ae20ad09c0",
    "no_trim": "da1125fe91b37ab4ee4d60b644c8c663f1c085e2d07011b539926f268fec5fce",
    "no_wl_no_cmt": "4e3997b8d0e74dea554249844e0610c6bfb936d373554abe9a0bf30a9e0998ad",
    "static_wl": "7d7f4c42168749a27d5210342dcc28cf8a7c352086aa448acf2ae8a82cafc875",
    "streams": "5916bfaf4a596eba2293e7eb1217568ea666d7b897cca2d42da7cd88d43e790e",
}


@pytest.fixture(scope="module")
def trace():
    return generate_trace(WorkloadConfig(n_objects=3000, days=2.0, seed=51))


def replay(trace, name):
    cap = max(1, trace.footprint_bytes // 30)
    device = CacheSSD.for_capacity(
        cap, mean_object_bytes=trace.mean_object_size(), **CONFIGS[name]
    )
    if name == "static_wl":
        device.ftl.static_wl_spread = 2
    simulate_on_ssd(trace, LRUCache(cap), device=device)
    return device


def fingerprint(device) -> str:
    ftl = device.ftl
    cmt = device.cmt
    h = hashlib.sha256()
    h.update(repr(astuple(ftl.stats)).encode())
    h.update(repr(astuple(cmt.stats) if cmt is not None else None).encode())
    for table in (ftl.erase_counts, ftl._l2p, ftl._p2l, ftl._valid):
        h.update(memoryview(table).cast("B"))
    return h.hexdigest()


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_flash_state_matches_pinned_digest(trace, name):
    device = replay(trace, name)
    device.ftl.check_invariants()
    assert fingerprint(device) == DIGESTS[name]


def _python_calls(step, lpns) -> Counter:
    """Python-level functions entered while ``step`` runs once per lpn."""
    seen = []

    def profile(frame, event, arg):
        if event == "call":
            seen.append(frame.f_code.co_name)

    sys.setprofile(profile)
    try:
        for lpn in lpns:
            step(lpn)
    finally:
        sys.setprofile(None)
    return Counter(seen)


def test_python_calls_per_host_page():
    """One frame for the FTL step and one for the CMT lookup, per page.

    32 pages fit in one 64-page block, so no block is opened and no GC
    runs: this counts the per-page path only.
    """
    g = SSDGeometry(user_bytes=256 * 1024, page_bytes=1024, pages_per_block=64)
    ftl = PageMappedFTL(g, cmt=MappingTableCache(16))
    lpns = range(32)
    assert _python_calls(ftl.write, lpns) == Counter(write=32, lookup=32)
    assert _python_calls(ftl.trim, lpns) == Counter(trim=32, lookup=32)
    assert ftl.stats.trims == 32
    assert ftl.stats.erases == 0


@pytest.mark.parametrize(
    "clone", [lambda d: pickle.loads(pickle.dumps(d)), copy.deepcopy],
    ids=["pickle", "deepcopy"],
)
def test_copies_carry_the_whole_device(trace, clone):
    """A copy owns its tables: inserts on it keep it consistent and leave
    the original untouched."""
    original = replay(trace, "default")
    before = fingerprint(original)
    twin = clone(original)
    assert fingerprint(twin) == before
    # Each eviction frees at least one logical page, so one-page objects
    # in its place always fit.
    for oid in list(twin._owned)[:300]:
        twin.on_evict(oid)
    for i in range(300):
        twin.on_insert(-1 - i, twin.geometry.page_bytes)
    assert twin.ftl.stats.gc_runs > original.ftl.stats.gc_runs
    twin.ftl.check_invariants()
    assert fingerprint(original) == before
    original.ftl.check_invariants()
