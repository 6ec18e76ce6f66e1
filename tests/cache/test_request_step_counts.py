"""Python frames per request on the Fig.-4 step: counted, not clocked.

A pinned replay — LRU behind the served node's classifier admission, on
``generate_trace(WorkloadConfig(n_objects=3000, seed=51))`` — runs once
under ``sys.setprofile``, and every Python frame entered inside
``replay_range`` is charged to the request it belongs to (bar the one fold
of the loop's counts into ``stats`` after the last).  Each request
path then has exactly one frame sequence:

* hit — ``access_if_present``, ``on_hit``: 2;
* denied miss — ``access_if_present``, ``should_admit``, ``_predict_one``,
  ``overrules``, ``access``: 5;
* admitted miss — ``access_if_present``, ``should_admit``,
  ``_predict_one``, ``access``: 4, plus ``overrules`` when the history
  table rectified a one-time verdict, plus one ``AccessResult``
  construction when it inserts.

That is 3.41 frames per request over the replay's 11,851 requests.  The
clock is counted the same way: a timed decision reads ``perf_counter_ns``
three times (before the gather, between gather and tree, after the tree),
a hit never.
Before ``AccessResult`` became a ``NamedTuple`` with shared ``HIT`` /
``MISS``, before ``replay_range`` counted in its locals and before
``overrules`` held the whole §4.4.2 rule, the same replay took 6.36: a hit
4 (plus ``_validate_request`` and ``CacheStats.record``), a denied miss 11
(plus ``_validate_request`` twice, ``rectify``, ``HistoryTable.record``,
the frozen dataclass ``__init__`` and ``CacheStats.record``), an admitted
miss 8, or 10 when rectified (``overrules`` → ``rectify``).
"""

import gc
import sys
import time
from collections import Counter

import pytest

from repro.cache.base import AccessResult, CachePolicy, CacheStats
from repro.cache.lru import LRUCache
from repro.cache.simulator import replay_range
from repro.core.history_table import HistoryTable
from repro.server.node import (
    NodeConfig,
    build_cache,
    classifier_admission,
    solve_node_criteria,
    train_seed_model,
)
from repro.trace import WorkloadConfig, generate_trace

CFG = NodeConfig(dram_fraction=0.0)

LOOKUP = "LRUCache.access_if_present"
CONSTRUCT = "AccessResult()"
CLOCK = "perf_counter_ns()"


def _labels() -> dict:
    """Code object → label for the frames a request may enter by method.

    Any other frame is labelled by its ``co_name`` (``co_qualname`` needs
    Python 3.11); the admission's ``should_admit`` / ``on_hit`` /
    ``_predict_one`` are generated module-level functions, so that is
    already their whole name.
    """
    labels = {
        fn.__code__: fn.__qualname__
        for fn in (
            LRUCache.access_if_present,
            LRUCache.access,
            HistoryTable.overrules,
            CacheStats.__init__,
            CacheStats.__iadd__,
            CacheStats.record,
            CachePolicy._validate_request,
        )
    }
    # Whatever runs when an ``AccessResult`` is built, whatever its type.
    for fn in (AccessResult.__new__, AccessResult.__init__):
        if hasattr(fn, "__code__"):
            labels[fn.__code__] = CONSTRUCT
    return labels


@pytest.fixture(scope="module")
def replay():
    """``(frames per request, outcomes, admission, clock reads per request)``
    of the pinned replay."""
    trace = generate_trace(WorkloadConfig(n_objects=3000, seed=51))
    criteria = solve_node_criteria(trace, CFG)
    model = train_seed_model(trace, CFG, criteria)
    assert model is not None
    cache = build_cache(trace, CFG)
    assert type(cache) is LRUCache
    admission = classifier_admission(trace, criteria, model)
    oids, sizes = trace.object_ids.tolist(), trace.sizes.tolist()
    n = len(oids)

    labels = _labels()
    seen: list[str] = []

    def profile(frame, event, arg):
        if event == "call":
            code = frame.f_code
            seen.append(labels.get(code, code.co_name))
        elif event == "c_call" and arg is time.perf_counter_ns:
            seen.append(CLOCK)

    # No collection mid-replay: a gc callback is a frame of no request.
    stats, outcomes = CacheStats(), []
    gc.disable()
    sys.setprofile(profile)
    try:
        replay_range(cache, admission, None, stats, oids, sizes, 0, n, outcomes=outcomes)
    finally:
        sys.setprofile(None)
        gc.enable()

    # Frames before the first lookup are the loop's one-off set-up; the
    # last two fold its local counts into ``stats``, once per call.
    assert seen[0] == "replay_range"
    assert seen[-2:] == ["CacheStats.__init__", "CacheStats.__iadd__"]
    per_request: list[list[str]] = []
    clocks: list[int] = []
    for name in seen[seen.index(LOOKUP):-2]:
        if name == LOOKUP:  # every request starts with the lookup
            per_request.append([])
            clocks.append(0)
        if name == CLOCK:
            clocks[-1] += 1
        else:
            per_request[-1].append(name)
    assert len(per_request) == len(outcomes) == n
    return per_request, outcomes, admission, clocks


def expected_frames(result: AccessResult, denied: bool, rectified: bool) -> list[str]:
    if result.hit:
        return [LOOKUP, "on_hit"]
    frames = [LOOKUP, "should_admit", "_predict_one"]
    if denied or rectified:
        frames.append("HistoryTable.overrules")
    frames.append("LRUCache.access")
    if result.inserted:
        frames.append(CONSTRUCT)
    return frames


def test_frames_per_request_path(replay):
    per_request, outcomes, admission, _ = replay
    paths = Counter()
    for frames, (result, denied) in zip(per_request, outcomes):
        rectified = not denied and "HistoryTable.overrules" in frames
        assert frames == expected_frames(result, denied, rectified)
        if result.hit:
            paths["hit"] += 1
        elif denied:
            paths["denied"] += 1
        else:
            paths["rectified" if rectified else "admitted"] += 1
            paths["inserted"] += result.inserted
    # Every path is exercised, and the rectified ones are the table's.
    assert min(paths.values()) > 0, paths
    assert paths["rectified"] == admission.rectified_admits
    assert paths["rectified"] == admission.history.rectifications
    assert paths["denied"] == admission.denied


def test_retired_frames_never_run(replay):
    per_request, _, _, _ = replay
    entered = set().union(*map(set, per_request))
    # The table's old ``rectify`` / ``record`` are gone, so only their
    # bare names can be looked for.
    assert entered.isdisjoint(
        {"CacheStats.record", "CachePolicy._validate_request", "rectify", "record"}
    )
    # Nor any ``__init__``: a frozen dataclass result was one per miss.
    assert not any(name.endswith("__init__") for name in entered)
    # A hit or a non-inserting miss is a shared instance, never a build.
    assert sum(f.count(CONSTRUCT) for f in per_request) == sum(
        r.inserted for r, _ in replay[1]
    )


def test_clock_reads_per_timed_decision(replay):
    _, outcomes, admission, clocks = replay
    assert [n for (r, _), n in zip(outcomes, clocks) if r.hit] == [0] * 6_311
    assert admission.decisions == 5_540
    assert [n for (r, _), n in zip(outcomes, clocks) if not r.hit] == [3] * 5_540
    assert sum(clocks) == 16_620
