"""Declarative scenario specifications: nodes, replication, event timeline.

A :class:`ScenarioSpec` describes one cluster experiment end to end — the
OC-tier topology, the admission configuration, and a timeline of timed
**events** that perturb the system mid-replay.  Specs are plain data: they
round-trip through dicts/JSON (``from_dict``/``to_dict``/``load_spec``), so
scenario files can live next to benchmark configs and CI jobs.

Event triggers are **base-trace request indices**: deterministic, replay-
speed independent, and directly comparable across runs.  Hot-key floods
*inject* extra requests, so the engine maintains a base→merged index map
and converts every later trigger (see :mod:`repro.scenario.flood`).

Event kinds
-----------
``node_kill``
    Remove ``node`` from the ring at index ``at``.  Its cached bytes are
    lost to the tier; survivors absorb the remapped shard.
``node_restart``
    Bring a previously killed ``node`` back, **cold**, at index ``at``
    (fresh policy instance, ring rebalance back to the original layout).
``hot_key_flood``
    One viral owner: ``intensity × length`` extra requests to a fresh
    album of ``photos`` photos are injected across the window
    ``[at, at+length)`` (see :func:`repro.scenario.flood.inject_hot_key_flood`).
``rolling_deploy``
    Staggered admission-model swap: across ``[at, at+length)`` each OC
    node in name order atomically swaps its admission filter to the
    ``admission`` target — the simulation analogue of pushing a new model
    to a fleet one node at a time.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field

__all__ = [
    "EVENT_KINDS",
    "ADMISSION_KINDS",
    "EventSpec",
    "ScenarioSpec",
    "load_spec",
    "reference_scenario",
]

#: Valid event kinds; point events have no window, windowed events must
#: declare a positive ``length``.
EVENT_KINDS = ("node_kill", "node_restart", "hot_key_flood", "rolling_deploy")
_WINDOWED = frozenset({"hot_key_flood", "rolling_deploy"})
_NODE_SCOPED = frozenset({"node_kill", "node_restart"})

#: Admission configurations the engine can build without training a model
#: mid-replay: ``none`` (always admit), ``oracle`` (Ideal labels), and
#: ``noisy`` (oracle corrupted by the spec's fn/fp rates — a stand-in for
#: a stale production model that a rolling deploy then upgrades).
ADMISSION_KINDS = ("none", "oracle", "noisy")


@dataclass(frozen=True)
class EventSpec:
    """One timed perturbation; see the module docstring for semantics."""

    kind: str
    at: int
    node: str | None = None       # node_kill / node_restart target
    length: int = 0               # hot_key_flood / rolling_deploy window
    intensity: float = 1.0        # flood: injected requests per window slot
    photos: int = 32              # flood: photos in the viral album
    admission: str | None = None  # rolling_deploy: target admission kind

    def __post_init__(self) -> None:
        if self.kind not in EVENT_KINDS:
            raise ValueError(
                f"unknown event kind {self.kind!r}; valid kinds: "
                f"{', '.join(EVENT_KINDS)}"
            )
        if self.at < 0:
            raise ValueError(f"{self.kind}: trigger index must be >= 0")
        if self.kind in _WINDOWED:
            if self.length < 1:
                raise ValueError(f"{self.kind} needs a window length >= 1")
        elif self.length:
            raise ValueError(f"{self.kind} is a point event; length must be 0")
        if self.kind in _NODE_SCOPED and not self.node:
            raise ValueError(f"{self.kind} needs a target node name")
        if self.kind == "hot_key_flood":
            if self.intensity <= 0:
                raise ValueError("hot_key_flood intensity must be positive")
            if self.photos < 1:
                raise ValueError("hot_key_flood needs at least one photo")
        if self.kind == "rolling_deploy":
            if self.admission not in ADMISSION_KINDS:
                raise ValueError(
                    "rolling_deploy needs a target admission in "
                    f"{ADMISSION_KINDS}, got {self.admission!r}"
                )

    @property
    def end(self) -> int:
        """One past the last affected index (``at`` for point events)."""
        return self.at + self.length


@dataclass(frozen=True)
class ScenarioSpec:
    """A full scenario: topology + admission config + event timeline.

    ``requests`` is the number of *base-trace* requests replayed; every
    event index is validated against it at construction time.  Capacity
    fractions are per node, as fractions of the merged trace's footprint.
    """

    nodes: int
    requests: int
    name: str = "scenario"
    replication: int = 1
    oc_capacity_fraction: float = 1.0 / 150.0
    dc_capacity_fraction: float = 1.0 / 20.0
    policy: str = "lru"
    admission: str = "none"
    m_window: float = 5000.0      # label horizon for oracle/noisy admission
    noisy_fn_rate: float = 0.3    # "stale model" error rates (admission=noisy
    noisy_fp_rate: float = 0.3    # or a rolling_deploy from/to noisy)
    seed: int = 0
    events: tuple[EventSpec, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        if self.nodes < 1:
            raise ValueError("need at least one OC node")
        if self.requests < 1:
            raise ValueError("requests must be >= 1")
        if not 1 <= self.replication <= self.nodes:
            raise ValueError(
                f"replication must be in [1, {self.nodes}] "
                f"(got {self.replication})"
            )
        if not 0.0 < self.oc_capacity_fraction <= 1.0:
            raise ValueError("oc_capacity_fraction must be in (0, 1]")
        if not 0.0 < self.dc_capacity_fraction <= 1.0:
            raise ValueError("dc_capacity_fraction must be in (0, 1]")
        if self.admission not in ADMISSION_KINDS:
            raise ValueError(
                f"admission must be one of {ADMISSION_KINDS}, "
                f"got {self.admission!r}"
            )
        if self.m_window <= 0:
            raise ValueError("m_window must be positive")
        for rate in (self.noisy_fn_rate, self.noisy_fp_rate):
            if not 0.0 <= rate <= 1.0:
                raise ValueError("noisy error rates must be in [0, 1]")
        # Normalise events into a tuple of EventSpec sorted by trigger.
        events = tuple(
            e if isinstance(e, EventSpec) else EventSpec(**e)
            for e in self.events
        )
        object.__setattr__(
            self, "events", tuple(sorted(events, key=lambda e: (e.at, e.kind)))
        )
        self._validate_timeline()

    # ------------------------------------------------------------- timeline

    def _validate_timeline(self) -> None:
        names = set(self.node_names)
        for ev in self.events:
            if ev.end > self.requests:
                raise ValueError(
                    f"{ev.kind} window [{ev.at}, {ev.end}) exceeds the "
                    f"{self.requests}-request replay"
                )
            if ev.at >= self.requests:
                raise ValueError(
                    f"{ev.kind} trigger {ev.at} is out of range for a "
                    f"{self.requests}-request replay"
                )
            if ev.node is not None and ev.node not in names:
                raise ValueError(
                    f"{ev.kind} targets unknown node {ev.node!r}; "
                    f"nodes are {self.node_names}"
                )
        # Windowed events must not overlap each other: phases are defined
        # by window boundaries, and overlapping floods/deploys would make
        # per-phase attribution ambiguous.
        windowed = [e for e in self.events if e.kind in _WINDOWED]
        for prev, cur in zip(windowed, windowed[1:]):
            if cur.at < prev.end:
                raise ValueError(
                    f"overlapping event windows: {prev.kind} "
                    f"[{prev.at}, {prev.end}) and {cur.kind} "
                    f"[{cur.at}, {cur.end})"
                )
        # Kill/restart pairing: a node dies at most once before its
        # restart, restarts need a preceding kill, and the ring must never
        # lose its last node.
        down: set[str] = set()
        for ev in self.events:
            if ev.kind == "node_kill":
                if ev.node in down:
                    raise ValueError(f"{ev.node!r} killed twice without restart")
                down.add(ev.node)
                if len(down) >= self.nodes:
                    raise ValueError("cannot kill the last OC node")
            elif ev.kind == "node_restart":
                if ev.node not in down:
                    raise ValueError(
                        f"restart of {ev.node!r} without a preceding kill"
                    )
                down.remove(ev.node)

    # ------------------------------------------------------------- helpers

    @property
    def node_names(self) -> tuple[str, ...]:
        return tuple(f"oc{i}" for i in range(self.nodes))

    def to_dict(self) -> dict:
        """JSON-able representation; exact inverse of :meth:`from_dict`."""
        out = asdict(self)
        out["events"] = [
            {k: v for k, v in asdict(e).items() if v not in (None,) and not
             (k in ("length",) and v == 0)
             and not (k == "intensity" and v == 1.0)
             and not (k == "photos" and v == 32)}
            for e in self.events
        ]
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "ScenarioSpec":
        """Build a spec from a plain dict, rejecting unknown keys."""
        if not isinstance(data, dict):
            raise ValueError("scenario spec must be a mapping")
        fields = set(cls.__dataclass_fields__)
        unknown = sorted(set(data) - fields)
        if unknown:
            raise ValueError(
                f"unknown scenario keys {unknown}; valid keys: "
                f"{sorted(fields)}"
            )
        data = dict(data)
        raw_events = data.pop("events", [])
        events = []
        for ev in raw_events:
            if isinstance(ev, EventSpec):
                events.append(ev)
                continue
            if not isinstance(ev, dict):
                raise ValueError("each event must be a mapping")
            ev_fields = set(EventSpec.__dataclass_fields__)
            bad = sorted(set(ev) - ev_fields)
            if bad:
                raise ValueError(
                    f"unknown event keys {bad}; valid keys: {sorted(ev_fields)}"
                )
            events.append(EventSpec(**ev))
        return cls(events=tuple(events), **data)


def load_spec(path: str) -> ScenarioSpec:
    """Load a JSON scenario file into a validated :class:`ScenarioSpec`."""
    with open(path, encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}: not valid JSON ({exc})") from exc
    return ScenarioSpec.from_dict(data)


def reference_scenario(requests: int = 200_000, *, seed: int = 0) -> ScenarioSpec:
    """The repository's reference scenario (ISSUE 6 acceptance shape).

    4 OC nodes at replication 2; a hot-key flood in the first third, a
    kill + cold restart of ``oc1`` in the middle, and a rolling deploy of
    the oracle admission model (upgrading the initial noisy one) near the
    end — each separated by steady-state phases so recovery is visible.
    """
    if requests < 100:
        raise ValueError("reference scenario needs at least 100 requests")
    r = requests
    return ScenarioSpec(
        name="reference",
        nodes=4,
        requests=r,
        replication=2,
        admission="noisy",
        seed=seed,
        events=(
            EventSpec(kind="hot_key_flood", at=r // 5, length=r // 10,
                      intensity=1.0, photos=24),
            EventSpec(kind="node_kill", at=r // 2, node="oc1"),
            EventSpec(kind="node_restart", at=(3 * r) // 5, node="oc1"),
            EventSpec(kind="rolling_deploy", at=(3 * r) // 4, length=r // 10,
                      admission="oracle"),
        ),
    )
