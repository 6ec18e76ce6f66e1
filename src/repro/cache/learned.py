"""Learned eviction: sampled candidates ranked by predicted reuse distance.

The paper learns *admission* (avoid unnecessary SSD writes); this module
adds the complementary half from the later learned-cache literature
(MAT's minimal-overhead sampled eviction, "Learning Forward Reuse
Distance", LRB): on every eviction, sample ``K`` residents, predict each
one's forward reuse distance with a small regression tree, and evict the
one predicted to be needed farthest in the future — Belady's rule with a
learned oracle.

Design
------
* **Decision-time features.**  A candidate is described by what the
  policy can see *now*: its current idle age, its last inter-access gap,
  its size, its access count and the idle/gap overshoot ratio (all logs;
  the clock is a logical request counter, so replay is deterministic).
  Idle age is the load-bearing feature — on a majority-one-time workload
  a fresh object that has out-waited the typical re-access gap is almost
  surely dead, and the tree learns exactly that split.  Feature rows
  captured at a *past* access don't contain the candidate's current age
  and rank dead newcomers below marginally-late hot objects (measured:
  it flips the Belady-gap closure negative), which is why rows are
  always computed at the moment they are used.  When per-object catalog
  ``metadata`` is supplied (see :func:`eviction_metadata`) its columns —
  the paper's own §3.2 signals: owner popularity, owner activity, photo
  type, upload age — are appended to every row.
* **Horizon-matured labels, LRB-style.**  Each request draws one random
  resident and records its feature row.  If the object is re-accessed
  before an adaptive horizon elapses the row matures with the exact
  forward distance as its log₂ target; otherwise a time wheel matures it
  at the horizon with the ceiling label ("effectively never").  The
  horizon tracks the cache's own turnover — ``horizon_scale`` times the
  mean inter-insertion time per resident — so "longer than this" always
  means "dead at this capacity".  Labels never observe the policy's
  eviction choices directly: maturing a victim's rows with its observed
  age teaches the head that its own victims reuse quickly, a feedback
  loop that collapses it onto its own choices (measured: closure goes
  negative).
* **Training.**  :class:`OnlineReuseTrainer` refits a
  :class:`~repro.ml.tree.DecisionTreeRegressor` every ``train_interval``
  matured rows over a bounded ring buffer, then code-generates it through
  :mod:`repro.ml.fastpath` (nested-``if`` single-row twin plus the batch
  twin), so a per-candidate prediction is a ns-range tree walk.
* **Eviction.**  ``K`` candidates are drawn (seeded RNG → deterministic
  replays) from a swap-pop array.  The learned head only *overrides* the
  LRU fallback when a candidate's predicted log-distance clears
  ``theta`` — an absolute dead-confidence gate near the ceiling label.
  Below the gate the LRU head is evicted: a random resident that merely
  ranks worst among eight is usually still live, and losing live objects
  to mispredictions costs more than LRU's cheap longest-idle victims.
  Ties keep the first-scanned candidate (seeded scan order); ranking by
  oid instead systematically evicts the newest uploads (oid correlates
  with upload order — measured bias).
* **Ghost history.**  A bounded ghost list remembers the recency state of
  recent victims; a re-admitted object resumes its gap/count history
  instead of looking brand-new.  Without it a mispredicted hot object is
  re-admitted as a fresh unknown, mispredicted again, and churns forever.
* **Fallback & filter.**  Until the head is trained — and whenever its
  training error degrades past ``max_error`` — the policy is *bit-
  identical* to plain LRU (property-tested).  Just-admitted objects (the
  last ``protect_recent`` insertions) are never chosen by the sampled
  ranking; if every candidate is protected or below the gate the LRU
  victim is used.
* **Observability.**  Eviction decisions are counted by mode
  (``learned`` / ``fallback`` / ``protected`` skips), and re-admission of
  an object the learned head previously evicted is reported as
  :attr:`AccessResult.churn <repro.cache.base.AccessResult.churn>` so
  :func:`repro.obs.ledger.write_cause` can attribute the write to the
  ``eviction_churn`` ledger cause.

The policy declines :meth:`~repro.cache.base.CachePolicy.can_batch_hits`
— its hit-side transition feeds the training stream, so hits must replay
one by one; ``simulate(use_segments=True)`` therefore stays on the exact
per-request loop (parity-tested).
"""

from __future__ import annotations

import random
import time
from collections import OrderedDict, deque
from math import log2

import numpy as np

from repro.cache.base import HIT, MISS, AccessResult, CachePolicy
from repro.ml.fastpath import fast_predictor
from repro.ml.tree import DecisionTreeRegressor

__all__ = ["LearnedCache", "OnlineReuseTrainer", "eviction_metadata"]

#: Feature-space cap for unknown/huge gaps, and the horizon-matured label
#: ceiling (log₂ of requests): 2^26 ≈ 67M requests is beyond any replay.
_LOG_CAP = 26.0

#: Pending feature rows kept per resident awaiting a label; more adds
#: nothing once the row's idle-age feature stops changing materially.
_MAX_PENDING = 3

#: Stream features every row carries (idle, gap, size, count, overshoot).
_N_STREAM_FEATURES = 5


def eviction_metadata(trace) -> list[tuple[float, ...]]:
    """Per-object catalog features for :class:`LearnedCache`, from a trace.

    Returns one tuple per object id — the paper's §3.2 metadata signals,
    all fair to compute online at decision time: log owner average views,
    log owner active friends, photo type, and log pre-trace upload age
    (0 for objects uploaded during the trace).  ``make_policy("learned",
    cap, trace)`` threads this in automatically.
    """
    cat = trace.catalog
    cols = np.column_stack(
        [
            np.log1p(trace.owner_avg_views[cat["owner_id"]]),
            np.log1p(trace.owner_active_friends[cat["owner_id"]]),
            cat["photo_type"].astype(np.float64),
            np.log1p(np.maximum(0.0, -cat["upload_time"])),
        ]
    )
    return [tuple(row) for row in cols]


class OnlineReuseTrainer:
    """Bounded ring of matured reuse-distance rows + periodic refits.

    ``add(row, label)`` appends one matured sample; every
    ``train_interval`` additions (once ``min_train`` rows exist) the tree
    is refit on the newest ``buffer_size`` rows and compiled.  ``ready``
    is the confidence gate: True only when a head is fitted *and* its
    training MAE (in log₂-requests) stayed under ``max_error``.
    ``fit_seconds`` and ``fit_rows`` accumulate the wall time and the rows
    of every refit (two clock reads per refit, always on) — the policy's
    dominant cost, surfaced through ``LearnedCache.decision_stats()``.
    """

    def __init__(
        self,
        *,
        n_features: int = _N_STREAM_FEATURES,
        train_interval: int = 1_000,
        buffer_size: int = 32_000,
        min_train: int = 512,
        max_error: float = 6.0,
        max_splits: int = 128,
        min_samples_leaf: int = 16,
        bins: int | None = 64,
    ):
        if train_interval < 1:
            raise ValueError("train_interval must be >= 1")
        if buffer_size < min_train:
            raise ValueError("buffer_size must be >= min_train")
        self.n_features = n_features
        self.train_interval = train_interval
        self.buffer_size = buffer_size
        self.min_train = min_train
        self.max_error = max_error
        self.max_splits = max_splits
        self.min_samples_leaf = min_samples_leaf
        self.bins = bins

        # Matured samples, oldest -> newest in ``[:_n]``; twice the window
        # so the trim below is amortised over ``buffer_size`` additions.
        self._X = np.empty((2 * buffer_size, n_features), dtype=np.float64)
        self._y = np.empty(2 * buffer_size, dtype=np.float64)
        self.reset()

    @property
    def ready(self) -> bool:
        """Head fitted and confident enough to outrank the LRU fallback."""
        return self.predict_one is not None and self.train_mae <= self.max_error

    def add(self, row: tuple, label: float) -> bool:
        """Record one matured sample; returns True when a refit happened."""
        if len(row) != self.n_features:
            raise ValueError(
                f"row has {len(row)} features, trainer expects {self.n_features}"
            )
        n = self._n
        if n == self._y.shape[0]:
            # Amortised trim: slide the newest window to the front at once.
            n = self.buffer_size
            self._X[:n] = self._X[n:]
            self._y[:n] = self._y[n:]
        self._X[n] = row
        self._y[n] = label
        self._n = n + 1
        self.matured += 1
        self._since_fit += 1
        if self._since_fit >= self.train_interval and self._n >= self.min_train:
            self._fit()
            return True
        return False

    def _fit(self) -> None:
        t0 = time.perf_counter()
        lo = max(0, self._n - self.buffer_size)
        X = self._X[lo : self._n]
        y = self._y[lo : self._n]
        model = DecisionTreeRegressor(
            max_splits=self.max_splits,
            min_samples_leaf=self.min_samples_leaf,
            bins=self.bins,
        )
        model.fit(X, y)
        pred = model.predict(X)
        self.train_mae = float(np.mean(np.abs(pred - y)))
        self.model = model
        self.predict_one = fast_predictor(model).predict_one
        self.fits += 1
        self.fit_rows += X.shape[0]
        self._since_fit = 0
        self.fit_seconds += time.perf_counter() - t0

    def reset(self) -> None:
        self._n = 0
        self._since_fit = 0
        self.fits = 0
        self.fit_rows = 0  # Σ rows over all refits
        self.fit_seconds = 0.0
        self.matured = 0
        self.train_mae = float("inf")
        self.model: DecisionTreeRegressor | None = None
        self.predict_one = None  # compiled scalar head, None until fitted


class LearnedCache(CachePolicy):
    """Sampled-candidate learned eviction over an LRU substrate.

    Constructible from a capacity alone (the policy-registry contract) —
    rows then carry only the five stream features; passing ``metadata``
    (see :func:`eviction_metadata`) appends per-object catalog columns.
    All randomness flows from ``seed``, so a replay of the same trace is
    bit-reproducible.

    Parameters
    ----------
    metadata:
        Optional sequence indexed by object id of per-object feature
        tuples appended to every row.  ``make_policy("learned", cap,
        trace)`` supplies :func:`eviction_metadata`.
    sample_size:
        Candidates ``K`` drawn per eviction (MAT uses a handful).  At
        ``K = 8`` the timed decision is on the order of 10 µs *per
        eviction* (``BENCH_learned_eviction.json`` has it per capacity
        point), a few µs per request.
    protect_recent:
        The most recent this-many *insertions* are off-limits to the
        sampled ranking — a just-admitted object never pays for the
        admission filter's optimism with an instant learned eviction.
    theta:
        Absolute dead-confidence gate (log₂ requests): a sampled
        candidate only overrides the LRU fallback when its predicted
        forward distance is at least this close to the ceiling label.
    horizon_scale:
        Multiple of the cache's mean per-resident inter-insertion time
        after which an unlabelled training row matures at the ceiling.
    trainer:
        An :class:`OnlineReuseTrainer`; defaults to one sized to the
        feature layout.  Pass ``train_interval`` large (or a never-
        ``ready`` trainer) to pin the policy to its LRU fallback.
    timing:
        When True, each eviction *decision* (victim selection only, not
        the dict surgery) is timed with ``perf_counter`` into
        ``decision_seconds``/``decisions`` — the bench's overhead probe.
        Off by default so simulations pay zero clock cost.
    """

    #: Bound on the ghost list (victim history for feature restoration and
    #: churn attribution); oldest entries age out first.
    GHOST_MEMORY = 8_192

    #: Floor on the maturation horizon (requests): below this the cache is
    #: still cold and labels would mature before the model can matter.
    MIN_HORIZON = 256

    def __init__(
        self,
        capacity_bytes: int,
        *,
        metadata=None,
        sample_size: int = 8,
        protect_recent: int = 8,
        theta: float = 24.0,
        horizon_scale: float = 2.0,
        trainer: OnlineReuseTrainer | None = None,
        seed: int = 0x5EED,
        timing: bool = False,
    ):
        super().__init__(capacity_bytes)
        if sample_size < 1:
            raise ValueError("sample_size must be >= 1")
        if protect_recent < 0:
            raise ValueError("protect_recent must be >= 0")
        if horizon_scale <= 0:
            raise ValueError("horizon_scale must be positive")
        self.metadata = metadata
        self.sample_size = sample_size
        self.protect_recent = protect_recent
        self.theta = theta
        self.horizon_scale = horizon_scale
        n_meta = len(metadata[0]) if metadata is not None and len(metadata) else 0
        n_features = _N_STREAM_FEATURES + n_meta
        if trainer is None:
            trainer = OnlineReuseTrainer(n_features=n_features)
        elif trainer.n_features != n_features:
            raise ValueError(
                f"trainer expects {trainer.n_features} features but rows carry "
                f"{n_features} ({_N_STREAM_FEATURES} stream + {n_meta} metadata)"
            )
        self.trainer = trainer
        self.seed = seed
        self.timing = bool(timing)
        self._rng = random.Random(seed)

        # Residency: recency order (fallback victim + LRU bookkeeping),
        # swap-pop array for O(1) uniform sampling (training + candidates).
        self._recency: OrderedDict[int, int] = OrderedDict()  # oid -> size
        self._arr: list[int] = []
        self._pos: dict[int, int] = {}
        self._used = 0

        # Per-resident model state: [last_clock, gap_log, count, insert_seq]
        # where gap_log is the log of the last inter-access gap (_LOG_CAP
        # sentinel until a second access is seen).
        self._meta: dict[int, list] = {}
        # Training rows awaiting labels: oid -> [[row, sampled_at, done]].
        # The time wheel holds (due_clock, oid, entry) in *append* order,
        # which is due order only while the horizon does not shrink: it
        # adapts, so an entry can sit behind a later-due one and mature a
        # few requests late (ROADMAP: known label imprecision).  An entry
        # matures once — at re-access with the true distance, or when the
        # wheel reaches it with the ceiling label, whichever comes first.
        self._pending: dict[int, list] = {}
        self._wheel: deque = deque()
        self._clock = 0
        self._inserts = 0

        # Ghost list: recency state of recent victims, keyed by oid; value
        # [last_clock, gap_log, count, learned?].  Re-admission resumes
        # this history (churn fix) and flags learned-eviction churn.
        self._ghosts: OrderedDict[int, list] = OrderedDict()

        # Memoised head verdicts: oid -> (last_clock_at_prediction,
        # idle_at_prediction, predicted_distance).  A verdict is reusable
        # while the object has not been touched since (``last`` matches):
        # a *dead* verdict only gets deader as idle grows, and a *live*
        # verdict is trusted until the idle age has doubled.  Entries are
        # dropped on eviction; touches invalidate implicitly via ``last``.
        self._verdicts: dict[int, tuple] = {}

        # Decision counters (the observability surface).
        self.learned_evictions = 0
        self.fallback_evictions = 0
        self.protected_skips = 0
        self.churn_inserts = 0
        self.decisions = 0
        self.decision_seconds = 0.0
        #: Optional per-eviction log of ``(victim, mode)`` tuples, enabled
        #: by tests via ``debug_log = []``.
        self.debug_log: list | None = None

    # ---------------------------------------------------------- bookkeeping

    def _feature_row(self, meta: list, size: int, t: int, oid: int) -> tuple:
        """Decision-time features; metadata columns appended when present."""
        idle = log2(1.0 + (t - meta[0]))
        row = (
            idle,
            meta[1],
            log2(float(size)),
            log2(1.0 + meta[2]),
            idle - meta[1],
        )
        if self.metadata is not None:
            return row + tuple(self.metadata[oid])
        return row

    def _horizon(self, t: int) -> int:
        """Requests until an unlabelled row matures at the ceiling."""
        if self._inserts == 0:
            return self.MIN_HORIZON
        scaled = int(
            self.horizon_scale * len(self._recency) * (t + 1) / self._inserts
        )
        return scaled if scaled > self.MIN_HORIZON else self.MIN_HORIZON

    def _draw_training_sample(self, t: int) -> None:
        """Record one random resident's feature row for later maturation."""
        arr = self._arr
        if not arr:
            return
        oid = arr[self._rng.randrange(len(arr))]
        pend = self._pending.get(oid)
        if pend is None:
            pend = self._pending[oid] = []
        elif len(pend) >= _MAX_PENDING:
            return
        entry = [self._feature_row(self._meta[oid], self._recency[oid], t, oid), t, False]
        pend.append(entry)
        self._wheel.append((t + self._horizon(t), oid, entry))

    def _spin_wheel(self, t: int) -> None:
        """Mature every overdue row at the ceiling label."""
        wheel = self._wheel
        if not wheel or wheel[0][0] > t:
            return
        add = self.trainer.add
        pending = self._pending
        while wheel and wheel[0][0] <= t:
            _due, oid, entry = wheel.popleft()
            if entry[2]:
                continue
            entry[2] = True
            add(entry[0], _LOG_CAP)
            pend = pending.get(oid)
            if pend is not None:
                try:
                    pend.remove(entry)
                except ValueError:
                    pass
                if not pend:
                    del pending[oid]

    def _mature(self, oid: int, t: int) -> None:
        """Label ``oid``'s pending rows with the now-known forward distance."""
        pend = self._pending.pop(oid, None)
        if pend:
            add = self.trainer.add
            for entry in pend:
                if not entry[2]:
                    entry[2] = True
                    add(entry[0], log2(1.0 + (t - entry[1])))

    def _touch(self, oid: int, size: int, t: int) -> None:
        """Hit-side transition: recency, labels, gap/count history."""
        self._recency.move_to_end(oid)
        self._mature(oid, t)
        meta = self._meta[oid]
        gap = t - meta[0]
        meta[0] = t
        meta[1] = log2(1.0 + gap)
        meta[2] += 1

    def _admit(self, oid: int, size: int, t: int) -> bool:
        """Insert a new resident, resuming ghost history when present;
        True iff that re-admits an object the learned head evicted."""
        self._recency[oid] = size
        self._pos[oid] = len(self._arr)
        self._arr.append(oid)
        self._used += size
        self._inserts += 1
        ghost = self._ghosts.pop(oid, None)
        if ghost is not None:
            # The object was here before: its re-admission proves a reuse
            # distance, so resume the gap/count history instead of letting
            # a mispredicted hot object look brand-new (and churn forever).
            gap = t - ghost[0]
            self._meta[oid] = [t, log2(1.0 + gap), ghost[2] + 1, self._inserts]
            if ghost[3]:
                self.churn_inserts += 1
                return True
        else:
            self._meta[oid] = [t, _LOG_CAP, 1, self._inserts]
        return False

    def _drop(self, oid: int, *, learned: bool) -> int:
        """Remove a resident and record its ghost entry.

        The victim's unmatured rows are left on the time wheel: they
        mature at their horizon with the ceiling label, never with the
        eviction's observed age (the feedback loop the module docstring
        describes).
        """
        size = self._recency.pop(oid)
        i = self._pos.pop(oid)
        tail = self._arr.pop()
        if tail != oid:
            self._arr[i] = tail
            self._pos[tail] = i
        self._used -= size
        meta = self._meta.pop(oid)
        self._pending.pop(oid, None)
        self._verdicts.pop(oid, None)
        self._ghosts[oid] = [meta[0], meta[1], meta[2], learned]
        if len(self._ghosts) > self.GHOST_MEMORY:
            self._ghosts.popitem(last=False)
        return size

    # ------------------------------------------------------- victim choice

    def _pick_victim(self, t: int) -> tuple[int, bool]:
        """Choose the next eviction victim; returns ``(oid, learned?)``."""
        trainer = self.trainer
        lru_head = next(iter(self._recency))
        if not trainer.ready:
            return lru_head, False
        arr = self._arr
        n = len(arr)
        k = self.sample_size if self.sample_size < n else n
        predict = trainer.predict_one
        meta = self._meta
        sizes = self._recency
        theta = self.theta
        protect_floor = self._inserts - self.protect_recent
        rand = self._rng.random
        feature_row = self._feature_row
        verdicts = self._verdicts

        best_oid = -1
        best: float | None = None
        for _ in range(k):
            oid = arr[int(rand() * n)]
            m = meta[oid]
            if m[3] > protect_floor:
                self.protected_skips += 1
                continue
            last = m[0]
            cached = verdicts.get(oid)
            if cached is not None and cached[0] == last:
                pred = cached[2]
                if pred >= theta:
                    # A dead verdict only gets deader as idle grows: the
                    # idle-age feature is monotone in the forward-distance
                    # direction, so rank on the memoised prediction.
                    if best is None or pred > best:
                        best = pred
                        best_oid = oid
                    continue
                if t - last < 2.0 * cached[1]:
                    # Judged live and its idle age hasn't doubled since:
                    # the verdict can't have flipped past theta yet.
                    continue
            pred = predict(feature_row(m, sizes[oid], t, oid))
            verdicts[oid] = (last, t - last, pred)
            if pred < theta:
                # Not confidently dead: never trade the cheap longest-idle
                # fallback victim for a merely-worst-of-K live object.
                continue
            # Strict > keeps the first-scanned candidate on plateau ties
            # (seeded scan order); ranking ties by oid would bias toward
            # the newest uploads.
            if best is None or pred > best:
                best = pred
                best_oid = oid
        if best is None:
            return lru_head, False
        return best_oid, True

    def _evict_for(self, size: int, t: int) -> list[int]:
        """Evict until ``size`` fits; returns victims in eviction order."""
        evicted: list[int] = []
        timing = self.timing
        while self._used + size > self.capacity:
            if timing:
                t0 = time.perf_counter()
                victim, learned = self._pick_victim(t)
                self.decision_seconds += time.perf_counter() - t0
            else:
                victim, learned = self._pick_victim(t)
            self.decisions += 1
            if learned:
                self.learned_evictions += 1
            else:
                self.fallback_evictions += 1
            if self.debug_log is not None:
                self.debug_log.append((victim, "learned" if learned else "fallback"))
            self._drop(victim, learned=learned)
            evicted.append(victim)
        return evicted

    # -------------------------------------------------------------- access

    def access_if_present(self, oid: int, size: int) -> AccessResult | None:
        self._validate_request(size)
        if oid not in self._recency:
            return None
        t = self._clock
        self._clock = t + 1
        self._spin_wheel(t)
        self._touch(oid, size, t)
        self._draw_training_sample(t)
        return HIT

    def access(self, oid: int, size: int, admit: bool = True) -> AccessResult:
        self._validate_request(size)
        t = self._clock
        self._clock = t + 1
        self._spin_wheel(t)
        if oid in self._recency:
            self._touch(oid, size, t)
            self._draw_training_sample(t)
            return HIT
        self._draw_training_sample(t)
        if not admit or size > self.capacity:
            return MISS
        evicted = self._evict_for(size, t)
        churn = self._admit(oid, size, t)
        return AccessResult(hit=False, inserted=True, evicted=tuple(evicted), churn=churn)

    # ------------------------------------------------------------- queries

    def is_protected(self, oid: int) -> bool:
        """True while ``oid`` is within the protected-admission window."""
        meta = self._meta.get(oid)
        return meta is not None and meta[3] > self._inserts - self.protect_recent

    def decision_stats(self) -> dict:
        """Eviction-decision counters for reports and metric mirrors."""
        return {
            "decisions": self.decisions,
            "learned_evictions": self.learned_evictions,
            "fallback_evictions": self.fallback_evictions,
            "protected_skips": self.protected_skips,
            "churn_inserts": self.churn_inserts,
            "fits": self.trainer.fits,
            "fit_rows": self.trainer.fit_rows,
            "fit_seconds": self.trainer.fit_seconds,
            "matured_samples": self.trainer.matured,
            "train_mae": self.trainer.train_mae,
            "decision_seconds": self.decision_seconds,
            "mean_decision_ns": (
                1e9 * self.decision_seconds / self.decisions
                if self.decisions and self.timing
                else None
            ),
        }

    @property
    def used_bytes(self) -> int:
        return self._used

    def __contains__(self, oid: int) -> bool:
        return oid in self._recency

    def __len__(self) -> int:
        return len(self._recency)
