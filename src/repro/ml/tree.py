"""CART decision trees (Breiman et al. 1984): one grower, two split searches.

Design notes
------------
* Binary, axis-aligned splits on numeric features; the paper's features are
  discretised integers, which CART handles as ordered values.
* **Best-first growth with a split budget.**  §3.1.2 caps the number of
  *splitting times* at 30 (≈3× the feature count) to control over-fitting.
  We grow the tree by repeatedly applying the globally best remaining split
  (a max-heap on weighted impurity decrease), so a budget of 30 yields the
  30 most valuable splits rather than an arbitrary breadth-first prefix.
* **One tree.**  :class:`_FlatTree` owns the growth limits, the best-first
  loop, the fitted arrays, the batch descent, the scalar walk and the
  compile step; :class:`DecisionTreeClassifier` (admission; the forest's and
  AdaBoost's base) and :class:`DecisionTreeRegressor` (the eviction head;
  the GBDT's rounds) add only their split search and their leaf value.
* **Sample weights** feed directly into the impurity computation, which is
  how :class:`repro.ml.cost_sensitive.CostSensitiveClassifier` implements the
  paper's cost matrix (Table 4).
* Split search is fully vectorised: one argsort + cumulative pass per
  (node, feature), so fitting is O(d · n log n) per tree level — or, for the
  regressor's ``bins`` mode, one histogram pass per node for all features.

The fitted tree is flattened into parallel NumPy arrays
(``children_left/children_right/feature/threshold/value``) and prediction
walks all rows level-by-level with boolean masks
(:func:`repro.ml.fastpath.descend`) — no per-row Python loop.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.ml.base import BaseEstimator, check_X_y, check_array, check_sample_weight
from repro.ml.fastpath import compile_tree_arrays, descend, walk

__all__ = ["DecisionTreeClassifier", "DecisionTreeRegressor"]

_LEAF = -1

Split = tuple[float, int, float]  # (impurity decrease, feature, threshold)


def _node_impurity(class_w: np.ndarray, criterion: str) -> float:
    """Impurity of a node given its per-class weight totals."""
    total = class_w.sum()
    if total <= 0:
        return 0.0
    p = class_w / total
    if criterion == "gini":
        return float(1.0 - np.dot(p, p))
    # entropy: 0·log(0) := 0
    nz = p[p > 0]
    return float(-np.dot(nz, np.log2(nz)))


def _side_impurity(class_w: np.ndarray, totals: np.ndarray, criterion: str) -> np.ndarray:
    """Impurity of one side of every candidate cut: row ``i`` of ``class_w``
    holds that side's per-class weights, ``totals[i]`` their (positive) sum."""
    if criterion == "gini":
        return 1.0 - np.einsum("ij,ij->i", class_w, class_w) / (totals * totals)
    p = class_w / totals[:, None]
    with np.errstate(divide="ignore", invalid="ignore"):
        return -np.nansum(np.where(p > 0, p * np.log2(p), 0.0), axis=1)


def _cut_positions(vs: np.ndarray, min_leaf: int) -> np.ndarray:
    """Split positions in sorted values ``vs``: boundaries between distinct
    adjacent values, honouring the per-leaf sample minimum."""
    cut = np.nonzero(vs[:-1] != vs[1:])[0]
    if min_leaf > 1:
        n = vs.shape[0]
        cut = cut[(cut + 1 >= min_leaf) & (n - cut - 1 >= min_leaf)]
    return cut


def _cut_threshold(vs: np.ndarray, i: int) -> float:
    """Midpoint after sorted position ``i``, guarded against rounding onto
    the right value (routing is ``x <= threshold``)."""
    thr = 0.5 * (vs[i] + vs[i + 1])
    return float(vs[i] if thr >= vs[i + 1] else thr)


@dataclass
class _Candidate:
    """Best split found for a pending node, ordered by impurity decrease."""

    decrease: float
    feature: int
    threshold: float
    node_id: int
    indices: np.ndarray = field(repr=False)
    depth: int = 0

    def __lt__(self, other: "_Candidate") -> bool:  # max-heap via negation
        return self.decrease > other.decrease


class _FlatTree(BaseEstimator):
    """A binary tree in flat parallel arrays, grown best-first.

    The constructor validates the growth limits once for every tree;
    subclasses call :meth:`_grow` from ``fit``, handing it their split
    search and leaf value, and implement ``_node_labels()`` — what each
    node reports as a leaf.
    """

    #: ``predict_one``'s list cache.  Fitted state (trailing ``_``), so
    #: ``model_selection._clone`` drops it with the arrays it was made from.
    _walk_plan_: tuple | None = None

    def __init__(
        self,
        max_splits: int | None,
        max_depth: int | None,
        min_samples_split: int,
        min_samples_leaf: int,
        min_impurity_decrease: float,
    ) -> None:
        if max_splits is not None and max_splits < 1:
            raise ValueError("max_splits must be >= 1 or None")
        if max_depth is not None and max_depth < 0:
            raise ValueError("max_depth must be >= 0 or None")
        if min_samples_split < 2:
            raise ValueError("min_samples_split must be >= 2")
        if min_samples_leaf < 1:
            raise ValueError("min_samples_leaf must be >= 1")
        if min_impurity_decrease < 0:
            raise ValueError("min_impurity_decrease must be >= 0")
        self.max_splits = max_splits
        self.max_depth = max_depth
        self.min_samples_split = min_samples_split
        self.min_samples_leaf = min_samples_leaf
        self.min_impurity_decrease = min_impurity_decrease

    # ------------------------------------------------------------------ fit

    def _grow(
        self,
        X: np.ndarray,
        leaf_value: Callable[[np.ndarray], object],
        best_split: Callable[[np.ndarray], Split | None],
    ) -> list[tuple[int, float]]:
        """Grow the tree on ``X`` and store the fitted arrays.

        ``leaf_value(indices)`` is what a node holding those rows stores in
        ``value_``; ``best_split(indices)`` is its best ``(decrease,
        feature, threshold)`` or ``None``.  Pending nodes wait on a
        max-heap and the globally best one is split next until the budget
        or the heap runs out.  Returns the applied ``(feature, decrease)``
        pairs in split order.
        """
        # One growable record per node — [feature, threshold, left, right,
        # value, depth] — transposed into the fitted arrays at the end.
        nodes: list[list] = []
        heap: list[_Candidate] = []

        def new_node(indices: np.ndarray, depth: int) -> int:
            nodes.append([_LEAF, 0.0, _LEAF, _LEAF, leaf_value(indices), depth])
            return len(nodes) - 1

        def consider(node_id: int, indices: np.ndarray, depth: int) -> None:
            """Find this node's best split and push it on the heap."""
            if indices.shape[0] < self.min_samples_split:
                return
            if self.max_depth is not None and depth >= self.max_depth:
                return
            split = best_split(indices)
            if split is None or split[0] <= self.min_impurity_decrease:
                return
            heapq.heappush(heap, _Candidate(*split, node_id, indices, depth))

        root_idx = np.arange(X.shape[0])
        new_node(root_idx, 0)
        consider(0, root_idx, 0)

        applied: list[tuple[int, float]] = []
        budget = self.max_splits if self.max_splits is not None else np.inf
        while heap and len(applied) < budget:
            cand = heapq.heappop(heap)
            go_left = X[cand.indices, cand.feature] <= cand.threshold
            li, ri = cand.indices[go_left], cand.indices[~go_left]
            # The candidate was validated at push time; leaf minima still hold.
            lid = new_node(li, cand.depth + 1)
            rid = new_node(ri, cand.depth + 1)
            nodes[cand.node_id][:4] = cand.feature, cand.threshold, lid, rid
            applied.append((cand.feature, cand.decrease))
            consider(lid, li, cand.depth + 1)
            consider(rid, ri, cand.depth + 1)

        feature, threshold, left, right, value, depth_of = zip(*nodes)
        self.n_features_in_ = X.shape[1]
        self.feature_ = np.asarray(feature, dtype=np.int64)
        self.threshold_ = np.asarray(threshold, dtype=np.float64)
        self.children_left_ = np.asarray(left, dtype=np.int64)
        self.children_right_ = np.asarray(right, dtype=np.int64)
        self.value_ = np.asarray(value, dtype=np.float64)
        self.node_depth_ = np.asarray(depth_of, dtype=np.int64)
        self.node_count_ = len(nodes)
        self.n_splits_ = len(applied)
        self._walk_plan_ = None
        return applied

    # -------------------------------------------------------------- predict

    def _check_fitted(self) -> None:
        if not hasattr(self, "node_count_"):
            raise RuntimeError(
                f"{type(self).__name__} is not fitted; call fit() first"
            )

    def _structure(self) -> tuple[np.ndarray, ...]:
        """The arrays ``descend``, ``walk`` and the compiler take, in order."""
        return self.feature_, self.threshold_, self.children_left_, self.children_right_

    def _leaf_ids(self, X) -> np.ndarray:
        """Validate ``X`` and return the leaf node id of every row."""
        self._check_fitted()
        X = check_array(X)
        if X.shape[1] != self.n_features_in_:
            raise ValueError(
                f"expected {self.n_features_in_} features, got {X.shape[1]}"
            )
        return descend(X, *self._structure())

    def _single_plan(self) -> tuple:
        """Flattened tree as plain Python lists — the zero-overhead walk.

        NumPy scalar indexing costs ~10× a list lookup, so the per-miss
        path walks cached ``tolist()`` copies: the four structure lists
        :func:`~repro.ml.fastpath.walk` takes, then the per-node labels.
        The cache is invalidated by :meth:`_grow` and rebuilt lazily.
        """
        plan = self._walk_plan_
        if plan is None:
            self._check_fitted()
            arrays = (*self._structure(), self._node_labels())
            plan = self._walk_plan_ = tuple(a.tolist() for a in arrays)
        return plan

    def predict_one(self, x):
        """Prediction for a single row — iterative walk, zero allocation.

        ``x`` may be any indexable of at least ``n_features_in_`` floats
        (list, tuple, 1-D array).  Exactly equivalent to
        ``predict(x.reshape(1, -1))[0]`` at a fraction of the cost; no
        validation is performed — this is the per-miss hot path.
        """
        feature, threshold, left, right, labels = self._single_plan()
        return labels[walk(x, feature, threshold, left, right)]

    def compile_predictor(self, leaf_labels=None):
        """Code-generate this fitted tree into native Python functions.

        Returns a :class:`~repro.ml.fastpath.CompiledPredictor` whose
        ``predict_one`` is nested ``if``/``else`` source (one float
        comparison per level, ≥5× faster than the batch path on single
        rows) and whose ``predict`` is the vectorised ``numpy.where``
        twin.  The generated code returns literals whose ``repr``
        round-trips exactly, so compiled predictions are bit-identical to
        :meth:`predict`.  ``leaf_labels`` overrides the per-node labels,
        letting cost-sensitive wrappers bake their decision rule into the
        code.
        """
        self._check_fitted()
        if leaf_labels is None:
            leaf_labels = self._node_labels()
        return compile_tree_arrays(*self._structure(), leaf_labels)

    # ------------------------------------------------------------ inspection

    def get_depth(self) -> int:
        """Height of the fitted tree (paper reports ≈5 in practice)."""
        self._check_fitted()
        return int(self.node_depth_.max())

    def get_n_leaves(self) -> int:
        self._check_fitted()
        return int(np.sum(self.feature_ == _LEAF))


class DecisionTreeClassifier(_FlatTree):
    """CART classifier with a best-first split budget.

    Parameters
    ----------
    criterion:
        ``"gini"`` (CART default, used by the paper) or ``"entropy"``.
    max_splits:
        Maximum number of internal nodes; the paper uses 30.  ``None`` means
        unlimited.
    max_depth, min_samples_split, min_samples_leaf, min_impurity_decrease:
        Standard pre-pruning knobs.
    max_features:
        If set, each split considers a random subset of this many features
        (used by :class:`~repro.ml.forest.RandomForestClassifier`).
    rng:
        Seed or Generator for feature subsampling.
    """

    def __init__(
        self,
        *,
        criterion: str = "gini",
        max_splits: int | None = 30,
        max_depth: int | None = None,
        min_samples_split: int = 2,
        min_samples_leaf: int = 1,
        min_impurity_decrease: float = 0.0,
        max_features: int | None = None,
        rng: np.random.Generator | int | None = None,
    ):
        if criterion not in ("gini", "entropy"):
            raise ValueError(f"unknown criterion: {criterion!r}")
        self.criterion = criterion
        super().__init__(
            max_splits, max_depth, min_samples_split, min_samples_leaf,
            min_impurity_decrease,
        )
        self.max_features = max_features
        self.rng = rng

    # ------------------------------------------------------------------ fit

    def fit(self, X, y, sample_weight=None) -> "DecisionTreeClassifier":
        X, y_raw = check_X_y(X, y)
        y = self._encode_labels(y_raw)
        w = check_sample_weight(sample_weight, X.shape[0])
        k = self.classes_.shape[0]
        rng = np.random.default_rng(self.rng)

        n_features = X.shape[1]
        if self.max_features is not None and not (
            1 <= self.max_features <= n_features
        ):
            raise ValueError(
                f"max_features must be in [1, {n_features}], got {self.max_features}"
            )

        applied = self._grow(
            X,
            lambda indices: np.bincount(y[indices], weights=w[indices], minlength=k),
            lambda indices: self._best_split(X, y, w, indices, k, rng),
        )
        importances = np.zeros(n_features, dtype=np.float64)
        total_weight = w.sum()
        for feat, decrease in applied:
            importances[feat] += decrease / total_weight
        total_imp = importances.sum()
        self.feature_importances_ = (
            importances / total_imp if total_imp > 0 else importances
        )
        return self

    def _best_split(
        self,
        X: np.ndarray,
        y: np.ndarray,
        w: np.ndarray,
        indices: np.ndarray,
        k: int,
        rng: np.random.Generator,
    ) -> Split | None:
        """Best (decrease, feature, threshold) over candidate features.

        Returns ``None`` when no valid split exists (pure node, constant
        features, or ``min_samples_leaf`` unsatisfiable).
        """
        y_node = y[indices]
        w_node = w[indices]
        class_w = np.bincount(y_node, weights=w_node, minlength=k)
        parent_imp = _node_impurity(class_w, self.criterion)
        if parent_imp == 0.0:
            return None
        w_total = w_node.sum()
        n = indices.shape[0]

        if self.max_features is not None and self.max_features < X.shape[1]:
            feats = rng.choice(X.shape[1], size=self.max_features, replace=False)
        else:
            feats = np.arange(X.shape[1])

        onehot_w = np.zeros((n, k), dtype=np.float64)
        onehot_w[np.arange(n), y_node] = w_node

        best: Split | None = None
        for j in feats:
            v = X[indices, j]
            order = np.argsort(v, kind="stable")
            vs = v[order]
            cut = _cut_positions(vs, self.min_samples_leaf)
            if cut.shape[0] == 0:
                continue

            cw = np.cumsum(onehot_w[order], axis=0)  # (n, k)
            left_cw = cw[cut]
            right_cw = class_w - left_cw
            wl = left_cw.sum(axis=1)
            wr = w_total - wl
            ok = (wl > 0) & (wr > 0)
            if not ok.any():
                continue
            left_cw, right_cw = left_cw[ok], right_cw[ok]
            wl, wr = wl[ok], wr[ok]
            cut = cut[ok]

            imp_l = _side_impurity(left_cw, wl, self.criterion)
            imp_r = _side_impurity(right_cw, wr, self.criterion)
            child_imp = (wl * imp_l + wr * imp_r) / w_total
            decrease = (parent_imp - child_imp) * (w_total / w.sum())
            best_pos = int(np.argmax(decrease))
            d = float(decrease[best_pos])
            if best is None or d > best[0]:
                best = (d, int(j), _cut_threshold(vs, cut[best_pos]))
        return best

    # -------------------------------------------------------------- predict

    def predict_proba(self, X) -> np.ndarray:
        leaf = self._leaf_ids(X)  # first: it is the fitted / shape check
        dist = self.value_[leaf]
        totals = dist.sum(axis=1, keepdims=True)
        totals[totals == 0] = 1.0
        return dist / totals

    def predict(self, X) -> np.ndarray:
        proba = self.predict_proba(X)
        return self.classes_[np.argmax(proba, axis=1)]

    def _node_labels(self) -> np.ndarray:
        """Per-node majority label (what each node reports as a leaf)."""
        return self.classes_[np.argmax(self.value_, axis=1)]

    def predict_proba_one(self, x) -> np.ndarray:
        """Class distribution at the leaf ``x`` lands in (single row)."""
        leaf = walk(x, *self._single_plan()[:4])
        dist = self.value_[leaf]
        total = dist.sum()
        return dist / total if total > 0 else dist

    # ------------------------------------------------------------ inspection

    def decision_path_lengths(self, X) -> np.ndarray:
        """Comparisons needed per row — the paper's 'five comparisons' claim."""
        leaf = self._leaf_ids(X)
        return self.node_depth_[leaf]

    def export_text(
        self, feature_names=None, *, max_depth: int | None = None
    ) -> str:
        """Human-readable dump of the fitted tree.

        One line per node, indented by depth; leaves show the class
        distribution.  Handy for sanity-checking what the admission
        classifier actually keys on.
        """
        self._check_fitted()
        if feature_names is not None and len(feature_names) < self.n_features_in_:
            raise ValueError("feature_names shorter than the feature count")

        def name(j: int) -> str:
            return feature_names[j] if feature_names is not None else f"x[{j}]"

        lines: list[str] = []

        def render(node: int, depth: int) -> None:
            indent = "|   " * depth
            if max_depth is not None and depth > max_depth:
                lines.append(f"{indent}…")
                return
            feat = self.feature_[node]
            if feat == _LEAF:
                dist = self.value_[node]
                total = dist.sum()
                shares = ", ".join(
                    f"{cls}: {v / total:.2f}"
                    for cls, v in zip(self.classes_, dist)
                    if total > 0
                )
                winner = self.classes_[int(np.argmax(dist))]
                lines.append(f"{indent}class {winner}  ({shares})")
                return
            thr = self.threshold_[node]
            lines.append(f"{indent}{name(int(feat))} <= {thr:.4g}")
            render(int(self.children_left_[node]), depth + 1)
            lines.append(f"{indent}{name(int(feat))} > {thr:.4g}")
            render(int(self.children_right_[node]), depth + 1)

        render(0, 0)
        return "\n".join(lines)


class DecisionTreeRegressor(_FlatTree):
    """CART regression tree with the same best-first split budget.

    :class:`DecisionTreeClassifier`'s tree with a variance split search:
    the learned-eviction head (:mod:`repro.cache.learned`) and every round
    of the GBDT (:mod:`repro.ml.gbdt`).  The eviction head is trained on
    log-forward-reuse-distance targets and compiled through the same
    :mod:`repro.ml.fastpath` code generator, so a per-eviction prediction
    costs one nested-``if`` walk over float literals — the same ns-range
    budget as the admission verdict.

    Splits maximise weighted SSE reduction (variance criterion); growth is
    best-first under ``max_splits`` exactly like the classifier, so a small
    budget yields the most valuable splits rather than a breadth-first
    prefix.  Leaf predictions are weighted means.

    ``bins`` switches split *search* from exact (argsort every feature at
    every node — the cost that dominates an online refit) to histogram
    candidates: each feature is quantised once per fit onto its
    ``bins``-quantile edges, and every node scores the splits of *all*
    features from one histogram pass — a count ``bincount`` and a ``Σwy``
    ``bincount`` (a third, ``Σw``, only under sample weights) over the
    node's flattened codes — instead of a sort per feature.  Thresholds
    remain real feature values (the bin edges), the tree structure and
    prediction path are unchanged, and routing is still ``x <= threshold``
    on raw inputs — only which thresholds are *considered* is coarsened.
    This is the LightGBM-style trade: for the online eviction head it
    makes a refit several times cheaper (≈ 3.5× at 13k × 9 rows, more as
    rows grow) at no measured quality loss.  The default (``None``) keeps
    the exact search.
    """

    def __init__(
        self,
        *,
        max_splits: int | None = 30,
        max_depth: int | None = None,
        min_samples_split: int = 2,
        min_samples_leaf: int = 1,
        min_impurity_decrease: float = 0.0,
        bins: int | None = None,
    ):
        if bins is not None and bins < 2:
            raise ValueError("bins must be >= 2 or None")
        super().__init__(
            max_splits, max_depth, min_samples_split, min_samples_leaf,
            min_impurity_decrease,
        )
        self.bins = bins

    # ------------------------------------------------------------------ fit

    def fit(self, X, y, sample_weight=None) -> "DecisionTreeRegressor":
        X = check_array(X)
        y = np.ascontiguousarray(y, dtype=np.float64)
        if y.ndim != 1 or y.shape[0] != X.shape[0]:
            raise ValueError("y must be 1-D and match X's sample count")
        if not np.isfinite(y).all():
            raise ValueError("y contains NaN or Inf")
        w = check_sample_weight(sample_weight, X.shape[0])
        if self.bins is None:
            def best_split(indices):
                return self._best_split(X, y, w, indices)
        else:
            codes, edges = self._quantile_bins(X)
            # The online trainer never weights samples; with unit weights
            # the weight histogram *is* the count histogram, so no weight
            # vector is handed to the split search at all.
            hist_w = None if sample_weight is None else w
            wy = y if hist_w is None else w * y

            def best_split(indices):
                return self._best_split_binned(codes, edges, wy, hist_w, indices)

        def weighted_mean(indices: np.ndarray) -> float:
            wi = w[indices]
            return float(np.dot(wi, y[indices]) / wi.sum())

        self._grow(X, weighted_mean, best_split)
        return self

    def _best_split(
        self, X: np.ndarray, y: np.ndarray, w: np.ndarray, indices: np.ndarray
    ) -> Split | None:
        """Best (SSE decrease, feature, threshold), or None when no gain.

        Uses the cancellation-free identity
        ``SSE_parent − SSE_children = (Σwy_l)²/w_l + (Σwy_r)²/w_r − (Σwy)²/w``
        so one cumsum pass per feature scores every threshold at once.
        """
        y_node = y[indices]
        w_node = w[indices]
        total_w = float(w_node.sum())
        total_wy = float(np.dot(w_node, y_node))
        base = total_wy * total_wy / total_w

        best: Split | None = None
        for j in range(X.shape[1]):
            v = X[indices, j]
            order = np.argsort(v, kind="stable")
            vs = v[order]
            cut = _cut_positions(vs, self.min_samples_leaf)
            if cut.shape[0] == 0:
                continue
            cw = np.cumsum(w_node[order])[cut]
            cwy = np.cumsum((w_node * y_node)[order])[cut]
            rw = total_w - cw
            ok = (cw > 0) & (rw > 0)
            if not ok.any():
                continue
            gain = cwy[ok] ** 2 / cw[ok] + (total_wy - cwy[ok]) ** 2 / rw[ok] - base
            pos = int(np.argmax(gain))
            g = float(gain[pos])
            if g > 0 and (best is None or g > best[0]):
                best = (g, int(j), _cut_threshold(vs, cut[ok][pos]))
        return best

    def _quantile_bins(self, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Quantise every feature onto its ``bins``-quantile edge grid.

        Returns ``(codes, edges)``, both per (feature, bin).  ``edges`` is
        ``(n_features, bins)``: row ``j`` holds feature ``j``'s ascending
        candidate thresholds, NaN-padded on the right (a feature has at
        most ``bins - 1`` edges).  ``codes[i, j] - j * bins <= b`` iff
        ``X[i, j] <= edges[j, b]`` — the equivalence
        ``_best_split_binned`` relies on to emit thresholds that route raw
        inputs exactly like the histogram did.  The ``j * bins`` offset
        gives every (feature, bin) pair its own slot, so one ``bincount``
        over a node's flattened codes histograms all features at once.
        """
        nb = self.bins
        qs = np.linspace(0.0, 1.0, nb + 1)[1:-1]
        quantiles = np.quantile(X, qs, axis=0)
        codes = np.empty(X.shape, dtype=np.int64)
        edges = np.full((X.shape[1], nb), np.nan)
        for j in range(X.shape[1]):
            col = X[:, j]
            # Unique keeps codes dense; dropping the max removes the
            # everything-goes-left pseudo-split.
            e = np.unique(quantiles[:, j])
            if e.shape[0] and e[-1] >= col.max():
                e = e[:-1]
            edges[j, : e.shape[0]] = e
            codes[:, j] = np.searchsorted(e, col, side="left") + j * nb
        return codes, edges

    def _best_split_binned(
        self,
        codes: np.ndarray,
        edges: np.ndarray,
        wy: np.ndarray,
        w: np.ndarray | None,
        indices: np.ndarray,
    ) -> Split | None:
        """Histogram twin of :meth:`_best_split`: bincount, not argsort.

        One pass per node for all features: a ``bincount`` over the
        flattened offset codes fills a ``(n_features, bins)`` histogram, a
        row-wise ``cumsum`` turns it into left-of-edge aggregates, and one
        flat ``argmax`` over the masked gain picks the split.  ``wy`` is
        ``w * y`` per sample; ``w`` is ``None`` for unit weights.

        The accumulation order is part of the contract (fits are pinned
        bit for bit): ``bincount`` adds in input order, so each (feature,
        bin) slot sums its rows in ``indices`` order; ``cumsum`` along a
        row is a sequential sum; and row-major first-occurrence ``argmax``
        is "first best bin within a feature, earliest feature on ties".
        """
        n = indices.shape[0]
        shape = edges.shape
        size = edges.size
        min_leaf = self.min_samples_leaf
        wy_node = wy[indices]
        total_wy = float(wy_node.sum())
        flat = codes.take(indices, axis=0).ravel()

        def left_of_edge(per_sample=None):
            if per_sample is not None:
                per_sample = np.repeat(per_sample, shape[0])
            hist = np.bincount(flat, weights=per_sample, minlength=size)
            return hist.reshape(shape).cumsum(axis=1)

        cn = left_of_edge()
        cwy = left_of_edge(wy_node)
        # Past a feature's last edge every row is on the left (cn == n), so
        # the leaf minimum on the right also rules out the NaN padding.
        ok = (cn >= min_leaf) & (cn <= n - min_leaf)
        if w is None:
            total_w = float(n)
            cw = cn.astype(np.float64)
            rw = total_w - cw
        else:
            # Zero-weight rows count towards the leaf minimum but a side
            # made only of them has no mean.
            w_node = w[indices]
            total_w = float(w_node.sum())
            cw = left_of_edge(w_node)
            rw = total_w - cw
            ok &= (cw > 0) & (rw > 0)
        base = total_wy * total_wy / total_w
        with np.errstate(divide="ignore", invalid="ignore"):
            gain = cwy**2 / cw + (total_wy - cwy) ** 2 / rw - base
        gain = np.where(ok, gain, -np.inf)
        j, b = divmod(int(gain.argmax()), shape[1])
        g = float(gain[j, b])
        return (g, j, float(edges[j, b])) if g > 0 else None

    # -------------------------------------------------------------- predict

    def predict(self, X) -> np.ndarray:
        leaf = self._leaf_ids(X)
        return self.value_[leaf]

    def _node_labels(self) -> np.ndarray:
        """Leaf *values* take the place of leaf labels."""
        return self.value_
