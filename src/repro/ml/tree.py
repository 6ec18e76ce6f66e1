"""CART decision tree (Breiman et al. 1984), the paper's chosen classifier.

Design notes
------------
* Binary, axis-aligned splits on numeric features; the paper's features are
  discretised integers, which CART handles as ordered values.
* **Best-first growth with a split budget.**  §3.1.2 caps the number of
  *splitting times* at 30 (≈3× the feature count) to control over-fitting.
  We grow the tree by repeatedly applying the globally best remaining split
  (a max-heap on weighted impurity decrease), so a budget of 30 yields the
  30 most valuable splits rather than an arbitrary breadth-first prefix.
* **Sample weights** feed directly into the impurity computation, which is
  how :class:`repro.ml.cost_sensitive.CostSensitiveClassifier` implements the
  paper's cost matrix (Table 4).
* Split search is fully vectorised: one argsort + cumulative class-weight
  pass per (node, feature), so fitting is O(d · n log n) per tree level.

The fitted tree is flattened into parallel NumPy arrays
(``children_left/children_right/feature/threshold/value``) and prediction
walks all rows level-by-level with boolean masks — no per-row Python loop.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field

import numpy as np

from repro.ml.base import BaseEstimator, check_X_y, check_array, check_sample_weight

__all__ = ["DecisionTreeClassifier", "DecisionTreeRegressor"]

_LEAF = -1


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


@dataclass
class _Candidate:
    """Best split found for a pending node, ordered by impurity decrease."""

    decrease: float
    node_id: int
    feature: int
    threshold: float
    indices: np.ndarray = field(repr=False)
    depth: int = 0

    def __lt__(self, other: "_Candidate") -> bool:  # max-heap via negation
        return self.decrease > other.decrease


class DecisionTreeClassifier(BaseEstimator):
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
        if max_splits is not None and max_splits < 1:
            raise ValueError("max_splits must be >= 1 or None")
        if min_samples_split < 2:
            raise ValueError("min_samples_split must be >= 2")
        if min_samples_leaf < 1:
            raise ValueError("min_samples_leaf must be >= 1")
        self.criterion = criterion
        self.max_splits = max_splits
        self.max_depth = max_depth
        self.min_samples_split = min_samples_split
        self.min_samples_leaf = min_samples_leaf
        self.min_impurity_decrease = min_impurity_decrease
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
        self.n_features_in_ = n_features

        # Growable node storage; finalised into arrays at the end.
        feature: list[int] = []
        threshold: list[float] = []
        left: list[int] = []
        right: list[int] = []
        value: list[np.ndarray] = []
        depth_of: list[int] = []
        importances = np.zeros(n_features, dtype=np.float64)

        total_weight = w.sum()

        def new_node(indices: np.ndarray, depth: int) -> int:
            node_id = len(feature)
            feature.append(_LEAF)
            threshold.append(0.0)
            left.append(_LEAF)
            right.append(_LEAF)
            class_w = np.bincount(y[indices], weights=w[indices], minlength=k)
            value.append(class_w)
            depth_of.append(depth)
            return node_id

        heap: list[_Candidate] = []

        def consider(node_id: int, indices: np.ndarray, depth: int) -> None:
            """Find this node's best split and push it on the heap."""
            if indices.shape[0] < self.min_samples_split:
                return
            if self.max_depth is not None and depth >= self.max_depth:
                return
            cand = self._best_split(X, y, w, indices, k, rng)
            if cand is None:
                return
            decrease, feat, thr = cand
            if decrease <= self.min_impurity_decrease:
                return
            heapq.heappush(
                heap, _Candidate(decrease, node_id, feat, thr, indices, depth)
            )

        root_idx = np.arange(X.shape[0])
        new_node(root_idx, 0)
        consider(0, root_idx, 0)

        splits_done = 0
        budget = self.max_splits if self.max_splits is not None else np.inf
        while heap and splits_done < budget:
            cand = heapq.heappop(heap)
            go_left = X[cand.indices, cand.feature] <= cand.threshold
            li, ri = cand.indices[go_left], cand.indices[~go_left]
            # The candidate was validated at push time; leaf minima still hold.
            feature[cand.node_id] = cand.feature
            threshold[cand.node_id] = cand.threshold
            lid = new_node(li, cand.depth + 1)
            rid = new_node(ri, cand.depth + 1)
            left[cand.node_id] = lid
            right[cand.node_id] = rid
            importances[cand.feature] += cand.decrease / total_weight
            splits_done += 1
            consider(lid, li, cand.depth + 1)
            consider(rid, ri, cand.depth + 1)

        self.feature_ = np.asarray(feature, dtype=np.int64)
        self.threshold_ = np.asarray(threshold, dtype=np.float64)
        self.children_left_ = np.asarray(left, dtype=np.int64)
        self.children_right_ = np.asarray(right, dtype=np.int64)
        self.value_ = np.vstack(value)
        self.node_depth_ = np.asarray(depth_of, dtype=np.int64)
        self.node_count_ = len(feature)
        self.n_splits_ = splits_done
        total_imp = importances.sum()
        self.feature_importances_ = (
            importances / total_imp if total_imp > 0 else importances
        )
        self._walk_plan = None  # predict_one cache — rebuild lazily
        return self

    def _best_split(
        self,
        X: np.ndarray,
        y: np.ndarray,
        w: np.ndarray,
        indices: np.ndarray,
        k: int,
        rng: np.random.Generator,
    ) -> tuple[float, int, float] | None:
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
        min_leaf = self.min_samples_leaf

        if self.max_features is not None and self.max_features < X.shape[1]:
            feats = rng.choice(X.shape[1], size=self.max_features, replace=False)
        else:
            feats = np.arange(X.shape[1])

        onehot_w = np.zeros((n, k), dtype=np.float64)
        onehot_w[np.arange(n), y_node] = w_node

        best: tuple[float, int, float] | None = None
        for j in feats:
            v = X[indices, j]
            order = np.argsort(v, kind="stable")
            vs = v[order]
            # Split positions: boundaries between distinct adjacent values,
            # honouring the per-leaf sample minimum.
            cut = np.nonzero(vs[:-1] != vs[1:])[0]
            if min_leaf > 1:
                cut = cut[(cut + 1 >= min_leaf) & (n - cut - 1 >= min_leaf)]
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

            if self.criterion == "gini":
                imp_l = 1.0 - np.einsum("ij,ij->i", left_cw, left_cw) / (wl * wl)
                imp_r = 1.0 - np.einsum("ij,ij->i", right_cw, right_cw) / (wr * wr)
            else:
                pl = left_cw / wl[:, None]
                pr = right_cw / wr[:, None]
                with np.errstate(divide="ignore", invalid="ignore"):
                    imp_l = -np.nansum(
                        np.where(pl > 0, pl * np.log2(pl), 0.0), axis=1
                    )
                    imp_r = -np.nansum(
                        np.where(pr > 0, pr * np.log2(pr), 0.0), axis=1
                    )
            child_imp = (wl * imp_l + wr * imp_r) / w_total
            decrease = (parent_imp - child_imp) * (w_total / w.sum())
            best_pos = int(np.argmax(decrease))
            d = float(decrease[best_pos])
            if best is None or d > best[0]:
                i = cut[best_pos]
                thr = 0.5 * (vs[i] + vs[i + 1])
                # Guard against midpoint rounding onto the right value.
                if thr >= vs[i + 1]:
                    thr = vs[i]
                best = (d, int(j), float(thr))
        return best

    # -------------------------------------------------------------- predict

    def _leaf_ids(self, X: np.ndarray) -> np.ndarray:
        """Vectorised tree descent: leaf node id for every row."""
        node = np.zeros(X.shape[0], dtype=np.int64)
        while True:
            feat = self.feature_[node]
            active = feat != _LEAF
            if not active.any():
                return node
            rows = np.nonzero(active)[0]
            f = feat[rows]
            thr = self.threshold_[node[rows]]
            go_left = X[rows, f] <= thr
            nxt = np.where(
                go_left,
                self.children_left_[node[rows]],
                self.children_right_[node[rows]],
            )
            node[rows] = nxt

    def predict_proba(self, X) -> np.ndarray:
        self._check_fitted()
        X = check_array(X)
        if X.shape[1] != self.n_features_in_:
            raise ValueError(
                f"expected {self.n_features_in_} features, got {X.shape[1]}"
            )
        dist = self.value_[self._leaf_ids(X)]
        totals = dist.sum(axis=1, keepdims=True)
        totals[totals == 0] = 1.0
        return dist / totals

    def predict(self, X) -> np.ndarray:
        proba = self.predict_proba(X)
        return self.classes_[np.argmax(proba, axis=1)]

    # -------------------------------------------------- single-row hot path

    def _node_labels(self) -> np.ndarray:
        """Per-node majority label (what each node reports as a leaf)."""
        return self.classes_[np.argmax(self.value_, axis=1)]

    def _single_plan(self) -> tuple:
        """Flattened tree as plain Python lists — the zero-overhead walk.

        NumPy scalar indexing costs ~10× a list lookup, so the per-miss
        path (:meth:`predict_one`) walks cached ``tolist()`` copies.  The
        cache is invalidated by :meth:`fit` and rebuilt lazily.
        """
        plan = getattr(self, "_walk_plan", None)
        if plan is None:
            plan = (
                self.feature_.tolist(),
                self.threshold_.tolist(),
                self.children_left_.tolist(),
                self.children_right_.tolist(),
                self._node_labels().tolist(),
            )
            self._walk_plan = plan
        return plan

    def predict_one(self, x):
        """Verdict for a single row — iterative walk, zero allocation.

        ``x`` may be any indexable of at least ``n_features_in_`` floats
        (list, tuple, 1-D array).  Exactly equivalent to
        ``predict(x.reshape(1, -1))[0]`` at a fraction of the cost; no
        validation is performed — this is the per-miss hot path.
        """
        self._check_fitted()
        feature, threshold, left, right, labels = self._single_plan()
        node = 0
        f = feature[0]
        while f >= 0:
            node = left[node] if x[f] <= threshold[node] else right[node]
            f = feature[node]
        return labels[node]

    def predict_proba_one(self, x) -> np.ndarray:
        """Class distribution at the leaf ``x`` lands in (single row)."""
        self._check_fitted()
        feature, threshold, left, right, _ = self._single_plan()
        node = 0
        f = feature[0]
        while f >= 0:
            node = left[node] if x[f] <= threshold[node] else right[node]
            f = feature[node]
        dist = self.value_[node]
        total = dist.sum()
        return dist / total if total > 0 else dist

    def compile_predictor(self, leaf_labels=None):
        """Code-generate this fitted tree into native Python functions.

        Returns a :class:`~repro.ml.fastpath.CompiledPredictor` whose
        ``predict_one`` is nested ``if``/``else`` source (one float
        comparison per level, ≥5× faster than the batch path on single
        rows) and whose ``predict`` is the vectorised ``numpy.where``
        twin.  ``leaf_labels`` overrides the per-node labels, letting
        cost-sensitive wrappers bake their decision rule into the code.
        """
        from repro.ml.fastpath import compile_tree_arrays

        self._check_fitted()
        if leaf_labels is None:
            leaf_labels = self._node_labels()
        return compile_tree_arrays(
            self.feature_,
            self.threshold_,
            self.children_left_,
            self.children_right_,
            leaf_labels,
            out_dtype=self.classes_.dtype,
        )

    # ------------------------------------------------------------ inspection

    def get_depth(self) -> int:
        """Height of the fitted tree (paper reports ≈5 in practice)."""
        self._check_fitted()
        return int(self.node_depth_.max())

    def get_n_leaves(self) -> int:
        self._check_fitted()
        return int(np.sum(self.feature_ == _LEAF))

    def decision_path_lengths(self, X) -> np.ndarray:
        """Comparisons needed per row — the paper's 'five comparisons' claim."""
        self._check_fitted()
        X = check_array(X)
        return self.node_depth_[self._leaf_ids(X)]

    def cost_complexity_prune(self, ccp_alpha: float) -> "DecisionTreeClassifier":
        """Weakest-link pruning (Breiman et al., ch. 3): return a pruned copy.

        A subtree is collapsed into a leaf when its risk reduction per
        extra leaf, ``g(t) = (R(t) − R(T_t)) / (|leaves(T_t)| − 1)``, does
        not exceed ``ccp_alpha``.  The paper controls over-fitting with the
        split budget instead; pruning is the textbook alternative and
        composes with it.
        """
        self._check_fitted()
        if ccp_alpha < 0:
            raise ValueError("ccp_alpha must be non-negative")

        total_weight = self.value_[0].sum()

        def leaf_risk(node: int) -> float:
            dist = self.value_[node]
            return float(dist.sum() - dist.max()) / total_weight

        # Bottom-up: decide for each node whether its subtree survives.
        pruned_to_leaf = np.zeros(self.node_count_, dtype=bool)
        subtree_risk = np.zeros(self.node_count_)
        subtree_leaves = np.zeros(self.node_count_, dtype=np.int64)

        for node in reversed(range(self.node_count_)):
            # Children always have larger ids than their parent (growth
            # order), so a reverse scan is a valid bottom-up traversal.
            if self.feature_[node] == _LEAF:
                subtree_risk[node] = leaf_risk(node)
                subtree_leaves[node] = 1
                continue
            left = self.children_left_[node]
            right = self.children_right_[node]
            risk = subtree_risk[left] + subtree_risk[right]
            leaves = subtree_leaves[left] + subtree_leaves[right]
            own = leaf_risk(node)
            g = (own - risk) / (leaves - 1) if leaves > 1 else np.inf
            if g <= ccp_alpha:
                pruned_to_leaf[node] = True
                subtree_risk[node] = own
                subtree_leaves[node] = 1
            else:
                subtree_risk[node] = risk
                subtree_leaves[node] = leaves

        # Rebuild compact arrays keeping only reachable, unpruned nodes.
        import copy

        out = copy.deepcopy(self)
        keep_order: list[int] = []
        remap: dict[int, int] = {}

        def visit(node: int) -> None:
            remap[node] = len(keep_order)
            keep_order.append(node)
            if self.feature_[node] != _LEAF and not pruned_to_leaf[node]:
                visit(int(self.children_left_[node]))
                visit(int(self.children_right_[node]))

        visit(0)
        k = len(keep_order)
        out.feature_ = np.full(k, _LEAF, dtype=np.int64)
        out.threshold_ = np.zeros(k)
        out.children_left_ = np.full(k, _LEAF, dtype=np.int64)
        out.children_right_ = np.full(k, _LEAF, dtype=np.int64)
        out.value_ = self.value_[keep_order]
        out.node_depth_ = self.node_depth_[keep_order]
        for old in keep_order:
            new = remap[old]
            if self.feature_[old] != _LEAF and not pruned_to_leaf[old]:
                out.feature_[new] = self.feature_[old]
                out.threshold_[new] = self.threshold_[old]
                out.children_left_[new] = remap[int(self.children_left_[old])]
                out.children_right_[new] = remap[int(self.children_right_[old])]
        out.node_count_ = k
        out.n_splits_ = int(np.sum(out.feature_ != _LEAF))
        out._walk_plan = None  # the deepcopy'd cache describes the old tree
        return out

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

        def walk(node: int, depth: int) -> None:
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
            walk(int(self.children_left_[node]), depth + 1)
            lines.append(f"{indent}{name(int(feat))} > {thr:.4g}")
            walk(int(self.children_right_[node]), depth + 1)

        walk(0, 0)
        return "\n".join(lines)


class DecisionTreeRegressor(BaseEstimator):
    """CART regression tree with the same best-first split budget.

    The regression twin of :class:`DecisionTreeClassifier`, added for the
    learned-eviction head (:mod:`repro.cache.learned`): it is trained on
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
        if max_splits is not None and max_splits < 1:
            raise ValueError("max_splits must be >= 1 or None")
        if min_samples_split < 2:
            raise ValueError("min_samples_split must be >= 2")
        if min_samples_leaf < 1:
            raise ValueError("min_samples_leaf must be >= 1")
        if min_impurity_decrease < 0:
            raise ValueError("min_impurity_decrease must be >= 0")
        if bins is not None and bins < 2:
            raise ValueError("bins must be >= 2 or None")
        self.max_splits = max_splits
        self.max_depth = max_depth
        self.min_samples_split = min_samples_split
        self.min_samples_leaf = min_samples_leaf
        self.min_impurity_decrease = min_impurity_decrease
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
        self.n_features_in_ = X.shape[1]
        if self.bins is not None:
            codes, edges = self._quantile_bins(X)
            # The online trainer never weights samples; with unit weights
            # the weight histogram *is* the count histogram, so no weight
            # vector is handed to the split search at all.
            hist_w = None if sample_weight is None else w
            wy = y if hist_w is None else w * y

        feature: list[int] = []
        threshold: list[float] = []
        left: list[int] = []
        right: list[int] = []
        value: list[float] = []
        depth_of: list[int] = []

        def new_node(indices: np.ndarray, depth: int) -> int:
            node_id = len(feature)
            feature.append(_LEAF)
            threshold.append(0.0)
            left.append(_LEAF)
            right.append(_LEAF)
            wi = w[indices]
            value.append(float(np.dot(wi, y[indices]) / wi.sum()))
            depth_of.append(depth)
            return node_id

        heap: list[_Candidate] = []

        def consider(node_id: int, indices: np.ndarray, depth: int) -> None:
            if indices.shape[0] < self.min_samples_split:
                return
            if self.max_depth is not None and depth >= self.max_depth:
                return
            if self.bins is None:
                cand = self._best_split(X, y, w, indices)
            else:
                cand = self._best_split_binned(codes, edges, wy, hist_w, indices)
            if cand is None:
                return
            decrease, feat, thr = cand
            if decrease <= self.min_impurity_decrease:
                return
            heapq.heappush(
                heap, _Candidate(decrease, node_id, feat, thr, indices, depth)
            )

        root_idx = np.arange(X.shape[0])
        new_node(root_idx, 0)
        consider(0, root_idx, 0)

        splits_done = 0
        budget = self.max_splits if self.max_splits is not None else np.inf
        while heap and splits_done < budget:
            cand = heapq.heappop(heap)
            go_left = X[cand.indices, cand.feature] <= cand.threshold
            li, ri = cand.indices[go_left], cand.indices[~go_left]
            feature[cand.node_id] = cand.feature
            threshold[cand.node_id] = cand.threshold
            lid = new_node(li, cand.depth + 1)
            rid = new_node(ri, cand.depth + 1)
            left[cand.node_id] = lid
            right[cand.node_id] = rid
            splits_done += 1
            consider(lid, li, cand.depth + 1)
            consider(rid, ri, cand.depth + 1)

        self.feature_ = np.asarray(feature, dtype=np.int64)
        self.threshold_ = np.asarray(threshold, dtype=np.float64)
        self.children_left_ = np.asarray(left, dtype=np.int64)
        self.children_right_ = np.asarray(right, dtype=np.int64)
        self.value_ = np.asarray(value, dtype=np.float64)
        self.node_depth_ = np.asarray(depth_of, dtype=np.int64)
        self.node_count_ = len(feature)
        self.n_splits_ = splits_done
        self._walk_plan = None
        return self

    def _best_split(
        self, X: np.ndarray, y: np.ndarray, w: np.ndarray, indices: np.ndarray
    ) -> tuple[float, int, float] | None:
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
        n = indices.shape[0]
        min_leaf = self.min_samples_leaf

        best: tuple[float, int, float] | None = None
        for j in range(X.shape[1]):
            v = X[indices, j]
            order = np.argsort(v, kind="stable")
            vs = v[order]
            cut = np.nonzero(vs[:-1] != vs[1:])[0]
            if min_leaf > 1:
                cut = cut[(cut + 1 >= min_leaf) & (n - cut - 1 >= min_leaf)]
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
                i = cut[ok][pos]
                thr = 0.5 * (vs[i] + vs[i + 1])
                if thr >= vs[i + 1]:
                    thr = vs[i]
                best = (g, int(j), float(thr))
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
    ) -> tuple[float, int, float] | None:
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

    def _check_fitted(self) -> None:
        if not hasattr(self, "node_count_"):
            raise RuntimeError(
                f"{type(self).__name__} is not fitted; call fit() first"
            )

    def predict(self, X) -> np.ndarray:
        self._check_fitted()
        X = check_array(X)
        if X.shape[1] != self.n_features_in_:
            raise ValueError(
                f"expected {self.n_features_in_} features, got {X.shape[1]}"
            )
        node = np.zeros(X.shape[0], dtype=np.int64)
        while True:
            feat = self.feature_[node]
            active = feat != _LEAF
            if not active.any():
                return self.value_[node]
            rows = np.nonzero(active)[0]
            sub = node[rows]
            go_left = X[rows, feat[rows]] <= self.threshold_[sub]
            node[rows] = np.where(
                go_left, self.children_left_[sub], self.children_right_[sub]
            )

    def _single_plan(self) -> tuple:
        plan = getattr(self, "_walk_plan", None)
        if plan is None:
            plan = (
                self.feature_.tolist(),
                self.threshold_.tolist(),
                self.children_left_.tolist(),
                self.children_right_.tolist(),
                self.value_.tolist(),
            )
            self._walk_plan = plan
        return plan

    def predict_one(self, x) -> float:
        """Predicted target for a single row — iterative walk, zero alloc."""
        self._check_fitted()
        feature, threshold, left, right, values = self._single_plan()
        node = 0
        f = feature[0]
        while f >= 0:
            node = left[node] if x[f] <= threshold[node] else right[node]
            f = feature[node]
        return values[node]

    def compile_predictor(self):
        """Code-generate this fitted tree (see the classifier's twin).

        Leaf *values* take the place of leaf labels: the generated
        nested-``if`` returns float literals whose ``repr`` round-trips
        exactly, so compiled predictions are bit-identical to
        :meth:`predict`.
        """
        from repro.ml.fastpath import compile_tree_arrays

        self._check_fitted()
        return compile_tree_arrays(
            self.feature_,
            self.threshold_,
            self.children_left_,
            self.children_right_,
            self.value_,
            out_dtype=np.float64,
        )

    # ------------------------------------------------------------ inspection

    def get_depth(self) -> int:
        self._check_fitted()
        return int(self.node_depth_.max())

    def get_n_leaves(self) -> int:
        self._check_fitted()
        return int(np.sum(self.feature_ == _LEAF))
