"""Compiled single-row inference for the per-miss admission hot path.

The paper's production argument (Eq. 6) assumes classification costs
``t_classify ≈ 0.4 µs`` — cheap enough to run on *every* cache miss.  The
generic :meth:`~repro.ml.base.BaseEstimator.predict` path cannot get there
in Python: it validates, copies to a contiguous 2-D array, descends the
tree with boolean masks and allocates several temporaries per call.  For a
fitted CART that is three orders of magnitude more work than the five
comparisons the verdict actually needs.

This module closes the gap by *code-generating* the fitted tree:

* :func:`compile_tree_arrays` turns the flattened
  ``feature/threshold/children`` arrays into Python source — nested
  ``if``/``else`` for single rows, nested ``numpy.where`` for batches —
  and ``exec``-compiles it.  The generated functions branch on plain
  float comparisons and return precomputed leaf labels, so a single-row
  verdict costs one attribute-free tree walk and zero allocations.
* :func:`fast_predictor` is the dispatch helper the admission/serving
  layers use: it asks the model to compile itself
  (``model.compile_predictor()``), falling back to ``model.predict_one``
  and finally to a ``predict(x.reshape(1, -1))[0]`` wrapper, so *any*
  estimator gets the fastest path it supports with identical verdicts.
* :func:`descend` and :func:`walk` are the un-compiled reference — the one
  masked batch descent and the one scalar list walk — behind both trees of
  :mod:`repro.ml.tree` and the fallback for trees too deep to generate.

Exactness is the contract: for every input, the compiled single-row and
batch functions return precisely what ``predict`` would (the property
suite in ``tests/ml/test_fastpath.py`` fuzzes this with hypothesis).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

__all__ = [
    "CompiledPredictor",
    "compile_tree_arrays",
    "descend",
    "fast_predictor",
    "walk",
]

_LEAF = -1

#: Beyond this depth the generated nested-``if`` source risks the CPython
#: parser's nesting limits; fall back to the iterative array walk (same
#: verdicts, still allocation-free).
_MAX_CODEGEN_DEPTH = 120


@dataclass
class CompiledPredictor:
    """A matched pair of fast predict functions with exact-parity verdicts.

    ``predict_one(x)`` takes any indexable row (list, tuple, 1-D array)
    and returns a scalar label; ``predict(X)`` is its vectorised twin over
    a 2-D array.  ``compiled`` tells whether code generation succeeded
    (``False`` means a generic wrapper is in use — still correct, just
    slower); ``source`` keeps the generated code for inspection.
    """

    predict_one: Callable
    predict: Callable
    compiled: bool = False
    n_nodes: int = 0
    source: str = field(default="", repr=False)


def _tree_depths(feature, left, right) -> np.ndarray:
    depth = np.zeros(len(feature), dtype=np.int64)
    for node in range(len(feature)):
        if feature[node] != _LEAF:
            depth[left[node]] = depth[node] + 1
            depth[right[node]] = depth[node] + 1
    return depth


def descend(X, feature, threshold, left, right) -> np.ndarray:
    """Leaf node id for every row of ``X``: the level-by-level masked descent.

    No per-row Python loop: each pass moves every row that has not
    reached a leaf one level down.
    """
    node = np.zeros(X.shape[0], dtype=np.int64)
    while True:
        feat = feature[node]
        active = feat != _LEAF
        if not active.any():
            return node
        rows = np.nonzero(active)[0]
        sub = node[rows]
        go_left = X[rows, feat[rows]] <= threshold[sub]
        node[rows] = np.where(go_left, left[sub], right[sub])


def walk(x, feature, threshold, left, right) -> int:
    """Leaf node id for one row: the iterative walk, zero allocation.

    The arrays are plain Python lists (NumPy scalar indexing costs ~10× a
    list lookup) and ``x`` is any indexable of floats.
    """
    node = 0
    f = feature[0]
    while f >= 0:
        node = left[node] if x[f] <= threshold[node] else right[node]
        f = feature[node]
    return node


def compile_tree_arrays(
    feature,
    threshold,
    children_left,
    children_right,
    leaf_labels,
    *,
    out_dtype=None,
) -> CompiledPredictor:
    """Compile a flattened decision tree into native Python functions.

    Parameters mirror the fitted attributes of
    :class:`~repro.ml.tree.DecisionTreeClassifier`; ``leaf_labels`` holds
    the label every node would report *as a leaf* (internal-node entries
    are ignored), which lets callers bake custom decision rules — e.g. the
    Elkan threshold shift — directly into the compiled code.
    """
    feat = np.asarray(feature, dtype=np.int64).tolist()
    thr = np.asarray(threshold, dtype=np.float64).tolist()
    left = np.asarray(children_left, dtype=np.int64).tolist()
    right = np.asarray(children_right, dtype=np.int64).tolist()
    labels_arr = np.asarray(leaf_labels)
    labels = [v.item() for v in labels_arr]
    n_nodes = len(feat)
    if not (len(thr) == len(left) == len(right) == len(labels) == n_nodes):
        raise ValueError("tree arrays disagree on node count")
    if out_dtype is None:
        out_dtype = labels_arr.dtype

    depths = _tree_depths(feat, left, right)
    if int(depths.max(initial=0)) > _MAX_CODEGEN_DEPTH:
        def one(x):
            return labels[walk(x, feat, thr, left, right)]

        batch = _mask_batch(feat, thr, left, right, labels, out_dtype)
        return CompiledPredictor(
            predict_one=one, predict=batch, compiled=False, n_nodes=n_nodes
        )

    # ---- single-row source: nested if/else on plain float comparisons.
    one_lines = ["def _predict_one(x):"]

    def emit_one(node: int, indent: int) -> None:
        pad = "    " * indent
        f = feat[node]
        if f == _LEAF:
            one_lines.append(f"{pad}return {labels[node]!r}")
            return
        one_lines.append(f"{pad}if x[{f}] <= {thr[node]!r}:")
        emit_one(left[node], indent + 1)
        one_lines.append(f"{pad}else:")
        emit_one(right[node], indent + 1)

    emit_one(0, 1)

    # ---- batch source: the vectorised twin via nested numpy.where.
    used = sorted({f for f in feat if f != _LEAF})
    batch_lines = ["def _predict_batch(X):"]
    for f in used:
        batch_lines.append(f"    _c{f} = X[:, {f}]")

    def emit_batch(node: int) -> str:
        f = feat[node]
        if f == _LEAF:
            return repr(labels[node])
        return (
            f"_where(_c{f} <= {thr[node]!r}, "
            f"{emit_batch(left[node])}, {emit_batch(right[node])})"
        )

    if feat[0] == _LEAF:
        batch_lines.append(f"    return _full(X.shape[0], {labels[0]!r})")
    else:
        batch_lines.append(f"    return {emit_batch(0)}")

    source = "\n".join(one_lines) + "\n\n" + "\n".join(batch_lines) + "\n"
    namespace = {"_where": np.where, "_full": np.full}
    exec(compile(source, "<repro.ml.fastpath>", "exec"), namespace)
    one = namespace["_predict_one"]
    raw_batch = namespace["_predict_batch"]

    def batch(X, _raw=raw_batch, _dtype=out_dtype):
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2:
            raise ValueError(f"X must be 2-D, got ndim={X.ndim}")
        return np.asarray(_raw(X)).astype(_dtype, copy=False)

    return CompiledPredictor(
        predict_one=one,
        predict=batch,
        compiled=True,
        n_nodes=n_nodes,
        source=source,
    )


def _mask_batch(feat, thr, left, right, labels, out_dtype) -> Callable:
    """Batch fallback for codegen-refused (very deep) trees."""
    feat_a = np.asarray(feat, dtype=np.int64)
    thr_a = np.asarray(thr, dtype=np.float64)
    left_a = np.asarray(left, dtype=np.int64)
    right_a = np.asarray(right, dtype=np.int64)
    labels_a = np.asarray(labels, dtype=out_dtype)

    def predict(X):
        X = np.asarray(X, dtype=np.float64)
        return labels_a[descend(X, feat_a, thr_a, left_a, right_a)]

    return predict


def _wrap_generic(model) -> CompiledPredictor:
    """Best-effort fast pair for models without a compilable tree."""
    one = getattr(model, "predict_one", None)
    if one is None:
        def one(x, _m=model):
            return _m.predict(np.asarray(x, dtype=np.float64).reshape(1, -1))[0]

    return CompiledPredictor(predict_one=one, predict=model.predict, compiled=False)


def fast_predictor(model) -> CompiledPredictor:
    """The fastest exact-parity predictor ``model`` supports.

    Order of preference: ``model.compile_predictor()`` (code-generated
    tree), ``model.predict_one`` (iterative walk / estimator-specific
    scalar path), and finally a single-row wrapper around batch
    ``predict``.  The returned verdicts are identical across all three.

    A ``compile_predictor`` declines by raising ``NotImplementedError``;
    anything else propagates — a fallback would hide the bug behind the
    same verdicts served ≈ 10× slower.
    """
    compile_fn = getattr(model, "compile_predictor", None)
    if callable(compile_fn):
        try:
            return compile_fn()
        except NotImplementedError:
            pass
    return _wrap_generic(model)
