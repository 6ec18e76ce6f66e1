"""Oracle labelling: reaccess distances and one-time-access labels (§4.3).

The paper's criterion declares the access at position *i* "one-time" when
the same object is not requested again within the next ``M`` accesses.
Both quantities derive from the next-occurrence index, computed in one
vectorised pass (shared with the Belady oracle).
"""

from __future__ import annotations

import numpy as np

from repro.cache.belady import compute_next_use

__all__ = [
    "reaccess_distances",
    "one_time_labels",
    "labels_from_distances",
    "rudimentary_one_time_labels",
    "ONE_TIME",
    "REUSED",
]

#: Label conventions: one-time-access is the *positive* class throughout the
#: package, matching the paper's Tables 2 and 4.
ONE_TIME = 1
REUSED = 0


def reaccess_distances(object_ids: np.ndarray) -> np.ndarray:
    """Accesses until the same object recurs; ``np.inf`` when it never does.

    Distance is counted in *requests*: an object requested again by the very
    next request has distance 1.
    """
    object_ids = np.asarray(object_ids)
    if object_ids.ndim != 1 or object_ids.shape[0] == 0:
        raise ValueError("object_ids must be a non-empty 1-D array")
    nxt = compute_next_use(object_ids)
    never = nxt == np.iinfo(np.int64).max
    dist = np.where(
        never, np.inf, nxt.astype(np.float64) - np.arange(object_ids.shape[0])
    )
    return dist


def rudimentary_one_time_labels(object_ids: np.ndarray) -> np.ndarray:
    """§4.3's *rudimentary* criterion: objects accessed exactly once.

    Labels every access of a single-access object as one-time.  The paper
    rejects this in favour of the reaccess-distance criterion because it
    misses objects whose re-access comes *after* they would have been
    evicted — those writes are equally useless.  Kept for the comparison.
    """
    object_ids = np.asarray(object_ids)
    if object_ids.ndim != 1 or object_ids.shape[0] == 0:
        raise ValueError("object_ids must be a non-empty 1-D array")
    counts = np.bincount(object_ids)
    return (counts[object_ids] == 1).astype(np.int64)


def one_time_labels(object_ids: np.ndarray, m_threshold: float) -> np.ndarray:
    """Per-access one-time labels under reaccess-distance threshold ``M``.

    Returns an int array with 1 (``ONE_TIME``) where the object is not
    re-requested within the next ``M`` accesses — the ground truth the
    classifier is trained against and the Ideal admission filter uses.
    """
    return labels_from_distances(reaccess_distances(object_ids), m_threshold)


def labels_from_distances(distances: np.ndarray, m_threshold: float) -> np.ndarray:
    """:func:`one_time_labels` from precomputed :func:`reaccess_distances`.

    For callers that already hold the distances (the criterion solve reads
    them too): no second next-use pass, and a prefix of the distances
    labels just that prefix.
    """
    if m_threshold <= 0:
        raise ValueError("m_threshold must be positive")
    return (distances > m_threshold).astype(np.int64)
