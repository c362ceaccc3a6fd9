"""Shared shuffle partition kernels: assign rows to partitions, split frames.

Every shuffle-map operator (merge, groupby shuffle-reduce, distributed
sort) does the same two things to a chunk: compute a per-row partition id
from the key column, then split the chunk into one frame per partition.
This module owns both, in two interchangeable implementations:

- the **vectorized** kernels (default, what every shuffle-map operator
  runs): one pass over the key column (``hash_array`` /
  ``np.searchsorted``) and one stable ``argsort``/gather sweep that
  materializes all N output frames in two passes total;
- the **scalar** reference kernels (``vectorized=False``): the original
  per-row Python loops and N boolean-mask scans, kept as the parity
  oracle for tests and the shuffle benchmark.

Both produce bit-identical partitions: same rows, same within-partition
order (stable sort == boolean mask order), same index labels.

NA routing convention (inherited from the original binary search, where
``None <= boundary`` was simply never true): missing keys — ``None`` and
``NaN`` — fall into the **last** range partition and hash to partition
``0 % n_parts`` in hash mode.
"""

from __future__ import annotations

import numpy as np

from ..engine.local import DataFrame, dtypes, hash_array, stable_hash


def assign_hash_partitions(keys: np.ndarray, n_parts: int,
                           vectorized: bool = True) -> np.ndarray:
    """Per-row partition ids via the deterministic content hash."""
    if not vectorized:
        return np.array(
            [stable_hash(v) % n_parts for v in keys.tolist()],
            dtype=np.int64,
        )
    return hash_array(keys) % n_parts


def assign_range_partitions(keys: np.ndarray, boundaries: list,
                            vectorized: bool = True) -> np.ndarray:
    """Per-row partition ids via search over the sampled boundaries.

    Partition ``r`` receives keys with ``boundaries[r-1] < key <=
    boundaries[r]``; missing keys land in the last partition.
    """
    if not boundaries:
        return np.zeros(len(keys), dtype=np.int64)
    if not vectorized:
        return _assign_range_scalar(keys, boundaries)
    keys = np.asarray(keys)
    if keys.dtype.kind in ("O", "U", "S"):
        bounds = dtypes.object_array(boundaries)
        keys = dtypes.as_array(keys)
        out = np.full(len(keys), len(boundaries), dtype=np.int64)
        present = ~dtypes.isna_array(keys)
        out[present] = np.searchsorted(bounds, keys[present], side="left")
        return out
    bounds = np.asarray(boundaries)
    # NaN sorts after every number in NumPy's order, so float NA keys
    # fall out of searchsorted already assigned to the last partition.
    return np.searchsorted(bounds, keys, side="left").astype(np.int64)


def _assign_range_scalar(keys: np.ndarray, boundaries: list) -> np.ndarray:
    """Reference per-row binary search (the original implementation)."""
    out = np.empty(len(keys), dtype=np.int64)
    for i, key in enumerate(keys.tolist()):
        lo, hi = 0, len(boundaries)
        while lo < hi:
            mid = (lo + hi) // 2
            if key is not None and key <= boundaries[mid]:
                hi = mid
            else:
                lo = mid + 1
        out[i] = lo
    return out


def split_by_assignment(frame: DataFrame, assignment: np.ndarray,
                        n_parts: int, vectorized: bool = True
                        ) -> list[DataFrame]:
    """Split ``frame`` into ``n_parts`` frames by per-row partition id.

    The vectorized path reorders the frame once with a stable argsort and
    slices each partition out of the gathered columns — two passes over
    the data regardless of ``n_parts``, versus one boolean scan per
    partition in the reference path. Row order within each partition is
    the original chunk order in both paths.
    """
    if not vectorized:
        return [frame[assignment == r] for r in range(n_parts)]
    order = np.argsort(assignment, kind="stable")
    sorted_assign = assignment[order]
    bounds = np.searchsorted(sorted_assign, np.arange(n_parts + 1))
    gathered = {name: frame._data[name][order] for name in frame._columns}
    parts: list[DataFrame] = []
    for r in range(n_parts):
        lo, hi = int(bounds[r]), int(bounds[r + 1])
        data = {name: arr[lo:hi] for name, arr in gathered.items()}
        index = frame.index.take(order[lo:hi])
        parts.append(DataFrame._new(data, index, list(frame._columns)))
    return parts
