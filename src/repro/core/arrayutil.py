"""Small vectorized array helpers shared by the distributed kernels."""

from __future__ import annotations

import numpy as np

from repro.graph.csr import INDEX_DTYPE


def multirange(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Concatenate ``[arange(s, s+l) for s, l in zip(starts, lengths)]``
    without a Python loop.

    This is the gather pattern the counting kernel uses to pull all the
    probe fragments of one task row out of a CSC structure in one numpy
    operation.
    """
    starts = np.asarray(starts, dtype=INDEX_DTYPE)
    lengths = np.asarray(lengths, dtype=INDEX_DTYPE)
    if starts.shape != lengths.shape:
        raise ValueError("starts and lengths must have the same shape")
    nonzero = lengths > 0
    if not nonzero.all():
        starts = starts[nonzero]
        lengths = lengths[nonzero]
    if len(starts) == 0:
        return np.empty(0, dtype=INDEX_DTYPE)
    total = int(lengths.sum())
    steps = np.ones(total, dtype=INDEX_DTYPE)
    steps[0] = starts[0]
    ends = np.cumsum(lengths)
    # At each segment boundary, jump from (previous end - 1) to next start.
    steps[ends[:-1]] = starts[1:] - (starts[:-1] + lengths[:-1]) + 1
    return np.cumsum(steps)


def sorted_unique(values: np.ndarray) -> np.ndarray:
    """Sorted distinct values of a 1-D array: one sort and a neighbour
    compare.  ``np.unique`` returns the same array several times slower
    (its generic dispatch), which shows where it runs per row or per
    relabelling round; ``len(sorted_unique(a)) == len(a)`` is the
    all-distinct test.
    """
    s = np.sort(values)
    if len(s) < 2:
        return s
    keep = np.empty(len(s), dtype=bool)
    keep[0] = True
    np.not_equal(s[1:], s[:-1], out=keep[1:])
    return s[keep]


def dense_unique(values: np.ndarray, n: int) -> np.ndarray:
    """Sorted distinct values of an array of ids in ``[0, n)``, read off a
    length-``n`` bitmap: O(n + len(values)) instead of a sort.  Equals
    ``sorted_unique(values)`` (as int64); the bitmap lives only for the
    call.
    """
    values = np.asarray(values)
    if len(values) and (values.min() < 0 or values.max() >= n):
        raise ValueError(f"ids must lie in [0, {n})")
    seen = np.zeros(n, dtype=bool)
    seen[values] = True
    return np.flatnonzero(seen).astype(INDEX_DTYPE, copy=False)


def segment_lengths_to_offsets(lengths: np.ndarray) -> np.ndarray:
    """Exclusive prefix-sum offsets (CSR indptr) for segment lengths."""
    lengths = np.asarray(lengths, dtype=INDEX_DTYPE)
    out = np.zeros(len(lengths) + 1, dtype=INDEX_DTYPE)
    np.cumsum(lengths, out=out[1:])
    return out


def segment_sums(values: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """Per-segment sums of ``values`` given CSR-style ``offsets``.

    Empty segments sum to zero.  Used by the triangle-support kernel to
    turn per-probe hit masks into per-task triangle counts.
    """
    values = np.asarray(values)
    offsets = np.asarray(offsets, dtype=INDEX_DTYPE)
    if len(offsets) == 0:
        raise ValueError("offsets must have at least one element")
    nseg = len(offsets) - 1
    if nseg == 0:
        return np.zeros(0, dtype=np.int64)
    csum = np.zeros(len(values) + 1, dtype=np.int64)
    np.cumsum(values, out=csum[1:])
    return csum[offsets[1:]] - csum[offsets[:-1]]


def owner_order(
    owners: np.ndarray, num_owners: int
) -> tuple[np.ndarray, np.ndarray]:
    """``(order, offsets)`` grouping positions by owner id, stably.

    ``order`` is ``np.argsort(owners, kind="stable")`` and owner ``r``'s
    positions are ``order[offsets[r]:offsets[r + 1]]``.  The ids are cast
    to the smallest unsigned dtype holding ``num_owners - 1``, which numpy
    sorts with a stable radix sort up to 16 bits: linear time, same
    permutation.  Raises ``ValueError`` on an id outside
    ``[0, num_owners)``.
    """
    owners = np.asarray(owners)
    if len(owners) and (owners.min() < 0 or owners.max() >= num_owners):
        raise ValueError(f"owner ids must lie in [0, {num_owners})")
    keys = owners.astype(np.min_scalar_type(max(num_owners - 1, 0)), copy=False)
    order = np.argsort(keys, kind="stable")
    counts = np.bincount(keys, minlength=num_owners)
    return order, segment_lengths_to_offsets(counts)


def split_by_owner(
    owners: np.ndarray, payload: np.ndarray, num_owners: int
) -> list[np.ndarray]:
    """Partition ``payload`` rows by their ``owners`` id.

    Returns a list of ``num_owners`` arrays; the concatenation of the
    pieces is a permutation of ``payload`` (rows of one owner keep their
    order).  This is the local side of every all-to-all redistribution in
    the preprocessing pipeline.
    """
    payload = np.asarray(payload)
    if len(owners) != len(payload):
        raise ValueError("owners and payload must align")
    order, offsets = owner_order(owners, num_owners)
    grouped = np.take(payload, order, axis=0)
    bounds = offsets.tolist()
    return [grouped[bounds[r] : bounds[r + 1]] for r in range(num_owners)]
