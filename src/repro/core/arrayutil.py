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


def split_by_owner(
    owners: np.ndarray, payload: np.ndarray, num_owners: int
) -> list[np.ndarray]:
    """Partition ``payload`` rows by their ``owners`` id.

    Returns a list of ``num_owners`` arrays; the concatenation of the
    pieces is a permutation of ``payload``.  This is the local side of
    every all-to-all redistribution in the preprocessing pipeline.
    """
    owners = np.asarray(owners, dtype=INDEX_DTYPE)
    payload = np.asarray(payload)
    if len(owners) != len(payload):
        raise ValueError("owners and payload must align")
    order = np.argsort(owners, kind="stable")
    sorted_owners = owners[order]
    sorted_payload = payload[order]
    counts = np.bincount(sorted_owners, minlength=num_owners)
    offsets = segment_lengths_to_offsets(counts)
    return [
        sorted_payload[offsets[r] : offsets[r + 1]] for r in range(num_owners)
    ]
