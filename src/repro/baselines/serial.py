"""Serial exact triangle counters (Section 3.1's two intersection styles).

These are the single-process reference implementations the paper builds
on [21]: vertices are ordered by non-decreasing degree, the adjacency
matrix is split into U (neighbors later in the order), and each edge's
triangles come from intersecting two U rows.

Three variants:

* :func:`count_triangles_list_based` — merge-style joint traversal of the
  two sorted lists;
* :func:`count_triangles_map_based` — hash one row (reused across the
  row's edges, the ``<j,i,k>`` trick) and probe with the other;
* :func:`count_triangles_node_iterator` — vectorized numpy variant used
  as a fast oracle for larger graphs.

All three return identical counts; tests exercise that.
"""

from __future__ import annotations

import numpy as np

from repro.graph.csr import Graph
from repro.hashing import BlockHashMap


def count_triangles_list_based(g: Graph) -> int:
    """Merge-based counting: for each U edge (i, j), jointly walk the two
    sorted rows and count common entries."""
    U = g.degree_order_upper()
    indptr, indices = U.indptr, U.indices
    total = 0
    for i in range(U.n_rows):
        row_i = indices[indptr[i] : indptr[i + 1]]
        if len(row_i) == 0:
            continue
        for j in row_i.tolist():
            row_j = indices[indptr[j] : indptr[j + 1]]
            # Two-pointer merge intersection.
            a = b = 0
            na, nb = len(row_i), len(row_j)
            while a < na and b < nb:
                va, vb = row_i[a], row_j[b]
                if va == vb:
                    total += 1
                    a += 1
                    b += 1
                elif va < vb:
                    a += 1
                else:
                    b += 1
    return total


def count_triangles_map_based(g: Graph) -> int:
    """Map-based counting with the ``<j,i,k>``-style map reuse: hash each
    row once and probe it with all of its edges' partner rows."""
    U = g.degree_order_upper()
    indptr, indices = U.indptr, U.indices
    max_len = int(np.diff(indptr).max()) if U.nnz else 0
    hm = BlockHashMap(max(4, 2 * max_len))
    total = 0
    for i in range(U.n_rows):
        row_i = indices[indptr[i] : indptr[i + 1]]
        if len(row_i) == 0:
            continue
        hm.build(row_i)
        for j in row_i.tolist():
            row_j = indices[indptr[j] : indptr[j + 1]]
            if len(row_j):
                hits, _ = hm.lookup_many(row_j)
                total += hits
    return total


def count_triangles_node_iterator(g: Graph) -> int:
    """Vectorized forward/node-iterator counting (fast oracle).

    For each vertex ``i`` in degree order, mark its U row in a dense flag
    array and sum flag hits over its neighbors' U rows.
    """
    U = g.degree_order_upper()
    indptr, indices = U.indptr, U.indices
    marks = np.zeros(U.n_rows, dtype=bool)
    total = 0
    for i in range(U.n_rows):
        row_i = indices[indptr[i] : indptr[i + 1]]
        if len(row_i) == 0:
            continue
        marks[row_i] = True
        lo = indptr[row_i]
        hi = indptr[row_i + 1]
        lens = (hi - lo).astype(np.int64)
        nz = lens > 0
        if nz.any():
            # Gather all partner rows at once and count marked entries.
            starts, counts = lo[nz], lens[nz]
            idx = np.concatenate(
                [indices[s : s + c] for s, c in zip(starts.tolist(), counts.tolist())]
            )
            total += int(np.count_nonzero(marks[idx]))
        marks[row_i] = False
    return total
