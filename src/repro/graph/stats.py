"""Graph statistics: degrees, wedges, clustering, linear-algebra triangle
count.

:func:`triangle_count_linalg` implements the paper's Equation 4 literally
(``C[U] = U @ L`` masked by the non-zeros of ``U``) with scipy sparse
matrices.  It is the fast, independent reference against which every
distributed algorithm in this repository is validated.
"""

from __future__ import annotations

import numpy as np

# DegreeSummary/degree_summary live with Graph, so a count prints its
# summary line without loading this module; re-exported for callers here.
from repro.graph.csr import DegreeSummary, Graph, degree_summary  # noqa: F401


def triangle_count_linalg(g: Graph) -> int:
    """Exact global triangle count via sparse matrix algebra.

    With ``U`` the strict upper triangle of the adjacency matrix,
    ``(U @ U)[i, j]`` counts the wedges ``i < k < j`` and masking by
    ``U``'s pattern keeps only closed ones, counting each triangle exactly
    once (at its ordered (i, j) edge) — Equations 1-4 of the paper.
    """
    U = g.upper_csr().to_scipy()
    if U.nnz == 0:
        return 0
    return int((U @ U).multiply(U).sum())


def triangles_per_vertex(g: Graph) -> np.ndarray:
    """Number of triangles incident on each vertex.

    ``diag(A^3) / 2`` computed sparsely; sums to ``3 * total_triangles``.
    """
    A = g.adj.to_scipy()
    if A.nnz == 0:
        return np.zeros(g.n, dtype=np.int64)
    A2 = A @ A
    # diag(A @ A2) without materializing the product: row_i(A) . col_i(A2).
    d = np.asarray(A.multiply(A2.T).sum(axis=1)).ravel()
    return (d // 2).astype(np.int64)


def wedge_count(g: Graph) -> int:
    """Number of wedges (paths of length 2): sum over v of C(d(v), 2)."""
    d = g.degrees.astype(np.int64)
    return int((d * (d - 1) // 2).sum())


def clustering_coefficients(g: Graph) -> np.ndarray:
    """Local clustering coefficient per vertex (0 where degree < 2)."""
    tri = triangles_per_vertex(g)
    d = g.degrees.astype(np.float64)
    wedges = d * (d - 1) / 2.0
    with np.errstate(divide="ignore", invalid="ignore"):
        cc = np.where(wedges > 0, tri / wedges, 0.0)
    return cc


def global_clustering(g: Graph) -> float:
    """Transitivity ratio: 3 * triangles / wedges (0 for wedge-free)."""
    w = wedge_count(g)
    if w == 0:
        return 0.0
    return 3.0 * triangle_count_linalg(g) / w


def bfs_levels(g: Graph) -> np.ndarray:
    """BFS level of every vertex, rooted at each component's minimum-label
    vertex (level 0); isolated vertices are their own roots.

    This is the level structure the cover-edge algorithm
    (:mod:`repro.core.coveredge`) derives in its distributed
    preprocessing; the sequential version here feeds the auto-tuner's
    cheap signal collection and the tests' oracles.  Frontier-vectorized:
    one ``np.unique`` pass per BFS level.
    """
    n = g.n
    level = np.full(n, -1, dtype=np.int64)
    indptr, indices = g.adj.indptr, g.adj.indices
    for root in range(n):
        if level[root] >= 0:
            continue
        level[root] = 0
        frontier = np.array([root], dtype=np.int64)
        depth = 0
        while len(frontier):
            gathered = np.concatenate(
                [indices[indptr[v] : indptr[v + 1]] for v in frontier]
            ) if len(frontier) else indices[:0]
            nxt = np.unique(gathered)
            nxt = nxt[level[nxt] < 0]
            depth += 1
            level[nxt] = depth
            frontier = nxt
    return level


def cover_edge_stats(g: Graph, level: np.ndarray | None = None) -> dict:
    """Cheap statistics of the cover-edge decomposition.

    Returns ``horizontal_edges`` (undirected edges whose endpoints share
    a BFS level — the cover set S), ``horizontal_fraction`` (|S| / m),
    ``horizontal_wedges`` (wedge count of the horizontal subgraph H) and
    ``bfs_depth`` (max level).  These are the signals that decide whether
    cover-edge counting beats tc2d: small cover sets mean both of its
    passes operate on far fewer tasks than tc2d's m.
    """
    if level is None:
        level = bfs_levels(g)
    indptr, indices = g.adj.indptr, g.adj.indices
    row_rep = np.repeat(np.arange(g.n, dtype=np.int64), np.diff(indptr))
    horiz = level[indices] == level[row_rep]
    m_h_directed = int(np.count_nonzero(horiz))
    d_h = np.bincount(row_rep[horiz], minlength=g.n).astype(np.int64)
    m = g.num_edges
    return {
        "horizontal_edges": m_h_directed // 2,
        "horizontal_fraction": (m_h_directed / 2) / m if m else 0.0,
        "horizontal_wedges": int((d_h * (d_h - 1) // 2).sum()),
        "bfs_depth": int(level.max()) if g.n else 0,
    }


def clustering_estimate(g: Graph, samples: int = 128, seed: int = 0) -> float:
    """Sampled mean local clustering coefficient — a cheap stand-in for
    :func:`global_clustering` that never counts all triangles.

    Deterministic for a given ``(graph, samples, seed)``: the sample is
    drawn with a seeded generator from the degree-≥2 vertices (all of
    them when there are at most ``samples``).  Exactness is not the
    point; the auto-tuner only needs the order of magnitude.
    """
    d = g.degrees.astype(np.int64)
    eligible = np.flatnonzero(d >= 2)
    if len(eligible) == 0:
        return 0.0
    if len(eligible) > samples:
        rng = np.random.default_rng(seed)
        eligible = np.sort(rng.choice(eligible, size=samples, replace=False))
    indptr, indices = g.adj.indptr, g.adj.indices
    total = 0.0
    for v in eligible:
        nb = indices[indptr[v] : indptr[v + 1]]
        closed = 0
        for u in nb:
            closed += int(np.isin(indices[indptr[u] : indptr[u + 1]], nb).sum())
        dv = len(nb)
        total += closed / (dv * (dv - 1))
    return float(total / len(eligible))
