"""Synthetic graph generators.

The paper evaluates on graph500 RMAT graphs (scales 26-29) and two
real-world social networks.  We regenerate the same *families* at scales a
single-core pure-Python run can sweep:

* :func:`rmat_graph` — the graph500 Kronecker/RMAT generator with the
  standard (a, b, c, d) = (0.57, 0.19, 0.19, 0.05) parameters [6, 12];
* :func:`powerlaw_cluster_fast` — Holme-Kim style preferential attachment with
  triad formation: heavy-tailed degrees *and* high clustering, standing in
  for twitter (which is triangle-rich: 34.8e9 triangles on 1.2e9 edges);
* :func:`configuration_model` — power-law degree stubs wired uniformly at
  random: heavy-tailed degrees but vanishing clustering, standing in for
  friendster (191,716 triangles on 1.8e9 edges — essentially triangle-free
  at that scale);
* :func:`erdos_renyi_gnm` and :func:`barabasi_albert` for tests.

All generators take an integer ``seed`` and are deterministic given it.
"""

from __future__ import annotations

import numpy as np

from repro.graph.csr import INDEX_DTYPE, Graph

#: graph500 RMAT parameters.
GRAPH500_A, GRAPH500_B, GRAPH500_C, GRAPH500_D = 0.57, 0.19, 0.19, 0.05


def rmat_edges(
    scale: int,
    edge_factor: int = 16,
    a: float = GRAPH500_A,
    b: float = GRAPH500_B,
    c: float = GRAPH500_C,
    d: float = GRAPH500_D,
    seed: int = 0,
) -> np.ndarray:
    """Generate an RMAT directed edge list of ``edge_factor * 2**scale``
    edges over ``2**scale`` vertices (may contain duplicates/self loops,
    exactly like the graph500 kernel-1 input).

    Vectorized: one uniform draw per (edge, level) selects the recursion
    quadrant with probabilities (a, b, c, d).
    """
    if scale < 1:
        raise ValueError("scale must be >= 1")
    if not np.isclose(a + b + c + d, 1.0):
        raise ValueError("RMAT probabilities must sum to 1")
    n_edges = edge_factor << scale
    rng = np.random.default_rng(seed)
    src = np.zeros(n_edges, dtype=INDEX_DTYPE)
    dst = np.zeros(n_edges, dtype=INDEX_DTYPE)
    for _level in range(scale):
        r = rng.random(n_edges)
        # Quadrants: a -> (0,0), b -> (0,1), c -> (1,0), d -> (1,1).
        src_bit = (r >= a + b).astype(INDEX_DTYPE)
        dst_bit = ((r >= a) & (r < a + b) | (r >= a + b + c)).astype(INDEX_DTYPE)
        src = (src << 1) | src_bit
        dst = (dst << 1) | dst_bit
    return np.stack([src, dst], axis=1)


def rmat_graph(
    scale: int,
    edge_factor: int = 16,
    seed: int = 0,
    shuffle_labels: bool = True,
) -> Graph:
    """Simple undirected graph from an RMAT edge list.

    ``shuffle_labels`` applies a random vertex permutation, as the graph500
    specification requires, so that vertex ids carry no degree information
    (the algorithm's degree-reordering preprocessing must actually work for
    it).
    """
    edges = rmat_edges(scale, edge_factor=edge_factor, seed=seed)
    n = 1 << scale
    if shuffle_labels:
        rng = np.random.default_rng(seed + 0x5EED)
        perm = rng.permutation(n).astype(INDEX_DTYPE)
        edges = perm[edges]
    return Graph.from_edges(n, edges)


def erdos_renyi_gnm(n: int, m: int, seed: int = 0) -> Graph:
    """G(n, m)-style random graph: ``m`` uniform vertex pairs, simplified.

    The realized edge count can be slightly below ``m`` after removing
    duplicates and self loops.
    """
    rng = np.random.default_rng(seed)
    u = rng.integers(0, n, size=m, dtype=INDEX_DTYPE)
    v = rng.integers(0, n, size=m, dtype=INDEX_DTYPE)
    return Graph.from_edges(n, np.stack([u, v], axis=1))


def barabasi_albert(n: int, m: int, seed: int = 0) -> Graph:
    """Barabasi-Albert preferential attachment: each new vertex attaches to
    ``m`` existing vertices chosen proportionally to degree."""
    if n < m + 1:
        raise ValueError("need n > m")
    rng = np.random.default_rng(seed)
    # repeated_nodes holds one copy of each endpoint per incident edge,
    # so uniform sampling from it is degree-proportional sampling.
    repeated: list[int] = []
    edges: list[tuple[int, int]] = []
    targets = list(range(m))
    for v in range(m, n):
        chosen = set()
        for t in targets:
            if t != v and t not in chosen:
                chosen.add(t)
                edges.append((v, t))
                repeated.extend((v, t))
        targets = [repeated[rng.integers(0, len(repeated))] for _ in range(m)]
    return Graph.from_edges(n, np.array(edges, dtype=INDEX_DTYPE))


def powerlaw_cluster_fast(n: int, m: int, p_triad: float, seed: int = 0) -> Graph:
    """Holme-Kim powerlaw-cluster graph: preferential attachment where each
    additional link follows a triad-formation step with probability
    ``p_triad`` (connect to a random neighbor of the previously chosen
    target, closing a triangle).

    Produces heavy-tailed degrees with tunable, high clustering — the
    twitter-like regime the paper's real-world experiments probe.
    Adjacency lists keep the triad step cheap at the dataset registry's
    tens of thousands of vertices.
    """
    if not 0.0 <= p_triad <= 1.0:
        raise ValueError("p_triad must be in [0, 1]")
    if n < m + 1:
        raise ValueError("need n > m")
    rng = np.random.default_rng(seed)
    adj: list[list[int]] = [[] for _ in range(n)]
    repeated: list[int] = []
    edges: list[tuple[int, int]] = []

    def add_edge(u: int, w: int) -> bool:
        if u == w or w in adj[u]:
            return False
        adj[u].append(w)
        adj[w].append(u)
        repeated.extend((u, w))
        edges.append((u, w))
        return True

    for u in range(m):
        for w in range(u + 1, m):
            add_edge(u, w)

    rand_cache = rng.random(4 * n * m + 16)
    ri = 0

    def nextrand() -> float:
        nonlocal ri, rand_cache
        if ri >= len(rand_cache):
            rand_cache = rng.random(len(rand_cache))
            ri = 0
        x = rand_cache[ri]
        ri += 1
        return x

    for v in range(m, n):
        count = 0
        prev_target = -1
        guard = 0
        while count < m and guard < 50 * m:
            guard += 1
            if prev_target >= 0 and adj[prev_target] and nextrand() < p_triad:
                nbrs = adj[prev_target]
                target = nbrs[int(nextrand() * len(nbrs))]
            else:
                # With m == 1 there is no seed edge: attach uniformly
                # until the first edge gives preferential sampling mass.
                pool = repeated or range(v)
                target = pool[int(nextrand() * len(pool))]
            if add_edge(v, target):
                count += 1
                prev_target = target
    return Graph.from_edges(n, np.array(edges, dtype=INDEX_DTYPE))


def configuration_model(
    n: int,
    gamma: float = 2.4,
    d_min: int = 2,
    d_max: int | None = None,
    seed: int = 0,
) -> Graph:
    """Power-law configuration model: degrees sampled from a truncated
    discrete power law with exponent ``gamma``, stubs matched uniformly at
    random, then simplified.

    Uniform stub matching produces clustering that vanishes with ``n``, so
    triangle counts stay tiny relative to the edge count — the friendster
    regime (Table 1: 1.8e9 edges, 1.9e5 triangles).
    """
    if d_max is None:
        d_max = max(d_min + 1, int(round(n**0.5)))
    rng = np.random.default_rng(seed)
    # Inverse-CDF sampling of a discrete truncated power law.
    ks = np.arange(d_min, d_max + 1, dtype=np.float64)
    pmf = ks**-gamma
    pmf /= pmf.sum()
    cdf = np.cumsum(pmf)
    degrees = d_min + np.searchsorted(cdf, rng.random(n))
    if degrees.sum() % 2 == 1:
        degrees[int(rng.integers(0, n))] += 1
    stubs = np.repeat(np.arange(n, dtype=INDEX_DTYPE), degrees)
    rng.shuffle(stubs)
    half = len(stubs) // 2
    edges = np.stack([stubs[:half], stubs[half : 2 * half]], axis=1)
    return Graph.from_edges(n, edges)


def watts_strogatz(n: int, k: int, p_rewire: float, seed: int = 0) -> Graph:
    """Watts-Strogatz small-world graph: a ring lattice where every vertex
    connects to its ``k`` nearest neighbors (k even), with each edge
    rewired to a uniform random target with probability ``p_rewire``.

    At ``p_rewire = 0`` the triangle count is exactly
    ``n * k/2 * (k/2 - 1) / 2 * ...`` — concretely, each vertex closes
    ``3/4 * (k/2) * (k/2 - 1) / ...`` wedges; tests use the closed form
    ``n * k/2 * (k - 2) / 4 / ...`` via networkx parity instead of
    hand-derivation.  Small-world graphs are the classic
    clustering-coefficient benchmark (Watts & Strogatz [24], cited in the
    paper's introduction).
    """
    if k < 2 or k % 2:
        raise ValueError("k must be even and >= 2")
    if not 0.0 <= p_rewire <= 1.0:
        raise ValueError("p_rewire must be in [0, 1]")
    if n <= k:
        raise ValueError("need n > k")
    rng = np.random.default_rng(seed)
    edges: set[tuple[int, int]] = set()
    for offset in range(1, k // 2 + 1):
        for u in range(n):
            v = (u + offset) % n
            edges.add((u, v) if u < v else (v, u))
    if p_rewire > 0:
        current = sorted(edges)
        for (u, v) in current:
            if rng.random() < p_rewire:
                w = int(rng.integers(0, n))
                attempts = 0
                key = (u, w) if u < w else (w, u)
                while (w == u or key in edges) and attempts < 20:
                    w = int(rng.integers(0, n))
                    key = (u, w) if u < w else (w, u)
                    attempts += 1
                if w != u and key not in edges:
                    edges.discard((u, v) if u < v else (v, u))
                    edges.add(key)
    return Graph.from_edges(n, np.array(sorted(edges), dtype=INDEX_DTYPE))


def grid_2d(rows: int, cols: int, diagonal: bool = False) -> Graph:
    """Rectangular 2D lattice; with ``diagonal`` each cell also gets one
    diagonal, making the triangle count exactly ``2 * (rows-1) * (cols-1)``
    — a handy closed-form oracle for tests."""
    if rows < 1 or cols < 1:
        raise ValueError("rows and cols must be >= 1")
    edges = []
    idx = lambda r, c: r * cols + c  # noqa: E731 - local shorthand
    for r in range(rows):
        for c in range(cols):
            if c + 1 < cols:
                edges.append((idx(r, c), idx(r, c + 1)))
            if r + 1 < rows:
                edges.append((idx(r, c), idx(r + 1, c)))
            if diagonal and r + 1 < rows and c + 1 < cols:
                edges.append((idx(r, c), idx(r + 1, c + 1)))
    arr = (
        np.array(edges, dtype=INDEX_DTYPE)
        if edges
        else np.empty((0, 2), dtype=INDEX_DTYPE)
    )
    return Graph.from_edges(rows * cols, arr)


def complete_graph(n: int) -> Graph:
    """K_n: the n-clique, with exactly C(n, 3) triangles."""
    if n < 1:
        raise ValueError("n must be >= 1")
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    arr = (
        np.array(pairs, dtype=INDEX_DTYPE)
        if pairs
        else np.empty((0, 2), dtype=INDEX_DTYPE)
    )
    return Graph.from_edges(n, arr)
