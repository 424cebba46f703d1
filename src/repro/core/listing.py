"""Triangle enumeration and per-edge/per-vertex census on the 2D pipeline.

The paper motivates triangle counting as the kernel inside k-truss
decomposition, clustering coefficients and transitivity (Section 1).
Those applications need more than the global count: k-truss needs the
*support* of every edge (how many triangles contain it) and clustering
coefficients need per-vertex triangle counts.  The census runs the
counting pipeline itself — the same preprocessing, the same
:func:`~repro.core.cannon.cannon_pass`, the same kernels and charges —
and has the kernels list what they count:

* every hit of every epoch comes back as an ordered triple ``i < j < k``
  (in degree-order labels), each triangle exactly once;
* triples are translated back to the caller's original vertex ids via the
  gathered preprocessing permutation;
* :func:`triangle_census_2d` aggregates them into per-edge supports and
  per-vertex counts.

Enumeration necessarily materializes one record per triangle, so this
path targets graphs whose triangle count fits memory (the counting-only
path in :mod:`repro.core.tc2d` has no such limit).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import numpy as np

from repro.core.cannon import (
    TAGS_TC2D,
    GridJob,
    KernelTally,
    Operands,
    cannon_pass,
    rank_record,
)
from repro.core.config import TC2DConfig
from repro.core.counts import TriangleCountResult
from repro.core.grid import ProcessorGrid
from repro.core.preprocess import InputChunk, cyclic_bounds, preprocess_with_labels
from repro.graph.csr import INDEX_DTYPE, Graph
from repro.simmpi import SUM, MachineModel
from repro.simmpi.engine import RankContext


@dataclass
class TriangleCensus:
    """Result of :func:`triangle_census_2d`.

    Attributes
    ----------
    count:
        Exact global triangle count (== ``len(triangles)``).
    triangles:
        ``(count, 3)`` array of vertex ids in the graph's original label
        space; each triangle appears exactly once (rows are unordered
        vertex sets, internally emitted as degree-ordered triples).
    edge_support:
        ``(m,)`` support per edge, aligned with ``edges``.
    edges:
        ``(m, 2)`` canonical edge list (original ids, u < v).
    vertex_triangles:
        ``(n,)`` number of triangles incident on each vertex.
    result:
        The run's count record — virtual times, logical counters, shift
        records — as :func:`~repro.core.tc2d.count_triangles_2d` reports
        it for the same graph and configuration.
    """

    count: int
    triangles: np.ndarray
    edge_support: np.ndarray
    edges: np.ndarray
    vertex_triangles: np.ndarray
    result: TriangleCountResult


def census_rank_program(
    ctx: RankContext, chunks: list[InputChunk], cfg: TC2DConfig
) -> dict[str, Any]:
    """SPMD program of the census (public for tests that run it on an
    engine of their own): tc2d's cold rank program with the kernels
    listing their hits.  The record adds ``triples`` (this rank's
    global label2 triples) and ``labels`` (its ``(lo, labels)`` slice of
    the degree-order permutation)."""
    grid = ProcessorGrid.for_ranks(ctx.comm.size)
    with ctx.phase("ppt"):
        blocks, labels = preprocess_with_labels(ctx, chunks[ctx.rank], grid, cfg)
        ops = Operands(*blocks)
        del blocks  # ops alone must hold the travelling blocks
        for blk in ops.blocks():
            ctx.alloc_mem(blk.nbytes_estimate())
        ctx.comm.barrier()
    counters_ppt = dict(ctx.counters)

    tally = KernelTally()
    hits: list[np.ndarray] = []
    with ctx.phase("tct"):
        local = cannon_pass(
            ctx, grid, cfg, ops, tally, tags=TAGS_TC2D, prefix="", shift_base=0,
            hits=hits,
        )
        total = ctx.comm.allreduce(local, SUM)
    triples = (
        np.concatenate(hits) if hits else np.empty((0, 3), dtype=INDEX_DTYPE)
    )
    return rank_record(
        ctx, counters_ppt, total, local, tally, triples=triples, labels=labels
    )


def triangle_census_2d(
    graph: Graph,
    p: int,
    cfg: TC2DConfig | None = None,
    model: MachineModel | None = None,
) -> TriangleCensus:
    """Enumerate every triangle of ``graph`` on ``p`` simulated ranks and
    aggregate per-edge supports and per-vertex counts.

    The enumeration is the run :func:`~repro.core.tc2d.count_triangles_2d`
    makes (same blocks, same shifts, same charges); each hit additionally
    records its closing vertex.  Triples are mapped back to the input's
    original vertex labels.  The kernels run inline: the census pins
    ``executor="sequential"``.
    """
    cfg = cfg if cfg is not None else TC2DConfig()
    if cfg.enumeration != "jik":
        raise ValueError("triangle enumeration implements the jik task layout only")
    ProcessorGrid.for_ranks(p)  # validates perfect square early
    with GridJob(
        graph, p, cfg.replace(executor="sequential"), "tc2d", model=model
    ) as job:
        run = job.run(census_rank_program, job.cfg)
        result = job.finish(run, "census")

    # Reassemble the preprocessing permutation: original id v
    #   --lambda1--> cyclic relabel (closed form)
    #   --lambda2--> degree-sorted label (rank-local tables, gathered here).
    n = graph.n
    v = np.arange(n, dtype=INDEX_DTYPE)
    lam1 = cyclic_bounds(n, p)[v % p] + v // p
    lam2 = np.empty(n, dtype=INDEX_DTYPE)
    for ret in run.returns:
        lo, labels = ret["labels"]
        lam2[lo : lo + len(labels)] = labels
    perm = lam2[lam1]  # original -> final label
    inv = np.empty(n, dtype=INDEX_DTYPE)
    inv[perm] = np.arange(n, dtype=INDEX_DTYPE)

    triples_l2 = np.concatenate([r["triples"] for r in run.returns])
    count = result.count
    if len(triples_l2) != count:
        raise AssertionError("enumerated triples do not match the reduced count")
    triangles = inv[triples_l2] if count else triples_l2

    # Per-vertex counts and per-edge supports from the triple list.
    vertex_triangles = np.bincount(triangles.ravel(), minlength=n).astype(
        np.int64
    )
    edges = graph.edge_array()
    edge_support = np.zeros(len(edges), dtype=np.int64)
    if count:
        enc_edges = edges[:, 0] * n + edges[:, 1]
        order = np.argsort(enc_edges)
        enc_sorted = enc_edges[order]
        tri_edges = np.concatenate(
            [triangles[:, [0, 1]], triangles[:, [0, 2]], triangles[:, [1, 2]]]
        )
        lo = np.minimum(tri_edges[:, 0], tri_edges[:, 1])
        hi = np.maximum(tri_edges[:, 0], tri_edges[:, 1])
        enc_tri = lo * n + hi
        pos = np.searchsorted(enc_sorted, enc_tri)
        if not np.all(enc_sorted[pos] == enc_tri):
            raise AssertionError("triangle edge missing from the edge list")
        np.add.at(edge_support, order[pos], 1)

    return TriangleCensus(
        count=count,
        triangles=triangles,
        edge_support=edge_support,
        edges=edges,
        vertex_triangles=vertex_triangles,
        result=result,
    )
