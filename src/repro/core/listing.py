"""Triangle enumeration and per-edge/per-vertex census on the 2D pipeline.

The paper motivates triangle counting as the kernel inside k-truss
decomposition, clustering coefficients and transitivity (Section 1).
Those applications need more than the global count: k-truss needs the
*support* of every edge (how many triangles contain it) and clustering
coefficients need per-vertex triangle counts.  This module extends the 2D
Cannon pipeline to produce them:

* the intersection kernel additionally *enumerates* each closing vertex,
  yielding every triangle exactly once as an ordered triple
  ``i < j < k`` (in degree-order labels);
* triples are translated back to the caller's original vertex ids via the
  gathered preprocessing permutation;
* :func:`triangle_census_2d` aggregates them into per-edge supports and
  per-vertex counts.

Enumeration necessarily materializes one record per triangle, so this
path targets graphs whose triangle count fits memory (the counting-only
path in :mod:`repro.core.tc2d` has no such limit).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.cannon import TAGS_TC2D, Operands, exchange_operands
from repro.core.config import TC2DConfig
from repro.core.grid import ProcessorGrid
from repro.core.kernels import get_enumerator, prepare_backend, resolve_backend
from repro.core.preprocess import (
    InputChunk,
    chunk_bounds,
    cyclic_bounds,
    partition_1d,
    preprocess_with_labels,
)
from repro.graph.csr import INDEX_DTYPE, Graph
from repro.simmpi import SUM, Engine, MachineModel
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
    """

    count: int
    triangles: np.ndarray
    edge_support: np.ndarray
    edges: np.ndarray
    vertex_triangles: np.ndarray


def _enumerate_block_pair(task_block, u_block, l_block, cfg, q: int):
    """Like the counting kernel, but emits the closing triples.

    Delegates the hit enumeration to the backend registry (the same
    ``cfg.kernel_backend`` resolution as the counting path), then lifts
    the local triples into global label2 space.  Returns
    ``(n_triangles, triples)`` with triples as a ``(t, 3)`` array of
    *global label2* ids ``(i, j, k)`` where (j, i) is the task edge and
    k the closing vertex (i < j < k in degree order).
    """
    if u_block.inner_residue != l_block.inner_residue:
        raise ValueError("operand blocks misaligned in enumeration kernel")
    x = task_block.fixed_residue
    y = task_block.inner_residue
    zp = u_block.inner_residue

    bname, _ = resolve_backend(
        cfg.kernel_backend, task_block, u_block, l_block, cfg
    )
    j_loc, i_loc, k_loc = get_enumerator(bname)(
        task_block, u_block, l_block, cfg
    )
    if len(j_loc) == 0:
        return 0, np.empty((0, 3), dtype=INDEX_DTYPE)
    triples = np.stack(
        [
            (i_loc * q + y).astype(INDEX_DTYPE),
            (j_loc * q + x).astype(INDEX_DTYPE),
            (k_loc * q + zp).astype(INDEX_DTYPE),
        ],
        axis=1,
    )
    return len(triples), triples


def _census_rank_program(
    ctx: RankContext, chunks: list[InputChunk], cfg: TC2DConfig
):
    comm = ctx.comm
    grid = ProcessorGrid.for_ranks(comm.size)
    q = grid.q
    chunk = chunks[ctx.rank]

    with ctx.phase("ppt"):
        blocks, label_info = preprocess_with_labels(ctx, chunk, grid, cfg)
        ops = Operands(*blocks)
        del blocks  # ops alone must hold the travelling blocks
        for blk in ops.blocks():
            ctx.alloc_mem(blk.nbytes_estimate())
        comm.barrier()

    triples_parts: list[np.ndarray] = []
    with ctx.phase("tct"):
        if q > 1:
            exchange_operands(ctx, grid, cfg, ops, TAGS_TC2D, skew=True)
        for z in range(q):
            n_tri, triples = _enumerate_block_pair(ops.task, ops.u, ops.l, cfg, q)
            if n_tri:
                triples_parts.append(triples)
            ctx.charge("task", ops.task.nnz)
            ctx.charge("hash_probe", n_tri)
            if z < q - 1:
                exchange_operands(ctx, grid, cfg, ops, TAGS_TC2D)
        local = (
            np.concatenate(triples_parts, axis=0)
            if triples_parts
            else np.empty((0, 3), dtype=INDEX_DTYPE)
        )
        total = comm.allreduce(len(local), SUM)

    return {
        "total": int(total),
        "triples": local,
        "labels": label_info,  # (lo, new_labels) in lambda1 space
    }


def triangle_census_2d(
    graph: Graph,
    p: int,
    cfg: TC2DConfig | None = None,
    model: MachineModel | None = None,
) -> TriangleCensus:
    """Enumerate every triangle of ``graph`` on ``p`` simulated ranks and
    aggregate per-edge supports and per-vertex counts.

    The enumeration runs the identical Cannon pipeline as
    :func:`~repro.core.tc2d.count_triangles_2d` (same blocks, same
    shifts); each hit additionally records its closing vertex.  Triples
    are mapped back to the input's original vertex labels.
    """
    cfg = cfg if cfg is not None else TC2DConfig()
    if cfg.enumeration != "jik":
        raise ValueError("triangle enumeration implements the jik task layout only")
    prepare_backend(cfg.kernel_backend)
    grid = ProcessorGrid.for_ranks(p)
    chunks = partition_1d(graph, p)
    engine = Engine(p, model=model)
    run = engine.run(_census_rank_program, chunks, cfg)

    # Reassemble the preprocessing permutation: original id v
    #   --lambda1--> cyclic relabel (closed form)
    #   --lambda2--> degree-sorted label (rank-local tables, gathered here).
    n = graph.n
    lam1 = np.arange(n, dtype=INDEX_DTYPE)
    if cfg.initial_cyclic:
        offsets = cyclic_bounds(n, p)
        v = np.arange(n, dtype=INDEX_DTYPE)
        lam1 = offsets[v % p] + v // p
    lam2 = np.arange(n, dtype=INDEX_DTYPE)
    if cfg.degree_reorder:
        lam2 = np.empty(n, dtype=INDEX_DTYPE)
        for ret in run.returns:
            lo, labels = ret["labels"]
            lam2[lo : lo + len(labels)] = labels
    perm = lam2[lam1]  # original -> final label
    inv = np.empty(n, dtype=INDEX_DTYPE)
    inv[perm] = np.arange(n, dtype=INDEX_DTYPE)

    parts = [r["triples"] for r in run.returns if len(r["triples"])]
    triples_l2 = (
        np.concatenate(parts, axis=0)
        if parts
        else np.empty((0, 3), dtype=INDEX_DTYPE)
    )
    count = run.returns[0]["total"]
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
    )
