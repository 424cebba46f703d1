"""Cover-edge triangle counting (Bader et al., arXiv:2403.02997) on the
2D simulated-MPI substrate.

The cover-edge decomposition assigns every vertex a BFS level (rooted at
each connected component's minimum-label vertex).  An edge whose
endpoints share a level is *horizontal*; the horizontal edges form the
cover set ``S``.  Adjacent BFS levels differ by at most one, so a
triangle's three vertices span at most two levels and — by pigeonhole —
every triangle contains either exactly one or exactly three horizontal
edges.  Summing the common-neighbor counts over the cover set therefore
counts one-horizontal-edge triangles once and all-horizontal triangles
three times:

.. math::

    T \\;=\\; \\sum_{(u,v) \\in S} |N(u) \\cap N(v)| \\;-\\; 2\\,T_H

where ``T_H`` is the triangle count of the horizontal subgraph ``H``
(every triangle of ``H`` is all-horizontal).  Both terms are one
:func:`~repro.core.cannon.cannon_pass` each — the very rotation
:mod:`repro.core.tc2d` runs, under pass-scoped tags and keys:

* **pass A (cover)** — the travelling blocks carry the *full* adjacency
  matrix (row-major as the "U" operand, column-major as the "L"
  operand); the resident task block holds the cover edges, one
  orientation per undirected edge.  The unchanged intersection kernels
  then compute ``|N(u) ∩ N(v)|`` per cover edge, one inner-residue
  stripe per shift.
* **pass H (horizontal)** — a verbatim tc2d round restricted to ``H``:
  U/L split of the horizontal edges, tasks from the enumeration side,
  ``sqrt(p)`` shifts.

Everything else is shared with tc2d: the preprocessing relabeling steps
(:func:`~repro.core.preprocess.initial_redistribution`,
:func:`~repro.core.preprocess.degree_reorder`), the kernel backends,
the executors, the ``ppt``/``tct``/``cache`` phase contract, span
labels, counters, telemetry, and the content-addressed store (two
entries per run, keyed by a ``{"pass": ...}`` digest component).  Chaos-style checkpoint/restart is the one tc2d extra this
driver does not implement.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.core.arrayutil import (
    segment_lengths_to_offsets,
    segment_sums,
)
from repro.core.blocks import build_block
from repro.core.cannon import (
    GridJob,
    KernelTally,
    Operands,
    cannon_pass,
    load_warm_blocks,
    rank_record,
)
from repro.core.config import TC2DConfig
from repro.core.counts import TriangleCountResult
from repro.core.grid import ProcessorGrid
from repro.core.preprocess import (
    InputChunk,
    LocalRows,
    cyclic_bounds,
    degree_reorder,
    exchange_pairs,
    initial_redistribution,
    split_and_distribute,
    translate_labels,
)
from repro.graph.csr import CSR, INDEX_DTYPE, Graph
from repro.simmpi import SUM, MachineModel
from repro.simmpi.engine import RankContext

#: Message tags per pass, disjoint from tc2d's (100..130) so a bug can
#: never silently cross-match messages between algorithms or passes.
_TAGS_COVER = (200, 210, 220, 230)  # skew U, skew L, shift U, shift L
_TAGS_HORIZ = (300, 310, 320, 330)


def _segment_min(
    values: np.ndarray, indptr: np.ndarray, default: int
) -> np.ndarray:
    """Per-row minimum of CSR-laid-out ``values``; ``default`` for empty
    rows.  Uses the start-of-nonempty-row ``reduceat`` trick (consecutive
    kept starts delimit exactly the kept rows)."""
    n_rows = len(indptr) - 1
    out = np.full(n_rows, default, dtype=INDEX_DTYPE)
    if len(values):
        lens = np.diff(indptr)
        nz = lens > 0
        out[nz] = np.minimum.reduceat(values, indptr[:-1][nz])
    return out


def bfs_levels_distributed(
    ctx: RankContext, rows: LocalRows, offsets: np.ndarray, n: int
) -> tuple[np.ndarray, np.ndarray, int]:
    """Distributed BFS levels in the current (contiguous) label space.

    Two frontier-free fixpoint loops, both built from the same
    :func:`~repro.core.preprocess.translate_labels` collective the
    degree reorder already uses:

    1. *component roots* — min-label propagation: every vertex
       repeatedly adopts the smallest component label seen among its
       neighbors until a global round changes nothing (≤ diameter+1
       rounds, detected with an allreduce);
    2. *levels* — BFS distance propagation from the roots:
       ``level(v) = min(level(v), min_u level(u) + 1)`` to fixpoint.

    Returns ``(level, nbr_level, rounds)`` where ``level[k]`` is the
    level of owned vertex ``lo + k``, ``nbr_level`` is the level of every
    adjacency entry (positionally aligned with ``rows.csr.indices``) and
    ``rounds`` counts the propagation rounds (a reported statistic).
    """
    comm = ctx.comm
    indptr = rows.csr.indptr
    cols = rows.csr.indices
    n_local = rows.csr.n_rows
    own = rows.labels
    rounds = 0

    comp = own.copy()
    while True:
        nbr = translate_labels(ctx, cols, offsets, comp)
        best = _segment_min(nbr, indptr, default=n)
        new = np.minimum(comp, best)
        ctx.charge("scan", len(cols) + n_local)
        rounds += 1
        changed = comm.allreduce(int(np.count_nonzero(new != comp)), SUM)
        comp = new
        if changed == 0:
            break

    level = np.where(comp == own, 0, n).astype(INDEX_DTYPE)
    while True:
        nbr = translate_labels(ctx, cols, offsets, level)
        best = _segment_min(nbr, indptr, default=n) + 1
        new = np.minimum(level, best)
        np.minimum(new, n, out=new)
        ctx.charge("scan", len(cols) + n_local)
        rounds += 1
        changed = comm.allreduce(int(np.count_nonzero(new != level)), SUM)
        level = new
        if changed == 0:
            break

    nbr_level = translate_labels(ctx, cols, offsets, level)
    return level, nbr_level, rounds


def _ship_pairs(ctx: RankContext, pairs: np.ndarray, q: int) -> np.ndarray:
    """All-to-all each ``(row, col)`` pair to the grid rank owning its
    matrix cell ``(row % q, col % q)`` — the same routing
    :func:`~repro.core.preprocess.split_and_distribute` uses."""
    dest = (pairs[:, 0] % q) * q + pairs[:, 1] % q
    return exchange_pairs(ctx.comm, dest, pairs)


def coveredge_preprocess(
    ctx: RankContext, chunk: InputChunk, grid: ProcessorGrid, cfg: TC2DConfig
) -> tuple[tuple, tuple, tuple[int, np.ndarray], dict[str, int]]:
    """Cover-edge preprocessing: relabeling, BFS levels, cover split.

    Reuses tc2d's steps 1–2 verbatim (cyclic redistribution + degree
    reorder), inserts the distributed BFS-level computation between
    them (levels are label-space-independent, but computing them before
    the reorder keeps label ownership contiguous for the lookups), then
    ships **two** block sets:

    * ``blocks_a`` — full adjacency row-major ("U" role) and
      column-major ("L" role) plus the cover-edge task block;
    * ``blocks_h`` — a standard tc2d U/L/task triple of the horizontal
      subgraph, built by :func:`split_and_distribute` on the filtered
      rows.

    Returns ``(blocks_a, blocks_h, (lo, labels), info)`` where ``info``
    carries the BFS round count and the local horizontal statistics.
    """
    comm = ctx.comm
    n = chunk.n
    p = comm.size
    q = grid.q

    rows = initial_redistribution(ctx, chunk)
    offsets = cyclic_bounds(n, p)

    level, nbr_level, rounds = bfs_levels_distributed(ctx, rows, offsets, n)
    lens = rows.csr.row_lengths()
    horiz = nbr_level == np.repeat(level, lens)
    ctx.charge("scan", rows.csr.nnz)

    rows, row_labels = degree_reorder(ctx, rows, offsets, n)
    # The reorder translates entries in place (positions preserved), so
    # the per-occurrence horizontal mask stays aligned.
    lens = rows.csr.row_lengths()
    row_rep = np.repeat(row_labels, lens)
    cols = rows.csr.indices

    # -- pass A: full adjacency + cover tasks --------------------------------
    all_pairs = np.stack([row_rep, cols], axis=1)
    a_recv = _ship_pairs(ctx, all_pairs, q)
    cover_mask = horiz & (row_rep > cols)  # one orientation per cover edge
    c_recv = _ship_pairs(ctx, all_pairs[cover_mask], q)

    x, y = grid.coords(comm.rank)
    n_rows_local = grid.local_count(x, n)
    n_cols_local = grid.local_count(y, n)
    n_inner = (n + q - 1) // q
    # The adjacency matrix is symmetric, so one received pair set serves
    # both operand roles: (a, b) is row a of the row-major block and —
    # read as (row a, col b) — contributes a to column b of the
    # column-major block.
    u_a = build_block(
        "U-row", x, y, n_rows_local, n_inner, a_recv[:, 0] // q, a_recv[:, 1] // q
    )
    l_a = build_block(
        "L-col", y, x, n_cols_local, n_inner, a_recv[:, 1] // q, a_recv[:, 0] // q
    )
    task_a = build_block(
        "task", x, y, n_rows_local, n_cols_local,
        c_recv[:, 0] // q, c_recv[:, 1] // q,
    )
    ctx.charge("csr_build", u_a.nnz + l_a.nnz + task_a.nnz + n_rows_local)

    # -- pass H: tc2d on the horizontal subgraph -----------------------------
    h_lens = segment_sums(horiz.astype(INDEX_DTYPE), rows.csr.indptr)
    h_csr = CSR(
        rows.csr.n_rows,
        segment_lengths_to_offsets(h_lens),
        cols[horiz],
        n_cols=n,
    )
    rows_h = LocalRows(lo=rows.lo, hi=rows.hi, csr=h_csr)
    blocks_h = split_and_distribute(ctx, rows_h, row_labels, grid, n, cfg)

    info = {"bfs_rounds": rounds, "cover_local": int(np.count_nonzero(cover_mask))}
    return (u_a, l_a, task_a), blocks_h, (rows.lo, row_labels), info


def coveredge_rank_program(
    ctx: RankContext,
    chunks: list[InputChunk],
    cfg: TC2DConfig,
    caches: tuple[Any, Any] | None = None,
) -> dict[str, Any]:
    """SPMD program for cover-edge counting (public for tests/examples).

    ``caches`` is an optional pair of
    :class:`~repro.graph.store.RunCache` handles — one per pass
    ("cover", "horiz").  Both hitting switches the rank into a ``cache``
    phase that loads all six blocks (the ``ppt`` phase is entered empty,
    exactly like tc2d's warm path); anything less runs preprocessing
    cold and persists whichever entries are writable.
    """
    comm = ctx.comm
    grid = ProcessorGrid.for_ranks(comm.size)
    chunk = chunks[ctx.rank]
    cache_a, cache_h = caches if caches is not None else (None, None)
    warm = (
        cache_a is not None and cache_a.hit
        and cache_h is not None and cache_h.hit
    )
    info: dict[str, int] = {"bfs_rounds": -1, "cover_local": 0}

    if warm:
        ops_a, ops_h = load_warm_blocks(ctx, caches)
        info["cover_local"] = ops_a.task.nnz
    else:
        with ctx.phase("ppt"):
            blocks_a, blocks_h, (lo, labels), info = coveredge_preprocess(
                ctx, chunk, grid, cfg
            )
            for cache, blocks in ((cache_a, blocks_a), (cache_h, blocks_h)):
                if cache is not None and cache.writable and not cache.hit:
                    cache.save_rank(ctx.rank, *blocks, lo, labels)
            ops_a, ops_h = Operands(*blocks_a), Operands(*blocks_h)
            del blocks_a, blocks_h, blocks  # ops alone hold the travelling blocks
            for blk in ops_a.blocks() + ops_h.blocks():
                ctx.alloc_mem(blk.nbytes_estimate())
            comm.barrier()
    counters_ppt = dict(ctx.counters)

    tally = KernelTally()
    with ctx.phase("tct"):
        cover_sum = cannon_pass(
            ctx, grid, cfg, ops_a, tally,
            tags=_TAGS_COVER, prefix="cover", shift_base=0,
        )
        h_count = cannon_pass(
            ctx, grid, cfg, ops_h, tally,
            tags=_TAGS_HORIZ, prefix="horiz", shift_base=grid.q,
        )
        total_cover = comm.allreduce(cover_sum, SUM)
        total_h = comm.allreduce(h_count, SUM)
    return rank_record(
        ctx,
        counters_ppt,
        int(total_cover) - 2 * int(total_h),
        int(cover_sum) - 2 * int(h_count),
        tally,
        cover_sum=int(total_cover),
        horizontal_triangles=int(total_h),
        cover_edges_local=int(info.get("cover_local", 0)),
        bfs_rounds=int(info.get("bfs_rounds", -1)),
    )


def count_triangles_coveredge(
    graph: Graph,
    p: int,
    cfg: TC2DConfig | None = None,
    model: MachineModel | None = None,
    trace: bool = False,
    dataset: str = "",
    keep_run: bool = False,
    cache: Any = None,
    telemetry: Any = None,
) -> TriangleCountResult:
    """Count the triangles of ``graph`` with the cover-edge algorithm on
    ``p`` simulated ranks (perfect square).

    The parameters match :func:`~repro.core.tc2d.count_triangles_2d`
    but for ``superstep`` — same config object, executors, tracing,
    caching and telemetry plumbing — and the returned count is
    bit-identical to tc2d's (both are exact).  Result ``extras`` additionally carry a
    ``"coveredge"`` record: the cover-set size, the two partial sums of
    the closed formula and the BFS propagation round count.

    ``cache`` accepts ``None`` / ``True`` / a path / a ``GraphStore``;
    the run addresses **two** store entries (one per pass) whose digests
    include the ``algorithm`` store-key component plus a per-pass
    marker, so cover-edge artifacts never collide with tc2d's.
    """
    ProcessorGrid.for_ranks(p)  # validates perfect square early
    with GridJob(
        graph, p, cfg, "coveredge", model=model, trace=trace, dataset=dataset,
        cache=cache, telemetry=telemetry, passes=("cover", "horiz"),
    ) as job:
        run = job.run(coveredge_rank_program, job.cfg, tuple(job.caches) or None)
        result = job.finish(run, "coveredge", keep_run)
    rets = run.returns
    rounds = max(r["bfs_rounds"] for r in rets)
    result.extras["coveredge"] = {
        "cover_edges": sum(r["cover_edges_local"] for r in rets),
        "cover_sum": rets[0]["cover_sum"],
        "horizontal_triangles": rets[0]["horizontal_triangles"],
        "bfs_rounds": rounds if rounds >= 0 else None,
    }
    return result
