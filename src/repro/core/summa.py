"""SUMMA-based triangle counting on rectangular processor grids.

The paper's conclusion notes the 2D algorithm "can be easily extended to
deal with rectangular processor grids using the SUMMA algorithm" [22].
This module implements that extension: ranks form a ``pr x pc`` grid, the
task matrix C[L] is cell-cyclically distributed over it, and the inner
(triangle-closing) dimension is cut into ``T = lcm(pr, pc)`` contiguous
panels.  Panel ``t`` of U lives on grid column ``t % pc`` and panel ``t``
of L on grid row ``t % pr``; step ``t`` broadcasts the U panel along each
grid row and the L panel down each grid column, then every rank counts its
tasks against the pair — the classic SUMMA owner-broadcast pattern instead
of Cannon's shifts.

Preprocessing steps 1-2 (cyclic redistribution, degree reordering) are
shared with the Cannon pipeline; only the final distribution differs.
"""

from __future__ import annotations

import math
from typing import Any

from repro.core.blocks import Block, build_block
from repro.core.cannon import GridJob, KernelTally, count_blocks, rank_record
from repro.core.config import TC2DConfig
from repro.core.counts import TriangleCountResult
from repro.core.preprocess import (
    InputChunk,
    cyclic_bounds,
    degree_reorder,
    exchange_pairs,
    initial_redistribution,
)
from repro.graph.csr import INDEX_DTYPE, Graph
from repro.simmpi import SUM, MachineModel
from repro.simmpi.engine import RankContext

import numpy as np


def _panels(n: int, pr: int, pc: int) -> tuple[int, int]:
    """(number of panels T, panel width w) for the inner dimension."""
    T = pr * pc // math.gcd(pr, pc)
    w = max(1, (n + T - 1) // T)
    return T, w


def summa_rank_program(
    ctx: RankContext, chunks: list[InputChunk], pr: int, pc: int, cfg: TC2DConfig
) -> dict[str, Any]:
    """SPMD program for the SUMMA variant on a ``pr x pc`` grid."""
    comm = ctx.comm
    if comm.size != pr * pc:
        raise ValueError(f"need {pr * pc} ranks for a {pr}x{pc} grid")
    chunk = chunks[ctx.rank]
    n = chunk.n
    x, y = divmod(ctx.rank, pc)
    T, w = _panels(n, pr, pc)

    with ctx.phase("ppt"):
        rows = initial_redistribution(ctx, chunk)
        rows, row_labels = degree_reorder(
            ctx, rows, cyclic_bounds(n, comm.size), n
        )

        lens = rows.csr.row_lengths()
        row_rep = np.repeat(row_labels, lens)
        cols = rows.csr.indices
        upper = cols > row_rep
        ctx.charge("scan", rows.csr.nnz)
        # U entries (i, k), i < k: rows cyclic over grid rows, inner k in
        # panels over grid columns.
        ui, uk = row_rep[upper], cols[upper]
        dest_u = (ui % pr) * pc + (uk // w) % pc
        # L entries (k, j), k > j: inner k in panels over grid rows,
        # columns cyclic over grid columns.
        lk, lj = row_rep[~upper], cols[~upper]
        dest_l = (lk // w) % pr * pc + lj % pc
        # Task entries: the L pattern, cell-cyclic like the Cannon variant.
        dest_t = (lk % pr) * pc + lj % pc

        def ship(dest, a, b):
            return exchange_pairs(comm, dest, np.stack([a, b], axis=1))

        u_recv = ship(dest_u, ui, uk)
        l_recv = ship(dest_l, lk, lj)
        t_recv = ship(dest_t, lk, lj)

        n_rows_local = (n - x + pr - 1) // pr if x < n else 0
        n_cols_local = (n - y + pc - 1) // pc if y < n else 0
        task_block = build_block(
            "task",
            x,
            y,
            n_rows_local,
            n_cols_local,
            t_recv[:, 0] // pr,
            t_recv[:, 1] // pc,
        )
        # Per-panel U sub-blocks (only panels this rank owns: t % pc == y).
        # Panel entries keep *global* inner ids: both operands index the
        # same k-space, so intersection works without a panel-local remap.
        u_panels: dict[int, Block] = {}
        up = (u_recv[:, 1] // w).astype(INDEX_DTYPE)
        for t in range(T):
            if t % pc != y:
                continue
            sel = up == t
            u_panels[t] = build_block(
                "U-row", x, t, n_rows_local, n, u_recv[sel, 0] // pr, u_recv[sel, 1]
            )
        l_panels: dict[int, Block] = {}
        lp = (l_recv[:, 0] // w).astype(INDEX_DTYPE)
        for t in range(T):
            if t % pr != x:
                continue
            sel = lp == t
            l_panels[t] = build_block(
                "L-col", y, t, n_cols_local, n, l_recv[sel, 1] // pc, l_recv[sel, 0]
            )
        ctx.charge("csr_build", task_block.nnz + u_recv.shape[0] + l_recv.shape[0])
        row_comm = comm.split(color=x, key=y)
        col_comm = comm.split(color=y, key=x)
        comm.barrier()
    counters_ppt = dict(ctx.counters)

    local_count = 0
    tally = KernelTally()
    with ctx.phase("tct"):
        for t in range(T):
            u_blk = row_comm.bcast(u_panels.get(t), root=t % pc)
            l_blk = col_comm.bcast(l_panels.get(t), root=t % pr)
            _, st = count_blocks(ctx, cfg, task_block, u_blk, l_blk, tally)
            local_count += st.triangles
        total = comm.allreduce(local_count, SUM)
    return rank_record(ctx, counters_ppt, total, local_count, tally)


def count_triangles_summa(
    graph: Graph,
    pr: int,
    pc: int,
    cfg: TC2DConfig | None = None,
    model: MachineModel | None = None,
    dataset: str = "",
    trace: bool = False,
    keep_run: bool = False,
) -> TriangleCountResult:
    """Count triangles on a rectangular ``pr x pc`` grid with SUMMA-style
    owner broadcasts (the paper's proposed extension).

    Only the ``jik`` enumeration is supported (the task matrix is the L
    pattern); all Section 5.2 kernel optimizations apply unchanged.
    ``trace`` records a full engine event trace; with ``trace`` or
    ``keep_run`` the raw :class:`RunResult` lands in
    ``result.extras["run"]`` (same contract as
    :func:`~repro.core.tc2d.count_triangles_2d`).
    """
    if cfg is not None and cfg.enumeration != "jik":
        raise ValueError("the SUMMA variant implements the jik enumeration only")
    with GridJob(
        graph, pr * pc, cfg, "tc2d", model=model, trace=trace, dataset=dataset
    ) as job:
        run = job.run(summa_rank_program, pr, pc, job.cfg)
        return job.finish(run, f"summa-{pr}x{pc}", keep_run)
