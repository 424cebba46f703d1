"""The collect-everything alternative the paper rejects (Section 5.1).

Before settling on Cannon's pattern, the paper considers the obvious
formulation: "having each processor first collect the necessary rows and
column blocks of matrices U and L, respectively, and then proceed to
perform the required computations — such an approach will increase the
memory overhead of the algorithm."

This module implements exactly that rejected design so the claim can be
measured: rank (x, y) allgathers the full block row ``U_{x,*}`` along its
grid row and the full block column ``L_{*,y}`` down its grid column, then
counts every residue locally with zero further communication.  The
counting result is identical; the per-rank memory high-water mark holds
``2 * sqrt(p)`` travelling blocks instead of Cannon's 2 — the
``sqrt(p)``-factor overhead the paper's memory-scalability argument is
about (see ``benchmarks/test_memory_scalability.py``).
"""

from __future__ import annotations

from typing import Any

from repro.core.cannon import GridJob, KernelTally, count_blocks, rank_record
from repro.core.config import TC2DConfig
from repro.core.counts import TriangleCountResult
from repro.core.grid import ProcessorGrid
from repro.core.preprocess import InputChunk, preprocess
from repro.graph.csr import Graph
from repro.simmpi import SUM, MachineModel
from repro.simmpi.engine import RankContext


def tc2d_allgather_rank_program(
    ctx: RankContext, chunks: list[InputChunk], cfg: TC2DConfig
) -> dict[str, Any]:
    """SPMD program: preprocess as usual, then allgather instead of shift."""
    comm = ctx.comm
    grid = ProcessorGrid.for_ranks(comm.size)
    q = grid.q
    chunk = chunks[ctx.rank]

    with ctx.phase("ppt"):
        u_block, l_block, task_block = preprocess(ctx, chunk, grid, cfg)
        for blk in (u_block, l_block, task_block):
            ctx.alloc_mem(blk.nbytes_estimate())
        comm.barrier()
    counters_ppt = dict(ctx.counters)

    x, y = grid.coords(ctx.rank)
    local_count = 0
    tally = KernelTally()
    with ctx.phase("tct"):
        # Collect the whole block row of U and block column of L up front.
        row_comm = comm.split(color=x, key=y)
        col_comm = comm.split(color=y, key=x)
        u_blocks = row_comm.allgather(u_block)  # index j -> inner residue j
        l_blocks = col_comm.allgather(l_block)  # index i -> inner residue i
        for blk in u_blocks:
            if blk is not u_block:
                ctx.alloc_mem(blk.nbytes_estimate())
        for blk in l_blocks:
            if blk is not l_block:
                ctx.alloc_mem(blk.nbytes_estimate())

        for zp in range(q):
            _, st = count_blocks(
                ctx, cfg, task_block, u_blocks[zp], l_blocks[zp], tally
            )
            local_count += st.triangles
        total = comm.allreduce(local_count, SUM)
    return rank_record(ctx, counters_ppt, total, local_count, tally)


def count_triangles_2d_allgather(
    graph: Graph,
    p: int,
    cfg: TC2DConfig | None = None,
    model: MachineModel | None = None,
    dataset: str = "",
    trace: bool = False,
    keep_run: bool = False,
) -> TriangleCountResult:
    """Run the rejected collect-first formulation (for comparison only).

    Returns the same result record as the Cannon driver;
    ``extras["mem_peak_bytes"]`` is where the two designs differ.
    ``trace``/``keep_run`` behave as in
    :func:`~repro.core.tc2d.count_triangles_2d`: the raw traced
    :class:`~repro.simmpi.engine.RunResult` lands in ``extras["run"]`` so
    the same span/byte accounting (and Perfetto export) works for both
    variants.
    """
    with GridJob(
        graph, p, cfg, "tc2d", model=model, trace=trace, dataset=dataset
    ) as job:
        run = job.run(tc2d_allgather_rank_program, job.cfg)
        return job.finish(run, "tc2d-allgather", keep_run)
