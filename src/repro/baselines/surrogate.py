"""Surrogate: the space-efficient push-based 1D baseline
(Arifuzzaman et al. [1]).

Partitions are disjoint — only one copy of the graph exists across ranks.
For every cut edge (i, j) with j owned remotely, the owner of ``i``
*pushes* row ``U_i`` to the owner of ``j``, which performs the
intersection with its local ``U_j``.  Each (source row, destination rank)
pair is shipped at most once, but the aggregate volume is still the sum of
row lengths over cut edges — the high communication cost the paper
contrasts with AOP's replication.

Phases: ``"ppt"`` = none beyond input layout (a barrier), ``"tct"`` =
push + count.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.baselines.common import (
    OneDChunk,
    assemble_row_table,
    intersect_rows,
    rows_payload,
    run_1d,
)
from repro.core.arrayutil import split_by_owner
from repro.core.counts import TriangleCountResult
from repro.graph.csr import INDEX_DTYPE, Graph
from repro.hashing.hashmap import table_capacity
from repro.simmpi import SUM, MachineModel
from repro.simmpi.engine import RankContext


def _surrogate_rank_program(
    ctx: RankContext, chunks: list[OneDChunk]
) -> dict[str, Any]:
    comm = ctx.comm
    chunk = chunks[ctx.rank]
    csr = chunk.csr
    owned = np.arange(csr.n_rows, dtype=INDEX_DTYPE)

    with ctx.phase("ppt"):
        comm.barrier()

    with ctx.phase("tct"):
        # Who needs which of my rows?  Edge (i, j): owner(j) needs U_i.
        lens = csr.row_lengths()
        src_rows = np.repeat(owned, lens)
        dst_owner = chunk.owner_of(csr.indices)
        ctx.charge("scan", csr.nnz)
        # Deduplicate (row, destination) pairs: one copy per destination.
        pair_key = src_rows * comm.size + dst_owner
        uniq_keys = np.unique(pair_key)
        u_rows = uniq_keys // comm.size
        u_dest = uniq_keys % comm.size
        # Ship each needed row once per destination (skipping self).
        remote_mask = u_dest != comm.rank
        packages = []
        by_dest_rows = split_by_owner(
            u_dest[remote_mask], u_rows[remote_mask], comm.size
        )
        for r in range(comm.size):
            packages.append(rows_payload(csr, by_dest_rows[r], chunk.lo))
        pushed = comm.alltoall(packages)
        # One table of my rows and the pushed ones, by global id.
        ids, indptr, entries = assemble_row_table(
            [rows_payload(csr, owned, chunk.lo), *pushed]
        )
        ctx.charge("csr_build", len(entries) - csr.nnz + len(ids) - csr.n_rows)

        # Count: every edge (i, j) of the table with j local is a task —
        # hash U_j, probe it with U_i.
        into = (entries >= chunk.lo) & (entries < chunk.hi)
        capacity = table_capacity(2 * max(int(lens.max(initial=0)), 1))
        local, tasks, inserts, probes = intersect_rows(
            csr, entries[into] - chunk.lo, indptr, entries,
            np.repeat(np.arange(len(ids)), indptr[1:] - indptr[:-1])[into],
            capacity, chunk.n,
        )
        ctx.charge("task", tasks)
        ctx.charge("hash_insert", inserts)
        ctx.charge("hash_probe", probes)
        total = comm.allreduce(local, SUM)

    return {"total": int(total), "local": int(local), "tasks": tasks}


def count_triangles_surrogate(
    graph: Graph,
    p: int,
    model: MachineModel | None = None,
    dataset: str = "",
) -> TriangleCountResult:
    """Run the Surrogate (push-based, space-efficient) baseline over the
    edge-balanced partitioning."""
    return run_1d(
        _surrogate_rank_program, graph, p, model, dataset,
        algorithm="surrogate",
    )
