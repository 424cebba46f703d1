"""AOP: the communication-avoiding 1D baseline (Arifuzzaman et al. [1]).

Each rank owns a contiguous chunk of the degree-ordered DODG *plus ghost
copies of every out-neighbor row its edges reference* ("overlapping
partitions").  One up-front ghost exchange buys a counting phase with no
communication at all — at the price of replicated memory and whatever load
imbalance the partitioning leaves (the paper's Section 4 discussion).

Phases: ``"ppt"`` = ghost exchange, ``"tct"`` = pure-local counting.
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


def _aop_rank_program(ctx: RankContext, chunks: list[OneDChunk]) -> dict[str, Any]:
    comm = ctx.comm
    chunk = chunks[ctx.rank]
    csr = chunk.csr
    owned = np.arange(csr.n_rows, dtype=INDEX_DTYPE)

    with ctx.phase("ppt"):
        # Which remote rows do my edges reference?
        needed = np.unique(csr.indices)
        remote = needed[(needed < chunk.lo) | (needed >= chunk.hi)]
        owners = chunk.owner_of(remote)
        requests = split_by_owner(owners, remote, comm.size)
        got_requests = comm.alltoall(requests)
        replies = [
            rows_payload(csr, np.asarray(q, dtype=INDEX_DTYPE) - chunk.lo, chunk.lo)
            for q in got_requests
        ]
        ctx.charge("scan", csr.nnz + sum(len(q) for q in got_requests))
        ghosts = comm.alltoall(replies)
        # One table of owned and ghost rows, by global id.
        ids, indptr, entries = assemble_row_table(
            [rows_payload(csr, owned, chunk.lo), *ghosts]
        )
        ghost_words = len(entries) - csr.nnz + len(ids) - csr.n_rows
        ghost_bytes = ghost_words * entries.itemsize
        ctx.charge("csr_build", ghost_words)
        comm.barrier()

    with ctx.phase("tct"):
        # Task (i, j) per out-edge: U_i is hashed, U_j (owned or a ghost
        # copy) probes it.
        at = np.searchsorted(ids, csr.indices)
        if not np.array_equal(ids[np.minimum(at, len(ids) - 1)], csr.indices):
            raise AssertionError(f"ghost rows missing on rank {ctx.rank}")
        row_lens = indptr[1:] - indptr[:-1]
        capacity = table_capacity(2 * max(int(row_lens.max(initial=0)), 1))
        local, tasks, inserts, probes = intersect_rows(
            csr, np.repeat(owned, csr.row_lengths()), indptr, entries, at,
            capacity, chunk.n,
        )
        working_set = csr.nbytes_estimate() + ghost_bytes
        ctx.charge("task", tasks, working_set)
        ctx.charge("hash_insert", inserts, working_set)
        ctx.charge("hash_probe", probes, working_set)
        total = comm.allreduce(local, SUM)

    return {
        "total": int(total),
        "local": int(local),
        "ghost_bytes": ghost_bytes,
        "tasks": tasks,
    }


def count_triangles_aop(
    graph: Graph,
    p: int,
    model: MachineModel | None = None,
    dataset: str = "",
) -> TriangleCountResult:
    """Run the AOP baseline on ``p`` simulated ranks, over the
    edge-balanced partitioning the authors recommend."""
    return run_1d(
        _aop_rank_program, graph, p, model, dataset, algorithm="aop",
        extras=lambda rets: {
            "ghost_bytes_total": sum(r["ghost_bytes"] for r in rets)
        },
    )
