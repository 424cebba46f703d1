"""Blocked 1D baseline in the spirit of OPT-PSP (Kanewala et al. [10]).

Kanewala et al. decompose the adjacency matrix 1D and send adjacency lists
to the ranks holding the adjacent vertices, *blocking* vertices to curb
the number of messages.  We reproduce that structure as a ring pipeline:
over ``p`` rounds, every rank's whole row block visits every other rank
(one block-sized message per round), and each rank counts the tasks whose
partner row is in the visiting block.  This keeps exactly one copy of the
graph (like Surrogate) while batching all per-vertex messages into one
block message per peer (the "process them in blocks" optimization).

Phases: ``"ppt"`` = barrier only, ``"tct"`` = ring rounds.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.baselines.common import OneDChunk, intersect_rows, run_1d
from repro.core.counts import TriangleCountResult
from repro.graph.csr import INDEX_DTYPE, Graph
from repro.hashing.hashmap import table_capacity
from repro.simmpi import SUM, MachineModel
from repro.simmpi.engine import RankContext


def _psp_rank_program(ctx: RankContext, chunks: list[OneDChunk]) -> dict[str, Any]:
    comm = ctx.comm
    p = comm.size
    chunk = chunks[ctx.rank]
    csr = chunk.csr

    with ctx.phase("ppt"):
        comm.barrier()

    with ctx.phase("tct"):
        local = 0
        tasks = 0
        probes = 0
        inserts = 0
        # The visiting block starts as our own and walks the ring.
        visiting_lo = chunk.lo
        visiting = (csr.indptr.copy(), csr.indices.copy())
        # Pre-bucket our edges by owner of the partner endpoint so each
        # round only touches the relevant tasks (source rows ascending
        # within a bucket).
        lens = csr.row_lengths()
        src = np.repeat(np.arange(csr.n_rows, dtype=INDEX_DTYPE), lens)
        dst = csr.indices
        owner = chunk.owner_of(dst)
        ctx.charge("scan", csr.nnz)
        order = np.argsort(owner, kind="stable")
        src_o, dst_o = src[order], dst[order]
        counts = np.bincount(owner, minlength=p)
        offs = np.zeros(p + 1, dtype=INDEX_DTYPE)
        np.cumsum(counts, out=offs[1:])

        capacity = table_capacity(2 * max(int(lens.max(initial=0)), 1))

        for round_idx in range(p):
            owner_rank = (ctx.rank + round_idx) % p
            v_indptr, v_indices = visiting
            lo_t, hi_t = int(offs[owner_rank]), int(offs[owner_rank + 1])
            # Hash each U_i of the bucket once, probe it with every
            # visiting U_j its tasks name.
            hits, n_tasks, n_inserts, n_probes = intersect_rows(
                csr, src_o[lo_t:hi_t], v_indptr, v_indices,
                dst_o[lo_t:hi_t] - visiting_lo, capacity, chunk.n,
            )
            local += hits
            tasks += n_tasks
            inserts += n_inserts
            probes += n_probes
            if round_idx < p - 1:
                # Pass the visiting block along the ring.
                dest = (ctx.rank - 1) % p
                src_rank = (ctx.rank + 1) % p
                payload = (visiting_lo, visiting[0], visiting[1])
                visiting_lo, vp, vi = comm.sendrecv(
                    payload, dest=dest, source=src_rank, sendtag=7, recvtag=7
                )
                visiting = (vp, vi)
        ctx.charge("task", tasks)
        ctx.charge("hash_insert", inserts)
        ctx.charge("hash_probe", probes)
        total = comm.allreduce(local, SUM)

    return {"total": int(total), "local": int(local), "tasks": tasks}


def count_triangles_psp(
    graph: Graph,
    p: int,
    model: MachineModel | None = None,
    dataset: str = "",
) -> TriangleCountResult:
    """Run the blocked-1D (OPT-PSP-style) baseline on ``p`` ranks over the
    vertex-balanced partitioning."""
    return run_1d(
        _psp_rank_program, graph, p, model, dataset, algorithm="opt-psp",
        balance="vertices",
    )
