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
    partition_dodg,
    rows_payload,
)
from repro.core.arrayutil import split_by_owner
from repro.core.counts import TriangleCountResult
from repro.graph.csr import INDEX_DTYPE, Graph
from repro.hashing import BlockHashMap
from repro.simmpi import SUM, Engine, MachineModel
from repro.simmpi.engine import RankContext


def _aop_rank_program(ctx: RankContext, chunks: list[OneDChunk]) -> dict[str, Any]:
    comm = ctx.comm
    chunk = chunks[ctx.rank]
    csr = chunk.csr

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
        ghost_ids, ghost_indptr, ghost_entries = assemble_row_table(ghosts)
        ghost_bytes = int(ghost_entries.nbytes + ghost_ids.nbytes)
        ctx.charge("csr_build", len(ghost_entries) + len(ghost_ids))
        comm.barrier()

    with ctx.phase("tct"):
        local = 0
        max_len = int(np.diff(csr.indptr).max()) if csr.nnz else 0
        ghost_max = (
            int(np.diff(ghost_indptr).max()) if len(ghost_ids) else 0
        )
        hm = BlockHashMap(max(4, 2 * max(max_len, ghost_max, 1)))
        tasks = 0
        probes = 0
        inserts = 0

        def partner_row(j: int) -> np.ndarray:
            if chunk.lo <= j < chunk.hi:
                return csr.row(j - chunk.lo)
            k = int(np.searchsorted(ghost_ids, j))
            if k >= len(ghost_ids) or ghost_ids[k] != j:
                raise AssertionError(f"ghost row {j} missing on rank {ctx.rank}")
            return ghost_entries[ghost_indptr[k] : ghost_indptr[k + 1]]

        for i_local in range(csr.n_rows):
            row_i = csr.row(i_local)
            if len(row_i) == 0:
                continue
            ins0 = hm.stats.insert_steps
            hm.build(row_i)
            inserts += hm.stats.insert_steps - ins0
            for j in row_i.tolist():
                row_j = partner_row(int(j))
                if len(row_j) == 0:
                    continue
                tasks += 1
                hits, steps = hm.lookup_many(row_j)
                probes += steps
                local += hits
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
    balance: str = "edges",
    dataset: str = "",
) -> TriangleCountResult:
    """Run the AOP baseline on ``p`` simulated ranks.

    ``balance`` picks the partitioning ("edges" reproduces the
    load-balanced variant the authors recommend; "vertices" is the naive
    split whose imbalance the paper discusses).
    """
    chunks = partition_dodg(graph, p, balance=balance)
    engine = Engine(p, model=model)
    run = engine.run(_aop_rank_program, chunks)
    rets = run.returns
    count = rets[0]["total"]
    if sum(r["local"] for r in rets) != count:
        raise AssertionError("AOP local counts do not sum to the total")
    result = TriangleCountResult(
        count=count,
        p=p,
        dataset=dataset,
        algorithm="aop",
        ppt_time=run.phase_time("ppt"),
        tct_time=run.phase_time("tct"),
        comm_fraction_ppt=run.phase_comm_fraction("ppt"),
        comm_fraction_tct=run.phase_comm_fraction("tct"),
    )
    result.extras["ghost_bytes_total"] = sum(r["ghost_bytes"] for r in rets)
    result.extras["makespan"] = run.makespan
    return result
