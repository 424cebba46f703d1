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

from repro.baselines.common import OneDChunk, assemble_row_table, partition_dodg, rows_payload
from repro.core.arrayutil import split_by_owner
from repro.core.counts import TriangleCountResult
from repro.graph.csr import INDEX_DTYPE, Graph
from repro.hashing import BlockHashMap
from repro.simmpi import SUM, Engine, MachineModel
from repro.simmpi.engine import RankContext


def _surrogate_rank_program(
    ctx: RankContext, chunks: list[OneDChunk]
) -> dict[str, Any]:
    comm = ctx.comm
    chunk = chunks[ctx.rank]
    csr = chunk.csr

    with ctx.phase("ppt"):
        comm.barrier()

    with ctx.phase("tct"):
        # Who needs which of my rows?  Edge (i, j): owner(j) needs U_i.
        lens = csr.row_lengths()
        src_rows = np.repeat(
            np.arange(csr.n_rows, dtype=INDEX_DTYPE), lens
        )
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
        row_ids, row_indptr, row_entries = assemble_row_table(pushed)
        ctx.charge("csr_build", len(row_entries) + len(row_ids))

        # Count: group incoming edges by their local endpoint j, hash U_j
        # once, probe with every pushed U_i fragment.
        local = 0
        tasks = 0
        probes = 0
        inserts = 0
        max_len = int(np.diff(csr.indptr).max()) if csr.nnz else 0
        hm = BlockHashMap(max(4, 2 * max(max_len, 1)))

        def row_of(i: int) -> np.ndarray:
            if chunk.lo <= i < chunk.hi:
                return csr.row(i - chunk.lo)
            k = int(np.searchsorted(row_ids, i))
            if k >= len(row_ids) or row_ids[k] != i:
                raise AssertionError(f"pushed row {i} missing on rank {ctx.rank}")
            return row_entries[row_indptr[k] : row_indptr[k + 1]]

        # Incoming edges (i, j) with j local: all edges whose head j lives
        # here — i.e. every (i_global, j) where j in [lo, hi).  Each rank
        # discovers them from the pushed rows plus its own rows.
        edges_by_j: dict[int, list[int]] = {}
        for r_local in range(csr.n_rows):
            for j in csr.row(r_local).tolist():
                if chunk.lo <= j < chunk.hi:
                    edges_by_j.setdefault(int(j), []).append(chunk.lo + r_local)
        for k in range(len(row_ids)):
            i = int(row_ids[k])
            for j in row_entries[row_indptr[k] : row_indptr[k + 1]].tolist():
                if chunk.lo <= j < chunk.hi:
                    edges_by_j.setdefault(int(j), []).append(i)

        for j, sources in edges_by_j.items():
            row_j = csr.row(j - chunk.lo)
            if len(row_j) == 0:
                continue
            ins0 = hm.stats.insert_steps
            hm.build(row_j)
            inserts += hm.stats.insert_steps - ins0
            for i in sources:
                row_i = row_of(i)
                if len(row_i) == 0:
                    continue
                tasks += 1
                hits, steps = hm.lookup_many(row_i)
                probes += steps
                local += hits
        ctx.charge("task", tasks)
        ctx.charge("hash_insert", inserts)
        ctx.charge("hash_probe", probes)
        total = comm.allreduce(local, SUM)

    return {"total": int(total), "local": int(local), "tasks": tasks}


def count_triangles_surrogate(
    graph: Graph,
    p: int,
    model: MachineModel | None = None,
    balance: str = "edges",
    dataset: str = "",
) -> TriangleCountResult:
    """Run the Surrogate (push-based, space-efficient) baseline."""
    chunks = partition_dodg(graph, p, balance=balance)
    engine = Engine(p, model=model)
    run = engine.run(_surrogate_rank_program, chunks)
    rets = run.returns
    count = rets[0]["total"]
    if sum(r["local"] for r in rets) != count:
        raise AssertionError("Surrogate local counts do not sum to the total")
    result = TriangleCountResult(
        count=count,
        p=p,
        dataset=dataset,
        algorithm="surrogate",
        ppt_time=run.phase_time("ppt"),
        tct_time=run.phase_time("tct"),
        comm_fraction_ppt=run.phase_comm_fraction("ppt"),
        comm_fraction_tct=run.phase_comm_fraction("tct"),
    )
    result.extras["makespan"] = run.makespan
    return result
