"""HavoqGT-style baseline: 2-core peeling + directed wedge checking
(Pearce [14], Pearce et al. [15]) — Table 5's competitor.

The algorithm family differs fundamentally from intersection-based
counting: after removing vertices that cannot be in any triangle (the
2-core decomposition), it orders vertices by degree, generates the
*directed wedges* (pairs of out-neighbors of each vertex in the oriented
graph), and queries the owner of each wedge's endpoint edge for closure.
The work is Theta(sum of C(outdeg, 2)) wedge generations plus one remote
edge-existence query per wedge — far more traffic per triangle than the
2D algorithm's block intersections, which is the structural reason the
paper measures a ~10x average advantage (Table 5).

Phases mirror the paper's Table 5 columns: ``"2core"`` (peeling time) and
``"wedge"`` (directed wedge counting time).
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.baselines.common import OneDChunk, run_1d
from repro.core.arrayutil import multirange, split_by_owner
from repro.core.counts import TriangleCountResult
from repro.graph.csr import INDEX_DTYPE, Graph
from repro.simmpi import SUM, MachineModel
from repro.simmpi.engine import RankContext


def _peel_two_core(ctx: RankContext, chunk: OneDChunk) -> np.ndarray:
    """Synchronous distributed 2-core peeling.

    Returns a boolean mask over the *full undirected* degree of owned
    vertices... here the DODG chunk only stores out-edges, so peeling works
    on full degrees reconstructed via one alltoall of in-edge counts, then
    iterates: drop vertices with remaining degree < 2, notify neighbor
    owners, repeat until a global fixed point.
    """
    comm = ctx.comm
    csr = chunk.csr
    n_local = csr.n_rows

    # Full degree = out-degree + in-degree; in-degrees need one exchange.
    owners = chunk.owner_of(csr.indices)
    per_owner = split_by_owner(owners, csr.indices, comm.size)
    got = comm.alltoall(per_owner)
    indeg = np.zeros(n_local, dtype=INDEX_DTYPE)
    for arr in got:
        if len(arr):
            indeg += np.bincount(
                np.asarray(arr, dtype=INDEX_DTYPE) - chunk.lo, minlength=n_local
            )
    degree = csr.row_lengths().astype(INDEX_DTYPE) + indeg
    ctx.charge("scan", csr.nnz + n_local)

    # Undirected neighbor lists are needed to propagate removals both ways;
    # materialize them from out-edges plus the received in-edges.
    lens = csr.row_lengths()
    pairs_out = np.stack(
        [
            np.repeat(np.arange(n_local, dtype=INDEX_DTYPE) + chunk.lo, lens),
            csr.indices,
        ],
        axis=1,
    )
    per_owner_pairs = split_by_owner(owners, pairs_out, comm.size)
    got_pairs = comm.alltoall(per_owner_pairs)
    keep = [g for g in got_pairs if len(g)]
    in_pairs = (
        np.concatenate(keep, axis=0) if keep else np.empty((0, 2), dtype=INDEX_DTYPE)
    )
    # neighbor table: for each owned vertex, out-neighbors + in-neighbors.
    all_src = np.concatenate([pairs_out[:, 0], in_pairs[:, 1]]) - chunk.lo
    all_dst = np.concatenate([pairs_out[:, 1], in_pairs[:, 0]])
    order = np.argsort(all_src, kind="stable")
    all_src, all_dst = all_src[order], all_dst[order]
    nbr_off = np.zeros(n_local + 1, dtype=INDEX_DTYPE)
    np.cumsum(np.bincount(all_src, minlength=n_local), out=nbr_off[1:])
    ctx.charge("csr_build", len(all_dst))

    alive = np.ones(n_local, dtype=bool)
    deg = degree.copy()
    while True:
        drop = np.nonzero(alive & (deg < 2))[0]
        any_drop = comm.allreduce(int(len(drop)), SUM)
        if any_drop == 0:
            break
        alive[drop] = False
        # Tell every neighbor's owner to decrement.
        if len(drop):
            gather = multirange(nbr_off[drop], nbr_off[drop + 1] - nbr_off[drop])
            notified = all_dst[gather]
        else:
            notified = np.empty(0, dtype=INDEX_DTYPE)
        per_owner_n = split_by_owner(
            chunk.owner_of(notified), notified, comm.size
        )
        got_n = comm.alltoall(per_owner_n)
        for arr in got_n:
            if len(arr):
                deg -= np.bincount(
                    np.asarray(arr, dtype=INDEX_DTYPE) - chunk.lo,
                    minlength=n_local,
                ).astype(INDEX_DTYPE)
        ctx.charge("scan", n_local + len(notified))
    return alive


def _havoq_rank_program(ctx: RankContext, chunks: list[OneDChunk]) -> dict[str, Any]:
    comm = ctx.comm
    chunk = chunks[ctx.rank]
    csr = chunk.csr

    with ctx.phase("2core"):
        alive = _peel_two_core(ctx, chunk)
        comm.barrier()

    with ctx.phase("wedge"):
        # Directed wedges: for each live vertex v, every ordered pair
        # (a, b), a < b, of live out-neighbors.  The wedge closes iff edge
        # (a, b) exists; the owner of a checks that locally.
        lens = csr.row_lengths()
        wedge_count = 0
        q_first: list[np.ndarray] = []
        q_second: list[np.ndarray] = []
        for v_local in np.nonzero(alive & (lens >= 2))[0].tolist():
            row = csr.row(v_local)
            k = len(row)
            # Pairs (row[a], row[b]) with a < b; row is sorted so the
            # first element is the smaller (query) endpoint.
            ia, ib = np.triu_indices(k, k=1)
            q_first.append(row[ia])
            q_second.append(row[ib])
            wedge_count += len(ia)
        firsts = (
            np.concatenate(q_first) if q_first else np.empty(0, INDEX_DTYPE)
        )
        seconds = (
            np.concatenate(q_second) if q_second else np.empty(0, INDEX_DTYPE)
        )
        ctx.charge("wedge_gen", wedge_count)

        owners = chunk.owner_of(firsts)
        queries = np.stack([firsts, seconds], axis=1) if len(firsts) else np.empty(
            (0, 2), dtype=INDEX_DTYPE
        )
        per_owner = split_by_owner(owners, queries, comm.size)
        got = comm.alltoall(per_owner)
        # Encode the local edge set as sorted a*n+b keys so closure checks
        # are one vectorized searchsorted per query batch.
        n = chunk.n
        src_enc = (
            np.repeat(np.arange(csr.n_rows, dtype=INDEX_DTYPE) + chunk.lo, lens)
            * n
            + csr.indices
        )
        src_enc.sort()
        ctx.charge("sort", csr.nnz)
        local_closed = 0
        checks = 0
        for arr in got:
            if not len(arr) or not len(src_enc):
                continue
            arr = np.asarray(arr, dtype=INDEX_DTYPE)
            enc = arr[:, 0] * n + arr[:, 1]
            pos = np.searchsorted(src_enc, enc)
            found = (pos < len(src_enc)) & (
                src_enc[np.minimum(pos, len(src_enc) - 1)] == enc
            )
            local_closed += int(np.count_nonzero(found))
            checks += len(arr)
        ctx.charge("edge_check", checks)
        total = comm.allreduce(local_closed, SUM)

    return {
        "total": int(total),
        "local": int(local_closed),
        "wedges": wedge_count,
        "checks": checks,
    }


def count_triangles_havoq(
    graph: Graph,
    p: int,
    model: MachineModel | None = None,
    dataset: str = "",
) -> TriangleCountResult:
    """Run the HavoqGT-style wedge-checking baseline on ``p`` ranks.

    The result maps the paper's Table 5 columns onto the record:
    ``ppt_time`` = 2-core time, ``tct_time`` = directed wedge counting
    time.
    """
    return run_1d(
        _havoq_rank_program, graph, p, model, dataset, algorithm="havoq",
        phases=("2core", "wedge"),
        extras=lambda rets: {"wedges_total": sum(r["wedges"] for r in rets)},
    )
