"""Shared plumbing for the 1D distributed baselines.

All competitors in Section 4 operate on a 1D vertex partition of the
degree-ordered oriented graph (DODG): vertex ``v``'s out-neighbors are its
neighbors that come later in the non-decreasing-degree order.  The driver
prepares that structure once and slices it into contiguous chunks; chunk
boundaries can balance vertices (naive) or out-edges (the load-balanced
partitioning Arifuzzaman et al. emphasize).  :func:`run_1d` is every
driver's tail: partition, run, check, report.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from repro.core.arrayutil import multirange, segment_lengths_to_offsets
from repro.core.counts import TriangleCountResult
from repro.graph.csr import CSR, INDEX_DTYPE, Graph
from repro.hashing import build_and_lookup
from repro.simmpi import Engine, MachineModel


@dataclass(frozen=True)
class OneDChunk:
    """One rank's contiguous slice of the degree-ordered DODG.

    Attributes
    ----------
    lo, hi:
        Global (degree-ordered) vertex range owned by this rank.
    csr:
        Out-neighbor rows for vertices ``lo..hi-1`` (global ids).
    bounds:
        Global partition offsets (length p+1) for owner lookups.
    n:
        Total vertex count.
    """

    lo: int
    hi: int
    csr: CSR
    bounds: np.ndarray
    n: int

    def owner_of(self, labels: np.ndarray) -> np.ndarray:
        """Owning rank of each global vertex id."""
        return (
            np.searchsorted(self.bounds, labels, side="right").astype(INDEX_DTYPE)
            - 1
        )


def partition_dodg(
    graph: Graph, p: int, balance: str = "vertices"
) -> list[OneDChunk]:
    """Build the DODG and slice it into ``p`` contiguous chunks.

    ``balance="vertices"`` gives equal vertex counts; ``balance="edges"``
    picks boundaries so each chunk holds roughly the same number of
    out-edges (the partitioning that keeps AOP's local work even).
    """
    U = graph.degree_order_upper()
    n = graph.n
    if balance == "vertices":
        base, extra = divmod(n, p)
        sizes = np.full(p, base, dtype=INDEX_DTYPE)
        sizes[:extra] += 1
        bounds = segment_lengths_to_offsets(sizes)
    elif balance == "edges":
        target = np.linspace(0, U.nnz, p + 1)
        bounds = np.searchsorted(U.indptr, target, side="left").astype(INDEX_DTYPE)
        bounds[0], bounds[-1] = 0, n
        # Boundaries must be non-decreasing even for skewed prefixes.
        np.maximum.accumulate(bounds, out=bounds)
    else:
        raise ValueError(f"unknown balance mode {balance!r}")

    chunks = []
    for r in range(p):
        lo, hi = int(bounds[r]), int(bounds[r + 1])
        indptr = U.indptr[lo : hi + 1] - U.indptr[lo]
        indices = U.indices[U.indptr[lo] : U.indptr[hi]].copy()
        chunks.append(
            OneDChunk(
                lo=lo,
                hi=hi,
                csr=CSR(hi - lo, indptr.copy(), indices, n_cols=n),
                bounds=bounds,
                n=n,
            )
        )
    return chunks


def rows_payload(csr: CSR, local_ids: np.ndarray, base: int) -> tuple:
    """Pack selected rows as ``(global_ids, lengths, concatenated entries)``
    for shipping (ghost exchange / push)."""
    local_ids = np.asarray(local_ids, dtype=INDEX_DTYPE)
    starts = csr.indptr[local_ids]
    lens = csr.indptr[local_ids + 1] - starts
    gather = multirange(starts, lens)
    entries = csr.indices[gather] if len(gather) else csr.indices[:0]
    return (local_ids + base, lens, entries)


def assemble_row_table(
    payloads: list[tuple],
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Merge row payloads into a lookup table ``(ids, indptr, entries)``
    with ids sorted ascending (duplicate ids collapse to the first copy)."""
    ids_parts = [np.asarray(pl[0], dtype=INDEX_DTYPE) for pl in payloads]
    lens_parts = [np.asarray(pl[1], dtype=INDEX_DTYPE) for pl in payloads]
    ent_parts = [np.asarray(pl[2], dtype=INDEX_DTYPE) for pl in payloads]
    ids = np.concatenate(ids_parts) if ids_parts else np.empty(0, INDEX_DTYPE)
    lens = np.concatenate(lens_parts) if lens_parts else np.empty(0, INDEX_DTYPE)
    ents = np.concatenate(ent_parts) if ent_parts else np.empty(0, INDEX_DTYPE)
    if len(ids) == 0:
        return ids, np.zeros(1, dtype=INDEX_DTYPE), ents
    order = np.argsort(ids, kind="stable")
    starts = segment_lengths_to_offsets(lens)[:-1]
    keep_rows = np.empty(len(ids), dtype=bool)
    sorted_ids = ids[order]
    keep_rows[0] = True
    keep_rows[1:] = sorted_ids[1:] != sorted_ids[:-1]
    sel = order[keep_rows]
    sel_ids = ids[sel]
    sel_lens = lens[sel]
    gather = multirange(starts[sel], sel_lens)
    sel_ents = ents[gather] if len(gather) else ents[:0]
    return sel_ids, segment_lengths_to_offsets(sel_lens), sel_ents


def intersect_rows(
    csr: CSR,
    hashed: np.ndarray,
    indptr: np.ndarray,
    entries: np.ndarray,
    probed: np.ndarray,
    capacity: int,
    n: int,
) -> tuple[int, int, int, int]:
    """Count a batch of tasks: task ``t`` hashes owned row ``hashed[t]`` of
    ``csr`` (a local id) into a map of ``capacity`` slots and probes it
    with row ``probed[t]`` of the table ``(indptr, entries)``.

    One ``BlockHashMap.build`` per distinct non-empty hashed row and one
    ``lookup_many`` per task whose two rows are non-empty, in one bulk
    call.  Returns ``(hits, tasks, insert steps, probe steps)``, tasks
    counting only those non-empty pairs; every id is below ``n``.
    """
    live = csr.indptr[hashed + 1] > csr.indptr[hashed]
    built, task_row = np.unique(hashed[live], return_inverse=True)
    starts = indptr[probed[live]]
    lens = indptr[probed[live] + 1] - starts
    row_lens = csr.indptr[built + 1] - csr.indptr[built]
    found = build_and_lookup(
        csr.indices[multirange(csr.indptr[built], row_lens)],
        np.repeat(np.arange(len(built), dtype=INDEX_DTYPE), row_lens),
        capacity,
        entries[multirange(starts, lens)],
        np.repeat(task_row, lens),
        n,
        allow_fast=True,
    )
    return (
        int(np.count_nonzero(found.hit)),
        int(np.count_nonzero(lens)),
        found.insert_steps_fast + found.insert_steps_slow,
        found.probe_steps_fast + found.probe_steps_slow,
    )


def run_1d(
    program: Callable[..., dict[str, Any]],
    graph: Graph,
    p: int,
    model: MachineModel | None,
    dataset: str,
    *,
    algorithm: str,
    balance: str = "edges",
    phases: tuple[str, str] = ("ppt", "tct"),
    extras: Callable[[list[dict[str, Any]]], dict[str, Any]] = lambda rets: {},
) -> TriangleCountResult:
    """Run a 1D rank ``program`` on ``p`` ranks over ``graph``'s DODG
    chunks and report it: the two ``phases`` become the record's ppt and
    tct columns, ``extras(returns)`` and the makespan its extras.  Each
    rank returns its ``"local"`` count and the reduced ``"total"``."""
    chunks = partition_dodg(graph, p, balance=balance)
    run = Engine(p, model=model).run(program, chunks)
    rets = run.returns
    count = rets[0]["total"]
    if sum(r["local"] for r in rets) != count:
        raise AssertionError(f"{algorithm} local counts do not sum to the total")
    first, second = phases
    result = TriangleCountResult(
        count=count,
        p=p,
        dataset=dataset,
        algorithm=algorithm,
        ppt_time=run.phase_time(first),
        tct_time=run.phase_time(second),
        comm_fraction_ppt=run.phase_comm_fraction(first),
        comm_fraction_tct=run.phase_comm_fraction(second),
    )
    result.extras.update(extras(rets))
    result.extras["makespan"] = run.makespan
    return result
