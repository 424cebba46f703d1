"""Row-wise intersection kernel — the reference backend (``"row"``).

This is the direct transcription of the paper's per-row loop: walk the
task rows, build one hash map per row from the U fragment (reused across
every task in the row — the map-reuse benefit that makes jik the winning
scheme), and probe it with the L column fragments.  It is kept as the
semantic reference that the vectorized backends must match bit-for-bit on
:class:`~repro.core.kernels.common.KernelStats` — only wall time may
differ.

Section 5.2 optimizations, all toggleable via :class:`TC2DConfig`:

* doubly-sparse traversal — iterate only non-empty task rows;
* modified hashing — direct-bitmask fast path in
  :class:`~repro.hashing.hashmap.BlockHashMap`;
* early stop — probe candidates below ``min(U_j)`` cannot match (both
  fragments are sorted), so they are cut before probing; in the scalar
  formulation this is the paper's backward traversal that breaks out of
  the loop at the first id below the hashed fragment's minimum.
"""

from __future__ import annotations

import numpy as np

from repro.core.arrayutil import multirange
from repro.core.blocks import Block
from repro.core.config import TC2DConfig
from repro.core.kernels.common import KernelStats, kernel_capacity, require_aligned
from repro.graph.csr import INDEX_DTYPE
from repro.hashing import BlockHashMap


def count_block_pair_row(
    task_block: Block,
    u_block: Block,
    l_block: Block,
    cfg: TC2DConfig,
    hits_out: list | None = None,
) -> KernelStats:
    """Count the triangles closed by one (task, U, L) block triple,
    visiting the task rows one at a time.

    With ``hits_out`` (a list) every hit is also appended as a local
    ``(j, i, k)`` triple — task edge ``(j, i)``, closing vertex ``k`` —
    one ``(t, 3)`` array per row, in row-major task order."""
    tasks = task_block.dcsr
    U = u_block.dcsr
    L = l_block.dcsr
    require_aligned(u_block, l_block)

    stats = KernelStats()
    stats.row_visits = tasks.row_visit_cost(cfg.doubly_sparse)

    l_indptr = L.indptr
    l_indices = L.indices
    t_indptr = tasks.indptr
    t_indices = tasks.indices

    hm = BlockHashMap(kernel_capacity(cfg, U))

    total = 0
    row_iter = tasks.nonempty_rows if cfg.doubly_sparse else range(tasks.n_rows)
    for j in row_iter:
        j = int(j)
        t_lo, t_hi = int(t_indptr[j]), int(t_indptr[j + 1])
        if t_lo == t_hi:
            continue
        urow = U.row(j)
        if len(urow) == 0:
            # No U fragment for this row at this shift: every task here is
            # skipped before any map work (part of what the doubly-sparse
            # design eliminates cheaply).
            continue
        tcols = t_indices[t_lo:t_hi]
        starts = l_indptr[tcols]
        lens = l_indptr[tcols + 1] - starts
        ntasks = int(np.count_nonzero(lens))
        if ntasks == 0:
            continue
        stats.tasks += ntasks

        gather = multirange(starts, lens)
        vals = l_indices[gather]
        if cfg.early_stop:
            keep = vals >= urow[0]
            window = vals[keep]
            stats.probes_skipped += len(vals) - len(window)
        else:
            keep = None
            window = vals
        ins0 = hm.stats.insert_steps
        fast = hm.build(urow, allow_fast=cfg.modified_hashing)
        stats.hash_builds += 1
        stats.hash_fast_builds += int(fast)
        ins_delta = hm.stats.insert_steps - ins0
        if fast:
            stats.insert_steps_fast += ins_delta
        else:
            stats.insert_steps_slow += ins_delta

        if len(window) == 0:
            continue
        if hits_out is not None:
            lk0 = hm.stats.lookup_steps
            mask = hm.hit_mask(window)
            hits = int(np.count_nonzero(mask))
            steps = hm.stats.lookup_steps - lk0
            if hits:
                probe_task = np.repeat(tcols, lens)
                if keep is not None:
                    probe_task = probe_task[keep]
                hits_out.append(np.stack(
                    [np.full(hits, j, dtype=INDEX_DTYPE), probe_task[mask],
                     window[mask]],
                    axis=1,
                ))
        else:
            hits, steps = hm.lookup_many(window)
        if fast:
            stats.probe_steps_fast += steps
        else:
            stats.probe_steps_slow += steps
        total += hits

    stats.triangles = total
    return stats
