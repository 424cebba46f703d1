"""Batched intersection kernel — the vectorized backend (``"batch"``).

Instead of visiting task rows in a Python loop (one hash build and a
handful of numpy calls per row, as the ``"row"`` reference does), this
backend concatenates *all* U fragments and *all* L probe windows of a
block pair up front and resolves them with a constant number of bulk
numpy operations: one ``multirange`` gather for the tasks, one for the
probes, one vectorized early-stop cut, and one
:func:`~repro.hashing.hashmap.build_and_lookup` call — the bulk form of
a per-row ``BlockHashMap`` build + lookup loop, which the 1D competitors
count with too — for every build and probe of the pair.

The contract with the reference backend is exact: the logical
:class:`~repro.core.kernels.common.KernelStats` counters — and therefore
the simulated virtual time — are bit-identical to ``"row"``; only wall
time changes.  Two facts make that possible:

* a *fast* (direct-mask) build inserts in ``n`` steps and probes in one
  step per query, and its hit set is exactly set membership in the
  fragment — so fast rows need no hash map at all, just the vectorized
  membership test and closed-form step counts;
* a *probed* build's step count depends on the collision sequence, so
  the rows classified slow (duplicate ``key & mask`` slots, or modified
  hashing disabled) are laid out — all of them in one call — by
  :func:`~repro.hashing.hashmap.probed_layouts`, the very walk
  :class:`~repro.hashing.hashmap.BlockHashMap` builds with, and their
  probes are charged the closed-form linear-probing walk length.

With the paper's modified hashing enabled, fast rows dominate after 2D
decomposition (fragments are ~1/sqrt(p) of an adjacency list), which is
exactly when this backend pays off.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.arrayutil import multirange, segment_lengths_to_offsets, segment_sums
from repro.core.blocks import Block
from repro.core.config import TC2DConfig
from repro.core.kernels.common import KernelStats, kernel_capacity, require_aligned
from repro.graph.csr import INDEX_DTYPE
from repro.hashing.hashmap import build_and_lookup


@dataclass
class _BatchPlan:
    """Vectorized description of every live row of one block pair.

    A row is *live* when it has tasks, a non-empty U fragment, and at
    least one task with a non-empty L column — exactly the rows on which
    the reference backend performs a hash build.
    """

    rows: np.ndarray  # live local row ids, ascending
    t_lens: np.ndarray  # tasks per live row
    u_lens: np.ndarray  # U fragment length per live row
    tcols: np.ndarray  # task column id per task
    llens: np.ndarray  # L column length per task (before the cut)
    w_lens: np.ndarray  # surviving window length per task
    probes_skipped: int  # probes removed by the early-stop cut
    window_vals: np.ndarray  # surviving probe candidate ids
    window_row: np.ndarray  # live-row index per surviving probe
    ukeys: np.ndarray  # concatenated U fragments of live rows


def _build_plan(task_block: Block, u_block: Block, l_block: Block,
                cfg: TC2DConfig) -> _BatchPlan | None:
    tasks = task_block.dcsr
    U = u_block.dcsr
    L = l_block.dcsr
    t_indptr, t_indices = tasks.indptr, tasks.indices
    u_indptr, u_indices = U.indptr, U.indices
    l_indptr, l_indices = L.indptr, L.indices

    # Candidate rows: non-empty task rows with a non-empty U fragment.
    # (With doubly-sparse off the reference walks every row, but the
    # extra visits only touch the row_visits counter, which is computed
    # in closed form — the active set is identical.)
    rows = np.asarray(tasks.nonempty_rows, dtype=INDEX_DTYPE)
    if len(rows) == 0:
        return None
    t_lens = t_indptr[rows + 1] - t_indptr[rows]
    u_lens = u_indptr[rows + 1] - u_indptr[rows]
    sel = u_lens > 0
    if not sel.any():
        return None
    if not sel.all():
        rows, t_lens, u_lens = rows[sel], t_lens[sel], u_lens[sel]

    # All tasks of the candidate rows, row-major.
    tcols = t_indices[multirange(t_indptr[rows], t_lens)]
    llens = l_indptr[tcols + 1] - l_indptr[tcols]

    # Rows where every task has an empty L column never reach the hash
    # build in the reference; drop them before any build accounting.
    has_probes = segment_sums(
        (llens > 0).astype(np.int64), segment_lengths_to_offsets(t_lens)
    ) > 0
    if not has_probes.any():
        return None
    if not has_probes.all():
        keep_task = np.repeat(has_probes, t_lens)
        rows, t_lens, u_lens = (
            rows[has_probes], t_lens[has_probes], u_lens[has_probes],
        )
        tcols, llens = tcols[keep_task], llens[keep_task]
    task_row = np.repeat(np.arange(len(rows), dtype=INDEX_DTYPE), t_lens)

    if cfg.early_stop:
        # The surviving window of task (row r, column c) is the suffix of
        # L's column c at ids >= min(U_r) (both fragments are sorted), so
        # the cut position is one searchsorted into the column-encoded L
        # entries — the probes the cut would discard are never gathered.
        stride = np.int64(max(int(U.csr.n_cols), int(L.csr.n_cols), 1))
        l_col_lens = l_indptr[1:] - l_indptr[:-1]
        enc_l = (
            np.repeat(np.arange(L.csr.n_rows, dtype=INDEX_DTYPE), l_col_lens)
            * stride
            + l_indices
        )
        urow_min = u_indices[u_indptr[rows]]
        starts = np.searchsorted(enc_l, tcols * stride + urow_min[task_row])
        w_lens = l_indptr[tcols + 1] - starts
        probes_skipped = int(llens.sum() - w_lens.sum())
    else:
        starts = l_indptr[tcols]
        w_lens = llens
        probes_skipped = 0

    # Every surviving probe of every task, in one gather.
    window_gather = multirange(starts, w_lens)
    window_vals = l_indices[window_gather]
    window_row = np.repeat(task_row, w_lens)

    # Concatenated U fragments of the live rows.
    ukeys = u_indices[multirange(u_indptr[rows], u_lens)]

    return _BatchPlan(
        rows=rows, t_lens=t_lens, u_lens=u_lens, tcols=tcols, llens=llens,
        w_lens=w_lens,
        probes_skipped=probes_skipped, window_vals=window_vals,
        window_row=window_row, ukeys=ukeys,
    )


def count_block_pair_batch(
    task_block: Block,
    u_block: Block,
    l_block: Block,
    cfg: TC2DConfig,
    hits_out: list | None = None,
) -> KernelStats:
    """Count the triangles closed by one (task, U, L) block triple with
    bulk array operations instead of a per-row loop.

    With ``hits_out`` (a list) the hits are also appended as one ``(t, 3)``
    array of local ``(j, i, k)`` triples, in the row-major task order of
    the row-wise reference."""
    require_aligned(u_block, l_block)
    stats = KernelStats()
    stats.row_visits = task_block.dcsr.row_visit_cost(cfg.doubly_sparse)

    plan = _build_plan(task_block, u_block, l_block, cfg)
    if plan is None:
        return stats

    U = u_block.dcsr
    u_row = np.repeat(np.arange(len(plan.rows), dtype=INDEX_DTYPE), plan.u_lens)
    found = build_and_lookup(
        plan.ukeys, u_row, kernel_capacity(U),
        plan.window_vals, plan.window_row,
        max(int(U.csr.n_cols), int(l_block.dcsr.csr.n_cols), 1),
        cfg.modified_hashing,
    )
    hit = found.hit
    stats.tasks = int(np.count_nonzero(plan.llens))
    stats.probes_skipped = plan.probes_skipped
    stats.hash_builds = len(plan.rows)
    stats.hash_fast_builds = found.fast_builds
    stats.insert_steps_fast = found.insert_steps_fast
    stats.insert_steps_slow = found.insert_steps_slow
    stats.probe_steps_fast = found.probe_steps_fast
    stats.probe_steps_slow = found.probe_steps_slow
    stats.triangles = int(np.count_nonzero(hit))

    if hits_out is not None and stats.triangles:
        sel = np.nonzero(hit)[0]
        window_tcol = np.repeat(plan.tcols, plan.w_lens)
        hits_out.append(np.stack(
            [plan.rows[plan.window_row[sel]], window_tcol[sel],
             plan.window_vals[sel]],
            axis=1,
        ))
    return stats
