"""Batched intersection kernel — the vectorized backend (``"batch"``).

Instead of visiting task rows in a Python loop (one hash build and a
handful of numpy calls per row, as the ``"row"`` reference does), this
backend concatenates *all* U fragments and *all* L probe windows of a
block pair up front and resolves them with a constant number of bulk
numpy operations: one ``multirange`` gather for the tasks, one for the
probes, one vectorized early-stop cut, one duplicate-slot scan to
classify every row's build as fast or probed, and one ``searchsorted``
membership test for every probe that lands in a fast (collision-free)
row.

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
  :class:`~repro.hashing.hashmap.BlockHashMap` builds with.  Row
  generations are independent (the map invalidates by generation
  stamp), so every row starts from an empty table in both backends.

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
from repro.hashing.hashmap import (
    colliding_rows,
    fib_hash,
    fib_shift,
    probed_layouts,
    table_capacity,
)


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
    fast: np.ndarray  # bool per live row: collision-free build?
    capacity: int  # hash-table size (power of two) of every row's build


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

    # Concatenated U fragments of the live rows and the fast/slow split.
    u_gather = multirange(u_indptr[rows], u_lens)
    ukeys = u_indices[u_gather]
    capacity = table_capacity(kernel_capacity(U))
    if cfg.modified_hashing:
        # A row builds fast iff its keys' table slots are pairwise
        # distinct — the same test BlockHashMap.build applies.
        u_row = np.repeat(np.arange(len(rows), dtype=INDEX_DTYPE), u_lens)
        fast = ~colliding_rows(u_row, ukeys & (capacity - 1), capacity, len(rows))
    else:
        fast = np.zeros(len(rows), dtype=bool)

    return _BatchPlan(
        rows=rows, t_lens=t_lens, u_lens=u_lens, tcols=tcols, llens=llens,
        w_lens=w_lens,
        probes_skipped=probes_skipped, window_vals=window_vals,
        window_row=window_row, ukeys=ukeys, fast=fast, capacity=capacity,
    )


#: Upper bound on the dense id->slot scratch used for slow-row lookups
#: (``n_slow_rows * id_range`` entries); beyond it the batched backend
#: falls back to a row-encoded ``searchsorted`` membership test.
_DENSE_SLOT_LIMIT = 1 << 22


def _hit_mask(plan: _BatchPlan, u_block: Block, l_block: Block,
              stats: KernelStats) -> np.ndarray:
    """Boolean hit mask over the surviving probes, plus step accounting.

    Fast (direct-mask) rows' tables are laid side by side in one flat
    ``(n_rows x capacity)`` arena so fast probes resolve with a single
    gather-and-compare.  Slow rows get their layouts from one bulk
    :func:`probed_layouts` call, then resolve their probes with the
    closed-form linear-probing walk length (see below) — no per-row or
    per-query loop runs here at all.
    """
    hit = np.zeros(len(plan.window_vals), dtype=bool)
    fast_probe = plan.fast[plan.window_row]

    cap = plan.capacity
    mask = cap - 1
    nlive = len(plan.rows)
    u_row = np.repeat(np.arange(nlive, dtype=INDEX_DTYPE), plan.u_lens)
    fast_key = plan.fast[u_row]

    fp = np.nonzero(fast_probe)[0]
    stats.probe_steps_fast += fp.size
    if fp.size:
        arena = np.full(nlive * cap, -1, dtype=np.int64)
        fk = np.nonzero(fast_key)[0]
        arena[u_row[fk] * cap + (plan.ukeys[fk] & mask)] = plan.ukeys[fk]
        qf = plan.window_vals[fp]
        hit[fp] = arena[plan.window_row[fp] * cap + (qf & mask)] == qf

    slow_idx = np.nonzero(~plan.fast)[0]
    if slow_idx.size == 0:
        return hit
    nslow = slow_idx.size

    # Every slow row's insert walk in one call: each slow key's table
    # slot and insert steps, aligned with ``skeys``.
    sl = np.nonzero(~fast_key)[0]
    skeys = plan.ukeys[sl]
    shift = fib_shift(cap)
    key_slot, key_steps = probed_layouts(skeys, u_row[sl], cap, shift)
    stats.insert_steps_slow += int(key_steps.sum())

    sp = np.nonzero(~fast_probe)[0]
    if sp.size == 0:
        return hit

    srow_of_live = np.empty(nlive, dtype=INDEX_DTYPE)  # live -> compact slow
    srow_of_live[slow_idx] = np.arange(nslow, dtype=INDEX_DTYPE)
    skey_row = srow_of_live[u_row[sl]]

    queries = plan.window_vals[sp]
    srow = srow_of_live[plan.window_row[sp]]
    fibs = fib_hash(queries, shift)

    # Membership + matched key's table slot: a dense per-slow-row
    # id -> slot scratch when the id range is small enough (one scatter,
    # one gather; its element type only has to hold -1 and a slot, which
    # is int16 up to capacity 32768), else a row-encoded searchsorted.
    ncols = max(int(u_block.dcsr.csr.n_cols), int(l_block.dcsr.csr.n_cols), 1)
    if nslow * ncols <= _DENSE_SLOT_LIMIT:
        slot_of_id = np.full(nslow * ncols, -1, dtype=np.min_scalar_type(-cap))
        slot_of_id[skey_row * ncols + skeys] = key_slot
        qslot = slot_of_id[srow * ncols + queries]
        is_hit = qslot >= 0
    else:
        enc_su = skey_row * ncols + skeys
        enc_q = srow * ncols + queries
        kpos = np.minimum(np.searchsorted(enc_su, enc_q), len(enc_su) - 1)
        is_hit = enc_su[kpos] == enc_q
        qslot = key_slot[kpos]

    # Linear-probing lookups have a closed-form step count (the table is
    # never deleted from): a present key is found after walking from its
    # hash slot to its layout slot — every slot in between was occupied
    # when the key was inserted and stays occupied — and a missing key
    # walks to the first empty slot at/after its hash slot (cyclically; a
    # full table costs the capped capacity+1 rounds of the scalar loop).
    # ``next_empty[r, s]`` is row r's first empty slot at/after s (cap =
    # none), by a reversed running minimum over the slow-row tables.
    used = np.zeros((nslow, cap), dtype=bool)
    used[skey_row, key_slot] = True
    slot_or_cap = np.where(used, cap, np.arange(cap, dtype=np.int64)[None, :])
    next_empty = np.minimum.accumulate(slot_or_cap[:, ::-1], axis=1)[:, ::-1]
    ne = next_empty[srow, fibs]
    fe = next_empty[:, 0][srow]  # first empty of the row; cap = full
    miss_dist = np.where(
        ne < cap,
        ne - fibs,
        np.where(fe < cap, fe + cap - fibs, cap),
    )
    # (qslot - fibs) mod cap; bitwise AND is valid for the power-of-two
    # capacity even when the difference is negative (two's complement).
    hit_dist = (qslot - fibs) & mask
    steps = np.where(is_hit, hit_dist, miss_dist) + 1
    stats.probe_steps_slow += int(steps.sum())
    hit[sp] = is_hit
    return hit


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

    stats.tasks = int(np.count_nonzero(plan.llens))
    stats.probes_skipped = plan.probes_skipped
    stats.hash_builds = len(plan.rows)
    stats.hash_fast_builds = int(np.count_nonzero(plan.fast))
    stats.insert_steps_fast = int(plan.u_lens[plan.fast].sum())

    hit = _hit_mask(plan, u_block, l_block, stats)
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
