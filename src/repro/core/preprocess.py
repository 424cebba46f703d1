"""Distributed preprocessing (Section 5.3 of the paper).

Starting from a 1D block distribution of the raw graph, each rank:

1. **initial cyclic redistribution** — vertex ``v`` moves to rank
   ``v % p`` and every id is relabeled with the closed-form permutation
   that makes the cyclic layout block-contiguous again; this breaks up
   localized clusters of dense vertices before any degree-dependent work;
2. **degree reordering** — a distributed counting sort relabels vertices
   in non-decreasing degree (max-degree allreduce, per-degree histogram
   allreduce + exclusive scan, stable local placement), then adjacency
   entries are translated by querying each entry's owner (the
   "communication step with all nodes" the paper charges to this phase);
3. **U/L split + 2D cyclic distribution** — each edge occurrence is
   classified as an upper- or lower-triangular entry by comparing endpoint
   positions (degrees) and shipped to the grid rank owning its cell
   ``(i % q, j % q)``; receivers assemble the travelling U/L blocks and the
   resident task block.

All heavy loops are vectorized; logical operation counts are charged to
the virtual clock per step so the modeled "ppt" time has the same
structure as the paper's cost analysis
(``p + m/p + n/p + log p + dmax + dmax log p``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.arrayutil import (
    dense_unique,
    multirange,
    owner_order,
    segment_lengths_to_offsets,
)
from repro.core.blocks import Block, build_block
from repro.core.config import TC2DConfig
from repro.core.grid import ProcessorGrid
from repro.graph.csr import CSR, INDEX_DTYPE, Graph
from repro.simmpi import MAX, SUM
from repro.simmpi.engine import RankContext


@dataclass(frozen=True)
class InputChunk:
    """One rank's slice of the initially 1D-block-distributed graph.

    Attributes
    ----------
    start:
        First global vertex id of the chunk.
    n:
        Total vertex count of the graph.
    csr:
        Adjacency rows for vertices ``start .. start + csr.n_rows - 1``
        with *global* column ids.
    """

    start: int
    n: int
    csr: CSR


def chunk_bounds(n: int, p: int) -> np.ndarray:
    """Offsets (length p+1) of the balanced contiguous 1D partition."""
    base, extra = divmod(n, p)
    sizes = np.full(p, base, dtype=INDEX_DTYPE)
    sizes[:extra] += 1
    return segment_lengths_to_offsets(sizes)


def partition_1d(graph: Graph, p: int) -> list[InputChunk]:
    """Driver-side split of a graph into the initial 1D block distribution."""
    bounds = chunk_bounds(graph.n, p)
    chunks = []
    for r in range(p):
        lo, hi = int(bounds[r]), int(bounds[r + 1])
        indptr = graph.adj.indptr[lo : hi + 1] - graph.adj.indptr[lo]
        indices = graph.adj.indices[
            graph.adj.indptr[lo] : graph.adj.indptr[hi]
        ].copy()
        chunks.append(
            InputChunk(start=lo, n=graph.n, csr=CSR(hi - lo, indptr.copy(), indices))
        )
    return chunks


def cyclic_bounds(n: int, p: int) -> np.ndarray:
    """Offsets of the block-contiguous layout after cyclic relabeling:
    rank r owns the (relabeled) images of ``{v : v % p == r}``, of which
    there are ``ceil((n - r) / p)`` (none once ``r >= n``)."""
    return segment_lengths_to_offsets((n - np.arange(p) + p - 1) // p)


@dataclass
class LocalRows:
    """A rank's working set between preprocessing steps: rows labeled in
    the current label space, stored contiguously for ``[lo, hi)``."""

    lo: int
    hi: int
    csr: CSR  # rows indexed by (label - lo), entries in current label space

    @property
    def labels(self) -> np.ndarray:
        """The contiguous vertex labels this rank owns: ``[lo, hi)``."""
        return np.arange(self.lo, self.hi, dtype=INDEX_DTYPE)

    @property
    def degrees(self) -> np.ndarray:
        """Degree of each owned vertex, in label order."""
        return self.csr.row_lengths()


# ---------------------------------------------------------------------------
# step 1: initial cyclic redistribution
# ---------------------------------------------------------------------------


def _cyclic_relabel(v: np.ndarray, n: int, p: int, offsets: np.ndarray) -> np.ndarray:
    """Closed-form permutation lambda1(v) = offsets[v % p] + v // p."""
    v = np.asarray(v, dtype=INDEX_DTYPE)
    return offsets[v % p] + v // p


def _label_order(labels: np.ndarray, lo: int, hi: int) -> np.ndarray:
    """The positions that put ``labels`` in ascending order, which must be
    exactly ``lo .. hi - 1`` once each (else ``AssertionError``): one range
    check plus an inverse-permutation scatter, where every slot left
    unfilled is a lost row and implies a duplicated one."""
    k = hi - lo
    if len(labels) != k or (k and (labels.min() < lo or labels.max() >= hi)):
        raise AssertionError("cyclic redistribution lost or duplicated rows")
    order = np.full(k, -1, dtype=INDEX_DTYPE)
    order[labels - lo] = np.arange(k, dtype=INDEX_DTYPE)
    if k and order.min() < 0:
        raise AssertionError("cyclic redistribution lost or duplicated rows")
    return order


def initial_redistribution(ctx: RankContext, chunk: InputChunk) -> LocalRows:
    """Step 1: move every vertex to rank ``v % p`` with relabeled ids."""
    comm = ctx.comm
    p = comm.size
    n = chunk.n
    offsets = cyclic_bounds(n, p)
    old_labels = chunk.start + np.arange(chunk.csr.n_rows, dtype=INDEX_DTYPE)
    owners = old_labels % p
    new_row_labels = _cyclic_relabel(old_labels, n, p, offsets)
    new_entries = _cyclic_relabel(chunk.csr.indices, n, p, offsets)
    lens = chunk.csr.row_lengths()
    ctx.charge("relabel", chunk.csr.nnz + chunk.csr.n_rows)

    # Group rows by destination: one send buffer per array plus counts.
    order, row_off = owner_order(owners, p)
    labels_sorted = np.take(new_row_labels, order)
    lens_sorted = np.take(lens, order)
    gather = multirange(np.take(chunk.csr.indptr, order), lens_sorted)
    entries_sorted = np.take(new_entries, gather)
    ent_off = segment_lengths_to_offsets(lens_sorted)
    rows_to = np.diff(row_off)
    (labels, rlens, ents), _ = comm.alltoallv(
        (labels_sorted, lens_sorted, entries_sorted),
        (rows_to, rows_to, np.diff(ent_off[row_off])),
    )
    lo, hi = int(offsets[comm.rank]), int(offsets[comm.rank + 1])
    # Assemble rows ordered by new label; entries stay per-row contiguous.
    order = _label_order(labels, lo, hi)
    lens_o = np.take(rlens, order)
    src_off = segment_lengths_to_offsets(rlens)
    gather = multirange(np.take(src_off, order), lens_o)
    ents_o = np.take(ents, gather)
    indptr = segment_lengths_to_offsets(lens_o)
    ctx.charge("csr_build", len(ents_o) + (hi - lo))
    return LocalRows(lo=lo, hi=hi, csr=CSR(hi - lo, indptr, ents_o, n_cols=n))


# ---------------------------------------------------------------------------
# step 2: degree reordering via distributed counting sort
# ---------------------------------------------------------------------------


def translate_labels(
    ctx: RankContext,
    entries: np.ndarray,
    offsets: np.ndarray,
    my_values: np.ndarray,
) -> np.ndarray:
    """Map each label in ``entries`` through a distributed table.

    ``my_values[k]`` is the mapped value of label ``offsets[rank] + k``;
    every rank calls this collectively.  One request all-to-all (unique
    labels only) plus one reply all-to-all.  The local work is linear:
    the unique labels come off a bitmap and the replies are answered
    through a dense label-indexed table, both built and dropped between
    collectives.
    """
    comm = ctx.comm
    n = int(offsets[-1])
    uniq = dense_unique(entries, n)
    # Ownership is by contiguous label ranges, so the sorted unique labels
    # split into per-owner requests at the range bounds.
    asked, asked_counts = comm.alltoallv(
        uniq, np.diff(np.searchsorted(uniq, offsets))
    )
    ctx.charge("scan", len(asked))
    # Replies go back in request order, so in rank order they re-align
    # with the sorted unique labels.
    replies = np.take(my_values, asked - int(offsets[comm.rank]))
    values, _ = comm.alltoallv(replies, asked_counts)
    ctx.charge("relabel", len(entries) + len(uniq))
    table = np.empty(n, dtype=values.dtype)
    table[uniq] = values
    return np.take(table, entries)


def counting_sort_placement(
    d: np.ndarray, global_start: np.ndarray, prior: np.ndarray
) -> np.ndarray:
    """Pure local step of the distributed counting sort: the new label of
    each owned vertex given its degree ``d[k]``, the global start offset
    of every degree bucket and the counts contributed by lower ranks.

    Deterministic: the stable argsort breaks ties by local position.
    """
    n_local = len(d)
    order = np.argsort(d, kind="stable")
    d_sorted = d[order]
    group_first = np.searchsorted(d_sorted, d_sorted, side="left")
    within = np.arange(n_local, dtype=INDEX_DTYPE) - group_first
    new_sorted = global_start[d_sorted] + prior[d_sorted] + within
    new_labels = np.empty(n_local, dtype=INDEX_DTYPE)
    new_labels[order] = new_sorted
    return new_labels


def degree_reorder(
    ctx: RankContext,
    rows: LocalRows,
    offsets: np.ndarray,
    n: int,
) -> tuple[LocalRows, np.ndarray]:
    """Step 2: relabel vertices in non-decreasing degree order.

    Returns the rows with relabeled row-ids *implicit* (the function
    returns ``(rows, new_row_labels)``; entries are already translated).
    Ties order by (owning rank, local stable position), which makes the
    permutation deterministic.
    """
    comm = ctx.comm
    d = rows.degrees.astype(INDEX_DTYPE)
    n_local = len(d)

    # Global max degree: one scan + allreduce (the paper's log p term).
    local_max = int(d.max()) if n_local else 0
    ctx.charge("scan", n_local)
    dmax = comm.allreduce(local_max, MAX)

    # Per-degree histogram; element-wise allreduce + exclusive scan give
    # each rank the global start of every degree bucket and the counts
    # contributed by lower ranks (the paper's dmax + dmax log p terms).
    hist = np.bincount(d, minlength=dmax + 1).astype(INDEX_DTYPE)
    ctx.charge("scan", n_local + dmax + 1)
    total_hist = comm.allreduce(hist, SUM)
    global_start = np.zeros(dmax + 1, dtype=INDEX_DTYPE)
    np.cumsum(total_hist[:-1], out=global_start[1:])
    prior = comm.exscan(hist, SUM)
    if prior is None:
        prior = np.zeros(dmax + 1, dtype=INDEX_DTYPE)
    ctx.charge("sort", dmax + 1)

    # Stable local placement within each degree bucket.
    new_labels = counting_sort_placement(d, global_start, prior)
    ctx.charge("sort", n_local)

    # Translate adjacency entries through the distributed old->new table.
    new_entries = translate_labels(ctx, rows.csr.indices, offsets, new_labels)
    relabeled = CSR(n_local, rows.csr.indptr.copy(), new_entries, n_cols=n)
    return LocalRows(lo=rows.lo, hi=rows.hi, csr=relabeled), new_labels


# ---------------------------------------------------------------------------
# step 3: U/L split + 2D cyclic distribution
# ---------------------------------------------------------------------------


def assemble_blocks(
    u_recv: np.ndarray,
    l_recv: np.ndarray,
    x: int,
    y: int,
    q: int,
    n_rows_local: int,
    n_cols_local: int,
    n_inner: int,
    enumeration: str,
) -> tuple[Block, Block, Block]:
    """Pure tail of step 3: build ``(u_block, l_block, task_block)`` from
    the received U/L coordinate pairs.

    All inputs are plain arrays and scalars (CSR builds with
    deterministic stable sorts), which is what lets the out-of-core
    pipeline (:mod:`repro.graph.external`) call it per rank and land on
    bit-identical blocks.
    """
    u_block = build_block(
        "U-row", x, y, n_rows_local, n_inner, u_recv[:, 0] // q, u_recv[:, 1] // q
    )
    # L stored column-major: outer = column (lower endpoint), inner = row.
    l_block = build_block(
        "L-col", y, x, n_cols_local, n_inner, l_recv[:, 1] // q, l_recv[:, 0] // q
    )
    if enumeration == "jik":
        task_src = l_recv  # tasks = non-zeros of L: (row j, col i)
    else:
        task_src = u_recv  # tasks = non-zeros of U: (row i, col j)
    task_block = build_block(
        "task",
        x,
        y,
        n_rows_local,
        n_cols_local,
        task_src[:, 0] // q,
        task_src[:, 1] // q,
    )
    return u_block, l_block, task_block


def exchange_pairs(comm, dest: np.ndarray, pairs: np.ndarray) -> np.ndarray:
    """All-to-all pair ``pairs[i]`` to rank ``dest[i]`` and return the
    pairs that arrive, in source-rank order (send order within a
    source)."""
    order, bounds = owner_order(dest, comm.size)
    got, _ = comm.alltoallv(np.take(pairs, order, axis=0), np.diff(bounds))
    return got


def ul_parts(
    row_rep: np.ndarray, cols: np.ndarray, upper: np.ndarray, q: int, p: int
) -> tuple[np.ndarray, np.ndarray]:
    """Local side of step 3's two exchanges: the ``(row, col)`` pairs
    grouped by owner, with ``2 * p`` counts — the U parts for ranks
    ``0 .. p-1`` then the L parts.

    One owner sort serves both halves: a U entry's owner id is the grid
    rank of its cell ``(i % q, j % q)``, an L entry's that rank plus ``p``;
    each part keeps edge order, so it equals what a split of the U (or L)
    entries alone would give.
    """
    dest = (row_rep % q) * q + cols % q
    dest += p * ~upper
    order, bounds = owner_order(dest, 2 * p)
    pairs = np.empty((len(order), 2), dtype=np.result_type(row_rep, cols))
    pairs[:, 0] = np.take(row_rep, order)
    pairs[:, 1] = np.take(cols, order)
    return pairs, np.diff(bounds)


def split_and_distribute(
    ctx: RankContext,
    rows: LocalRows,
    row_labels: np.ndarray,
    grid: ProcessorGrid,
    n: int,
    cfg: TC2DConfig,
) -> tuple[Block, Block, Block]:
    """Step 3: classify each edge occurrence as U or L and ship it to the
    grid rank owning its matrix cell; build the three local blocks.

    ``row_labels[k]`` is the degree-ordered label of local row ``k``;
    entries of ``rows.csr`` are already in the same label space, so an
    entry is upper-triangular exactly when its label exceeds its row's.
    """
    comm = ctx.comm
    p = comm.size
    q = grid.q
    row_rep = np.repeat(row_labels, rows.csr.row_lengths())
    cols = rows.csr.indices
    ctx.charge("scan", rows.csr.nnz)

    pairs, counts = ul_parts(row_rep, cols, cols > row_rep, q, p)
    n_upper = int(counts[:p].sum())
    u_recv, _ = comm.alltoallv(pairs[:n_upper], counts[:p])
    l_recv, _ = comm.alltoallv(pairs[n_upper:], counts[p:])
    x, y = grid.coords(comm.rank)

    n_rows_local = grid.local_count(x, n)
    n_cols_local = grid.local_count(y, n)
    n_inner = (n + q - 1) // q  # bound on any residue class's local extent

    u_block, l_block, task_block = assemble_blocks(
        u_recv, l_recv, x, y, q, n_rows_local, n_cols_local, n_inner,
        cfg.enumeration,
    )
    ctx.charge(
        "csr_build", u_block.nnz + l_block.nnz + task_block.nnz + n_rows_local
    )
    return u_block, l_block, task_block


# ---------------------------------------------------------------------------
# full preprocessing phase
# ---------------------------------------------------------------------------


def preprocess(
    ctx: RankContext, chunk: InputChunk, grid: ProcessorGrid, cfg: TC2DConfig
) -> tuple[Block, Block, Block]:
    """Run steps 1-3 and return ``(u_block, l_block, task_block)``."""
    blocks, _labels = preprocess_with_labels(ctx, chunk, grid, cfg)
    return blocks


def preprocess_with_labels(
    ctx: RankContext, chunk: InputChunk, grid: ProcessorGrid, cfg: TC2DConfig
) -> tuple[tuple[Block, Block, Block], tuple[int, np.ndarray]]:
    """Like :func:`preprocess`, additionally returning this rank's piece of
    the relabeling table: ``(lo, labels)`` where ``labels[k]`` is the final
    (degree-sorted) label of the lambda1-space vertex ``lo + k``.

    The triangle-enumeration driver gathers these pieces to translate
    emitted triples back into the caller's original vertex ids.
    """
    comm = ctx.comm
    n = chunk.n
    p = comm.size
    rows = initial_redistribution(ctx, chunk)
    rows, row_labels = degree_reorder(ctx, rows, cyclic_bounds(n, p), n)
    blocks = split_and_distribute(ctx, rows, row_labels, grid, n, cfg)
    return blocks, (rows.lo, row_labels)
