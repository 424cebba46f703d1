"""Distributed preprocessing invariants: redistribution, reordering,
U/L split and 2D block coverage."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.config import TC2DConfig
from repro.core.grid import ProcessorGrid
from repro.core.preprocess import (
    InputChunk,
    _label_order,
    chunk_bounds,
    cyclic_bounds,
    degree_reorder,
    initial_redistribution,
    partition_1d,
    preprocess,
    translate_labels,
)
from repro.graph import Graph
from repro.simmpi import Engine
from repro.simmpi.engine import RankFailedError


def test_chunk_bounds_balanced():
    b = chunk_bounds(10, 3)
    assert b.tolist() == [0, 4, 7, 10]
    b = chunk_bounds(9, 3)
    assert b.tolist() == [0, 3, 6, 9]


def test_cyclic_bounds_partition():
    b = cyclic_bounds(10, 4)
    # residues 0,1 have 3 vertices; 2,3 have 2.
    assert b.tolist() == [0, 3, 6, 8, 10]


def test_partition_1d_covers_graph(er_graph):
    chunks = partition_1d(er_graph, 4)
    assert sum(c.csr.n_rows for c in chunks) == er_graph.n
    assert sum(c.csr.nnz for c in chunks) == er_graph.adj.nnz
    # Row i of chunk r is the adjacency of vertex start+i.
    for c in chunks:
        for i in range(0, c.csr.n_rows, 37):
            assert np.array_equal(c.csr.row(i), er_graph.neighbors(c.start + i))


def _run_initial(graph: Graph, p: int):
    chunks = partition_1d(graph, p)

    def program(ctx):
        rows = initial_redistribution(ctx, chunks[ctx.rank])
        return (rows.lo, rows.hi, rows.csr.indptr.copy(), rows.csr.indices.copy())

    return Engine(p).run(program).returns


@pytest.mark.parametrize("p", [1, 2, 5])
def test_initial_cyclic_preserves_graph(er_graph, p):
    """The cyclic relabeling is a permutation: the redistributed graph is
    isomorphic to the original under lambda1."""
    rets = _run_initial(er_graph, p)
    n = er_graph.n
    offsets = cyclic_bounds(n, p)
    lam = np.empty(n, dtype=np.int64)
    v = np.arange(n)
    lam[v] = offsets[v % p] + v // p
    assert sorted(lam.tolist()) == list(range(n))  # permutation

    # Rebuild the full relabeled edge set from the per-rank rows.
    got_edges = set()
    for lo, hi, indptr, indices in rets:
        for i in range(hi - lo):
            for j in indices[indptr[i] : indptr[i + 1]].tolist():
                got_edges.add((lo + i, j))
    want_edges = set()
    rows, cols = er_graph.adj.to_coo()
    for r, c in zip(rows.tolist(), cols.tolist()):
        want_edges.add((int(lam[r]), int(lam[c])))
    assert got_edges == want_edges


@pytest.mark.parametrize(
    "labels",
    [
        [10, 11, 13],  # row 12 dropped
        [10, 11, 11, 13],  # row 12 lost, row 11 duplicated
        [10, 11, 12, 14],  # 14 is outside [10, 14)
        [9, 10, 11, 12],  # 9 is outside [10, 14)
    ],
    ids=["dropped", "duplicated", "past-the-end", "below-lo"],
)
def test_redistribution_check_rejects_bad_rows(labels):
    with pytest.raises(AssertionError, match="lost or duplicated rows"):
        _label_order(np.array(labels, dtype=np.int64), 10, 14)


def test_redistribution_check_accepts_a_permutation():
    order = _label_order(np.array([12, 10, 13, 11], dtype=np.int64), 10, 14)
    assert order.tolist() == [1, 3, 0, 2]


def test_overlapping_input_chunks_fail_the_redistribution(er_graph):
    """Two ranks both shipping vertex 0's row is caught on arrival."""
    chunks = partition_1d(er_graph, 2)
    dup = InputChunk(start=0, n=er_graph.n, csr=chunks[0].csr)

    def program(ctx):
        return initial_redistribution(ctx, [chunks[0], dup][ctx.rank])

    with pytest.raises(RankFailedError) as err:
        Engine(2).run(program)
    assert "lost or duplicated rows" in str(err.value.__cause__)


@pytest.mark.parametrize("p", [1, 3, 4])
def test_degree_reorder_sorts_by_degree(er_graph, p):
    chunks = partition_1d(er_graph, p)

    def program(ctx):
        rows = initial_redistribution(ctx, chunks[ctx.rank])
        offsets = cyclic_bounds(er_graph.n, ctx.comm.size)
        rows2, labels = degree_reorder(ctx, rows, offsets, er_graph.n)
        return (labels.copy(), rows.degrees.copy())

    rets = Engine(p).run(program).returns
    # Collect (new_label, degree) over all vertices.
    pairs = []
    for labels, degs in rets:
        pairs.extend(zip(labels.tolist(), degs.tolist()))
    pairs.sort()
    new_labels = [l for l, _ in pairs]
    assert new_labels == list(range(er_graph.n))  # a permutation
    degseq = [d for _, d in pairs]
    assert degseq == sorted(degseq)  # non-decreasing degree order


def test_degree_reorder_entries_translated(tiny_graph):
    """Adjacency entries end up in the new label space: the edge set is
    preserved under the relabeling."""
    p = 2
    chunks = partition_1d(tiny_graph, p)

    def program(ctx):
        rows = initial_redistribution(ctx, chunks[ctx.rank])
        offsets = cyclic_bounds(tiny_graph.n, p)
        rows2, labels = degree_reorder(ctx, rows, offsets, tiny_graph.n)
        out = []
        for i in range(rows2.csr.n_rows):
            for j in rows2.csr.row(i).tolist():
                out.append((int(labels[i]), j))
        return out

    rets = Engine(p).run(program).returns
    got = {e for part in rets for e in part}
    # Degrees sorted: the relabeled graph must have the same degree
    # multiset and be symmetric.
    assert len(got) == tiny_graph.adj.nnz
    assert all((b, a) in got for a, b in got)


def test_translate_labels_roundtrip():
    p = 3
    n = 12

    def program(ctx):
        offsets = chunk_bounds(n, p)
        lo, hi = int(offsets[ctx.rank]), int(offsets[ctx.rank + 1])
        my_values = np.arange(lo, hi, dtype=np.int64) * 10
        queries = np.array([0, 5, 11, 5, 3], dtype=np.int64)
        return translate_labels(ctx, queries, offsets, my_values).tolist()

    rets = Engine(p).run(program).returns
    assert all(r == [0, 50, 110, 50, 30] for r in rets)


@pytest.mark.parametrize("enumeration", ["jik", "ijk"])
@pytest.mark.parametrize("p", [1, 4, 9])
def test_preprocess_block_coverage(er_graph, p, enumeration):
    """Across all ranks the U blocks hold every upper edge exactly once,
    the L blocks every lower edge, and tasks mirror the chosen side."""
    chunks = partition_1d(er_graph, p)
    cfg = TC2DConfig(enumeration=enumeration)
    grid = ProcessorGrid.for_ranks(p)

    def program(ctx):
        u, l, t = preprocess(ctx, chunks[ctx.rank], grid, cfg)
        return (u.nnz, l.nnz, t.nnz, u.fixed_residue, l.fixed_residue)

    rets = Engine(p).run(program).returns
    m = er_graph.num_edges
    assert sum(r[0] for r in rets) == m
    assert sum(r[1] for r in rets) == m
    assert sum(r[2] for r in rets) == m
    for rank, (unnz, lnnz, tnnz, ufix, lfix) in enumerate(rets):
        x, y = grid.coords(rank)
        assert ufix == x
        assert lfix == y
