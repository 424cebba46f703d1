"""Compressed sparse row adjacency storage and the undirected Graph type.

The paper stores graphs in CSR before triangle counting (Section 5); all of
our algorithms operate on these structures.  Construction is fully
vectorized (sorting + bincount), so building a graph with a few hundred
thousand edges takes milliseconds.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, NamedTuple

import numpy as np

INDEX_DTYPE = np.int64

#: ``CSR.from_coo`` sorts the single key ``row * n_cols + col`` while
#: ``n_rows * n_cols`` stays below this (the key then fits int64 with
#: room to spare); larger shapes take the two-key ``lexsort``.
_SINGLE_KEY_LIMIT = 2**62


class CSR:
    """A compressed-sparse-row pattern matrix (no values, structure only).

    Parameters
    ----------
    n_rows:
        Number of rows.
    indptr:
        ``int64`` array of length ``n_rows + 1``; row ``i`` owns
        ``indices[indptr[i]:indptr[i+1]]``.
    indices:
        Column ids, concatenated row by row.  Rows are kept sorted
        ascending (the backward early-break optimization in
        :mod:`repro.core.kernels` relies on this, as the paper notes the
        initial sort is amortized over the intersections).
    n_cols:
        Number of columns; defaults to ``n_rows``.
    """

    __slots__ = ("n_rows", "n_cols", "indptr", "indices")

    def __init__(
        self,
        n_rows: int,
        indptr: np.ndarray,
        indices: np.ndarray,
        n_cols: int | None = None,
    ):
        if len(indptr) != n_rows + 1:
            raise ValueError(
                f"indptr has length {len(indptr)}, expected n_rows+1={n_rows + 1}"
            )
        if indptr[0] != 0 or indptr[-1] != len(indices):
            raise ValueError("indptr must start at 0 and end at len(indices)")
        self.n_rows = int(n_rows)
        self.n_cols = int(n_cols) if n_cols is not None else int(n_rows)
        self.indptr = np.ascontiguousarray(indptr, dtype=INDEX_DTYPE)
        self.indices = np.ascontiguousarray(indices, dtype=INDEX_DTYPE)

    # -- construction ------------------------------------------------------

    @classmethod
    def from_coo(
        cls,
        n_rows: int,
        rows: np.ndarray,
        cols: np.ndarray,
        n_cols: int | None = None,
        dedup: bool = False,
    ) -> "CSR":
        """Build a CSR from coordinate pairs, sorting each row ascending.

        With ``dedup``, duplicate (row, col) pairs collapse to one entry.
        """
        rows = np.asarray(rows, dtype=INDEX_DTYPE)
        cols = np.asarray(cols, dtype=INDEX_DTYPE)
        if rows.shape != cols.shape:
            raise ValueError("rows and cols must have the same shape")
        if len(rows) and (rows.min() < 0 or rows.max() >= n_rows):
            raise ValueError("row index out of range")
        ncol = int(n_cols) if n_cols is not None else int(n_rows)
        if len(cols) and (cols.min() < 0 or cols.max() >= ncol):
            raise ValueError("col index out of range")
        stride = max(ncol, 1)
        if int(n_rows) * stride < _SINGLE_KEY_LIMIT:
            # Row-major order is the order of the single key
            # ``row * stride + col``: one sort of one array, then split.
            key = np.sort(rows * stride + cols)
            if dedup and len(key):
                keep = np.empty(len(key), dtype=bool)
                keep[0] = True
                np.not_equal(key[1:], key[:-1], out=keep[1:])
                key = key[keep]
            rows = key // stride
            cols = key - rows * stride
        else:  # the key would overflow int64: two-key sort
            order = np.lexsort((cols, rows))
            rows, cols = rows[order], cols[order]
            if dedup and len(rows):
                keep = np.empty(len(rows), dtype=bool)
                keep[0] = True
                np.logical_or(
                    rows[1:] != rows[:-1], cols[1:] != cols[:-1], out=keep[1:]
                )
                rows, cols = rows[keep], cols[keep]
        counts = np.bincount(rows, minlength=n_rows)
        indptr = np.zeros(n_rows + 1, dtype=INDEX_DTYPE)
        np.cumsum(counts, out=indptr[1:])
        return cls(n_rows, indptr, cols, n_cols=n_cols)

    @classmethod
    def empty(cls, n_rows: int, n_cols: int | None = None) -> "CSR":
        """A CSR with no entries."""
        return cls(
            n_rows,
            np.zeros(n_rows + 1, dtype=INDEX_DTYPE),
            np.empty(0, dtype=INDEX_DTYPE),
            n_cols=n_cols,
        )

    # -- accessors ----------------------------------------------------------

    @property
    def nnz(self) -> int:
        """Number of stored entries."""
        return int(self.indices.shape[0])

    def row(self, i: int) -> np.ndarray:
        """The (sorted) column ids of row ``i`` — a zero-copy view."""
        return self.indices[self.indptr[i] : self.indptr[i + 1]]

    def row_lengths(self) -> np.ndarray:
        """Array of per-row entry counts (vertex degrees for adjacency)."""
        return np.diff(self.indptr)

    def iter_rows(self) -> Iterator[tuple[int, np.ndarray]]:
        """Yield ``(row_id, columns)`` for every row (including empty)."""
        for i in range(self.n_rows):
            yield i, self.row(i)

    def nonempty_rows(self) -> np.ndarray:
        """Row ids that have at least one entry (the DCSR auxiliary list)."""
        return np.nonzero(np.diff(self.indptr) > 0)[0].astype(INDEX_DTYPE)

    def to_coo(self) -> tuple[np.ndarray, np.ndarray]:
        """Return ``(rows, cols)`` coordinate arrays in row-major order."""
        rows = np.repeat(
            np.arange(self.n_rows, dtype=INDEX_DTYPE), np.diff(self.indptr)
        )
        return rows, self.indices.copy()

    def transpose(self) -> "CSR":
        """Return the transposed pattern (CSC view materialized as CSR)."""
        rows, cols = self.to_coo()
        return CSR.from_coo(self.n_cols, cols, rows, n_cols=self.n_rows)

    def to_scipy(self):
        """Convert to a ``scipy.sparse.csr_matrix`` of ones."""
        import scipy.sparse as sp

        return sp.csr_matrix(
            (np.ones(self.nnz, dtype=np.int64), self.indices, self.indptr),
            shape=(self.n_rows, self.n_cols),
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CSR):
            return NotImplemented
        return (
            self.n_rows == other.n_rows
            and self.n_cols == other.n_cols
            and np.array_equal(self.indptr, other.indptr)
            and np.array_equal(self.indices, other.indices)
        )

    def __hash__(self) -> int:  # CSRs are mutable arrays; identity hash
        return id(self)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"CSR({self.n_rows}x{self.n_cols}, nnz={self.nnz})"

    def nbytes_estimate(self) -> int:
        """Approximate in-memory/message size (used by the cost model)."""
        return int(self.indptr.nbytes + self.indices.nbytes + 64)


@dataclass(frozen=True)
class Graph:
    """An undirected simple graph stored as a symmetric CSR.

    Invariants (enforced by :meth:`from_edges`): no self loops, no
    duplicate edges, every edge stored in both directions, rows sorted.
    """

    adj: CSR

    @property
    def n(self) -> int:
        """Number of vertices."""
        return self.adj.n_rows

    @property
    def num_edges(self) -> int:
        """Number of undirected edges."""
        return self.adj.nnz // 2

    @property
    def degrees(self) -> np.ndarray:
        """Per-vertex degree."""
        return self.adj.row_lengths()

    @classmethod
    def from_edges(cls, n: int, edges: np.ndarray) -> "Graph":
        """Build a simple undirected graph from an ``(m, 2)`` edge array.

        Self loops are dropped; duplicates (in either orientation)
        collapse; both directions are stored.
        """
        edges = np.asarray(edges, dtype=INDEX_DTYPE)
        if edges.size == 0:
            return cls(CSR.empty(n))
        if edges.ndim != 2 or edges.shape[1] != 2:
            raise ValueError(f"edges must be (m, 2), got {edges.shape}")
        u, v = edges[:, 0], edges[:, 1]
        mask = u != v
        u, v = u[mask], v[mask]
        rows = np.concatenate([u, v])
        cols = np.concatenate([v, u])
        return cls(CSR.from_coo(n, rows, cols, dedup=True))

    def neighbors(self, v: int) -> np.ndarray:
        """Sorted neighbor ids of vertex ``v``."""
        return self.adj.row(v)

    def edge_array(self) -> np.ndarray:
        """Canonical ``(m, 2)`` edge list with ``u < v`` in each row."""
        rows, cols = self.adj.to_coo()
        keep = rows < cols
        return np.stack([rows[keep], cols[keep]], axis=1)

    def has_edge(self, u: int, v: int) -> bool:
        """Whether the undirected edge (u, v) exists."""
        nbrs = self.neighbors(u)
        i = np.searchsorted(nbrs, v)
        return bool(i < len(nbrs) and nbrs[i] == v)

    def relabel(self, perm: np.ndarray) -> "Graph":
        """Return the graph with vertex ``v`` renamed to ``perm[v]``."""
        perm = np.asarray(perm, dtype=INDEX_DTYPE)
        if len(perm) != self.n or len(np.unique(perm)) != self.n:
            raise ValueError("perm must be a permutation of range(n)")
        edges = self.edge_array()
        return Graph.from_edges(self.n, perm[edges])

    def upper_csr(self) -> CSR:
        """The strict upper-triangular part U (per-row neighbors > row id)."""
        rows, cols = self.adj.to_coo()
        keep = rows < cols
        return CSR.from_coo(self.n, rows[keep], cols[keep])

    def lower_csr(self) -> CSR:
        """The strict lower-triangular part L (per-row neighbors < row id)."""
        rows, cols = self.adj.to_coo()
        keep = rows > cols
        return CSR.from_coo(self.n, rows[keep], cols[keep])

    def nbytes_estimate(self) -> int:
        """Approximate resident bytes of the adjacency structure."""
        return self.adj.nbytes_estimate()


class DegreeSummary(NamedTuple):
    """Degree distribution summary for dataset tables (the line ``repro
    count`` prints first)."""

    n: int
    m: int
    d_avg: float
    d_max: int
    d_min: int

    def __str__(self) -> str:
        return (
            f"n={self.n:,} m={self.m:,} d_avg={self.d_avg:.2f} "
            f"d_max={self.d_max} d_min={self.d_min}"
        )


def degree_summary(g: Graph) -> DegreeSummary:
    """Summarize the degree distribution of ``g``."""
    d = g.degrees
    if g.n == 0:
        return DegreeSummary(0, 0, 0.0, 0, 0)
    return DegreeSummary(
        n=g.n,
        m=g.num_edges,
        d_avg=float(d.mean()),
        d_max=int(d.max()),
        d_min=int(d.min()),
    )
