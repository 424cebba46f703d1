"""Doubly-compressed sparse row structure (Buluc & Gilbert style).

The paper's 2D blocks are hyper-sparse: after cyclic decomposition a rank
holds roughly ``1/sqrt(p)`` of each adjacency list, so many local rows are
empty.  The paper keeps the plain CSR indexing scheme (local row id =
``vertex // sqrt(p)``, so random access stays O(1)) and *adds* a list of
rows with non-empty adjacency lists; iteration walks that list and never
touches empty rows.  :class:`DCSR` packages exactly that: a CSR plus its
non-empty-row index.  The index is built on first use: a block that only
travels, or is only counted by the compiled kernel, never needs it.
"""

from __future__ import annotations

import numpy as np

from repro.graph.csr import CSR, INDEX_DTYPE


class DCSR:
    """CSR with an auxiliary non-empty-row list for sparse iteration.

    Random access by local row id goes through the full-width ``indptr``
    (the paper keeps this to avoid maintaining per-row offsets); iteration
    uses :attr:`nonempty_rows` when the doubly-sparse optimization is on,
    or the full row range when it is off (the Section 7.3 ablation).
    """

    __slots__ = ("csr", "_nonempty_rows")

    def __init__(self, csr: CSR):
        self.csr = csr
        self._nonempty_rows: np.ndarray | None = None

    @property
    def nonempty_rows(self) -> np.ndarray:
        """Ids of the rows with at least one entry (computed once)."""
        if self._nonempty_rows is None:
            self._nonempty_rows = self.csr.nonempty_rows()
        return self._nonempty_rows

    @classmethod
    def from_coo(
        cls, n_rows: int, rows: np.ndarray, cols: np.ndarray, n_cols: int | None = None
    ) -> "DCSR":
        """Build from coordinate pairs (rows end up sorted ascending)."""
        return cls(CSR.from_coo(n_rows, rows, cols, n_cols=n_cols))

    @property
    def n_rows(self) -> int:
        """Number of *present* (non-empty) rows."""
        return self.csr.n_rows

    @property
    def nnz(self) -> int:
        """Number of stored entries."""
        return self.csr.nnz

    @property
    def indptr(self) -> np.ndarray:
        """Row-pointer array of the compacted row structure."""
        return self.csr.indptr

    @property
    def indices(self) -> np.ndarray:
        """Column-index array (concatenated sorted rows)."""
        return self.csr.indices

    def row(self, i: int) -> np.ndarray:
        """Sorted entries of local row ``i`` (may be empty)."""
        return self.csr.row(i)

    def iter_rows(self, doubly_sparse: bool = True):
        """Yield ``(row_id, entries)``.

        With ``doubly_sparse`` only non-empty rows are visited (cost: one
        step per non-empty row); without it every local row is visited
        (cost: one step per row), which is what the paper's un-optimized
        variant pays.
        """
        if doubly_sparse:
            for i in self.nonempty_rows:
                yield int(i), self.csr.row(int(i))
        else:
            for i in range(self.csr.n_rows):
                yield i, self.csr.row(i)

    def row_visit_cost(self, doubly_sparse: bool) -> int:
        """Number of row-iteration steps a full sweep performs."""
        return len(self.nonempty_rows) if doubly_sparse else self.csr.n_rows

    def max_row_length(self) -> int:
        """Longest local adjacency list (sizes the per-block hash map)."""
        if self.csr.nnz == 0:
            return 0
        return int(np.diff(self.csr.indptr).max())

    def nbytes_estimate(self) -> int:
        """Approximate memory/message footprint in bytes."""
        return self.estimate(self.csr.n_rows, self.csr.nnz, len(self.nonempty_rows))

    @staticmethod
    def estimate(n_rows: int, nnz: int, n_nonempty: int) -> int:
        """:meth:`nbytes_estimate` of a DCSR of this shape, from three
        counts: int64 indptr, indices and non-empty-row list, plus the
        CSR's 64 and the DCSR's 16 bytes of overhead."""
        word = np.dtype(INDEX_DTYPE).itemsize
        return word * (n_rows + 1 + nnz + n_nonempty) + 64 + 16

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"DCSR({self.csr.n_rows} rows, {len(self.nonempty_rows)} nonempty, "
            f"nnz={self.csr.nnz})"
        )
