"""Graph serialization: whitespace edge lists, MatrixMarket pattern files,
and a compact NumPy binary format.

The paper's pipeline converts every input to an undirected simple graph
before counting; the readers here do the same via
:meth:`repro.graph.csr.Graph.from_edges`.
"""

from __future__ import annotations

import io
from pathlib import Path
from typing import BinaryIO

import numpy as np

from repro.graph.csr import INDEX_DTYPE, Graph


def write_edge_list(g: Graph, path: str | Path, comments: str | None = None) -> None:
    """Write one ``u v`` line per undirected edge (u < v), 0-based ids."""
    path = Path(path)
    edges = g.edge_array()
    with path.open("w") as fh:
        fh.write(f"# repro edge list: n={g.n} m={g.num_edges}\n")
        if comments:
            for line in comments.splitlines():
                fh.write(f"# {line}\n")
        np.savetxt(fh, edges, fmt="%d")


def read_edge_list(path: str | Path, n: int | None = None) -> Graph:
    """Read a whitespace-separated edge list (``#``/``%`` comment lines
    allowed).  ``n`` defaults to ``max id + 1``; the header written by
    :func:`write_edge_list` is honored when present."""
    path = Path(path)
    header_n = None
    rows: list[str] = []
    with path.open() as fh:
        for line in fh:
            s = line.strip()
            if not s:
                continue
            if s.startswith(("#", "%")):
                if "n=" in s and header_n is None:
                    try:
                        header_n = int(s.split("n=")[1].split()[0])
                    except (ValueError, IndexError):
                        pass
                continue
            rows.append(s)
    if not rows:
        return Graph.from_edges(n or header_n or 0, np.empty((0, 2), dtype=INDEX_DTYPE))
    edges = np.loadtxt(io.StringIO("\n".join(rows)), dtype=INDEX_DTYPE, ndmin=2)[
        :, :2
    ]
    if n is None:
        n = header_n if header_n is not None else int(edges.max()) + 1
    return Graph.from_edges(n, edges)


def write_matrix_market(g: Graph, path: str | Path) -> None:
    """Write the MatrixMarket ``pattern symmetric`` form (1-based ids,
    strict lower triangle as per the format's symmetric convention)."""
    path = Path(path)
    edges = g.edge_array()
    with path.open("w") as fh:
        fh.write("%%MatrixMarket matrix coordinate pattern symmetric\n")
        fh.write(f"{g.n} {g.n} {len(edges)}\n")
        # Symmetric MM stores the lower triangle: row >= col.
        for u, v in edges:
            fh.write(f"{v + 1} {u + 1}\n")


def read_matrix_market(path: str | Path) -> Graph:
    """Read a MatrixMarket coordinate file as an undirected simple graph
    (values, if present, are ignored; both symmetric and general forms)."""
    path = Path(path)
    with path.open() as fh:
        header = fh.readline()
        if not header.startswith("%%MatrixMarket"):
            raise ValueError(f"{path} is not a MatrixMarket file")
        line = fh.readline()
        while line.startswith("%"):
            line = fh.readline()
        nrows, ncols, nnz = (int(x) for x in line.split()[:3])
        n = max(nrows, ncols)
        data = np.loadtxt(fh, ndmin=2)
    if data.size == 0:
        edges = np.empty((0, 2), dtype=INDEX_DTYPE)
    else:
        edges = data[:, :2].astype(INDEX_DTYPE) - 1
    return Graph.from_edges(n, edges)


def save_npz(g: Graph, file: str | Path | BinaryIO) -> None:
    """Save in the compact binary format (CSR arrays in an ``.npz``) to a
    path or an open binary file."""
    np.savez_compressed(file, n=g.n, indptr=g.adj.indptr, indices=g.adj.indices)


def load_npz(path: str | Path) -> Graph:
    """Load a graph previously written by :func:`save_npz`."""
    from repro.graph.csr import CSR

    with np.load(Path(path)) as z:
        n = int(z["n"])
        return Graph(CSR(n, z["indptr"], z["indices"]))


def write_metis(g: Graph, path: str | Path) -> None:
    """Write the METIS graph format: a ``n m`` header line followed by one
    line per vertex listing its neighbors with 1-based ids (the format
    graph partitioners and many triangle-counting codes consume)."""
    path = Path(path)
    with path.open("w") as fh:
        fh.write(f"{g.n} {g.num_edges}\n")
        for v in range(g.n):
            fh.write(" ".join(str(int(u) + 1) for u in g.neighbors(v)) + "\n")


def read_metis(path: str | Path) -> Graph:
    """Read a METIS graph file (plain, unweighted flavor)."""
    path = Path(path)
    with path.open() as fh:
        header = fh.readline().split()
        if len(header) < 2:
            raise ValueError(f"{path}: malformed METIS header")
        n = int(header[0])
        src: list[int] = []
        dst: list[int] = []
        for v in range(n):
            line = fh.readline()
            if not line:
                break
            for tok in line.split():
                src.append(v)
                dst.append(int(tok) - 1)
    if not src:
        return Graph.from_edges(n, np.empty((0, 2), dtype=INDEX_DTYPE))
    edges = np.stack(
        [np.array(src, dtype=INDEX_DTYPE), np.array(dst, dtype=INDEX_DTYPE)],
        axis=1,
    )
    return Graph.from_edges(n, edges)
