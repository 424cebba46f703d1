"""One edge-list reader behind every path that takes a file.

Each input goes through the three ways a file reaches a count: the
in-memory reader (``read_edge_list`` -> ``count_triangles_2d``), the
out-of-core driver (``count_triangles_oocore``) and ``store ingest``
(``external_preprocess``, then a warm count off the entry it wrote).
All three must agree on ``(n, m, graph_digest, count)`` or all three
must raise :class:`EdgeListError` — and a failed path writes no store
entry.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import count_triangles_2d
from repro.graph import rmat_graph
from repro.graph.external import count_triangles_oocore, external_preprocess
from repro.graph.io import EdgeListError, read_edge_list, write_binary_edges
from repro.graph.store import GraphStore, graph_digest

CHUNK = 1 << 16  # the floor: a file of a few thousand rows spans blocks
P = 4


def _text(body: str):
    def write(path):
        path.write_text(body)

    return write


def _redge(n, edges):
    def write(path):
        write_binary_edges(path, n, np.array(edges, dtype=np.int64))

    return write


def _late_header(path):
    """A file bigger than one read block whose ``n=`` comes last."""
    g = rmat_graph(9, edge_factor=8, seed=5)
    with path.open("w") as fh:
        np.savetxt(fh, g.edge_array(), fmt="%d")
        fh.write(f"# n={g.n + 3}\n")


CASES = {
    # Header n=5 but an id 7: under the u*n+v pair key out of core, 0 7
    # is 1 2, which would close a phantom triangle.
    "phantom-triangle": (_text("# n=5\n0 1\n0 2\n0 7\n"), None),
    "negative-id": (_text("0 1\n-1 2\n1 2\n"), None),
    "redge-id-past-header-n": (_redge(3, [[0, 1], [1, 5]]), None),
    "redge-header-n": (_redge(5, [[0, 1], [2, 1], [0, 2], [3, 3]]), (5, 3, 1)),
    "one-field-row": (_text("0 1\n2\n"), None),
    "non-integer-field": (_text("0 1\n1 2.5\n"), None),
    "two-field-row-among-three": (_text("0 1 9\n1 2\n0 2 4\n"), (3, 3, 1)),
    "n-comment-after-data": (_text("0 1\n1 2\n0 2\n# n=10\n"), (10, 3, 1)),
    "blank-lines-and-percent": (
        _text("% a comment\n\n0 1\n   \n1 2 % trailing\n%\n0 2\n2 3\n"),
        (4, 4, 1),
    ),
    "self-loops-duplicates-reversed": (
        _text("0 0\n0 1\n1 0\n1 2\n2 1\n0 2\n2 2\n0 1\n"), (3, 3, 1),
    ),
    "late-header-many-blocks": (_late_header, ()),
}


def _in_memory(path, tmp_path):
    g = read_edge_list(path)
    return g.n, g.num_edges, graph_digest(g), count_triangles_2d(g, P).count


def _out_of_core(path, tmp_path):
    res = count_triangles_oocore(
        path, P, store=tmp_path / "ooc", chunk_bytes=CHUNK, workdir=tmp_path
    )
    info = res.extras["out_of_core"]
    return info["n"], info["m"], info["graph_sha"], res.count


def _ingest(path, tmp_path):
    info = external_preprocess(
        path, tmp_path / "ingest", P, chunk_bytes=CHUNK, workdir=tmp_path
    )
    assert not info["reused"]
    res = count_triangles_oocore(
        path, P, store=tmp_path / "ingest", chunk_bytes=CHUNK,
        workdir=tmp_path,
    )
    assert res.extras["out_of_core"]["reused"]
    return info["n"], info["m"], info["graph_sha"], res.count


PATHS = {"in-memory": _in_memory, "out-of-core": _out_of_core, "ingest": _ingest}


@pytest.mark.parametrize("case", sorted(CASES))
def test_every_path_reads_the_same_file_the_same_way(case, tmp_path):
    write, want = CASES[case]
    path = tmp_path / "edges.in"
    write(path)
    outcomes = {}
    for name, run in PATHS.items():
        try:
            outcomes[name] = run(path, tmp_path)
        except EdgeListError as exc:
            assert str(path) in str(exc)
            outcomes[name] = "EdgeListError"
    assert len(set(outcomes.values())) == 1, outcomes
    got = outcomes["in-memory"]
    if want is None:
        assert got == "EdgeListError"
        for store in ("ooc", "ingest"):
            assert GraphStore(tmp_path / store).digests() == []
    elif want:
        assert (got[0], got[1], got[3]) == want
