"""Cannon's memory property, measured: the out-of-core pipeline's peak-RSS
ceilings.

Each rank of the paper's algorithm holds one U block and one L block,
O(m/p).  The out-of-core pipeline keeps that promise in two regimes: the
*streaming* stages (ingest, external sort/merge, degrees, reorder,
translate + 2D route) hold O(chunk_bytes), and the per-rank *assembly*
adds one rank's O(m/p) working set.  Counting simulates all p ranks in
one process over mmap views of the store files, so it is charged one
store size, never a second in-heap copy of the blocks.

Every reading is a child interpreter's own high-water mark (``VmHWM``),
reported as a delta over a control child that performs the same imports
and touches no graph.  The ``smoke`` size runs in tier-1; ``full`` is
deselected there and run by CI with ``pytest -m ooc_full``.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.graph.io import BinaryEdgeWriter

#: The graph's on-disk bytes must reach this many chunk budgets.
RATIO_TARGET = 10.0

#: ... and this many streaming RSS deltas.  The streaming stages hold 3-6
#: chunks, so a graph of 16 chunks reaches about 4-5x.
RSS_RATIO_TARGET = 3.0

#: Chunk-budget multiplier shared by every ceiling: concurrent chunk-sized
#: numpy temporaries during the external merge (inputs, output, argsort
#: scratch).
PRE_CHUNK_MULT = 8.0

#: Streaming-stages ceiling floor: degree histogram, per-rank write
#: buffers, allocator slack.
STREAM_FLOOR = 24 << 20

#: Full preprocessing adds one rank's received U+L pairs (``32 * m / p``
#: bytes) times this multiplier (the CSR build's sort temporaries).
RANK_MULT = 10.0
PRE_FLOOR = 48 << 20

#: Counting ceiling: floor + chunk multiplier + this many store sizes.
#: The mapped rank files are resident once (the crc pass pages them in);
#: one more in-heap copy of every rank's blobs adds a second
#: ``store_bytes`` and fails both sizes.
COUNT_STORE_MULT = 1.25
COUNT_FLOOR = 0

SIZES = [
    pytest.param(1 << 17, 1 << 20, 4, 1 << 19, id="smoke"),
    pytest.param(1 << 20, 1 << 22, 9, 4 << 20, id="full",
                 marks=pytest.mark.ooc_full),
]


def write_skewed_graph(path: Path, n: int, m: int, batch: int = 1 << 19) -> int:
    """Stream ``m`` skewed random edges into a REDGE file; returns bytes.

    Endpoints are ``floor(n * r^2)``, so low ids are hubs (the reorder
    path has work and the graph has triangles); at most ``batch`` edges
    are resident.  Self-loops and duplicates are the pipeline's to drop.
    """
    rng = np.random.default_rng(7)
    with BinaryEdgeWriter(path, n) as writer:
        for start in range(0, m, batch):
            r = rng.random((min(batch, m - start), 2))
            writer.write((n * r * r).astype(np.int64))
    return path.stat().st_size


#: One measured workload per interpreter: ``argv`` is the mode and its
#: JSON keywords, stdout the reading.  It imports only what every mode
#: shares, so the ``control`` reading is the baseline the others subtract.
CHILD = """
import json, sys
from pathlib import Path
from repro.graph.external import count_triangles_oocore, external_preprocess
from repro.graph.store import GraphStore


def own_peak_rss():
    # ru_maxrss starts at the peak of the process that spawned this one
    # (pytest, hundreds of MiB into a run); VmHWM is this process's own.
    with open("/proc/self/status") as fh:
        return 1024 * int(next(l for l in fh if l.startswith("VmHWM:")).split()[1])


mode, kw = sys.argv[1], json.loads(sys.argv[2])
out = {}
if mode in ("stream", "preprocess"):
    external_preprocess(
        Path(kw["graph"]), GraphStore(kw["store"]), kw["p"],
        chunk_bytes=kw["chunk"],
        stop_after="translate" if mode == "stream" else None,
    )
elif mode == "count":
    res = count_triangles_oocore(
        Path(kw["graph"]), kw["p"], store=GraphStore(kw["store"]),
        chunk_bytes=kw["chunk"],
    )
    out = {"count": int(res.count),
           "store_hit": bool(res.extras["cache"].get("hit"))}
elif mode == "inmem":
    from repro.core.tc2d import count_triangles_2d
    from repro.graph.io import read_edge_list

    out = {"count": int(count_triangles_2d(read_edge_list(kw["graph"]),
                                           kw["p"]).count)}
out["peak_rss_bytes"] = own_peak_rss()
print(json.dumps(out))
"""


def children(**jobs: tuple[str, dict]) -> dict[str, dict]:
    """Run each ``name=(mode, keywords)`` job in its own interpreter, all
    at once (each reading is per process); returns the readings by name."""
    procs = {
        name: subprocess.Popen(
            [sys.executable, "-c", CHILD, mode, json.dumps(kw, default=str)],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        for name, (mode, kw) in jobs.items()
    }
    readings = {}
    for name, proc in procs.items():
        out, err = proc.communicate()
        assert proc.returncode == 0, f"{name} child failed:\n{err}"
        readings[name] = json.loads(out.splitlines()[-1])
    return readings


@pytest.mark.parametrize("n, m, p, chunk", SIZES)
def test_out_of_core_stays_under_its_memory_ceilings(n, m, p, chunk, tmp_path):
    graph = tmp_path / "graph.redge"
    graph_bytes = write_skewed_graph(graph, n, m)
    store = tmp_path / "store"
    job = dict(graph=graph, p=p, chunk=chunk)
    readings = children(
        control=("control", {}),
        inmem=("inmem", job),
        stream=("stream", {**job, "store": tmp_path / "probe-store"}),
        preprocess=("preprocess", {**job, "store": store}),
    )
    store_bytes = sum(f.stat().st_size for f in store.rglob("*") if f.is_file())
    readings |= children(count=("count", {**job, "store": store}))
    ceilings = {
        "stream": STREAM_FLOOR + PRE_CHUNK_MULT * chunk,
        "preprocess": PRE_FLOOR + PRE_CHUNK_MULT * chunk
        + RANK_MULT * 32 * m / p,
        "count": COUNT_FLOOR + PRE_CHUNK_MULT * chunk
        + COUNT_STORE_MULT * store_bytes,
    }
    base = readings["control"]["peak_rss_bytes"]
    delta = {k: max(0, readings[k]["peak_rss_bytes"] - base) for k in ceilings}
    for stage, ceiling in ceilings.items():  # shown with -s
        print(f"{stage}: RSS delta {delta[stage] / 2**20:.1f} MiB, "
              f"ceiling {ceiling / 2**20:.1f} MiB")

    failures = [
        f"{stage} RSS delta {delta[stage]} > ceiling {int(ceiling)}"
        for stage, ceiling in ceilings.items() if delta[stage] > ceiling
    ]
    if graph_bytes < RATIO_TARGET * chunk:
        failures.append(f"graph {graph_bytes} bytes < {RATIO_TARGET}x "
                        f"chunk budget {chunk}: no longer out of core")
    if graph_bytes < RSS_RATIO_TARGET * delta["stream"]:
        failures.append(f"graph {graph_bytes} bytes < {RSS_RATIO_TARGET}x "
                        f"streaming RSS delta {delta['stream']}")
    if not readings["count"]["store_hit"]:
        failures.append("count child missed the store entry preprocess wrote")
    if readings["count"]["count"] != readings["inmem"]["count"]:
        failures.append(f"out-of-core count {readings['count']['count']} != "
                        f"in-memory count {readings['inmem']['count']}")
    assert not failures, "\n".join(failures)

