"""Out-of-core preprocessing benchmark with a gated peak-RSS ceiling.

Measures what the external-memory pipeline (:mod:`repro.graph.external`)
actually buys: the ability to preprocess and count a graph much larger
than the memory the process holds resident.  Produces a
machine-readable artifact (``BENCH_outofcore.json`` by default) with
three kinds of evidence:

* **Parity cases** — the out-of-core pipeline must produce *bit-identical*
  triangle counts and artifact digests vs. the in-memory pipeline across
  grid sizes and the degree-reorder toggle.  Run in-process (no memory
  claims, just correctness).
* **A ratio case** — one graph whose on-disk edge bytes are at least
  ``RATIO_TARGET`` (10×) the configured ``chunk_bytes`` budget,
  preprocessed out of core.  Peak RSS is measured in **child
  processes** (``resource.ru_maxrss`` is a lifetime high-water mark, so
  the parent's own allocations would pollute it) and reported as deltas
  over a control child that performs the same imports but touches no
  graph.

The pipeline's memory story has two regimes, measured by two children:
the *streaming* stages (ingest, external sort/merge, degrees, reorder,
translate + 2D route) hold only ``O(chunk_bytes)``, while the final
per-rank *assembly* additionally holds one rank's ``O(m/p)`` working
set — exactly the per-node memory the paper's algorithm needs on a real
cluster, so it is gated against that bound rather than hidden.

Gates (``--check`` exits 1 when violated)
-----------------------------------------
``stream_ceiling`` / ``rss_ratio``
    The streaming-stages child (``stop_after="translate"``) must stay
    under ``STREAM_FLOOR + PRE_CHUNK_MULT * chunk_bytes`` — bounded by
    the *budget*, not the graph — and ``graph_bytes / stream_delta``
    must reach ``RSS_RATIO_TARGET`` (10×): the graph is an order of
    magnitude larger than the memory held while chewing through it.
    This is the honest paper-scale claim — these stages are where the
    in-memory pipeline needs O(m) resident and the external one does
    not.
``preprocess_ceiling``
    The full preprocessing child (streaming + assembly) must stay under
    ``PRE_FLOOR + PRE_CHUNK_MULT * chunk_bytes + RANK_MULT *
    rank_pair_bytes`` where ``rank_pair_bytes = 32 * m / p`` (one
    rank's received U+L coordinate pairs).  The multiplier covers the
    CSR build's sort temporaries.
``count_ceiling``
    The counting child's RSS delta must stay under ``COUNT_FLOOR +
    PRE_CHUNK_MULT * chunk_bytes + COUNT_STORE_MULT * store_bytes``.
    Counting simulates all ``p`` ranks in one process, so the resident
    high water legitimately includes the per-rank blocks — but they
    arrive as mmap views of the store files (reclaimable page cache,
    charged against ``store_bytes``), never as a second in-heap copy of
    the edge list.  A regression that reintroduces full-blob copies
    blows this ceiling.

Run it as ``python -m repro.bench.oocbench``: the common front of
:func:`repro.bench.core.bench_main` plus ``--chunk-bytes`` / ``--workdir``.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Any

from repro.bench.core import (
    TIMING_KEYS, Suite, bench_main, envelope, named_cases, row,
)

#: Artifact schema.  2 drops the ratio case's top-level
#: ``peak_rss_bytes``, which held the count child's RSS *delta*;
#: :func:`history_rows` reads each child's own ``rss_delta_bytes`` /
#: ``ceiling_bytes`` instead.
SCHEMA = 2

#: The ratio-case graph must be at least this many times larger (on-disk
#: edge bytes) than the configured ``chunk_bytes`` budget.
RATIO_TARGET = 10.0

#: ``graph_bytes / preprocess_rss_delta`` must reach this.
RSS_RATIO_TARGET = 10.0

#: RSS deltas are floored at this when computing the ratio, so a working
#: set that hides entirely under the interpreter's import-time baseline
#: reports a conservative lower bound instead of a silly million-x.
RSS_DELTA_FLOOR = 1 << 20

#: Chunk-budget multiplier shared by every ceiling: concurrent
#: chunk-sized numpy temporaries during the external merge (inputs,
#: output, argsort scratch).
PRE_CHUNK_MULT = 8.0

#: Streaming-stages ceiling floor: degree histogram, per-rank write
#: buffers, allocator slack.
STREAM_FLOOR = 24 << 20

#: Full-preprocess ceiling: adds one rank's received U+L pairs
#: (``32 * m / p`` bytes) times this multiplier (CSR sort temporaries).
RANK_MULT = 10.0
PRE_FLOOR = 48 << 20

#: Counting ceiling: floor + chunk multiplier + store multiplier (the
#: mmap-resident per-rank block files; >1 covers the exchange copies the
#: simulated rotation makes on top of the mapped originals).  A
#: regression that reintroduces a full in-heap blob copy adds roughly
#: one more ``store_bytes`` of residency, which still bursts through
#: this ceiling with margin.
COUNT_STORE_MULT = 3.5
COUNT_FLOOR = 64 << 20

#: Bytes per edge in the binary REDGE format (two little-endian int64).
EDGE_BYTES = 16


# -- deterministic skewed graph generation (streamed, bounded memory) -------


def write_skewed_graph(
    path: Path, n: int, m: int, seed: int = 7, batch: int = 1 << 19
) -> int:
    """Stream ``m`` skewed random edges into a REDGE file; returns bytes.

    Endpoints are drawn as ``floor(n * r^2)`` so low-numbered vertices
    act as hubs (degree skew exercises the reorder path and produces a
    healthy triangle count).  Generation is batched — this function
    never holds more than ``batch`` edges resident, so the parent
    process stays honest even though its RSS is not part of any gate.
    Self loops and duplicates are the pipeline's job to drop.
    """
    import numpy as np

    from repro.graph.io import BinaryEdgeWriter

    rng = np.random.default_rng(seed)
    with BinaryEdgeWriter(path, n) as writer:
        left = m
        while left > 0:
            k = min(batch, left)
            r = rng.random((k, 2))
            writer.write((n * r * r).astype(np.int64))
            left -= k
    return path.stat().st_size


def _load_redge(path: Path):
    """In-memory load of a REDGE file (the comparison path)."""
    import numpy as np

    from repro.graph import Graph
    from repro.graph.io import read_binary_header

    header = read_binary_header(path)
    if header is None:
        raise ValueError(f"{path} is not a REDGE file")
    n, m = header
    pairs = np.fromfile(path, dtype="<i8", offset=24).reshape(m, 2)
    return Graph.from_edges(n, pairs)


# -- child processes (isolated peak-RSS measurements) ------------------------


def _child_main(argv: list[str]) -> int:
    """Run one measured workload and print a single JSON line.

    ``ru_maxrss`` is a per-process lifetime high-water mark, so each
    measurement gets its own interpreter; the ``control`` mode performs
    the same imports (numpy + the repro stack) without touching a graph,
    giving the baseline the parent subtracts out.
    """
    ap = argparse.ArgumentParser()
    ap.add_argument("--child", required=True)
    ap.add_argument("--graph")
    ap.add_argument("--store-dir")
    ap.add_argument("--ranks", type=int, default=4)
    ap.add_argument("--chunk-bytes", type=int)
    args = ap.parse_args(argv)

    from repro.core.config import TC2DConfig  # noqa: F401 - shared baseline
    from repro.graph.external import (  # noqa: F401 - shared baseline
        count_triangles_oocore,
        external_preprocess,
    )
    from repro.graph.store import GraphStore
    from repro.instrument.telemetry import peak_rss_bytes

    out: dict[str, Any] = {}
    cfg = TC2DConfig()
    if args.child == "control":
        pass
    elif args.child in ("preprocess", "stream"):
        info = external_preprocess(
            Path(args.graph),
            GraphStore(args.store_dir),
            args.ranks,
            cfg=cfg,
            chunk_bytes=args.chunk_bytes,
            stop_after="translate" if args.child == "stream" else None,
        )
        out.update(
            digest=info["digest"], n=info["n"], m=info["m"],
            spilled_bytes=info["spilled_bytes"], reused=info["reused"],
        )
    elif args.child == "count":
        res = count_triangles_oocore(
            Path(args.graph),
            args.ranks,
            cfg=cfg,
            store=GraphStore(args.store_dir),
            chunk_bytes=args.chunk_bytes,
        )
        info = res.extras["out_of_core"]
        out.update(
            count=int(res.count), digest=info["digest"],
            store_hit=bool(res.extras.get("cache", {}).get("hit")),
            mapped_ranks=res.extras.get("cache", {}).get("mapped_ranks"),
        )
    elif args.child == "inmem":
        from repro.core.tc2d import count_triangles_2d

        g = _load_redge(Path(args.graph))
        res = count_triangles_2d(g, args.ranks, cfg)
        out.update(count=int(res.count))
    else:  # pragma: no cover - _run_child only passes the modes above
        raise ValueError(f"unknown child mode {args.child!r}")
    out["peak_rss_bytes"] = peak_rss_bytes()
    print(json.dumps(out, sort_keys=True))
    return 0


def _run_child(mode: str, **kw: Any) -> dict[str, Any]:
    """Spawn one measurement child and return its JSON result."""
    cmd = [sys.executable, "-m", "repro.bench.oocbench", "--child", mode]
    for key, val in kw.items():
        if val is not None:
            cmd += [f"--{key.replace('_', '-')}", str(val)]
    t0 = time.perf_counter()
    proc = subprocess.run(
        cmd, capture_output=True, text=True, env=dict(os.environ)
    )
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(
            f"oocbench child {mode!r} failed "
            f"(exit {proc.returncode}):\n{proc.stderr.strip()}"
        )
    doc = json.loads(proc.stdout.strip().splitlines()[-1])
    doc["wall_s"] = round(wall, 6)
    return doc


# -- the bench ----------------------------------------------------------------


def _parity_cases(smoke: bool) -> list[dict[str, Any]]:
    """In-process OOC vs in-memory parity across grids."""
    from repro.core.tc2d import count_triangles_2d
    from repro.graph import rmat_graph
    from repro.graph.external import count_triangles_oocore
    from repro.graph.io import write_edge_list

    scale = 9 if smoke else 10
    graph = rmat_graph(scale, seed=5)
    rows: list[dict[str, Any]] = []
    with tempfile.TemporaryDirectory(prefix="repro-oocbench-") as td:
        path = Path(td) / "parity.txt"
        write_edge_list(graph, path)
        for p in (4, 9):
            ref = count_triangles_2d(graph, p)
            res = count_triangles_oocore(
                path, p, workdir=td,
                chunk_bytes=1 << 16, store=Path(td) / "store",
            )
            info = res.extras["out_of_core"]
            rows.append(
                {
                    "name": f"parity-rmat{scale}-p{p}-reorder",
                    "p": p,
                    "triangles": int(ref.count),
                    "ooc_triangles": int(res.count),
                    "digest": info["digest"],
                    "count_match": int(ref.count) == int(res.count),
                }
            )
            print(
                f"{rows[-1]['name']:<34} inmem={ref.count} "
                f"ooc={res.count} match={rows[-1]['count_match']}",
                file=sys.stderr,
            )
    return rows


def _dir_bytes(root: Path) -> int:
    return sum(f.stat().st_size for f in root.rglob("*") if f.is_file())


def _ratio_case(
    smoke: bool, workdir: Path, chunk_bytes: int | None = None
) -> dict[str, Any]:
    """The gated big-graph case: generate, preprocess, count, measure."""
    if smoke:
        n, m, p = 1 << 17, 1 << 20, 4
        chunk = chunk_bytes or (1 << 19)  # 512 KiB vs a 16 MiB graph
    else:
        n, m, p = 1 << 20, 1 << 22, 9
        chunk = chunk_bytes or (4 << 20)  # 4 MiB vs a 64 MiB graph
    graph_path = workdir / "ratio.redge"
    store_dir = workdir / "store"
    graph_bytes = write_skewed_graph(graph_path, n, m)
    print(
        f"ratio case: n={n} m={m} graph={graph_bytes / 2**20:.1f} MiB "
        f"chunk={chunk / 2**20:.2f} MiB p={p}",
        file=sys.stderr,
    )
    control = _run_child("control")
    stream = _run_child(
        "stream", graph=graph_path, store_dir=workdir / "probe-store",
        ranks=p, chunk_bytes=chunk,
    )
    pre = _run_child(
        "preprocess", graph=graph_path, store_dir=store_dir,
        ranks=p, chunk_bytes=chunk,
    )
    store_bytes = _dir_bytes(store_dir)
    count = _run_child(
        "count", graph=graph_path, store_dir=store_dir,
        ranks=p, chunk_bytes=chunk,
    )
    inmem = _run_child("inmem", graph=graph_path, ranks=p)
    base = control["peak_rss_bytes"]
    stream_delta = max(0, stream["peak_rss_bytes"] - base)
    pre_delta = max(0, pre["peak_rss_bytes"] - base)
    count_delta = max(0, count["peak_rss_bytes"] - base)
    inmem_delta = max(0, inmem["peak_rss_bytes"] - base)
    rank_pair_bytes = 32 * m // p
    case = {
        "name": f"ratio-n{n}-m{m}-p{p}",
        "p": p,
        "n": n,
        "m": m,
        "graph_bytes": graph_bytes,
        "chunk_bytes": chunk,
        "store_bytes": store_bytes,
        "triangles": count["count"],
        "count_match": count["count"] == inmem["count"],
        "digest": count["digest"],
        "wall_s": round(pre["wall_s"] + count["wall_s"], 6),
        "control": control,
        "stream": {
            **stream,
            "rss_delta_bytes": stream_delta,
            "ceiling_bytes": int(STREAM_FLOOR + PRE_CHUNK_MULT * chunk),
        },
        "preprocess": {
            **pre,
            "rss_delta_bytes": pre_delta,
            "ceiling_bytes": int(
                PRE_FLOOR + PRE_CHUNK_MULT * chunk
                + RANK_MULT * rank_pair_bytes
            ),
        },
        "count": {
            **count,
            "rss_delta_bytes": count_delta,
            "ceiling_bytes": int(
                COUNT_FLOOR + PRE_CHUNK_MULT * chunk
                + COUNT_STORE_MULT * store_bytes
            ),
        },
        "inmem": {**inmem, "rss_delta_bytes": inmem_delta},
        "graph_to_chunk_ratio": round(graph_bytes / chunk, 3),
        "graph_to_rss_ratio": round(
            graph_bytes / max(RSS_DELTA_FLOOR, stream_delta), 3
        ),
    }
    print(
        f"stream delta={stream_delta / 2**20:.1f} MiB "
        f"(ceiling {case['stream']['ceiling_bytes'] / 2**20:.1f}) | "
        f"preprocess delta={pre_delta / 2**20:.1f} MiB "
        f"(ceiling {case['preprocess']['ceiling_bytes'] / 2**20:.1f}) | "
        f"count delta={count_delta / 2**20:.1f} MiB "
        f"(ceiling {case['count']['ceiling_bytes'] / 2**20:.1f}) | "
        f"inmem delta={inmem_delta / 2**20:.1f} MiB | "
        f"graph/rss={case['graph_to_rss_ratio']:.1f}x "
        f"match={case['count_match']}",
        file=sys.stderr,
    )
    return case


def run_bench(args: argparse.Namespace) -> dict[str, Any]:
    """Run parity + ratio cases and return the JSON-serializable report."""
    cases = _parity_cases(args.smoke)
    if args.workdir is not None:
        Path(args.workdir).mkdir(parents=True, exist_ok=True)
        cases.append(
            _ratio_case(args.smoke, Path(args.workdir), args.chunk_bytes)
        )
    else:
        with tempfile.TemporaryDirectory(prefix="repro-oocbench-") as td:
            cases.append(_ratio_case(args.smoke, Path(td), args.chunk_bytes))
    return {
        **envelope(SUITE.name, args.smoke, schema=SCHEMA),
        "ratio_target": RATIO_TARGET,
        "rss_ratio_target": RSS_RATIO_TARGET,
        "cases": cases,
    }


#: The ratio case's gated children -> how a failure line names them.
_STAGES = {
    "stream": "streaming-stages",
    "preprocess": "preprocess",
    "count": "count",
}


def history_rows(report: dict[str, Any]) -> list[dict[str, Any]]:
    """One row per parity case; the ratio case becomes ``<case>-stream`` /
    ``-preprocess`` / ``-count``, each child's RSS delta next to the
    ceiling it is gated against."""
    rows = []
    for name, case in named_cases(report):
        if "graph_bytes" not in case:
            rows.append(
                row(SUITE.name, str(name), case, count=case.get("triangles"))
            )
            continue
        ratio = case.get("graph_to_rss_ratio")
        for stage in _STAGES:
            rows.append(
                {
                    **row(
                        SUITE.name, f"{name}-{stage}", case.get(stage),
                        TIMING_KEYS + ("rss_delta_bytes", "ceiling_bytes",
                                       "count", "store_hit"),
                        graph_to_rss_ratio=(
                            ratio if stage == "stream" else None
                        ),
                    ),
                    "digest": case.get("digest"),
                }
            )
    return rows


def check(report: dict[str, Any], notes: list[str]) -> list[str]:
    """Gate a report; returns human-readable failures (empty = pass)."""
    failures: list[str] = []
    saw_ratio_case = False
    for name, case in named_cases(report):
        if not case.get("count_match", False):
            failures.append(
                f"{name}: out-of-core count diverged from in-memory "
                f"({case.get('ooc_triangles', case.get('triangles'))} vs "
                f"reference)"
            )
        if "graph_bytes" not in case:
            continue  # parity-only case
        saw_ratio_case = True
        gb, cb = case["graph_bytes"], case["chunk_bytes"]
        if gb < RATIO_TARGET * cb:
            failures.append(
                f"{name}: graph {gb} bytes < {RATIO_TARGET}x chunk budget "
                f"{cb} bytes — the case no longer demonstrates out-of-core"
            )
        # Each child is held to the ceiling _ratio_case wrote beside its
        # delta; a child with no ceiling on record fails its gate.
        for stage, label in _STAGES.items():
            child = case.get(stage) or {}
            delta = int(child.get("rss_delta_bytes", 0))
            ceiling = int(child.get("ceiling_bytes", -1))
            if delta > ceiling:
                failures.append(
                    f"{name}: {label} RSS delta {delta} > ceiling "
                    f"{ceiling} (chunk_bytes={cb})"
                )
        sdelta = int((case.get("stream") or {}).get("rss_delta_bytes", 0))
        floored = max(RSS_DELTA_FLOOR, sdelta)
        if gb < RSS_RATIO_TARGET * floored:
            failures.append(
                f"{name}: graph/RSS ratio {gb / floored:.2f}x < "
                f"{RSS_RATIO_TARGET}x (graph {gb} bytes, streaming delta "
                f"{sdelta} bytes)"
            )
        cnt = case.get("count") or {}
        if cnt and not cnt.get("store_hit", False):
            failures.append(
                f"{name}: counting child missed the store entry the "
                "preprocessing child just wrote"
            )
    if not saw_ratio_case:
        failures.append("report has no ratio case (gates never ran)")
    return failures


SUITE = Suite(
    name="outofcore",
    out="BENCH_outofcore.json",
    flags={
        "--chunk-bytes": dict(
            type=int, help="override the ratio case's chunk budget"
        ),
        "--workdir": dict(
            metavar="DIR",
            help="keep the generated graph/store here instead of a temp dir",
        ),
    },
    run=run_bench,
    rows=history_rows,
    check=check,
)


if __name__ == "__main__":  # pragma: no cover - exercised via CI
    # --child is _run_child's one-measurement-per-interpreter plumbing.
    if "--child" in sys.argv:
        sys.exit(_child_main(sys.argv[1:]))
    sys.exit(bench_main(SUITE))
