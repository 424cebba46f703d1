"""The traced run: per-layer metrics measured from outside.

Nothing under ``src/repro`` is instrumented.  Every layer is timed by
calling its *public* functions on the workload's own input, one span per
call, recorded by :class:`SpanTracer` in this file.  The pieces of
``count_triangles_2d`` that cannot be nested from outside are replayed on
their own (``partition_1d``; an engine run of a rank program that only
calls ``preprocess``; the Cannon schedule's kernel calls outside the
engine), and ``core.tc2d.residual_s`` is defined as what is left of the
whole call, so the layers sum to the total by construction.

Module names are the layer names.  ``*_s`` metrics are medians over the
repetitions; counts are exact and must repeat with the seed.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Any, Callable, Iterator

import numpy as np

from repro.core.blocks import Block
from repro.core.config import TC2DConfig
from repro.core.coveredge import count_triangles_coveredge
from repro.core.grid import ProcessorGrid
from repro.core.kernels import KernelStats, get_backend, resolve_backend
from repro.core.preprocess import partition_1d, preprocess
from repro.core.tc2d import count_triangles_2d
from repro.graph.csr import Graph
from repro.graph.generators import configuration_model, rmat_edges
from repro.graph.io import read_edge_list, write_edge_list
from repro.graph.store import GraphStore, graph_digest
from repro.instrument.chrometrace import dumps_chrome_trace
from repro.instrument.commmatrix import CommMatrix
from repro.simmpi import Engine, SuperstepPool

from workloads import (
    Sample,
    ServeHarness,
    Spawner,
    Workload,
    parse_cli,
    pin,
    run_cli,
    serve_request,
    usable_cpus,
)

Metrics = dict[str, tuple[float, str]]


class SpanTracer:
    """Spans kept in memory: ``name``, ``start``, ``end``, ``parent`` and a
    trace id shared by every span of one op (one root span)."""

    def __init__(self) -> None:
        self.spans: list[dict[str, Any]] = []
        self._ids = itertools.count()
        self._traces = itertools.count()
        self._local = threading.local()  # one open-span stack per thread

    @contextlib.contextmanager
    def span(self, name: str, **attrs: Any) -> Iterator[dict[str, Any]]:
        stack = self._local.__dict__.setdefault("stack", [])
        rec = {
            "id": next(self._ids),
            "trace": stack[-1]["trace"] if stack else next(self._traces),
            "parent": stack[-1]["id"] if stack else None,
            "name": name,
            **attrs,
            "start": time.perf_counter(),
            "end": None,
        }
        self.spans.append(rec)
        stack.append(rec)
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            stack.pop()

    def self_times(self) -> dict[str, float]:
        """Per span name: total duration minus the part child spans cover."""
        total: dict[str, float] = {}
        covered: dict[int, float] = {}
        for s in self.spans:
            if s["parent"] is not None:
                covered[s["parent"]] = (
                    covered.get(s["parent"], 0.0) + s["end"] - s["start"]
                )
        for s in self.spans:
            own = s["end"] - s["start"] - covered.get(s["id"], 0.0)
            total[s["name"]] = total.get(s["name"], 0.0) + own
        return total


class Probe:
    """Shared state of one traced run: the workload's input, the tracer,
    the repetition count and a scratch directory."""

    def __init__(self, wl: Workload, work: Path, reps: int, cpus: list[int]):
        self.wl = wl
        self.cpus = cpus  # every CPU the host grants (this process is pinned)
        self.tr = SpanTracer()
        self.reps = reps
        #: for the probes that take seconds per call (row kernels, cover-edge,
        #: the worker pool): fewer repetitions keep the traced run near a minute
        self.heavy_reps = min(reps, 3)
        self.work = work
        self.graph = Graph.from_edges(wl.n, wl.edges)
        self.cfg = TC2DConfig()
        self.grid = ProcessorGrid.for_ranks(wl.p)
        self.checks: list[str] = []  # failed cross-checks

    def timed(self, name: str, fn: Callable[[], Any], reps: int | None = None) -> tuple[float, Any]:
        """Median wall of ``reps`` spans around ``fn()``; last return value."""
        walls, out = [], None
        for _ in range(reps or self.reps):
            with self.tr.span(name) as rec:
                out = fn()
            walls.append(rec["end"] - rec["start"])
        return statistics.median(walls), out

    def expect(self, cond: bool, what: str) -> None:
        if not cond:
            self.checks.append(what)


# ---------------------------------------------------------------------------
# graph.* layers
# ---------------------------------------------------------------------------


def probe_graph(pb: Probe) -> Metrics:
    wl = pb.wl
    scale, n_cm = (10, 2000) if wl.smoke else (14, 40000)
    rmat_s, _ = pb.timed("graph.generators.rmat",
                         lambda: rmat_edges(scale, 16, seed=wl.seed))
    cm_s, _ = pb.timed("graph.generators.config_model",
                       lambda: configuration_model(n_cm, gamma=2.4, d_min=3, seed=wl.seed))
    from_edges_s, g = pb.timed("graph.csr.from_edges",
                               lambda: Graph.from_edges(wl.n, wl.edges))
    if wl.file is None:
        wl.file = pb.work / "input.txt"
        write_edge_list(g, wl.file)
    read_s, g_file = pb.timed("graph.io.read_edge_list",
                              lambda: read_edge_list(wl.file))
    digest_s, digest = pb.timed("graph.store.digest", lambda: graph_digest(g))
    pb.expect(graph_digest(g_file) == digest, "file round trip changed the digest")
    return {
        "graph.generators.rmat_s": (rmat_s, "s"),
        "graph.generators.config_model_s": (cm_s, "s"),
        "graph.csr.from_edges_s": (from_edges_s, "s"),
        "graph.csr.edges": (g.num_edges, "count"),
        "graph.io.read_edge_list_s": (read_s, "s"),
        "graph.store.digest_s": (digest_s, "s"),
    }


def probe_store(pb: Probe) -> tuple[Metrics, Path, float]:
    """Cold (miss + write) and warm (mmap + crc) store paths.

    Returns the metrics, the primed store directory and the wall of a warm
    ``count_triangles_2d`` (what the CLI's count costs on a hit).
    """
    wl, g = pb.wl, pb.graph
    dirs = itertools.count()

    def cold() -> Path:
        d = pb.work / f"store-{next(dirs)}"
        res = count_triangles_2d(g, wl.p, cache=d)
        pb.expect(res.count == wl.oracle and not res.extras["cache"]["hit"],
                  "cold cached count wrong or not a miss")
        return d

    cold_s, store_dir = pb.timed("graph.store.cold_count", cold)
    nbytes = sum(f.stat().st_size for f in store_dir.rglob("*") if f.is_file())
    opens = hits = 0

    def warm_load() -> None:
        nonlocal opens, hits
        rc = GraphStore(store_dir).open_run(g, wl.p, pb.cfg)
        try:
            opens += 1
            hits += rc.hit
            if rc.hit:
                for r in range(wl.p):
                    rc.load_rank(r)
        finally:
            rc.close()

    warm_s, _ = pb.timed("graph.store.warm_load", warm_load)
    warm_count_s, res = pb.timed(
        "core.tc2d.count.warm", lambda: count_triangles_2d(g, wl.p, cache=store_dir))
    pb.expect(res.count == wl.oracle and res.extras["cache"]["hit"],
              "warm cached count wrong or not a hit")
    return {
        "graph.store.cold_count_s": (cold_s, "s"),
        "graph.store.bytes": (nbytes, "B"),
        "graph.store.warm_load_s": (warm_s, "s"),
        "graph.store.hit_ratio": (hits / opens, "ratio"),
    }, store_dir, warm_count_s


# ---------------------------------------------------------------------------
# simmpi.* and core.* layers
# ---------------------------------------------------------------------------


def _ppt_only(ctx, chunks, grid, cfg):
    """The benchmark's own rank program: public ``preprocess`` + barrier."""
    with ctx.phase("ppt"):
        blocks = preprocess(ctx, chunks[ctx.rank], grid, cfg)
        ctx.comm.barrier()
    return blocks


def _barrier_only(ctx):
    ctx.comm.barrier()


def _shift_ring(ctx, grid):
    """Cannon's shift pattern with a fixed 1 KiB payload, q-1 steps."""
    x, y = grid.coords(ctx.rank)
    payload = np.zeros(128, dtype=np.int64)
    for _ in range(grid.q - 1):
        for tag, (dest, src) in ((1, grid.shift_u(x, y)), (2, grid.shift_l(x, y))):
            ctx.comm.sendrecv(payload, dest=dest, source=src,
                              sendtag=tag, recvtag=tag)


def _tiny_alltoall(ctx):
    ctx.comm.alltoall([ctx.rank] * ctx.comm.size)


def probe_simmpi(pb: Probe) -> Metrics:
    p, grid = pb.wl.p, pb.grid
    spawn_s, _ = pb.timed("simmpi.engine.spawn",
                          lambda: Engine(p).run(_barrier_only))
    ring_s, _ = pb.timed("simmpi.comm.shift_ring",
                         lambda: Engine(p).run(_shift_ring, grid))
    a2a_s, _ = pb.timed("simmpi.comm.alltoall",
                        lambda: Engine(p).run(_tiny_alltoall))
    ring_msgs = max(1, p * (grid.q - 1) * 2)
    return {
        "simmpi.engine.spawn_s": (spawn_s, "s"),
        "simmpi.comm.shift_us_per_msg": (ring_s / ring_msgs * 1e6, "us"),
        "simmpi.comm.alltoall_us_per_msg": (a2a_s / (p * p) * 1e6, "us"),
    }


def replay_kernels(pb: Probe, blocks: list[tuple[Block, Block, Block]],
                   backend: str) -> KernelStats:
    """Cannon's schedule outside the engine: rank (x, y) at shift z works
    on task[x, y], U[x, k] and L[k, y] with k = (x + y + z) mod q."""
    grid, cfg = pb.grid, pb.cfg
    u_at = {(u.fixed_residue, u.inner_residue): u for u, _, _ in blocks}
    l_at = {(l.fixed_residue, l.inner_residue): l for _, l, _ in blocks}
    total = KernelStats()
    for rank, (_, _, task) in enumerate(blocks):
        x, y = grid.coords(rank)
        for z in range(grid.q):
            k = grid.operand_residue(x, y, z)
            u, l = u_at[(x, k)], l_at[(y, k)]
            if backend == "auto":
                fn = resolve_backend(cfg.kernel_backend, task, u, l, cfg)[1]
            else:
                fn = get_backend(backend)
            total.merge(fn(task, u, l, cfg))
    return total


def probe_core(pb: Probe) -> Metrics:
    wl, g, p, grid, cfg = pb.wl, pb.graph, pb.wl.p, pb.grid, pb.cfg
    # The pieces that must sum to the whole call are timed round-robin, one
    # of each per repetition, so a slow spell of the host hits all of them
    # alike instead of skewing the shares.
    walls: dict[str, list[float]] = {}
    out: dict[str, Any] = {}
    steps = {
        "core.preprocess.partition_1d": lambda: partition_1d(g, p),
        "core.preprocess.ppt": lambda: Engine(p).run(
            _ppt_only, out["core.preprocess.partition_1d"], grid, cfg),
        "core.kernels.tct_kernel": lambda: replay_kernels(
            pb, out["core.preprocess.ppt"].returns, "auto"),
        "core.tc2d.count": lambda: count_triangles_2d(g, p),
        "instrument.traced_count": lambda: count_triangles_2d(g, p, trace=True),
    }
    for _ in range(pb.reps):
        for name, fn in steps.items():
            wall, out[name] = pb.timed(name, fn, reps=1)
            walls.setdefault(name, []).append(wall)
    part_s, ppt_s, kernel_s, count_s, traced_s = (
        statistics.median(walls[name]) for name in steps)
    run, st, res, traced = (out[name] for name in list(steps)[1:])
    blocks = run.returns
    comm = CommMatrix.from_run(Engine(p, trace=True).run(
        _ppt_only, out["core.preprocess.partition_1d"], grid, cfg))
    pb.expect(st.triangles == wl.oracle,
              f"kernel replay found {st.triangles} triangles, oracle {wl.oracle}")
    pb.expect(res.count == wl.oracle, "tc2d count != oracle")
    pb.expect(res.ppt_time == run.phase_time("ppt"),
              "ppt-only run and full run disagree on virtual ppt time")

    row_s, st_row = pb.timed("core.kernels.row",
                             lambda: replay_kernels(pb, blocks, "row"), pb.heavy_reps)
    batch_s, st_batch = pb.timed("core.kernels.batch",
                                 lambda: replay_kernels(pb, blocks, "batch"))
    pb.expect(st_row == st and st_batch == st,
              "kernel backends disagree on KernelStats")

    travelling = [b for u, l, _ in blocks for b in (u, l)]

    def roundtrip() -> int:
        nbytes = 0
        for _ in range(grid.q - 1):
            for b in travelling:
                blob = b.as_blob()
                Block.from_blob(blob)
                nbytes += blob.nbytes
        return nbytes

    blob_s, blob_bytes = pb.timed("core.blocks.blob_roundtrip", roundtrip)
    ce_s, ce = pb.timed("core.coveredge.count",
                        lambda: count_triangles_coveredge(g, p), pb.heavy_reps)
    pb.expect(ce.count == wl.oracle, "coveredge count != oracle")
    export_s, _ = pb.timed("instrument.chrometrace_export",
                           lambda: dumps_chrome_trace(traced.extras["run"]))
    return {
        "core.preprocess.partition_1d_s": (part_s, "s"),
        "core.preprocess.ppt_wall_s": (ppt_s, "s"),
        "core.preprocess.ppt_virtual_s": (run.phase_time("ppt"), "s"),
        "core.preprocess.messages": (comm.total_messages, "count"),
        "core.preprocess.bytes": (comm.total_bytes, "B"),
        "core.kernels.tct_kernel_s": (kernel_s, "s"),
        "core.kernels.tasks": (st.tasks, "count"),
        "core.kernels.probe_steps": (st.probe_steps, "count"),
        "core.kernels.insert_steps": (st.hash_insert_steps, "count"),
        "core.kernels.triangles": (st.triangles, "count"),
        "core.kernels.ns_per_probe": (kernel_s / max(1, st.probe_steps) * 1e9, "ns"),
        "core.kernels.fast_hash_ratio": (
            st.hash_fast_builds / max(1, st.hash_builds), "ratio"),
        "core.kernels.row_s": (row_s, "s"),
        "core.kernels.batch_s": (batch_s, "s"),
        "core.blocks.blob_roundtrip_s": (blob_s, "s"),
        "core.blocks.blob_bytes": (blob_bytes, "B"),
        "core.tc2d.count_s": (count_s, "s"),
        # Self time no layer above owns: engine scheduling during tct, the
        # Cannon exchange, result assembly.
        "core.tc2d.residual_s": (count_s - part_s - ppt_s - kernel_s, "s"),
        "core.tc2d.tct_virtual_s": (res.tct_time, "s"),
        "core.tc2d.comm_fraction_tct": (res.comm_fraction_tct, "ratio"),
        "core.coveredge.count_s": (ce_s, "s"),
        "core.coveredge.virtual_s": (ce.overall_time, "s"),
        "instrument.trace_overhead_ratio": (traced_s / count_s, "ratio"),
        "instrument.chrometrace_export_s": (export_s, "s"),
        "instrument.trace_events": (len(traced.extras["run"].tracer.events), "count"),
    }


def probe_parallel(pb: Probe) -> Metrics:
    """The op under ``executor="parallel"``.  Informational: with fewer
    than 4 usable CPUs it is flagged ``core_limited`` and is never a
    speed-up claim."""
    wl, g = pb.wl, pb.graph
    cfg = TC2DConfig(executor="parallel", workers=2)
    pool = SuperstepPool(workers=2)
    try:
        walls = []
        for _ in range(pb.heavy_reps):
            with pb.tr.span("simmpi.parallel.count") as rec:
                res = count_triangles_2d(g, wl.p, cfg=cfg, superstep=pool)
            walls.append(rec["end"] - rec["start"])
            pb.expect(res.count == wl.oracle, "parallel count != oracle")
    finally:
        pool.shutdown()
    steady = statistics.median(walls[1:])
    return {
        # Workers spawn on the pool's first dispatch: first run minus a
        # steady one is what starting the pool costs.
        "simmpi.parallel.pool_start_s": (max(0.0, walls[0] - steady), "s"),
        "simmpi.parallel.count_s": (steady, "s"),
        "simmpi.parallel.core_limited": (int(len(pb.cpus) < 4), "count"),
    }


# ---------------------------------------------------------------------------
# cli.* and serve.* layers
# ---------------------------------------------------------------------------


def _fresh_python(pb: Probe, name: str, code: str) -> float:
    return pb.timed(name, lambda: subprocess.run(
        [sys.executable, "-c", code], check=True))[0]


def probe_cli(pb: Probe, store: Path, read_s: float, warm_count_s: float) -> Metrics:
    wl = pb.wl
    interp_s = _fresh_python(pb, "cli.interp", "pass")
    import_s = _fresh_python(pb, "cli.import", "import repro.cli") - interp_s

    spawner = Spawner()

    def cli_op() -> None:
        count, status, _ = parse_cli(run_cli(spawner, wl.file, wl.p, store)["out"])
        pb.expect(count == wl.oracle and status == "hit",
                  f"CLI op: count={count} cache={status}")

    try:
        op_s, _ = pb.timed("cli.subprocess", cli_op)
    finally:
        spawner.close()
    return {
        "cli.interp_s": (interp_s, "s"),
        "cli.import_s": (import_s, "s"),
        # The warm count already contains the digest and the mmap loads, so
        # those two are not subtracted a second time.
        "cli.residual_s": (op_s - interp_s - import_s - read_s - warm_count_s, "s"),
    }


def serve_metrics(samples: list[Sample], stats: dict[str, Any]) -> Metrics:
    """Client-side spans classed by the job document's ``warm`` flag."""
    good = [s for s in samples if s.ok]
    warm = [s for s in good if s.detail["warm"]]
    cold = [s for s in good if not s.detail["warm"]]

    def med(values: list[float]) -> float:
        return statistics.median(values) if values else 0.0

    return {
        "serve.warm_s_p50": (med([s.wall for s in warm]), "s"),
        "serve.cold_s_p50": (med([s.wall for s in cold]), "s"),
        "serve.hit_ratio": (stats["completed"]["warm"]
                            / max(1, sum(stats["completed"].values())), "ratio"),
        "serve.http_overhead_s_p50": (
            med([s.wall - s.detail["latency_s"] for s in good]), "s"),
        "serve.cold_queue_s_p50": (
            med([s.detail["queue_s"] for s in cold if "queue_s" in s.detail]), "s"),
        "serve.rejected": (sum(stats["rejected"].values()), "count"),
        "serve.queue_depth_max": (stats["queue_depth_max"], "count"),
    }


def probe_serve(pb: Probe) -> Metrics:
    """For workloads that are not served: the workload's own file through
    a server of its own, one cold request then warm repeats."""
    wl = pb.wl
    sub = pb.work / "serve-probe"
    sub.mkdir()
    harness = ServeHarness(sub, pb.cpus[:1])
    try:
        samples = [
            serve_request(harness, wl.file, wl.p, i > 0, wl.oracle,
                          pb.tr.span, True)
            for i in range(1 + 2 * pb.reps)
        ]
        stats = harness.client().stats()
    finally:
        harness.stop()
    pb.expect(all(s.ok for s in samples), "serve probe had a failed request")
    return serve_metrics(samples, stats)


# ---------------------------------------------------------------------------
# the traced run
# ---------------------------------------------------------------------------


def run_layers(wl: Workload, work: Path, results_dir: Path) -> dict[str, Any]:
    """Set up once, time the workload's op untraced and traced, then run
    every layer probe on the workload's input."""
    reps = 2 if wl.smoke else 5
    all_cpus = usable_cpus()
    pin(0, wl.cpu)
    try:
        wl.setup(work)
        untraced = wl.timed()
        pb = Probe(wl, work, reps, all_cpus)
        served = wl.name == "serve_mixed"
        if served:
            # A served key is warm for the server's lifetime: the traced
            # schedule needs a server that has seen nothing.
            wl.teardown()
            again = work / "setup-again"
            again.mkdir()
            wl.setup(again)
        traced = wl.timed(pb.tr.span)
        serve = serve_metrics(traced.samples, wl.stats) if served else None
    finally:
        wl.teardown()

    def op_p50(t: Any) -> float:
        return statistics.median(s.wall / s.slow for s in t.samples if s.timed and s.ok)

    failed = sum(not s.ok for s in untraced.samples + traced.samples)
    metrics: Metrics = {
        "bench.trace_overhead_ratio": (op_p50(traced) / op_p50(untraced), "ratio"),
    }
    graph = probe_graph(pb)
    metrics.update(graph)
    store, store_dir, warm_count_s = probe_store(pb)
    metrics.update(store)
    metrics.update(probe_simmpi(pb))
    metrics.update(probe_core(pb))
    pin(0, pb.cpus)  # the worker pool gets every CPU the host grants
    try:
        metrics.update(probe_parallel(pb))
    finally:
        pin(0, wl.cpu)
    metrics.update(probe_cli(pb, store_dir, graph["graph.io.read_edge_list_s"][0],
                             warm_count_s))
    metrics.update(serve if serve is not None else probe_serve(pb))

    results_dir.mkdir(exist_ok=True)
    trace_file = results_dir / f"trace-{wl.name}.json"
    trace_file.write_text(json.dumps(
        {"workload": wl.name, "seed": wl.seed, "spans": pb.tr.spans}))
    return {
        "params": wl.params(),
        "ops": {"attempted": len(untraced.samples) + len(traced.samples),
                "failed": failed},
        "checks_failed": pb.checks,
        "self_time_s": pb.tr.self_times(),
        "spans": len(pb.tr.spans),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }

