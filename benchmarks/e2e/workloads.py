"""The four end-to-end workloads and the closed loop that times them.

Each workload builds its inputs from the seed, computes an oracle count in
set-up with ``triangle_count_linalg`` (independent of tc2d), and verifies
every op against it.  An op that raises, times out, is rejected or returns
a wrong count is a *failed op*; it never passes silently.

This module runs inside the per-workload child process that ``bench.py``
spawns with a scrubbed environment; nothing here touches ``~/.cache`` —
every file, store and server lives under the work directory handed in.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import re
import resource
import statistics
import subprocess
import sys
import threading
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, ContextManager

import numpy as np

import hostspeed
from repro.bench.calibration import paper_model
from repro.core.tc2d import count_triangles_2d
from repro.graph.csr import Graph
from repro.graph.generators import (
    configuration_model,
    powerlaw_cluster_fast,
    rmat_edges,
)
from repro.graph.io import read_edge_list, write_edge_list
from repro.graph.stats import triangle_count_linalg
from repro.serve.client import ServeClient

SpanFn = Callable[..., ContextManager[Any]]


def no_span(_name: str, **_attrs: Any) -> ContextManager[Any]:
    """Tracing-off stand-in for ``SpanTracer.span``."""
    return contextlib.nullcontext()


class OpFailed(RuntimeError):
    """An op completed but its output failed verification."""


def check(cond: bool, what: str) -> None:
    """Verification that survives ``python -O`` (unlike ``assert``)."""
    if not cond:
        raise OpFailed(what)


def cpu_seconds() -> float:
    """Process CPU so far, user+sys, including waited-for children."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        ru = resource.getrusage(who)
        total += ru.ru_utime + ru.ru_stime
    return total


def usable_cpus() -> list[int]:
    """CPUs this process may run on, sorted."""
    try:
        return sorted(os.sched_getaffinity(0))
    except AttributeError:  # non-Linux
        return [0]


def pin(pid: int, cpus: list[int]) -> None:
    """Best-effort CPU affinity (a no-op where the OS has none)."""
    try:
        os.sched_setaffinity(pid, cpus)
    except (AttributeError, OSError):
        pass


@dataclass
class Sample:
    """One op as the client saw it."""

    ok: bool
    wall: float
    cpu: float = 0.0
    timed: bool = True
    virtual: float | None = None
    #: host slowdown while the op ran (``hostspeed``); ``wall / slow`` and
    #: ``cpu / slow`` are the op's seconds at reference speed.
    slow: float = 1.0
    #: serve only: job document fields the per-layer metrics are cut from.
    detail: dict[str, Any] = field(default_factory=dict)


@dataclass
class Timed:
    """Everything one timed phase produced."""

    samples: list[Sample]
    #: seconds at reference speed the timed ops took together (the
    #: calibration passes between them left out)
    wall: float


# ---------------------------------------------------------------------------
# shared drivers for the two out-of-process surfaces (CLI and server)
# ---------------------------------------------------------------------------

_COUNT_RE = re.compile(r"count=([\d,]+)")
_OVERALL_RE = re.compile(r"overall=([\d.]+)s")


_SPAWNER = """\
import json, os, subprocess, sys
for line in sys.stdin:
    proc = subprocess.Popen(json.loads(line), stdout=subprocess.PIPE,
                            stderr=subprocess.STDOUT, text=True)
    out = proc.stdout.read()
    _, status, ru = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    print(json.dumps({"out": out, "code": proc.returncode,
                      "maxrss_kb": ru.ru_maxrss,
                      "cpu_s": ru.ru_utime + ru.ru_stime}), flush=True)
"""


class Spawner:
    """A small, long-lived helper process that starts the CLI ops and
    reports each one's own rusage (``wait4``).

    Linux never reports a child's ``ru_maxrss`` below the peak RSS of the
    process that vfork'ed it, so ops started directly from this process —
    hundreds of MiB after set-up — would all report *its* peak.
    """

    def __init__(self) -> None:
        self.proc = subprocess.Popen(
            [sys.executable, "-S", "-c", _SPAWNER],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )

    def run(self, cmd: list[str]) -> dict[str, Any]:
        """Run ``cmd`` to completion: ``out``, ``code``, ``maxrss_kb``, ``cpu_s``."""
        self.proc.stdin.write(json.dumps(cmd) + "\n")
        self.proc.stdin.flush()
        reply = self.proc.stdout.readline()
        check(bool(reply), "the spawner process died")
        return json.loads(reply)

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.stdout.close()
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()


def run_cli(spawner: Spawner, file: Path, p: int, store: Path) -> dict[str, Any]:
    """One fresh ``python -m repro count FILE -p P --store DIR`` process."""
    reply = spawner.run([sys.executable, "-m", "repro", "count", str(file),
                         "-p", str(p), "--store", str(store)])
    check(reply["code"] == 0,
          f"repro count exited {reply['code']}: {reply['out'][-400:]}")
    return reply


def parse_cli(out: str) -> tuple[int, str, float]:
    """``(count, cache status, printed overall virtual seconds)``."""
    m = _COUNT_RE.search(out)
    check(m is not None, f"no count in CLI output: {out[-400:]}")
    status = "none"
    for line in out.splitlines():
        if line.startswith("cache: "):
            status = line.split()[1]
    overall = _OVERALL_RE.search(out)
    check(overall is not None, "no overall= in CLI output")
    return int(m.group(1).replace(",", "")), status, float(overall.group(1))


class ServeHarness:
    """``python -m repro serve`` as its own subprocess, plus its teardown.

    The server is pinned to ``cpu`` so the load generator (this process)
    and the server do not share a core when the host has two.
    """

    def __init__(self, work: Path, cpu: list[int]):
        self.store = work / "serve-store"
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--store", str(self.store), "--max-queue", "64"],
            stdout=subprocess.PIPE, text=True,
        )
        pin(self.proc.pid, cpu)
        try:
            line = self.proc.stdout.readline()
            m = re.search(r"http://([\d.]+):(\d+)", line)
            check(m is not None, f"server did not announce a port: {line!r}")
            self.host, self.port = m.group(1), int(m.group(2))
        except BaseException:
            self.stop()
            raise

    def client(self) -> ServeClient:
        return ServeClient(self.host, self.port, timeout=120.0)

    def submit(self, file: Path, ranks: int, progress: bool = False) -> dict:
        """One blocking count request on a connection of its own."""
        return self.client().submit(
            {"kind": "count", "dataset": str(file), "ranks": ranks},
            progress=progress,
        )

    def cpu_seconds(self) -> float:
        """Server process CPU (user+sys) from ``/proc``."""
        fields = Path(f"/proc/{self.proc.pid}/stat").read_text().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")

    def peak_rss_kb(self) -> int:
        """Server high-water RSS (the ``ru_maxrss`` quantity) in KiB."""
        for line in Path(f"/proc/{self.proc.pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
        return 0

    def stop(self) -> None:
        """Graceful shutdown, then escalate; always reaps the process."""
        if self.proc.poll() is None:
            with contextlib.suppress(Exception):
                self.client().shutdown()
            try:
                self.proc.wait(timeout=15)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()


def serve_request(
    harness: ServeHarness, file: Path, ranks: int, expect_warm: bool,
    oracle: int, span: SpanFn, progress: bool,
) -> Sample:
    """One verified request: count == oracle and the warm flag as planned."""
    t0 = time.perf_counter()
    try:
        with span("serve.request", warm=expect_warm):
            doc = harness.submit(file, ranks, progress=progress)
        wall = time.perf_counter() - t0
        check(doc["state"] == "done", f"job state {doc['state']}")
        check(doc["result"]["count"] == oracle,
              f"served count {doc['result']['count']} != oracle {oracle}")
        check(doc["warm"] is expect_warm,
              f"warm={doc['warm']} but planned {expect_warm}")
    except Exception:  # rejection, timeout, HTTP error, wrong answer
        traceback.print_exc()
        return Sample(False, time.perf_counter() - t0,
                      detail={"warm": expect_warm})
    detail = {"warm": expect_warm, "latency_s": doc["latency_s"]}
    if not expect_warm:
        started = [e["t_s"] for e in doc.get("events", ()) if e["kind"] == "started"]
        if started:
            detail["queue_s"] = started[0]
    return Sample(True, wall, virtual=doc["result"]["virtual"]["overall_s"],
                  detail=detail)


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------


class Workload:
    """Common shape: ``setup`` (inputs from the seed + oracle), a closed
    loop of verified ops, ``teardown``.

    ``n``/``edges``/``oracle``/``file`` describe the graph the per-layer
    probes run on (``file`` may be ``None`` until a probe writes it).
    """

    name = ""
    p = 16
    warmup = 0
    #: seconds one op takes on the reference host; turns ``--seconds``
    #: into a timed-op count that is the same on every host.
    nominal_op_s = 1.0
    min_ops = 15
    smoke_ops = 3
    #: timed ops of the untraced and of the traced pass of the traced run
    traced_ops = 5

    def __init__(self, seed: int, n_ops: int, smoke: bool):
        self.seed = seed
        self.smoke = smoke
        self.n_ops = n_ops
        self.n = 0
        self.edges = np.empty((0, 2), dtype=np.int64)
        self.oracle = 0
        self.file: Path | None = None
        #: The CPU this process is pinned to.  The engine runs one rank at
        #: a time, so one CPU is its budget; letting its threads migrate
        #: doubles the op time on this host (README "Pinning").
        self.cpu = usable_cpus()[-1:]

    @classmethod
    def ops_for(cls, seconds: float, smoke: bool) -> int:
        """Timed ops that fill ``seconds`` on the reference host."""
        if smoke:
            return cls.smoke_ops
        return max(cls.min_ops, round(seconds / cls.nominal_op_s))

    @classmethod
    def layer_ops(cls, smoke: bool) -> int:
        return cls.smoke_ops if smoke else cls.traced_ops

    def params(self) -> dict[str, Any]:
        """Input parameters, for the report."""
        raise NotImplementedError

    def setup(self, work: Path) -> None:
        raise NotImplementedError

    def teardown(self) -> None:
        """Stop what ``setup`` started (idempotent)."""

    def op(self, span: SpanFn = no_span) -> float:
        """One verified op; returns its virtual makespan, raises on failure."""
        raise NotImplementedError

    def timed(self, span: SpanFn = no_span) -> Timed:
        """Closed loop, one client: warm-up ops, then ``n_ops`` timed ops,
        a calibration pass before and after each."""
        samples = []
        cal = hostspeed.calibrate()
        for i in range(self.warmup + self.n_ops):
            t0, c0 = time.perf_counter(), self.cpu_seconds()
            try:
                with span("op", workload=self.name):
                    virtual = self.op(span)
                ok = True
            except Exception:  # a failed op is counted, the loop goes on
                traceback.print_exc()
                virtual, ok = None, False
            wall, cpu = time.perf_counter() - t0, self.cpu_seconds() - c0
            cal, before = hostspeed.calibrate(), cal
            samples.append(Sample(ok, wall, cpu, i >= self.warmup, virtual,
                                  slow=(before + cal) / 2 / hostspeed.REF_S))
        return Timed(samples, sum(s.wall / s.slow for s in samples if s.timed))

    def cpu_seconds(self) -> float:
        """CPU spent so far on behalf of this workload's ops."""
        return cpu_seconds()

    def virtual_makespan(self, samples: list[Sample]) -> float:
        """Simulated seconds of the workload's op (identical on every op)."""
        values = {s.virtual for s in samples if s.ok}
        check(len(values) == 1, f"virtual makespan differs between ops: {values}")
        return values.pop()

    def peak_rss_kb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    def counts(self) -> dict[str, int]:
        """Exact numbers that must repeat bit for bit with the seed;
        ``oracle_triangles`` is of the graph the layer probes run on."""
        return {"n": int(self.n), "oracle_triangles": int(self.oracle)}


class BatchCount(Workload):
    """In-process ``Graph.from_edges`` + ``count_triangles_2d`` (tc2d
    defaults, sequential executor, no store) + count check."""

    warmup = 2

    def generate(self) -> tuple[int, np.ndarray]:
        raise NotImplementedError

    def setup(self, work: Path) -> None:
        self.n, self.edges = self.generate()
        self.oracle = triangle_count_linalg(Graph.from_edges(self.n, self.edges))

    def op(self, span: SpanFn = no_span) -> float:
        with span("graph.csr.from_edges"):
            g = Graph.from_edges(self.n, self.edges)
        with span("core.tc2d.count"):
            res = count_triangles_2d(g, self.p)
        check(res.count == self.oracle,
              f"tc2d count {res.count} != oracle {self.oracle}")
        return res.overall_time


class RmatDense(BatchCount):
    # The paper's headline input: triangle-dense, so core.kernels does most
    # of the work and core.preprocess about a quarter.  A kernel or
    # CSR-build optimisation shows here; an engine/comm one barely does.
    name = "rmat_dense"
    p = 16
    nominal_op_s = 1.05

    def params(self) -> dict[str, Any]:
        return {"generator": "rmat_edges", "scale": 10 if self.smoke else 14,
                "edge_factor": 16, "p": self.p}

    def generate(self) -> tuple[int, np.ndarray]:
        scale = self.params()["scale"]
        return 1 << scale, rmat_edges(scale, 16, seed=self.seed)


class SparseWide(BatchCount):
    # Same code path used the opposite way (friendster-like): almost no
    # intersection work, 64 ranks, p^2 small messages per all-to-all, so
    # core.preprocess + simmpi dominate.  Message agglomeration or rank
    # coroutines show here; a kernel backend predicts no change.
    name = "sparse_wide"
    p = 64
    nominal_op_s = 0.8

    def __init__(self, seed: int, n_ops: int, smoke: bool):
        super().__init__(seed, n_ops, smoke)
        if smoke:
            self.p = 16

    def params(self) -> dict[str, Any]:
        return {"generator": "configuration_model",
                "n": 2000 if self.smoke else 10000, "gamma": 2.4, "d_min": 3,
                "p": self.p}

    def generate(self) -> tuple[int, np.ndarray]:
        n = self.params()["n"]
        g = configuration_model(n, gamma=2.4, d_min=3, seed=self.seed)
        return n, g.edge_array()


class CliWarm(Workload):
    # What a CLI user waits for: interpreter + `import repro.cli` +
    # graph.io parse + digest + graph.store mmap load + a short tct.
    # core.preprocess does nothing here (store hit), so a ppt gain must not
    # move it, and import-time/CLI/store work shows nowhere else.
    name = "cli_warm"
    p = 16
    #: The ops go round this many graphs.  With glibc's per-thread arenas
    #: the op's peak RSS is 60 % allocator, not live data, and that share
    #: jumps with the graph (144-193 MiB over 20 seeds, repeating to 0.1 MiB
    #: for one seed); the median over a few graphs is what holds still.
    graphs = 4
    warmup = graphs
    nominal_op_s = 1.25  # the op and the store priming of four graphs in set-up
    min_ops = 4 * graphs  # every graph the same number of times

    def __init__(self, seed: int, n_ops: int, smoke: bool):
        super().__init__(seed, n_ops, smoke)
        self.store: Path | None = None
        self.spawner: Spawner | None = None
        self.files: list[Path] = []
        self.oracles: list[int] = []
        self.virtuals: list[float] = []
        self.next_graph = 0
        self.op_rss_kb: list[int] = []
        self.op_cpu_s = 0.0

    def params(self) -> dict[str, Any]:
        return {"generator": "powerlaw_cluster_fast",
                "n": 1000 if self.smoke else 9000, "m": 12, "p_triad": 0.45,
                "graphs": self.graphs, "p": self.p}

    def setup(self, work: Path) -> None:
        self.store = work / "cli-store"
        self.spawner = Spawner()
        for k in range(self.graphs):
            g = powerlaw_cluster_fast(self.params()["n"], 12, 0.45,
                                      seed=self.seed * 1000 + k)
            file = work / f"holme-kim-{k}.txt"
            write_edge_list(g, file)
            self.files.append(file)
            self.oracles.append(triangle_count_linalg(g))
            if k == 0:
                self.n, self.edges, self.oracle, self.file = (
                    g.n, g.edge_array(), self.oracles[0], file)
                # Priming as a user does it: one cold CLI run, a store
                # *write*; part of setup_s.
                count, status, _ = parse_cli(
                    run_cli(self.spawner, file, self.p, self.store)["out"])
                check(count == self.oracle and status == "miss",
                      f"priming run: count={count} cache={status}")
            # The op's own computation once in-process: the exact float the
            # CLI rounds to four decimals when it prints, and the priming
            # of the other graphs.
            res = count_triangles_2d(read_edge_list(file), self.p,
                                     model=paper_model(), cache=self.store)
            check(res.count == self.oracles[k]
                  and res.extras["cache"]["hit"] is (k == 0),
                  f"in-process count of graph {k}: {res.count}, {res.extras['cache']}")
            self.virtuals.append(res.overall_time)

    def op(self, span: SpanFn = no_span) -> float:
        k = self.next_graph
        self.next_graph = (k + 1) % self.graphs
        with span("cli.subprocess"):
            reply = run_cli(self.spawner, self.files[k], self.p, self.store)
        self.op_cpu_s += reply["cpu_s"]
        self.op_rss_kb.append(reply["maxrss_kb"])
        count, status, overall = parse_cli(reply["out"])
        check(count == self.oracles[k],
              f"CLI count {count} != oracle {self.oracles[k]}")
        check(status == "hit", f"cache status {status!r}, expected a hit")
        check(abs(overall - self.virtuals[k]) <= 5.1e-5,
              f"CLI printed overall={overall}, in-process {self.virtuals[k]}")
        return self.virtuals[k]

    def teardown(self) -> None:
        if self.spawner is not None:
            self.spawner.close()
            self.spawner = None

    def cpu_seconds(self) -> float:
        # The ops are the spawner's children, not this process's.
        return cpu_seconds() + self.op_cpu_s

    def virtual_makespan(self, samples: list[Sample]) -> float:
        """Sum of the simulated makespans of the graphs."""
        return math.fsum(self.virtuals)

    def peak_rss_kb(self) -> float:
        return statistics.median(self.op_rss_kb)

    def counts(self) -> dict[str, int]:
        return {**super().counts(), "oracle_triangles_all": int(sum(self.oracles))}


class ServeMixed(Workload):
    # The only workload with concurrency, queueing and writes beside reads:
    # the median op is the warm path (HTTP + dict lookup) while a cold job
    # holds the server, the p90 op is a cold job.  Speeding cold counts
    # while slowing the warm path (or the reverse) moves op_s_p50 and
    # op_s_p90 in opposite directions.
    #
    # The two clients send in lockstep (a barrier before every request), so
    # which requests overlap is fixed by the schedule: a first-time key
    # always travels with a repeat from the other client, never with another
    # first-time key.  Free-running clients overlap by chance: a repeat that
    # meets a cold job waits for the server's GIL (3-6 ms against 1 ms), the
    # median request sat on the jump between the two modes, and op_s_p50
    # moved 16-28 % between runs of one commit.
    name = "serve_mixed"
    p = 16  # the per-layer probes use the largest requested grid
    ranks = (4, 9, 16)
    clients = 2
    #: The timed phase is cut into this many equal parts with no request in
    #: flight between them, where the host's speed is calibrated.
    segments = 5
    cold_share = 0.3
    zipf_s = 1.1
    nominal_op_s = 0.032
    min_ops = 200
    smoke_ops = 20
    traced_ops = 100

    def __init__(self, seed: int, n_ops: int, smoke: bool):
        super().__init__(seed, n_ops, smoke)
        if smoke:
            self.segments = 2
        self.n_ops -= self.n_ops % (self.clients * self.segments)
        # The load generator and the server get a CPU each where there are two.
        self.cpu = usable_cpus()[:1]
        self.server_cpu = usable_cpus()[-1:]
        self.harness: ServeHarness | None = None
        self.files: list[Path] = []
        self.oracles: list[int] = []
        #: per client, per step: (file index, ranks, expect_warm)
        self.schedule: list[list[tuple[int, int, bool]]] = []
        self.server_rss_kb = 0
        self.stats: dict[str, Any] = {}  # the server's /v1/stats after the timed phase

    def cold_steps(self) -> set[int]:
        """The steps at which every client sends a first-time key: step 0
        (nothing to repeat yet) and, in each segment, seeded steps that make
        up ``cold_share`` of it."""
        per_segment = self.n_ops // self.clients // self.segments
        cold_per_segment = round(self.cold_share * per_segment)
        rng = np.random.default_rng(self.seed)
        cold = {0}
        for seg in range(self.segments):
            first = seg == 0  # its step 0 is taken
            steps = rng.choice(per_segment - first, cold_per_segment - first,
                               replace=False)
            cold.update(int(seg * per_segment + first + step) for step in steps)
        return cold

    def params(self) -> dict[str, Any]:
        cold = len(self.cold_steps())
        return {"generator": "rmat_edges", "scale": 10,
                "edge_factor": 16, "ranks": list(self.ranks),
                "clients": self.clients, "requests": self.n_ops,
                "segments": self.segments, "cold_per_client": cold,
                "files": self.clients * math.ceil(cold / len(self.ranks)),
                "zipf_s": self.zipf_s}

    def plan(self) -> list[list[tuple[int, int, bool]]]:
        """The seeded request schedule.

        Each client owns every ``clients``-th file, so a repeat is only
        ever issued after the same client saw that key's first answer: the
        planned warm flag is then a fact, not a race.  At a cold step
        (``cold_steps``) a client sends its next first-time key, at any
        other a Zipf-ranked repeat of the keys it has seen so far.
        """
        files, cold_at = self.params()["files"], self.cold_steps()
        plans = []
        for c in range(self.clients):
            rng = np.random.default_rng([self.seed, c])
            keys = [(f, r) for f in range(c, files, self.clients)
                    for r in self.ranks]
            keys = [keys[i] for i in rng.permutation(len(keys))]
            seen: list[tuple[int, int]] = []
            plan = []
            for step in range(self.n_ops // self.clients):
                if step in cold_at:
                    key = keys[len(seen)]
                    seen.append(key)
                    plan.append((*key, False))
                else:
                    w = 1.0 / np.arange(1, len(seen) + 1) ** self.zipf_s
                    plan.append((*seen[rng.choice(len(seen), p=w / w.sum())], True))
            plans.append(plan)
        return plans

    def setup(self, work: Path) -> None:
        par = self.params()
        self.files, self.oracles = [], []
        for f in range(par["files"] + 1):  # the extra file is the warm-up
            g = Graph.from_edges(
                1 << par["scale"],
                rmat_edges(par["scale"], 16, seed=self.seed * 1000 + f),
            )
            path = work / f"rmat-{f:02d}.txt"
            write_edge_list(g, path)
            self.files.append(path)
            self.oracles.append(triangle_count_linalg(g))
            if f == 0:
                self.n, self.edges, self.oracle, self.file = (
                    g.n, g.edge_array(), self.oracles[0], path)
        self.schedule = self.plan()
        self.harness = ServeHarness(work, self.server_cpu)
        # The server imports numpy and the engine lazily on its first job;
        # a user pays that once per server, so it belongs to set-up.
        warm = serve_request(self.harness, self.files[-1], self.ranks[0],
                             False, self.oracles[-1], no_span, False)
        check(warm.ok, "server warm-up request failed")

    def teardown(self) -> None:
        if self.harness is not None:
            self.server_rss_kb = max(self.server_rss_kb,
                                     self.harness.peak_rss_kb())
            self.harness.stop()
            self.harness = None

    def calibrate(self) -> list[float]:
        """Three calibration passes on the server's CPU, which does the
        cold jobs; called only while no request is in flight."""
        pin(0, self.server_cpu)
        try:
            return [hostspeed.calibrate() for _ in range(3)]
        finally:
            pin(0, self.cpu)

    def timed(self, span: SpanFn = no_span) -> Timed:
        """Closed loop, ``clients`` threads in lockstep, one connection per
        request, in ``segments`` parts with a calibration before and after
        each.  The requests are too short to bracket one by one and a
        slowdown per segment was no steadier, so the whole phase shares
        one: the median pass."""
        harness = self.harness
        progress = span is not no_span  # job events only on the traced run
        per_segment = len(self.schedule[0]) // self.segments
        samples: list[Sample] = []
        wall_all = 0.0
        lockstep = threading.Barrier(self.clients, timeout=120.0)
        passes = self.calibrate()
        for lo in range(0, len(self.schedule[0]), per_segment):
            results: list[Sample] = []

            def client(c: int) -> None:
                for f, ranks, warm in self.schedule[c][lo:lo + per_segment]:
                    lockstep.wait()
                    sample = serve_request(harness, self.files[f], ranks, warm,
                                           self.oracles[f], span, progress)
                    sample.detail["key"] = (f, ranks)
                    results.append(sample)

            threads = [threading.Thread(target=client, args=(c,))
                       for c in range(self.clients)]
            t0 = time.perf_counter()
            c0 = cpu_seconds() + harness.cpu_seconds()
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            wall = time.perf_counter() - t0
            cpu = cpu_seconds() + harness.cpu_seconds() - c0
            check(len(results) == self.clients * per_segment,
                  "a client thread died")
            passes += self.calibrate()
            for s in results:
                # Per-request CPU cannot be attributed with two clients in
                # flight: every op carries the segment's mean (server +
                # client CPU).
                s.cpu = cpu / len(results)
            wall_all += wall
            samples += results
        self.stats = harness.client().stats()
        slow = statistics.median(passes) / hostspeed.REF_S
        for s in samples:
            s.slow = slow
        return Timed(samples, wall_all / slow)

    def virtual_makespan(self, samples: list[Sample]) -> float:
        """Sum of the simulated makespans of the distinct request keys."""
        by_key = {s.detail["key"]: s.virtual for s in samples if s.ok}
        return math.fsum(by_key[k] for k in sorted(by_key))

    def peak_rss_kb(self) -> int:
        return self.server_rss_kb

    def counts(self) -> dict[str, int]:
        return {**super().counts(), "requests": self.n_ops,
                "oracle_triangles_all": int(sum(self.oracles[:-1]))}


WORKLOADS: dict[str, type[Workload]] = {
    w.name: w for w in (RmatDense, SparseWide, CliWarm, ServeMixed)
}


def measure(wl: Workload, work: Path, t_spawn: float, setup_only: bool) -> dict[str, Any]:
    """The untraced end-to-end run of one workload: every end-to-end
    metric, the op quartiles and the exact counts.

    ``setup_s`` runs from the spawn of this process (``t_spawn``, the
    spawner's ``time.monotonic()``) to the first timed op.  With
    ``setup_only`` nothing else is measured: ``bench.py`` starts a few such
    processes per run and reports the median set-up.

    Every timing metric is in seconds at reference speed (``hostspeed``);
    ``raw`` in the document holds the same figures as the clock read them.
    """
    pin(0, wl.cpu)
    try:
        wl.setup(work)
        setup_raw = time.monotonic() - t_spawn
        setup_s = setup_raw / hostspeed.slowdown(passes=5)
        if setup_only:
            return {"setup_s": setup_s}
        timed = wl.timed()
    finally:
        wl.teardown()
    ops = [s for s in timed.samples if s.timed]
    good = [s for s in ops if s.ok]
    failed = sum(not s.ok for s in timed.samples)
    metrics: dict[str, tuple[float, str]] = {
        "setup_s": (setup_s, "s"),
        "fail_ratio": (failed / len(timed.samples), "ratio"),
    }
    doc: dict[str, Any] = {
        "params": wl.params(),
        "ops": {"timed": len(ops), "warmup": len(timed.samples) - len(ops),
                "attempted": len(timed.samples), "failed": failed},
        "counts": wl.counts(),
    }
    if len(good) >= 2:
        walls = [s.wall / s.slow for s in good]
        # "inclusive" interpolates between order statistics and never reads
        # past the sample's extremes, which matters with ~20 samples.
        deciles = statistics.quantiles(walls, n=10, method="inclusive")
        metrics.update({
            "op_s_p50": (statistics.median(walls), "s"),
            "op_s_p90": (deciles[-1], "s"),
            "ops_per_s": (len(good) / timed.wall, "1/s"),
            "op_cpu_s_p50": (statistics.median(s.cpu / s.slow for s in good), "s"),
            "virtual_makespan_s": (wl.virtual_makespan(good), "s"),
            "peak_rss_mb": (wl.peak_rss_kb() / 1024.0, "MiB"),
        })
        doc["op_s_quartiles"] = statistics.quantiles(walls, n=4, method="inclusive")
        doc["raw"] = {
            "setup_s": setup_raw,
            "op_s_p50": statistics.median(s.wall for s in good),
            "op_cpu_s_p50": statistics.median(s.cpu for s in good),
            "host_slowdown_p50": statistics.median(s.slow for s in good),
        }
    doc["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    return doc
