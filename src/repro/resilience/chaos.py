"""The differential sweep (``python -m repro chaos``): every counting path
against one oracle.

A cell is one point of graph × algorithm × p × kernel × toggles ×
traced × fault plan × input path, drawn from ``(seed, index)``
(:func:`draw_cell`).  Its count must be the serial count, its logical
counters those of its *twin* (the same run in memory, untraced, without
faults, on the other kernel), and where the store state matches too, its
virtual clocks (:func:`run_cell`).  docs/resilience.md has the details.
"""

from __future__ import annotations

import argparse
import json
import tempfile
from dataclasses import asdict, dataclass
from pathlib import Path
from types import SimpleNamespace
from typing import Any

import numpy as np

from repro.bench.calibration import paper_model
from repro.core.config import KERNEL_BACKENDS, TC2DConfig
from repro.graph.csr import Graph
from repro.resilience.recovery import RecoveryPolicy

#: (algorithm, input path); docs/resilience.md says what each path runs.
ROUTES = (
    ("tc2d", "memory"), ("tc2d", "cold"), ("tc2d", "warm"),
    ("tc2d", "ingest"), ("tc2d", "ooc"), ("tc2d", "serve"),
    ("tc2d", "malformed"),
    ("coveredge", "memory"), ("coveredge", "cold"), ("coveredge", "warm"),
    ("allgather", "memory"), ("summa", "memory"), ("census", "memory"),
    ("aop", "memory"), ("surrogate", "memory"), ("psp", "memory"),
    ("havoq", "memory"),
)
#: The malformed route plants these in turn, one per pass over ROUTES.
DEFECTS = (
    "id-past-header-n", "negative-id", "one-field-row",
    "non-integer-field", "redge-id-past-header-n",
)
#: The fault-plan axis of tc2d on the memory, cold and warm paths.
FAULTS = ("plain", "no-plan", "empty-plan", "random-plan")
TOGGLES = ("doubly_sparse", "modified_hashing", "early_stop", "blob_serialization")
ONE_D = ("aop", "surrogate", "psp", "havoq")
SUMMA_GRIDS = ((1, 2), (2, 1), (2, 3), (3, 2), (1, 4), (2, 2), (3, 4))
#: The tier-1 profile: five passes over ROUTES, so every defect is planted.
DEFAULT_CELLS = 5 * len(ROUTES)

_MODEL = paper_model()


def _expect(ok: bool, what: str) -> None:
    if not ok:
        raise AssertionError(what)


@dataclass(frozen=True)
class Cell:
    """One point of the lattice; :func:`draw_cell` makes them."""

    seed: int
    index: int
    algorithm: str
    path: str
    p: int
    grid: tuple[int, int]  # q x q, SUMMA's pr x pc, or 1 x p for 1D
    cfg: TC2DConfig  # kernel, enumeration and toggles
    traced: bool
    faults: str
    fault_seed: int
    checkpoint_interval: int
    defect: str

    @property
    def slug(self) -> str:
        return f"s{self.seed}-i{self.index}-{self.algorithm}-{self.path}-p{self.p}"

    def graph(self) -> tuple[int, np.ndarray, str]:
        """The cell's messy edge list ``(n, edges, description)``."""
        return messy_edges(np.random.default_rng([self.seed, self.index, 1]), self.p)

    def row(self) -> dict[str, Any]:
        row = asdict(self)
        keep = ("kernel_backend", "enumeration", *TOGGLES)
        row["cfg"] = {k: row["cfg"][k] for k in keep}
        return row


def draw_cell(seed: int, index: int) -> Cell:
    """Cell ``index`` of the sweep seeded ``seed``."""
    rng = np.random.default_rng([seed, index])
    algorithm, path = ROUTES[(seed + index) % len(ROUTES)]

    def flip() -> bool:
        return bool(rng.random() < 0.5)

    if algorithm in ONE_D:
        grid = (1, int(rng.integers(1, 13)))
    elif algorithm == "summa":
        grid = SUMMA_GRIDS[int(rng.integers(len(SUMMA_GRIDS)))]
    else:
        grid = (int(rng.choice([1, 2, 2, 3, 3, 4])),) * 2
    jik = algorithm in ("summa", "census") or flip()
    cfg = TC2DConfig(
        enumeration="jik" if jik else "ijk",
        **{t: flip() for t in TOGGLES},
        kernel_backend=str(rng.choice(KERNEL_BACKENDS)),
    )
    if path == "serve":  # the service runs the CLI's configuration
        cfg = TC2DConfig(enumeration=cfg.enumeration)
    stored = path in ("memory", "cold", "warm")
    return Cell(
        seed=seed, index=index, algorithm=algorithm, path=path,
        p=grid[0] * grid[1], grid=grid, cfg=cfg,
        traced=stored and algorithm not in (*ONE_D, "census") and flip(),
        faults=str(rng.choice(FAULTS)) if stored and algorithm == "tc2d" else "plain",
        fault_seed=int(rng.integers(2**31)),
        checkpoint_interval=int(rng.integers(1, 3)),
        defect=(
            DEFECTS[(seed + index) // len(ROUTES) % len(DEFECTS)]
            if path == "malformed" else ""
        ),
    )


# -- the messy graph and its file ---------------------------------------------


def messy_edges(rng: np.random.Generator, p: int) -> tuple[int, np.ndarray, str]:
    """A small graph from one of the generators, made hostile: a hub,
    self-loops, duplicate and reversed pairs, isolated vertices, a
    relabeling, or fewer vertices than ``p``.  The raw edge list is
    returned; :meth:`Graph.from_edges` is what normalizes it."""
    from repro.graph import generators as gen

    def ri(lo: int, hi: int) -> int:
        return int(rng.integers(lo, hi))

    kinds = {
        "rmat": lambda: gen.rmat_graph(ri(3, 8), edge_factor=ri(2, 7), seed=s),
        "gnm": lambda: gen.erdos_renyi_gnm(ri(4, 120), ri(0, 400), seed=s),
        "ba": lambda: gen.barabasi_albert(ri(6, 100), ri(1, 5), seed=s),
        "holme-kim": lambda: gen.powerlaw_cluster_fast(
            ri(6, 100), ri(1, 5), float(rng.random()), seed=s),
        "small-world": lambda: gen.watts_strogatz(
            ri(8, 100), 2 * ri(1, 4), 0.3 * float(rng.random()), seed=s),
        "config": lambda: gen.configuration_model(ri(10, 150), d_min=ri(1, 4), seed=s),
        "lattice": lambda: gen.grid_2d(ri(1, 9), ri(1, 9), diagonal=bool(ri(0, 2))),
        "clique": lambda: gen.complete_graph(ri(1, 13)),
        "n<p": lambda: Graph.from_edges(
            n, rng.integers(0, max(n, 1), size=(ri(0, 3 * n + 1), 2))),
    }
    kind = list(kinds)[ri(0, len(kinds))]
    s, n = ri(0, 2**31), ri(0, p) if p > 1 else 0  # n: the "n<p" vertex count
    g = kinds[kind]()
    n, edges, mess = g.n, g.edge_array(), [kind]
    if rng.random() < 0.3:
        targets = np.flatnonzero(rng.random(n) < 0.5 + 0.5 * rng.random())
        edges = np.concatenate([edges, np.stack([np.full_like(targets, n), targets], 1)])
        n += 1
        mess.append("hub")
    if rng.random() < 0.3 and n:
        loops = rng.integers(0, n, size=ri(1, 5))
        edges = np.concatenate([edges, np.stack([loops, loops], 1)])
        mess.append("self-loops")
    if rng.random() < 0.4 and len(edges):
        edges = np.concatenate([edges, edges[rng.integers(0, len(edges), size=ri(1, 10))]])
        mess.append("duplicates")
    if rng.random() < 0.5 and len(edges):
        flip = rng.random(len(edges)) < 0.5
        edges[flip] = edges[flip, ::-1]
        mess.append("reversed")
    if rng.random() < 0.3:
        n += ri(1, 2 * p + 2)
        mess.append("isolated")
    if rng.random() < 0.5 and n:
        edges = rng.permutation(n)[edges]
        mess.append("relabeled")
    edges = edges[rng.permutation(len(edges))].astype(np.int64).reshape(-1, 2)
    return n, edges, "+".join(mess)


def write_messy_file(
    path: Path, n: int, edges: np.ndarray, rng: np.random.Generator, defect: str = ""
) -> str:
    """Write ``edges`` as binary REDGE or as untidy text (comments, blank
    lines, tabs, ignored fields, the ``n=`` header anywhere or implied,
    sometimes 144 KB of padding so a late header lies past the first read
    block), with one of :data:`DEFECTS` planted.  Returns the layout."""
    from repro.graph.io import write_binary_edges

    if defect.startswith("redge") or (not defect and rng.random() < 0.25):
        if defect:
            edges = np.concatenate([edges, [[0, n + int(rng.integers(3))]]])
        write_binary_edges(path, n, edges)
        return "redge"
    lines = []
    for u, v in edges:
        r = rng.random()
        lines.append(
            f"{u}\t{v}" if r < 0.1 else f"{u} {v} {int(rng.integers(100))}"
            if r < 0.2 else f"{u} {v}  % trailing" if r < 0.25 else f"{u} {v}"
        )
        if rng.random() < 0.05:
            lines.append(str(rng.choice(["", "   ", "% a comment", "# a comment"])))
    bad = {
        "id-past-header-n": f"0 {n + int(rng.integers(3))}",
        "negative-id": f"-1 {int(rng.integers(max(n, 1)))}",
        "one-field-row": "2",
        "non-integer-field": "1 2.5",
    }.get(defect)
    if bad is not None:
        lines.insert(int(rng.integers(len(lines) + 1)), bad)
    layout = ["text"]
    if rng.random() < 0.2:
        cut = int(rng.integers(len(lines) + 1))
        lines[cut:cut] = [f"% padding {i:04d} " + "." * 48 for i in range(2400)]
        layout.append("padded")
    where = str(rng.choice(["first", "middle", "last", "none"]))
    implied = int(edges.max()) + 1 if edges.size else 0
    if where == "none" and (n != implied or defect == "id-past-header-n"):
        where = "last"
    at = {"first": 0, "middle": len(lines) // 2, "last": len(lines)}.get(where)
    if at is not None:
        lines.insert(at, f"{rng.choice(['#', '%'])} n={n}")
    path.write_text("\n".join(lines) + "\n")
    return "+".join([*layout, f"header-{where}"])


# -- running and judging one cell ---------------------------------------------


def _drive(c, cfg: TC2DConfig, trace: bool = False, cache: Any = None,
           keep_run: bool = False):
    """One plain run of the cell's grid algorithm."""
    from repro import core

    kw = dict(model=_MODEL, trace=trace, keep_run=keep_run)
    alg, p = c.cell.algorithm, c.cell.p
    if alg == "allgather":
        return core.count_triangles_2d_allgather(c.graph, p, cfg, **kw)
    if alg == "summa":
        return core.count_triangles_summa(c.graph, *c.cell.grid, cfg, **kw)
    return core.GRID_DRIVERS[alg](c.graph, p, cfg, cache=cache, **kw)


def _twin_cfg(cfg: TC2DConfig) -> TC2DConfig:
    return cfg.replace(kernel_backend="batch" if cfg.kernel_backend == "row" else "row")


def _agree(c, res, twin, clocks: bool = False, ppt: bool = True) -> None:
    """Hold one run to the oracle and to ``twin``: its logical counters
    (``ppt``: it has a preprocessing record) and, with ``clocks``, its
    virtual clocks.  ``checkpoint_io`` is bookkeeping, not work."""
    _expect(res.count == c.oracle, f"count {res.count} != serial {c.oracle}")

    def view(r):
        shifts = r.shift_records
        return {
            "counters_tct": {k: v for k, v in r.counters_tct.items() if k != "checkpoint_io"},
            "counters_ppt": {k: v for k, v in r.counters_ppt.items() if k != "checkpoint_io"},
            "hash_builds": (r.hash_builds, r.hash_fast_builds),
            "shift_tasks": [(s.shift, s.rank, s.tasks) for s in shifts],
            "clocks": (r.ppt_time, r.tct_time, [s.compute_seconds for s in shifts]),
        }

    keys = ["counters_tct", "hash_builds", "shift_tasks"]
    keys += ["counters_ppt"] * ppt + ["clocks"] * clocks
    a, b = view(res), view(twin)
    _expect(all(a[k] == b[k] for k in keys),
            f"differs from the twin in {[k for k in keys if a[k] != b[k]]}")


def _resilient(c, cache: Any):
    from repro.instrument.chrometrace import write_chrome_trace
    from repro.resilience.faults import FaultPlan
    from repro.resilience.recovery import count_triangles_2d_resilient

    cell, policy, out = c.cell, c.policy, c.out_dir
    plan = {
        "no-plan": None,
        "empty-plan": FaultPlan(seed=cell.fault_seed),
        "random-plan": FaultPlan.random(cell.fault_seed, cell.p, cell.grid[0], n_faults=4),
    }[cell.faults]
    res = count_triangles_2d_resilient(
        c.graph, cell.p, c.cfg, model=_MODEL, fault_plan=plan,
        checkpoint_dir=out / "checkpoints" / cell.slug if out else None,
        policy=policy, checkpoint_interval=cell.checkpoint_interval,
        trace=cell.traced, cache=cache, telemetry=c.tele,
    )
    ex = res.extras
    c.row.update(
        fault_plan=json.loads(plan.to_json()) if plan is not None else None,
        restarts=ex["restarts"], faults_fired=ex["faults_fired"],
        checkpoint_manifest=ex["checkpoint_manifest"],
        attempts=[asdict(a) for a in ex["attempts"]],
    )
    _expect(ex["restarts"] <= policy.max_restarts, "restart budget exceeded")
    _expect(all(a.backoff <= policy.backoff_cap for a in ex["attempts"]),
            "a backoff over the cap")
    if out is not None and cell.traced:
        (out / "traces").mkdir(parents=True, exist_ok=True)
        for i, at in enumerate(ex["attempt_traces"]):
            write_chrome_trace(out / "traces" / f"{cell.slug}-attempt{i}.json", at)
        write_chrome_trace(out / "traces" / f"{cell.slug}-ok.json", ex["run"])
    return res


def _memory_or_store(c):
    """The memory, cold and warm paths, under the fault axis."""
    from repro.graph.store import GraphStore

    cell = c.cell
    store = GraphStore(c.tmp / "store") if cell.path != "memory" else None
    if cell.path == "warm":
        _expect(_drive(c, c.cfg, cache=store).extras["cache"]["stored"],
                "the priming run stored nothing")
    plain = cell.faults == "plain"
    if plain:
        res = _drive(c, c.cfg, cell.traced, store, keep_run=cell.path == "warm")
    else:
        res = _resilient(c, store)
    info = res.extras.get("cache")
    if cell.path == "cold":
        writes = cell.faults in ("plain", "no-plan")  # never under an injector
        _expect(not info["hit"] and info["stored"] == writes, f"cold store: {info}")
        _expect(writes or store.digests() == [], "a run under an injector wrote the store")
        if writes:
            ranks = store.read_manifest(info["digest"])["ranks"]
            _expect(sorted(map(int, ranks)) == list(range(cell.p)), "the entry misses ranks")
    elif cell.path == "warm":
        _expect(info["hit"] and info["replayed_ppt"], f"warm store: {info}")
        _expect(res.ppt_time == c.twin.ppt_time, "the warm hit did not replay ppt")
        if plain:  # the live run skipped preprocessing
            run = res.extras["run"]
            _expect("cache" in run.phase_names() and all(
                run.counter_total(k) == 0.0 for k in ("relabel", "scan", "sort", "csr_build")
            ), "the warm run preprocessed")
            _agree(c, res, _drive(c, _twin_cfg(c.cfg), cache=store), clocks=True)
        if cell.algorithm == "tc2d":
            _through_the_record(c, store)
    if cell.traced:
        phases = {s.name for s in res.extras["run"].tracer.spans if s.cat == "phase"}
        _expect({"ppt", "tct"} <= phases, f"the trace has phases {sorted(phases)}")
    # A run resumed from a checkpoint read it instead of preprocessing: its
    # ppt record is that read.  Its tct counters are the whole run's.
    attempts = c.row.get("attempts") or [{"restored_epoch": None}]
    _agree(c, res, c.twin, clocks=plain and cell.path != "warm",
           ppt=attempts[-1]["restored_epoch"] is None)
    return res


def _through_the_record(c, store) -> None:
    """The cell's file counted twice through ``store`` (which holds its
    entry): the first count reads the file and records it, the second
    goes by the record; each is held to the oracle and to the warm
    twin's clocks."""
    from repro.core.tc2d import count_input_2d
    from repro.graph.csr import degree_summary

    twin = _drive(c, _twin_cfg(c.cfg), cache=store)
    for how in ("read", "recorded"):
        res, summary = count_input_2d(c.file, c.cell.p, c.cfg, store=store, model=_MODEL)
        _expect(res.extras["input"] == how, f"the file was {res.extras['input']}, not {how}")
        _expect(res.extras["cache"]["hit"], f"the {how} file missed the entry")
        _expect(summary == degree_summary(c.graph), f"the {how} file's summary is {summary}")
        _agree(c, res, twin, clocks=True)


def _served(c, svc) -> dict:
    job = svc.submit({"kind": "count", "dataset": str(c.file), "ranks": c.cell.p,
                      "enumeration": c.cfg.enumeration})
    job.wait()  # the run's own watchdog bounds it
    _expect(job.state == "done", f"the served job is {job.state}: {job.error}")
    return job.result


def _judge_files(c):
    """The ingest, ooc and serve paths off one messy file."""
    from repro.graph.external import MIN_CHUNK_BYTES, count_triangles_oocore, external_preprocess
    from repro.graph.io import read_edge_list
    from repro.graph.store import GraphStore, artifact_digest, graph_digest

    cell, graph, tmp, twin = c.cell, c.graph, c.tmp, c.twin
    want = (graph.n, graph.num_edges, graph_digest(graph))
    _expect(graph_digest(read_edge_list(c.file)) == want[2], "read_edge_list differs")
    ooc = dict(chunk_bytes=MIN_CHUNK_BYTES, model=_MODEL, workdir=tmp)
    if cell.path == "ooc":
        res = count_triangles_oocore(c.file, cell.p, c.cfg, store=tmp / "ooc", **ooc)
        info = res.extras["out_of_core"]
        _expect(not info["reused"], "a cold out-of-core count reused an entry")
        _expect((info["n"], info["m"], info["graph_sha"]) == want,
                f"out-of-core read n={info['n']} m={info['m']}, not {want[:2]}")
        _agree(c, res, twin, ppt=False)
        # A second count goes by the input record the first one wrote.
        res = count_triangles_oocore(c.file, cell.p, c.cfg, store=tmp / "ooc", **ooc)
        info = res.extras["out_of_core"]
        _expect(info["reused"] and info["spilled_bytes"] == 0
                and list(info["stages"]) == ["input_key"],
                f"the second out-of-core count did not go by the record: {info}")
        _agree(c, res, _drive(c, _twin_cfg(c.cfg), cache=tmp / "ooc"), clocks=True)
        return res
    if cell.path == "ingest":
        store, mem = GraphStore(tmp / "ingest"), GraphStore(tmp / "twin")
        info = external_preprocess(
            c.file, store, cell.p, c.cfg, chunk_bytes=MIN_CHUNK_BYTES, workdir=tmp)
        digest = twin.extras["cache"]["digest"]
        _expect((info["n"], info["m"], info["graph_sha"], info["digest"])
                == (*want, digest), f"ingest read n={info['n']} m={info['m']}")
        for r in range(cell.p):
            _expect(store.rank_path(digest, r).read_bytes()
                    == mem.rank_path(digest, r).read_bytes(),
                    f"rank {r}'s ingested file differs from the in-memory one")
        warm = _drive(c, c.cfg, cache=store)
        _expect(warm.extras["cache"]["hit"], "the in-memory run missed the entry")
        res = count_triangles_oocore(c.file, cell.p, c.cfg, store=store, **ooc)
        _expect(res.extras["out_of_core"]["reused"], "out-of-core re-ingested")
        for run in (warm, res):
            _agree(c, run, twin, ppt=False)
        return res
    from repro.serve import ServeConfig, TriangleService

    conf = ServeConfig(max_inflight=1, store=tmp / "serve")
    with TriangleService(conf) as svc:
        docs = [_served(c, svc), _served(c, svc)]
    with TriangleService(conf) as svc:  # an empty result cache, a warm store
        docs.append(_served(c, svc))
    _expect([d["served"] for d in docs] == ["cold", "warm", "cold"]
            and docs[0]["store"]["stored"] and docs[2]["store"]["hit"],
            "not served cold, warm, then cold off the store entry")
    digest = artifact_digest(want[2], cell.p, cell.grid[0], c.cfg)
    warm_twin = _drive(c, _twin_cfg(c.cfg), cache=tmp / "serve")
    for doc, clock in zip(docs, (twin, twin, warm_twin)):
        _expect(doc["count"] == c.oracle, f"served count {doc['count']} != {c.oracle}")
        _expect((doc["digest"], doc["machine_fingerprint"])
                == (digest, _MODEL.fingerprint()), "served provenance differs")
        _expect(doc["counters"] == {"ppt": twin.counters_ppt, "tct": twin.counters_tct},
                "served counters differ from the twin's")
        _expect((doc["virtual"]["ppt_s"], doc["virtual"]["tct_s"])
                == (clock.ppt_time, clock.tct_time), "served clocks differ")
    return None


def _judge_malformed(c) -> None:
    """Every path that reads files raises ``EdgeListError`` naming the
    file, and no store gets an entry."""
    from repro.graph.external import MIN_CHUNK_BYTES, count_triangles_oocore, external_preprocess
    from repro.graph.io import EdgeListError, read_edge_list
    from repro.graph.store import GraphStore
    from repro.serve import ServeConfig, TriangleService

    file, tmp, p = c.file, c.tmp, c.cell.p
    kw = dict(chunk_bytes=MIN_CHUNK_BYTES, workdir=tmp)
    for name, run in {
        "read_edge_list": lambda: read_edge_list(file),
        "out-of-core": lambda: count_triangles_oocore(file, p, store=tmp / "ooc", **kw),
        "ingest": lambda: external_preprocess(file, GraphStore(tmp / "ingest"), p, **kw),
    }.items():
        try:
            run()
        except EdgeListError as exc:
            _expect(str(file) in str(exc), f"{name}'s error does not name the file")
        else:
            raise AssertionError(f"{name} accepted a {c.cell.defect} file")
    conf = ServeConfig(max_inflight=1, store=tmp / "serve")
    with TriangleService(conf) as svc:
        job = svc.submit({"kind": "count", "dataset": str(file), "ranks": p})
        job.wait()
    _expect(job.state == "failed" and (job.error or "").startswith("EdgeListError"),
            f"the service answered {job.state}: {job.error}")
    for root in ("ooc", "ingest", "serve"):
        _expect(GraphStore(tmp / root).digests() == [], f"{root} stored a malformed file")


def _judge(c) -> None:
    from repro import baselines
    from repro.baselines.serial import count_triangles_node_iterator

    cell = c.cell
    c.row["oracle"] = c.oracle = count_triangles_node_iterator(c.graph)
    if cell.path in ("ingest", "ooc", "serve", "malformed") or (
        cell.algorithm, cell.path) == ("tc2d", "warm"):
        c.row["file"] = write_messy_file(
            c.file, c.graph.n, c.edges,
            np.random.default_rng([cell.seed, cell.index, 2]), cell.defect)
    if cell.path == "malformed":
        return _judge_malformed(c)
    if cell.algorithm in ONE_D:
        run = getattr(baselines, f"count_triangles_{cell.algorithm}")
        c.row["count"] = run(c.graph, cell.p, model=_MODEL).count
    elif cell.algorithm == "census":
        from repro.core import triangle_census_2d

        census = triangle_census_2d(c.graph, cell.p, c.cfg, model=_MODEL)
        c.row["count"] = census.count
        _expect(int(census.vertex_triangles.sum()) == int(census.edge_support.sum())
                == 3 * census.count, "census supports are not three per triangle")
    else:
        twin_store = c.tmp / "twin" if cell.path == "ingest" else None
        c.twin = _drive(c, _twin_cfg(c.cfg), cache=twin_store)
        _expect(c.twin.count == c.oracle, f"twin count {c.twin.count} != serial {c.oracle}")
        stored = cell.path in ("memory", "cold", "warm")
        res = _memory_or_store(c) if stored else _judge_files(c)
        c.row["count"] = (res or c.twin).count
    _expect(c.row["count"] == c.oracle, f"count {c.row['count']} != serial {c.oracle}")


def run_cell(cell: Cell, policy: RecoveryPolicy | None = None,
             out_dir: Path | None = None) -> dict:
    """Run and judge one cell; never raises (a failure lands in the row)."""
    from repro.core.kernels import compiled

    row = cell.row()
    n, edges, row["graph"] = cell.graph()
    graph = Graph.from_edges(n, edges)
    row.update(n=graph.n, m=graph.num_edges, ok=True, error="", count=None)
    cfg = cell.cfg
    if cfg.kernel_backend == "c" and not compiled.available():
        cfg = cfg.replace(kernel_backend="auto")
    tele = None
    if out_dir is not None and cell.faults != "plain":
        from repro.instrument.telemetry import Telemetry

        # Sampler off: a cell takes milliseconds; the recorder still
        # keeps the phase, attempt and crash events.
        tele = Telemetry(sample_interval=0.0)
        tele.start()
    try:
        with tempfile.TemporaryDirectory(prefix="repro-chaos-") as tmp:
            name = "edges.redge" if cell.defect.startswith("redge") else "edges.txt"
            _judge(SimpleNamespace(
                cell=cell, graph=graph, edges=edges, cfg=cfg, row=row, tele=tele,
                policy=policy or RecoveryPolicy(), out_dir=out_dir,
                tmp=Path(tmp), file=Path(tmp) / name,
            ))
    except Exception as exc:  # noqa: BLE001 - the row records every failure
        row.update(ok=False, error=f"{type(exc).__name__}: {exc}")
        if tele is not None:
            tele.recorder.dump(out_dir / "flightrec" / f"{cell.slug}.json",
                               reason=row["error"])
    finally:
        if tele is not None:
            tele.stop()
    return row


# -- the sweep and its command ------------------------------------------------


def sweep(seed: int, cells: int = DEFAULT_CELLS, policy: RecoveryPolicy | None = None,
          out_dir: Path | None = None, verbose: bool = False) -> list[dict]:
    """Run cells ``0 .. cells-1`` of the sweep seeded ``seed``."""
    rows = []
    for index in range(cells):
        cell = draw_cell(seed, index)
        rows.append(row := run_cell(cell, policy, out_dir))
        if verbose:
            print(f"[{'ok ' if row['ok'] else 'FAIL'}] {cell.slug} {row['graph']} "
                  f"faults={cell.faults} count={row['count']} {row['error']}")
    return rows


def write_report(rows: list[dict], out_dir: Path, seed: int) -> Path:
    """Write ``chaos_report.json``: one row per cell."""
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / "chaos_report.json"
    path.write_text(json.dumps({
        "seed": seed, "cells": len(rows),
        "failures": sum(not r["ok"] for r in rows),
        "restarts": sum(r.get("restarts", 0) for r in rows), "rows": rows,
    }, indent=2, sort_keys=True) + "\n")
    return path


def main(args: argparse.Namespace) -> int:
    """``repro chaos``: run the sweep; exit 1 on any disagreement."""
    out_dir = Path(args.out) if args.out else None
    rows = sweep(args.seed, args.cells or DEFAULT_CELLS,
                 RecoveryPolicy(max_restarts=args.max_restarts), out_dir,
                 verbose=not args.quiet)
    failures = sum(not r["ok"] for r in rows)
    if out_dir is not None:
        write_report(rows, out_dir, args.seed)
    if not args.quiet:
        restarts = sum(r.get("restarts", 0) for r in rows)
        print(f"{len(rows)} cells, {restarts} restarts, {failures} failures")
    return 1 if failures else 0


if __name__ == "__main__":
    import sys

    from repro.cli import main as cli_main

    sys.exit(cli_main(["chaos", *sys.argv[1:]]))
