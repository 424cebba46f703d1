"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``datasets``
    List the registered scaled datasets with their statistics.
``count``
    Count triangles of a named dataset or an edge-list file with any of
    the implemented algorithms.
``census``
    Triangle enumeration summary: count, clustering, transitivity, top
    vertices by triangle participation.
``profile``
    Run a traced counting pass and print the observability report:
    per-phase breakdown with imbalance factor and comm fraction, hottest
    communication pairs, wait-for edges, critical path.
``bench``
    Regenerate one of the paper's tables/figures
    (table1..table6, fig1, fig2, fig3, ablations).
``chaos``
    The differential sweep: seeded cells over every algorithm, input
    path, kernel, toggle and fault plan, each held to the serial count
    (see docs/resilience.md).
``store``
    Manage the content-addressed preprocessing cache
    (``list`` / ``verify`` / ``prune`` / ``warm``; see docs/datasets.md).
``diff``
    Compare two telemetry records produced by ``count --telemetry``
    (per-phase wall/virtual deltas, memory).
``history``
    Append-only benchmark run database: ``append`` telemetry records or
    bench reports, ``list`` rows, ``check`` the newest rows against a
    committed baseline (the CI regression gate).
``autotune``
    Cost-model plan table for a dataset — the machinery behind
    ``count --auto`` (see docs/autotune.md).
``serve`` / ``submit``
    Multi-tenant counting service over a shared store, and its client
    (see docs/serve.md).

One ``--seed`` governs everything derived from randomness: the scaled
dataset generators (via ``--seed`` on ``count``/``profile``/``census``),
the kernels (via ``TC2DConfig.seed``) and the chaos sweep's cells.

``count`` and ``profile`` also accept ``--trace FILE`` to export a
Perfetto-loadable Chrome trace-event JSON of the run, and
``--telemetry FILE`` to record a structured telemetry record
(phases, memory, GC; see docs/observability.md).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.graph.csr import Graph


def _load_graph(spec: str, seed: int) -> Graph:
    """A registry dataset by name, else the edge-list file ``spec``.

    Registry names are bare words (no ``.``, no path separator), so a
    spec with a suffix or a directory part is read as a file without
    loading the registry; any other spec is looked up there first.
    """
    from repro.graph.io import read_edge_list

    path = Path(spec)
    if (path.suffix or len(path.parts) > 1) and path.exists():
        return read_edge_list(path)
    from repro.graph.datasets import REGISTRY, load_dataset

    if spec in REGISTRY:
        return load_dataset(spec, seed=seed)
    if path.exists():
        return read_edge_list(path)
    raise SystemExit(
        f"unknown dataset {spec!r} (not in the registry and not a file); "
        f"registered: {', '.join(REGISTRY)}"
    )


def _cmd_datasets(_args: argparse.Namespace) -> int:
    from repro.bench.tables import table1
    from repro.graph.datasets import dataset_names

    text, _ = table1(dataset_names())
    print(text)
    return 0


def _dataset_spec(args: argparse.Namespace) -> str:
    """Resolve the positional dataset / ``--graph`` alias (exactly one)."""
    positional = getattr(args, "dataset", None)
    flagged = getattr(args, "graph", None)
    if positional and flagged:
        raise SystemExit("give the dataset either positionally or via --graph")
    spec = positional or flagged
    if not spec:
        raise SystemExit("a dataset is required (positionally or via --graph)")
    return spec


def _cache_arg(args: argparse.Namespace):
    """Resolve ``--cache``/``--store`` into the driver's ``cache=`` value."""
    store_dir = getattr(args, "store", None)
    if store_dir:
        return store_dir
    return True if getattr(args, "cache", False) else None


def _print_cache_status(res) -> None:
    """One line saying whether the run hit or warmed the store."""
    info = res.extras.get("cache")
    if not info:
        return
    if info["hit"]:
        print(
            f"cache: hit {info['digest'][:12]} "
            f"({info['nbytes']:,} bytes loaded; preprocessing skipped)"
        )
    else:
        state = "stored" if info.get("stored") else "not stored"
        print(f"cache: miss {info['digest'][:12]} (artifact {state})")


def _start_telemetry(args: argparse.Namespace):
    """Create + start a Telemetry session when ``--telemetry FILE`` was
    given (tc2d/coveredge only — the other algorithms don't plumb it
    through)."""
    out = getattr(args, "telemetry", None)
    if not out:
        return None
    if args.algorithm not in ("tc2d", "coveredge"):
        raise SystemExit(
            "--telemetry is implemented for -a tc2d and -a coveredge only"
        )
    from repro.instrument import Telemetry

    tele = Telemetry(crash_dir=Path(out).parent)
    tele.start()
    args._telemetry_obj = tele
    return tele


def _finish_telemetry(args: argparse.Namespace, tele, res) -> None:
    """Stop the session, write the record JSON and print its report."""
    import json

    from repro.instrument import telemetry_report

    tele.stop()
    record = res.extras.get("telemetry")
    if record is None:  # pragma: no cover - driver always summarizes
        print("note: run produced no telemetry record")
        return
    out = Path(args.telemetry)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(record, indent=2, sort_keys=True, default=str))
    print(f"wrote telemetry record to {out}")
    print()
    print(telemetry_report(record))


#: ``count``/``profile`` flags the auto-tuner can plan: argparse dest ->
#: (plan field, default).  Their parser default is ``None`` so the parsed
#: namespace itself says which ones the user spelled (``--auto`` never
#: overrides those); :func:`_resolve_plan_flags` fills in the rest.
_PLAN_FLAGS = {
    "ranks": ("p", 16),
    "algorithm": ("algorithm", "tc2d"),
    "kernel": ("kernel_backend", "auto"),
}


def _resolve_plan_flags(args: argparse.Namespace) -> dict:
    """Replace every unspelled plannable flag by its default; returns the
    spelled ones as ``{plan field: value}``."""
    pinned = {}
    for dest, (field, default) in _PLAN_FLAGS.items():
        value = getattr(args, dest)
        if value is None:
            setattr(args, dest, default)
        else:
            pinned[field] = value
    return pinned


def _apply_auto_plan(args: argparse.Namespace, g: Graph, spec: str, pinned: dict):
    """``count --auto``: plan the run around the ``pinned`` fields and
    fold the plan back into ``args`` (the normal dispatch below then just
    runs it)."""
    from repro.bench.calibration import paper_model
    from repro.core.autotune import plan_run

    if pinned.get("algorithm") not in (None, "tc2d", "coveredge"):
        raise SystemExit(
            "--auto plans the grid algorithms (tc2d, coveredge); drop "
            f"--auto to run -a {pinned['algorithm']}"
        )
    plan = plan_run(
        g,
        model=paper_model(),
        pinned=pinned,
        dataset=spec,
        max_p=args.auto_max_p,
        seed=args.seed,
    )
    args.ranks, args.algorithm = plan.p, plan.algorithm
    args.kernel = plan.kernel_backend
    extra = f"; pinned: {', '.join(plan.pinned)}" if plan.pinned else ""
    print(
        f"auto: -a {plan.algorithm} -p {plan.p} --kernel {plan.kernel_backend} "
        f"(predicted {plan.predicted_s:.6f}s "
        f"over {len(plan.predicted)} candidates{extra})"
    )
    return plan


def _cmd_autotune(args: argparse.Namespace) -> int:
    """Print the auto-tuner's candidate table (optionally measured)."""
    from repro.bench.calibration import paper_model
    from repro.core import GRID_DRIVERS, TC2DConfig
    from repro.core.autotune import format_plan_table, plan_run
    from repro.graph.stats import degree_summary

    g = _load_graph(args.dataset, args.seed)
    print(f"{args.dataset}: {degree_summary(g)}")
    model = paper_model()
    plan = plan_run(
        g,
        model=model,
        dataset=args.dataset,
        history=args.history,
        max_p=args.max_p,
        seed=args.seed,
    )
    measured: dict[str, float] = {}
    if args.measure:
        for key in sorted(plan.predicted):
            alg, _, ps = key.rpartition("-p")
            res = GRID_DRIVERS[alg](
                g, int(ps), TC2DConfig(algorithm=alg), model=model,
                dataset=args.dataset,
            )
            measured[key] = res.extras["makespan"]
    print(format_plan_table(plan, measured))
    if measured:
        best = min(measured, key=lambda k: (measured[k], k))
        chosen = f"{plan.algorithm}-p{plan.p}"
        ratio = measured[chosen] / measured[best] if measured[best] > 0 else 1.0
        print(f"auto vs best measured ({best}): {ratio:.3f}x")
    return 0


def _cmd_count(args: argparse.Namespace) -> int:
    """``count`` — and ``profile``, which is ``count`` with tracing and
    ``--profile`` forced on (its parser presets the count-only flags)."""
    from repro.bench.calibration import paper_model
    from repro.core import GRID_DRIVERS, TC2DConfig
    from repro.graph.csr import degree_summary

    spec = _dataset_spec(args)
    pinned = _resolve_plan_flags(args)
    auto_plan = None
    g = None
    if args.auto:
        if args.out_of_core:
            raise SystemExit(
                "--auto inspects the whole graph; it cannot be combined "
                "with --out-of-core"
            )
        g = _load_graph(spec, args.seed)
        auto_plan = _apply_auto_plan(args, g, spec, pinned)
    trace_on = bool(args.trace or args.profile)
    if trace_on and args.algorithm not in ("tc2d", "summa", "coveredge"):
        raise SystemExit(
            "--trace/--profile need the simulated grid algorithms "
            "(-a tc2d, -a coveredge or -a summa)"
        )
    cfg = TC2DConfig(
        algorithm=args.algorithm if args.algorithm in GRID_DRIVERS else "tc2d",
        enumeration=args.enumeration,
        doubly_sparse=not args.no_doubly_sparse,
        modified_hashing=not args.no_modified_hashing,
        early_stop=not args.no_early_stop,
        blob_serialization=not args.no_blob,
        kernel_backend=args.kernel,
        real_timeout=args.real_timeout,
        seed=args.seed,
    )
    if args.out_of_core:
        # The graph is never materialized in this process, so nothing
        # that needs the whole graph applies.
        from repro.graph.datasets import REGISTRY

        if args.algorithm != "tc2d":
            raise SystemExit("--out-of-core is implemented for -a tc2d only")
        if args.verify:
            raise SystemExit(
                "--verify materializes the whole graph in memory; "
                "it cannot be combined with --out-of-core"
            )
        if spec in REGISTRY or not Path(spec).exists():
            raise SystemExit(
                "--out-of-core needs an edge-list file path "
                "(registry datasets are generated in memory anyway)"
            )
    elif g is None:
        g = _load_graph(spec, args.seed)
    if args.command == "count" and g is not None:
        print(f"{spec}: {degree_summary(g)}")
    model = paper_model()
    cache = _cache_arg(args)
    if cache is not None and args.algorithm not in GRID_DRIVERS:
        raise SystemExit(
            "--cache/--store are implemented for -a tc2d and "
            "-a coveredge only"
        )
    tele = _start_telemetry(args)
    if args.out_of_core:
        from repro.graph.external import DEFAULT_CHUNK_BYTES, count_triangles_oocore

        res = count_triangles_oocore(
            spec, args.ranks, cfg, store=cache,
            chunk_bytes=args.chunk_bytes or DEFAULT_CHUNK_BYTES, model=model,
            trace=trace_on, dataset=spec, telemetry=tele,
        )
        info = res.extras["out_of_core"]
        state = "reused store entry" if info["reused"] else "external preprocessing"
        print(
            f"out-of-core: {state} {info['digest'][:12]} "
            f"n={info['n']:,} m={info['m']:,} "
            f"chunk={info['chunk_bytes']:,}B spilled={info['spilled_bytes']:,}B"
        )
        _print_cache_status(res)
    elif args.algorithm in GRID_DRIVERS:
        res = GRID_DRIVERS[args.algorithm](
            g, args.ranks, cfg=cfg, model=model, trace=trace_on, dataset=spec,
            cache=cache, telemetry=tele,
        )
        _print_cache_status(res)
    elif args.algorithm == "summa":
        from repro.core.summa import count_triangles_summa

        pr = max(1, int(args.ranks**0.5))
        while args.ranks % pr:
            pr -= 1
        res = count_triangles_summa(
            g, pr, args.ranks // pr, cfg=cfg, model=model, trace=trace_on,
            dataset=spec,
        )
    else:
        from repro import baselines

        res = getattr(baselines, f"count_triangles_{args.algorithm}")(
            g, args.ranks, model=model
        )

    if auto_plan is not None:
        res.extras["autotune"] = auto_plan.to_dict()
    print(res.summary())
    if tele is not None:
        _finish_telemetry(args, tele, res)
    _emit_observability(args, res)
    if args.verify:
        from repro.graph.stats import triangle_count_linalg

        want = triangle_count_linalg(g)
        status = "OK" if want == res.count else f"MISMATCH (oracle: {want:,})"
        print(f"verification vs linear-algebra oracle: {status}")
        if want != res.count:
            return 1
    return 0


def _backend_label(res) -> str | None:
    """Human-readable kernel-backend label for the profile report, e.g.
    ``"batch"`` or ``"auto (batch×36, row×12)"``."""
    backend = res.extras.get("kernel_backend")
    if not backend:
        return None
    uses = res.extras.get("kernel_backend_uses") or {}
    if uses and (backend == "auto" or len(uses) > 1):
        detail = ", ".join(f"{k}×{v}" for k, v in sorted(uses.items()))
        return f"{backend} ({detail})"
    return backend


def _emit_observability(args: argparse.Namespace, res) -> None:
    """Write the Perfetto trace and/or print the profile report."""
    run = res.extras.get("run")
    if run is None:
        return
    if getattr(args, "trace", None):
        from repro.instrument import write_chrome_trace

        counters = None
        tele = getattr(args, "_telemetry_obj", None)
        if tele is not None:
            from repro.instrument import counter_samples

            counters = counter_samples(tele.recorder.events()) or None
        try:
            write_chrome_trace(args.trace, run, counters=counters)
        except OSError as exc:
            raise SystemExit(f"cannot write trace to {args.trace}: {exc}")
        print(
            f"wrote Perfetto trace to {args.trace} "
            "(open at https://ui.perfetto.dev)"
        )
    if getattr(args, "profile", False):
        from repro.instrument import profile_report

        print()
        print(
            profile_report(
                run,
                top_waits=getattr(args, "top_waits", 10),
                matrix=getattr(args, "matrix", False),
                kernel_backend=_backend_label(res),
            )
        )


def _cmd_census(args: argparse.Namespace) -> int:
    import numpy as np

    from repro.apps import clustering_profile
    from repro.bench.calibration import paper_model

    g = _load_graph(args.dataset, args.seed)
    prof = clustering_profile(g, p=args.ranks, model=paper_model())
    print(f"triangles      : {prof.triangles:,}")
    print(f"transitivity   : {prof.transitivity:.6f}")
    print(f"avg clustering : {prof.average:.6f}")
    top = np.argsort(prof.vertex_triangles)[-args.top :][::-1]
    print(f"top {args.top} vertices by triangle participation:")
    for v in top:
        print(
            f"  vertex {int(v):>8}  triangles={int(prof.vertex_triangles[v]):>8}"
            f"  degree={int(g.degrees[v])}"
        )
    return 0


def _cmd_chaos(args: argparse.Namespace) -> int:
    from repro.resilience.chaos import main as chaos_main

    return chaos_main(args)


def _cmd_bench(args: argparse.Namespace) -> int:
    from repro.bench import figures, tables

    builders = {
        "table1": lambda: tables.table1(),
        "table2": lambda: tables.table2(),
        "table3": lambda: tables.table3(),
        "table4": lambda: tables.table4(),
        "table5": lambda: tables.table5(),
        "table6": lambda: tables.table6(),
        "ablations": lambda: tables.ablation_table(),
        "fig1": lambda: figures.fig1_efficiency(),
        "fig2": lambda: figures.fig2_op_rate(),
        "fig3": lambda: figures.fig3_comm_fraction(),
    }
    if args.experiment not in builders:
        raise SystemExit(
            f"unknown experiment {args.experiment!r}; "
            f"choose from {', '.join(builders)}"
        )
    text, _ = builders[args.experiment]()
    print(text)
    return 0


def _cmd_store(args: argparse.Namespace) -> int:
    """Manage the content-addressed preprocessing cache."""
    from repro.graph.store import GraphStore

    store = GraphStore(args.dir) if args.dir else GraphStore()

    if args.action == "list":
        entries = store.entries()
        if not entries:
            print(f"store at {store.root}: empty")
            return 0
        print(f"store at {store.root}: {len(entries)} entries")
        for e in entries:
            if "error" in e:
                print(f"  {e['digest'][:12]}  BROKEN: {e['error']}")
                continue
            g = e["graph"]
            print(
                f"  {e['digest'][:12]}  {e['source'] or '(unnamed)':<18} "
                f"p={e['p']:<3} n={g.get('n'):<8} m={g.get('m'):<9} "
                f"{e['nbytes']:>12,} bytes  "
                f"models={len(e['recorded_models'])}"
            )
        return 0

    if args.action == "verify":
        problems = store.verify(args.digest)
        if problems:
            for pb in problems:
                print(f"PROBLEM: {pb}")
            return 1
        n = 1 if args.digest else len(store.digests())
        print(f"store at {store.root}: {n} entries verified, no problems")
        return 0

    if args.action == "prune":
        removed = store.prune(args.digest)
        print(f"store at {store.root}: removed {removed} entries")
        return 0

    if args.action == "ingest":
        if not args.input:
            raise SystemExit("store ingest needs --input FILE (edge list)")
        from repro.core.config import TC2DConfig
        from repro.graph.external import DEFAULT_CHUNK_BYTES, external_preprocess

        cfg = TC2DConfig()
        chunk = args.chunk_bytes or DEFAULT_CHUNK_BYTES
        for p in args.ranks:
            info = external_preprocess(
                args.input, store, p, cfg, chunk_bytes=chunk
            )
            state = "already present" if info["reused"] else "ingested"
            print(
                f"ingest {args.input} p={p}: {info['digest'][:12]} {state}; "
                f"n={info['n']:,} m={info['m']:,} "
                f"spilled={info['spilled_bytes']:,}B"
            )
        return 0

    if args.action == "warm":
        if not args.dataset:
            raise SystemExit("store warm needs at least one --dataset")
        from repro.bench.calibration import paper_model
        from repro.graph.datasets import REGISTRY, DatasetRegistry

        registry = DatasetRegistry(REGISTRY, store=store)
        model = paper_model()
        for name in args.dataset:
            for p in args.ranks:
                res = registry.warm(name, p, model=model, seed=args.seed)
                info = res.extras.get("cache", {})
                state = "hit (already warm)" if info.get("hit") else "stored"
                print(
                    f"warm {name} p={p}: {info.get('digest', '')[:12]} "
                    f"{state}; {res.count:,} triangles"
                )
        return 0

    raise SystemExit(f"unknown store action {args.action!r}")


def _cmd_diff(args: argparse.Namespace) -> int:
    """Compare two telemetry records (``repro diff A B``)."""
    import json

    from repro.instrument.diffing import diff_records, load_record, render_diff

    try:
        a = load_record(args.a)
        b = load_record(args.b)
    except (OSError, ValueError) as exc:
        raise SystemExit(str(exc))
    d = diff_records(a, b)
    if args.json:
        print(json.dumps(d, indent=2, sort_keys=True, default=str))
    else:
        print(render_diff(d))
    return 0


def _cmd_history(args: argparse.Namespace) -> int:
    """Append to / list / regression-check the benchmark run database."""
    import json

    from repro.bench.history import (
        RunHistory,
        check_history,
        load_baseline,
        row_from_telemetry,
        rows_from_bench,
    )

    db = RunHistory(args.db)

    if args.action == "append":
        rows: list[dict] = []
        try:
            for path in args.record:
                doc = json.loads(Path(path).read_text())
                if doc.get("kind") != "repro-telemetry":
                    raise SystemExit(
                        f"{path}: not a telemetry record "
                        f"(kind={doc.get('kind')!r})"
                    )
                rows.append(row_from_telemetry(doc))
            for path in args.bench:
                rows.extend(rows_from_bench(json.loads(Path(path).read_text())))
        except OSError as exc:
            raise SystemExit(str(exc))
        if not rows:
            raise SystemExit("history append needs --record and/or --bench")
        n = db.append(rows)
        print(f"appended {n} rows to {db.path}")
        return 0

    if args.action == "list":
        rows = db.rows()
        if not rows:
            print(f"history at {db.path}: empty")
            return 0
        print(f"history at {db.path}: {len(rows)} rows")
        for row in rows:
            metrics = row.get("metrics") or {}
            parts = ", ".join(
                f"{k}={metrics[k]}" for k in sorted(metrics)
                if metrics[k] is not None
            )
            print(
                f"  {row.get('suite', '?'):<18} {row.get('case', '?'):<22} "
                f"{parts}"
            )
        return 0

    if args.action == "check":
        if not args.baseline:
            raise SystemExit("history check needs --baseline FILE")
        try:
            baseline = load_baseline(args.baseline)
        except (OSError, ValueError) as exc:
            raise SystemExit(str(exc))
        failures = check_history(db.latest(), baseline)
        n = len(baseline.get("entries") or [])
        if failures:
            for f in failures:
                print(f"REGRESSION: {f}")
            print(f"history check: {len(failures)} failures ({n} entries)")
            return 1
        print(f"history check: OK ({n} baseline entries)")
        return 0

    raise SystemExit(f"unknown history action {args.action!r}")


def _cmd_serve(args: argparse.Namespace) -> int:
    """Run the asyncio triangle-counting service until shutdown."""
    from repro.serve import ServeConfig
    from repro.serve.server import run_server

    config = ServeConfig(
        max_inflight=args.max_inflight,
        max_queue=args.max_queue,
        tenant_quota=args.tenant_quota,
        store=args.store,
        real_timeout=args.real_timeout,
    )

    def announce(server) -> None:
        print(f"repro serve listening on http://{server.host}:{server.port}")
        print(
            f"  max_inflight={config.max_inflight} "
            f"max_queue={config.max_queue} tenant_quota={config.tenant_quota}"
        )
        sys.stdout.flush()

    run_server(config, host=args.host, port=args.port, announce=announce)
    return 0


def _cmd_submit(args: argparse.Namespace) -> int:
    """Submit one job to a running serve endpoint and print the result."""
    import json

    from repro.serve import ServeClient, ServeError, ServeRejected

    request: dict = {
        "kind": args.kind,
        "dataset": args.dataset,
        "ranks": args.ranks,
        "seed": args.seed,
        "enumeration": args.enumeration,
    }
    if args.kind == "ktruss":
        request["k"] = args.k
    client = ServeClient(args.host, args.port, timeout=args.timeout)
    try:
        doc = client.submit(
            request,
            tenant=args.tenant,
            wait=not args.no_wait,
            progress=args.progress,
        )
    except ServeRejected as exc:
        print(f"rejected: {exc.reason} ({exc.body.get('detail', '')})")
        return 2
    except ServeError as exc:
        print(f"error: HTTP {exc.status}: {exc.body}")
        return 1
    if args.json:
        print(json.dumps(doc, indent=2, sort_keys=True))
        return 0 if doc.get("state") in ("done", "queued", "running") else 1
    if args.no_wait:
        print(f"{doc['id']}  state={doc['state']}")
        return 0
    if doc.get("state") != "done":
        print(f"{doc['id']}  state={doc['state']}  error={doc.get('error')}")
        return 1
    result = doc["result"]
    for ev in doc.get("events", []):
        print(f"  [{ev['t_s']:9.4f}s] {ev['kind']}"
              + (f" {ev.get('name', '')}" if ev.get("name") else ""))
    served = result.get("served")
    line = f"{result.get('count', result.get('truss_edges'))}"
    print(f"{args.kind} {args.dataset} p={args.ranks}: {line}  [{served}]")
    print(f"  digest   {result['digest']}")
    print(f"  machine  {result['machine_fingerprint']}")
    virt = result.get("virtual")
    if virt:
        print(
            f"  virtual  ppt {virt['ppt_s']:.4f}s  tct {virt['tct_s']:.4f}s"
        )
    print(f"  wall     {doc.get('latency_s', 0.0):.4f}s")
    return 0


def _add_cache_flags(p: argparse.ArgumentParser) -> None:
    """Preprocessing-cache knobs shared by ``count`` and ``profile``."""
    p.add_argument(
        "--cache",
        action="store_true",
        help="load/store preprocessed blocks in the default graph store "
        "($REPRO_STORE_DIR or ~/.cache/repro/store); a hit skips the ppt "
        "phase with bit-identical results (see docs/datasets.md)",
    )
    p.add_argument(
        "--store",
        metavar="DIR",
        default=None,
        help="like --cache but with an explicit store root directory",
    )


def _add_ooc_flags(p: argparse.ArgumentParser) -> None:
    """Out-of-core pipeline knobs shared by ``count`` and ``profile``."""
    p.add_argument(
        "--out-of-core",
        action="store_true",
        dest="out_of_core",
        help="preprocess via the external-memory pipeline "
        "(repro.graph.external): the edge-list file streams through "
        "disk-spilled sorted runs, peak memory bounded by --chunk-bytes "
        "instead of graph size; bit-identical counts and store entries",
    )
    p.add_argument(
        "--chunk-bytes",
        type=int,
        default=0,
        dest="chunk_bytes",
        help="spill-chunk memory budget in bytes for --out-of-core "
        "(0 = default, 64 MiB); tuning knob only, never changes results",
    )


def _add_runtime_flags(p: argparse.ArgumentParser) -> None:
    """Wall-clock safety and telemetry knobs shared by ``count`` and
    ``profile``."""
    p.add_argument(
        "--real-timeout",
        type=float,
        default=600.0,
        dest="real_timeout",
        help="wall-clock seconds before a wedged rank fails the run "
        "(default 600)",
    )
    p.add_argument(
        "--telemetry",
        metavar="FILE",
        default=None,
        help="record a structured telemetry JSON (phases, memory, GC) to "
        "FILE and print its report; with --trace, an RSS counter track "
        "is merged into the export",
    )


def _positive_int(text: str) -> int:
    """argparse type of a rank count: an integer of at least 1."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    from repro.core.config import KERNEL_BACKENDS

    kernel_flag = dict(
        choices=KERNEL_BACKENDS,
        help="intersection-kernel backend (default: auto; identical "
        "results, wall time only; c = the compiled loop, an error on a "
        "host that cannot build it)",
    )
    parser = argparse.ArgumentParser(
        prog="repro",
        description="2D parallel triangle counting (Tom & Karypis, ICPP 2019) "
        "on a simulated distributed-memory machine",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("datasets", help="list registered datasets").set_defaults(
        fn=_cmd_datasets
    )

    c = sub.add_parser("count", help="count triangles of a dataset/file")
    c.add_argument(
        "dataset", nargs="?", help="registry name or edge-list file path"
    )
    c.add_argument(
        "--graph", help="dataset name/path (alternative to the positional)"
    )
    c.add_argument(
        "--ranks", "-p", type=_positive_int, help="simulated MPI ranks (default: 16)"
    )
    c.add_argument(
        "--algorithm",
        "-a",
        choices=["tc2d", "coveredge", "summa", "aop", "surrogate", "psp",
                 "havoq"],
        help="counting algorithm (default: tc2d)",
    )
    c.add_argument(
        "--auto",
        action="store_true",
        help="pick algorithm/grid/kernel with the cost-model "
        "auto-tuner (explicitly spelled flags stay pinned; see "
        "docs/autotune.md)",
    )
    c.add_argument(
        "--auto-max-p", type=int, default=64, dest="auto_max_p",
        help="largest rank count --auto may plan (default: 64)",
    )
    c.add_argument("--enumeration", choices=["jik", "ijk"], default="jik")
    c.add_argument("--kernel", **kernel_flag)
    c.add_argument("--no-doubly-sparse", action="store_true")
    c.add_argument("--no-modified-hashing", action="store_true")
    c.add_argument("--no-early-stop", action="store_true")
    c.add_argument("--no-blob", action="store_true")
    c.add_argument("--seed", type=int, default=0)
    c.add_argument(
        "--verify", action="store_true", help="check against the serial oracle"
    )
    c.add_argument(
        "--trace",
        metavar="FILE",
        help="export a Perfetto/Chrome trace-event JSON of the run",
    )
    c.add_argument(
        "--profile",
        action="store_true",
        help="print the per-phase/imbalance/comm observability report",
    )
    _add_cache_flags(c)
    _add_runtime_flags(c)
    _add_ooc_flags(c)
    c.set_defaults(fn=_cmd_count)

    pr = sub.add_parser(
        "profile", help="traced run + full observability report"
    )
    pr.add_argument(
        "dataset", nargs="?", help="registry name or edge-list file path"
    )
    pr.add_argument(
        "--graph", help="dataset name/path (alternative to the positional)"
    )
    pr.add_argument(
        "--ranks", "-p", type=_positive_int, help="simulated MPI ranks (default: 16)"
    )
    pr.add_argument(
        "--algorithm", "-a", choices=["tc2d", "coveredge", "summa"],
        help="counting algorithm (default: tc2d)",
    )
    pr.add_argument("--kernel", **kernel_flag)
    pr.add_argument("--seed", type=int, default=0)
    pr.add_argument(
        "--trace",
        metavar="FILE",
        help="also export a Perfetto/Chrome trace-event JSON",
    )
    pr.add_argument(
        "--top-waits", type=int, default=10, dest="top_waits",
        help="rows in the wait-for table",
    )
    pr.add_argument(
        "--matrix",
        action="store_true",
        help="include the dense rank-to-rank message matrix",
    )
    _add_cache_flags(pr)
    _add_runtime_flags(pr)
    _add_ooc_flags(pr)
    # The same body as ``count`` with the report forced on; the flags only
    # ``count`` spells take their defaults.
    pr.set_defaults(
        fn=_cmd_count, profile=True, auto=False, verify=False,
        enumeration="jik", no_doubly_sparse=False, no_modified_hashing=False,
        no_early_stop=False, no_blob=False,
    )

    s = sub.add_parser("census", help="triangle census / clustering summary")
    s.add_argument("dataset")
    s.add_argument("--ranks", "-p", type=_positive_int, default=4)
    s.add_argument("--top", type=int, default=5)
    s.add_argument("--seed", type=int, default=0)
    s.set_defaults(fn=_cmd_census)

    ch = sub.add_parser(
        "chaos",
        help="differential sweep of every counting path against the serial count",
        description="Run seeded cells over algorithms, input paths, kernels, "
        "toggles, tracing and fault plans, each held to the serial count and "
        "to its twin's counters and clocks (docs/resilience.md).  Exits 1 on "
        "any disagreement.",
    )
    ch.add_argument("--seed", type=int, default=0,
                    help="cell i is drawn from (seed, i) (default 0)")
    ch.add_argument("--cells", type=_positive_int, default=None,
                    help="cells to run (default: the tier-1 profile, 85)")
    ch.add_argument("--max-restarts", type=int, default=8, dest="max_restarts",
                    help="restart budget of a fault cell (default 8)")
    ch.add_argument("--out", default=None, metavar="DIR",
                    help="write chaos_report.json, checkpoint manifests, "
                    "traces and failed cells' flight recorders here")
    ch.add_argument("--quiet", action="store_true")
    ch.set_defaults(fn=_cmd_chaos)

    st = sub.add_parser(
        "store",
        help="manage the content-addressed preprocessing cache",
        description="List, verify, prune or warm the graph store "
        "(see docs/datasets.md for the layout and digest rules).",
    )
    st.add_argument(
        "action", choices=["list", "verify", "prune", "warm", "ingest"],
        help="list entries / crc-verify blobs / remove entries / "
        "preprocess datasets into the store / stream an edge-list file "
        "into the store out-of-core",
    )
    st.add_argument(
        "--dir", default=None,
        help="store root (default: $REPRO_STORE_DIR or ~/.cache/repro/store)",
    )
    st.add_argument(
        "--digest", default=None,
        help="restrict verify/prune to one entry (full digest)",
    )
    st.add_argument(
        "--dataset", action="append", default=[],
        help="dataset to warm (repeatable); registry names only",
    )
    st.add_argument(
        "--ranks", "-p", type=_positive_int, nargs="+", default=[16],
        help="rank counts to warm each dataset at (default: 16)",
    )
    st.add_argument("--seed", type=int, default=0)
    st.add_argument(
        "--input", default=None, metavar="FILE",
        help="edge-list file for `ingest` (text or binary REDGE format)",
    )
    st.add_argument(
        "--chunk-bytes", type=int, default=0, dest="chunk_bytes",
        help="spill-chunk memory budget in bytes for `ingest` "
        "(0 = default, 64 MiB)",
    )
    st.set_defaults(fn=_cmd_store)

    d = sub.add_parser(
        "diff",
        help="compare two telemetry records",
        description="Diff two records written by `count --telemetry` "
        "(per-phase wall/virtual deltas, memory); warns "
        "when the runs are keyed by different store digests or "
        "machine-model fingerprints.",
    )
    d.add_argument("a", help="reference telemetry record (JSON)")
    d.add_argument("b", help="new telemetry record (JSON)")
    d.add_argument(
        "--json", action="store_true", help="emit the structured diff as JSON"
    )
    d.set_defaults(fn=_cmd_diff)

    h = sub.add_parser(
        "history",
        help="append-only benchmark run database + regression gate",
        description="append: add rows from telemetry records/bench "
        "reports; list: show rows; check: gate the newest row per "
        "(suite, case) against a committed baseline file.",
    )
    h.add_argument("action", choices=["append", "list", "check"])
    h.add_argument(
        "--db", default="BENCH_history.jsonl",
        help="history JSONL path (default: BENCH_history.jsonl)",
    )
    h.add_argument(
        "--record", action="append", default=[], metavar="FILE",
        help="telemetry record to append (repeatable)",
    )
    h.add_argument(
        "--bench", action="append", default=[], metavar="FILE",
        help="repro.bench report to append, e.g. autotunebench's "
        "(repeatable)",
    )
    h.add_argument(
        "--baseline", default=None, metavar="FILE",
        help="baseline JSON for `check` (e.g. BENCH_baseline.json)",
    )
    h.set_defaults(fn=_cmd_history)

    sv = sub.add_parser(
        "serve",
        help="run the async triangle-counting service",
        description="HTTP front end: canonicalized requests, warm result "
        "cache keyed by the store digest, bounded admission-controlled "
        "cold queue, progress streaming and a /metrics scrape endpoint "
        "(see docs/serve.md).",
    )
    sv.add_argument("--host", default="127.0.0.1")
    sv.add_argument(
        "--port", type=int, default=8787,
        help="listen port (0 = ephemeral, printed at startup)",
    )
    sv.add_argument(
        "--max-inflight", type=int, default=2, dest="max_inflight",
        help="cold jobs executing concurrently (dispatcher threads)",
    )
    sv.add_argument(
        "--max-queue", type=int, default=8, dest="max_queue",
        help="bound on queued cold jobs; beyond it submissions are "
        "rejected with reason=queue_full",
    )
    sv.add_argument(
        "--tenant-quota", type=int, default=4, dest="tenant_quota",
        help="max admitted cold jobs per tenant (reason=tenant_quota)",
    )
    sv.add_argument(
        "--store", metavar="DIR", default=None,
        help="preprocessing store root (default: $REPRO_STORE_DIR, else "
        "no on-disk cache; the warm result cache works regardless)",
    )
    sv.add_argument(
        "--real-timeout", type=float, default=600.0, dest="real_timeout"
    )
    sv.set_defaults(fn=_cmd_serve)

    sm = sub.add_parser(
        "submit",
        help="submit one job to a running `repro serve`",
    )
    sm.add_argument("dataset", help="registry name or edge-list file path")
    sm.add_argument("--host", default="127.0.0.1")
    sm.add_argument("--port", type=int, default=8787)
    sm.add_argument(
        "--kind", choices=["count", "census", "ktruss"], default="count"
    )
    sm.add_argument("--ranks", "-p", type=_positive_int, default=16)
    sm.add_argument("--seed", type=int, default=0)
    sm.add_argument("--enumeration", choices=["jik", "ijk"], default="jik")
    sm.add_argument("--k", type=int, default=3, help="k for --kind ktruss")
    sm.add_argument("--tenant", default="default")
    sm.add_argument(
        "--no-wait", action="store_true", dest="no_wait",
        help="return the job id immediately instead of the result",
    )
    sm.add_argument(
        "--progress", action="store_true",
        help="print the job's streamed phase events",
    )
    sm.add_argument("--timeout", type=float, default=600.0)
    sm.add_argument("--json", action="store_true")
    sm.set_defaults(fn=_cmd_submit)

    b = sub.add_parser("bench", help="regenerate a paper table/figure")
    b.add_argument(
        "experiment",
        help="table1..table6, fig1, fig2, fig3 or ablations",
    )
    b.set_defaults(fn=_cmd_bench)

    at = sub.add_parser(
        "autotune",
        help="cost-model plan (algorithm × grid × kernel) for a dataset",
        description="Collect cheap graph signals, predict the virtual "
        "makespan of every tc2d/coveredge × grid candidate, and print the "
        "ranked table (see docs/autotune.md). With --measure every "
        "candidate is also run so predictions can be compared to "
        "measured virtual times.",
    )
    at.add_argument("dataset", help="registry name or edge-list file path")
    at.add_argument(
        "--max-p", type=int, default=16, dest="max_p",
        help="largest rank count to consider (default: 16)",
    )
    at.add_argument(
        "--measure",
        action="store_true",
        help="run every candidate and print measured virtual makespans",
    )
    at.add_argument("--seed", type=int, default=0)
    at.add_argument(
        "--history", default=None, metavar="FILE",
        help="run-history JSONL (repro history) whose measured makespans "
        "override the model's predictions",
    )
    at.set_defaults(fn=_cmd_autotune)

    return parser


def main(argv: list[str] | None = None) -> int:
    from repro.core.kernels import KernelUnavailableError
    from repro.graph.io import EdgeListError

    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    # --kernel c without a compiler; a malformed edge-list file.
    except (KernelUnavailableError, EdgeListError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
