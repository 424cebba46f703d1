"""Chaos-test harness: seeded fault schedules vs. checkpoint/restart.

Run as ``python -m repro.resilience.chaos``.  The harness sweeps a matrix
of *(graph generator, grid size, fault-schedule seed)* cases; for each
case it

1. computes the fault-free baseline count with
   :func:`~repro.core.tc2d.count_triangles_2d`;
2. derives a deterministic :class:`~repro.resilience.faults.FaultPlan`
   from the schedule seed (:meth:`FaultPlan.random`);
3. runs :func:`~repro.resilience.recovery.count_triangles_2d_resilient`
   under that plan, checkpointing every shift step;
4. asserts the recovered count is **bit-identical** to the baseline, the
   restart count stays within the :class:`RecoveryPolicy` budget, and
   every recorded backoff is bounded by the policy cap.

Everything is derived from ``--seed``: the graphs, the fault schedules
and therefore the whole pass/fail outcome — a chaos failure reproduces
from the one number printed in its report row.

With ``--out`` the harness writes a ``chaos_report.json`` (one row per
case), keeps each case's checkpoint directory (with its JSON manifest —
the artifact CI uploads), and exports Perfetto traces: the successful
attempt (checkpoint instants visible) plus every failed attempt (the
injected faults visible as ``cat="fault"`` events).  Each case also runs
under a :class:`~repro.instrument.telemetry.Telemetry` flight recorder;
a case that *fails* (budget exhausted, count mismatch, backoff violation)
dumps its recent event history to ``<out>/flightrec/<case-slug>.json``
for post-mortem — passing cases write nothing.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

from repro.core.config import TC2DConfig
from repro.core.tc2d import count_triangles_2d
from repro.graph.csr import Graph
from repro.graph.generators import (
    erdos_renyi_gnm,
    powerlaw_cluster_fast,
    rmat_graph,
    watts_strogatz,
)
from repro.instrument.chrometrace import write_chrome_trace
from repro.resilience.faults import FaultPlan
from repro.resilience.recovery import RecoveryPolicy, count_triangles_2d_resilient
from repro.simmpi.errors import ResilienceExhaustedError

#: Graph generators the harness sweeps.  Each takes the case seed and
#: returns a small-but-triangle-rich graph (chaos is a correctness
#: harness, not a benchmark; graphs stay small so the matrix stays fast).
GRAPH_GENERATORS: dict[str, Callable[[int], Graph]] = {
    "rmat": lambda seed: rmat_graph(scale=8, edge_factor=8, seed=seed),
    "gnm": lambda seed: erdos_renyi_gnm(n=600, m=4000, seed=seed),
    "plc": lambda seed: powerlaw_cluster_fast(n=500, m=6, p_triad=0.4, seed=seed),
    "ws": lambda seed: watts_strogatz(n=600, k=10, p_rewire=0.1, seed=seed),
}

_FAULTS_PER_SCHEDULE = 4


@dataclass
class ChaosCase:
    """One cell of the chaos matrix."""

    graph_name: str
    p: int
    schedule: int  # schedule index within the sweep
    seed: int  # fault-plan seed (derived from the master seed)


@dataclass
class CaseResult:
    """Outcome of one case (one row of ``chaos_report.json``)."""

    case: ChaosCase
    ok: bool
    baseline: int
    recovered: int | None
    restarts: int
    faults_fired: list[str]
    fault_plan: str
    error: str = ""
    checkpoint_manifest: str | None = None
    attempts: list[dict[str, Any]] = field(default_factory=list)

    def row(self) -> dict[str, Any]:
        return {
            "graph": self.case.graph_name,
            "p": self.case.p,
            "schedule": self.case.schedule,
            "seed": self.case.seed,
            "ok": self.ok,
            "baseline_count": self.baseline,
            "recovered_count": self.recovered,
            "restarts": self.restarts,
            "faults_fired": self.faults_fired,
            "fault_plan": json.loads(self.fault_plan),
            "error": self.error,
            "checkpoint_manifest": self.checkpoint_manifest,
            "attempts": self.attempts,
        }


def _case_seed(master: int, graph_name: str, p: int, schedule: int) -> int:
    """Stable per-case fault-plan seed derived from the master seed.

    Plain arithmetic (no hashing) so the derivation is obvious and the
    printed seed alone reproduces the plan.
    """
    gidx = sorted(GRAPH_GENERATORS).index(graph_name)
    return master * 10_000 + gidx * 1_000 + p * 10 + schedule


def run_case(
    case: ChaosCase,
    policy: RecoveryPolicy,
    checkpoint_interval: int = 1,
    out_dir: Path | None = None,
    graph: Graph | None = None,
    baseline: int | None = None,
    base_cfg: TC2DConfig | None = None,
    store: Any = None,
) -> CaseResult:
    """Execute one chaos case; never raises (failures land in the row).

    ``base_cfg`` carries run-wide toggles (executor, workers,
    real_timeout, ...); the case's fault-plan seed is layered on top.
    ``store`` (an optional :class:`~repro.graph.store.GraphStore`) lets
    the fault-free baseline warm the preprocessing cache and every
    recovery attempt start counting off it — the store layer itself is
    then also exercised under chaos, read-only (fault runs never write).
    """
    from repro.core.grid import ProcessorGrid

    base_cfg = base_cfg if base_cfg is not None else TC2DConfig()

    if graph is None:
        graph = GRAPH_GENERATORS[case.graph_name](case.seed % 100)
    if baseline is None:
        baseline = count_triangles_2d(
            graph, case.p, base_cfg, cache=store
        ).count
    q = ProcessorGrid.for_ranks(case.p).q
    plan = FaultPlan.random(
        case.seed, case.p, q, n_faults=_FAULTS_PER_SCHEDULE
    )

    ckpt_dir = None
    tele = None
    if out_dir is not None:
        from repro.instrument.telemetry import Telemetry

        ckpt_dir = out_dir / "checkpoints" / _case_slug(case)
        # Sampler off: chaos cases are milliseconds each; the recorder
        # still captures phase, pool, fault-attempt and crash events.
        tele = Telemetry(sample_interval=0.0)
        tele.start()
    try:
        res = count_triangles_2d_resilient(
            graph,
            case.p,
            cfg=base_cfg.replace(seed=case.seed),
            fault_plan=plan,
            checkpoint_dir=ckpt_dir,
            policy=policy,
            checkpoint_interval=checkpoint_interval,
            trace=out_dir is not None,
            cache=store,
            telemetry=tele,
        )
    except ResilienceExhaustedError as exc:
        if tele is not None:
            tele.recorder.dump(
                out_dir / "flightrec" / f"{_case_slug(case)}.json",
                reason=f"{type(exc).__name__}: {exc}",
            )
        return CaseResult(
            case=case,
            ok=False,
            baseline=baseline,
            recovered=None,
            restarts=policy.max_restarts,
            faults_fired=[],
            fault_plan=plan.to_json(),
            error=f"{type(exc).__name__}: {exc}",
            checkpoint_manifest=str(ckpt_dir / "manifest.json")
            if ckpt_dir is not None
            else None,
        )
    finally:
        if tele is not None:
            tele.stop()

    restarts = res.extras["restarts"]
    backoffs_ok = all(
        a.backoff <= policy.backoff_cap for a in res.extras["attempts"]
    )
    ok = (
        res.count == baseline
        and restarts <= policy.max_restarts
        and backoffs_ok
    )
    result = CaseResult(
        case=case,
        ok=ok,
        baseline=baseline,
        recovered=res.count,
        restarts=restarts,
        faults_fired=res.extras["faults_fired"],
        fault_plan=plan.to_json(),
        error=""
        if ok
        else (
            f"count mismatch {res.count} != {baseline}"
            if res.count != baseline
            else "retry/backoff budget exceeded"
        ),
        checkpoint_manifest=res.extras["checkpoint_manifest"],
        attempts=[
            {
                "attempt": a.attempt,
                "restored_epoch": a.restored_epoch,
                "outcome": a.outcome,
                "backoff": a.backoff,
                "faults_fired": a.faults_fired,
            }
            for a in res.extras["attempts"]
        ],
    )
    if out_dir is not None:
        _export_traces(case, res, out_dir)
        if not ok and tele is not None:
            tele.recorder.dump(
                out_dir / "flightrec" / f"{_case_slug(case)}.json",
                reason=result.error,
            )
    return result


def _case_slug(case: ChaosCase) -> str:
    return f"{case.graph_name}-p{case.p}-s{case.schedule}"


def _export_traces(case: ChaosCase, res, out_dir: Path) -> None:
    """Write Perfetto traces: failed attempts (faults visible) + success
    (checkpoints visible)."""
    tdir = out_dir / "traces"
    tdir.mkdir(parents=True, exist_ok=True)
    slug = _case_slug(case)
    for i, at in enumerate(res.extras.get("attempt_traces", [])):
        write_chrome_trace(tdir / f"{slug}-attempt{i}.json", at)
    if "run" in res.extras:
        write_chrome_trace(tdir / f"{slug}-ok.json", res.extras["run"])


def sweep(
    graphs: list[str],
    ranks: list[int],
    schedules: int,
    master_seed: int,
    policy: RecoveryPolicy,
    checkpoint_interval: int = 1,
    out_dir: Path | None = None,
    verbose: bool = True,
    base_cfg: TC2DConfig | None = None,
    store: Any = None,
) -> list[CaseResult]:
    """Run the full chaos matrix; returns one :class:`CaseResult` per cell."""
    base_cfg = base_cfg if base_cfg is not None else TC2DConfig()
    results: list[CaseResult] = []
    # Baselines depend on (graph, p) only; cache them across schedules.
    graph_cache: dict[str, Graph] = {}
    baseline_cache: dict[tuple[str, int], int] = {}
    for gname in graphs:
        graph_cache[gname] = GRAPH_GENERATORS[gname](master_seed)
    for gname in graphs:
        for p in ranks:
            g = graph_cache[gname]
            key = (gname, p)
            if key not in baseline_cache:
                baseline_cache[key] = count_triangles_2d(
                    g, p, base_cfg, cache=store
                ).count
            for s in range(schedules):
                case = ChaosCase(
                    graph_name=gname,
                    p=p,
                    schedule=s,
                    seed=_case_seed(master_seed, gname, p, s),
                )
                r = run_case(
                    case,
                    policy,
                    checkpoint_interval=checkpoint_interval,
                    out_dir=out_dir,
                    graph=g,
                    baseline=baseline_cache[key],
                    base_cfg=base_cfg,
                    store=store,
                )
                results.append(r)
                if verbose:
                    mark = "ok " if r.ok else "FAIL"
                    fired = ", ".join(r.faults_fired) or "-"
                    print(
                        f"[{mark}] {_case_slug(case)} seed={case.seed} "
                        f"count={r.recovered}/{r.baseline} "
                        f"restarts={r.restarts} faults: {fired}"
                        + (f"  ({r.error})" if r.error else "")
                    )
    return results


def write_report(
    results: list[CaseResult], out_dir: Path, master_seed: int
) -> Path:
    """Write ``chaos_report.json`` summarizing the sweep."""
    out_dir.mkdir(parents=True, exist_ok=True)
    doc = {
        "seed": master_seed,
        "cases": len(results),
        "failures": sum(1 for r in results if not r.ok),
        "total_restarts": sum(r.restarts for r in results),
        "rows": [r.row() for r in results],
    }
    path = out_dir / "chaos_report.json"
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return path


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.resilience.chaos",
        description=(
            "Sweep seeded fault schedules across grid sizes and graph "
            "generators, asserting exact-count recovery via "
            "checkpoint/restart."
        ),
    )
    parser.add_argument(
        "--seed", type=int, default=0,
        help="master seed; every schedule derives from it (default 0)",
    )
    parser.add_argument(
        "--graphs", default="rmat,gnm",
        help=(
            "comma-separated generators to sweep "
            f"(available: {','.join(sorted(GRAPH_GENERATORS))})"
        ),
    )
    parser.add_argument(
        "--ranks", default="4,9",
        help="comma-separated grid sizes (perfect squares)",
    )
    parser.add_argument(
        "--schedules", type=int, default=3,
        help="fault schedules per (graph, p) cell (default 3)",
    )
    parser.add_argument(
        "--max-restarts", type=int, default=8,
        help="restart budget per case (default 8)",
    )
    parser.add_argument(
        "--checkpoint-interval", type=int, default=1,
        help="snapshot every k-th shift step (default 1)",
    )
    parser.add_argument(
        "--out", default=None,
        help=(
            "artifact directory: chaos_report.json, per-case checkpoint "
            "dirs (with manifests) and Perfetto traces"
        ),
    )
    parser.add_argument(
        "--smoke", action="store_true",
        help="small fixed matrix for CI (overrides --graphs/--ranks/--schedules)",
    )
    parser.add_argument(
        "--executor", choices=["sequential", "parallel"], default="sequential",
        help="superstep executor for every run in the sweep (baselines and "
        "recovery attempts); identical counts either way",
    )
    parser.add_argument(
        "--workers", type=int, default=0,
        help="worker processes for --executor parallel (0 = cpu count)",
    )
    parser.add_argument(
        "--real-timeout", type=float, default=600.0, dest="real_timeout",
        help="wall-clock seconds before a wedged rank/worker fails the run "
        "(default 600; CI tightens it)",
    )
    parser.add_argument(
        "--store", default=None, metavar="DIR",
        help="preprocessing-cache store root (see docs/datasets.md): "
        "fault-free baselines warm it, recovery attempts read from it "
        "(never write under faults)",
    )
    parser.add_argument("--quiet", action="store_true")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.smoke:
        graphs = ["rmat", "gnm"]
        ranks = [4, 9]
        schedules = 2
    else:
        graphs = [g.strip() for g in args.graphs.split(",") if g.strip()]
        ranks = [int(r) for r in args.ranks.split(",") if r.strip()]
        schedules = args.schedules
    for g in graphs:
        if g not in GRAPH_GENERATORS:
            print(f"unknown graph generator {g!r}", file=sys.stderr)
            return 2

    policy = RecoveryPolicy(max_restarts=args.max_restarts)
    out_dir = Path(args.out) if args.out else None
    base_cfg = TC2DConfig(
        executor=args.executor,
        workers=args.workers,
        real_timeout=args.real_timeout,
    )
    from repro.graph.store import store_from_env

    # --store wins; $REPRO_STORE_DIR opts in when the flag is absent
    # (the same resolution rule as parallelbench and the serve layer).
    store = store_from_env(args.store)
    results = sweep(
        graphs,
        ranks,
        schedules,
        args.seed,
        policy,
        checkpoint_interval=args.checkpoint_interval,
        out_dir=out_dir,
        verbose=not args.quiet,
        base_cfg=base_cfg,
        store=store,
    )
    failures = [r for r in results if not r.ok]
    if out_dir is not None:
        path = write_report(results, out_dir, args.seed)
        if not args.quiet:
            print(f"report: {path}")
    if not args.quiet:
        fired = sum(len(r.faults_fired) for r in results)
        print(
            f"{len(results)} cases, {fired} faults fired, "
            f"{sum(r.restarts for r in results)} restarts, "
            f"{len(failures)} failures"
        )
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
