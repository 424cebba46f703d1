"""Auto-tuner quality benchmark + regression gate.

For every dataset in the sweep the harness runs BOTH sides of the
auto-tuner's bet:

* the **plan** — :func:`repro.core.autotune.plan_run` with model-only
  predictions (no history), exactly what ``repro count --auto`` uses;
* every **candidate** — each tc2d/coveredge × grid combination is
  actually executed and its measured virtual makespan recorded.

The headline metric per dataset is ``ratio_vs_best``: the chosen plan's
measured virtual makespan over the best measured candidate (the
hand-picked optimum).  A perfect tuner scores 1.0; the CI gate
(``--check``) fails when any dataset exceeds ``--ratio-gate``
(default 1.25 — the auto plan must stay within 25% of the best
hand-picked configuration).

Candidate rows feed back into the planner: ``repro history append
--bench BENCH_autotune.json`` records one ``{dataset}-{alg}-p{p}`` row
per measured candidate with a ``virtual_makespan_s`` metric, which is
precisely the shape :func:`repro.core.autotune.plan_run` consumes via
``history=`` to override its model with ground truth.

Usage::

    python -m repro.bench.autotunebench --smoke --check   # CI gate
    python -m repro.bench.autotunebench                   # full sweep
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import Any

from repro.bench.calibration import paper_model
from repro.core import GRID_DRIVERS, TC2DConfig
from repro.core.autotune import collect_signals, plan_run
from repro.graph.datasets import load_dataset
from repro.instrument.telemetry import host_metadata

#: (datasets, rank candidates) per mode.  Smoke stays small enough for
#: CI; the full sweep covers the scaled registry at the paper's grids.
MODES: dict[str, tuple[tuple[str, ...], int]] = {
    "smoke": (("g500-s12", "twitter-like"), 9),
    "full": (("g500-s12", "g500-s13", "twitter-like", "friendster-like"), 16),
}


def _measure(g, algorithm: str, p: int, seed: int, model) -> dict[str, Any]:
    """Run one candidate; returns measured virtual/wall time + count."""
    cfg = TC2DConfig(algorithm=algorithm, seed=seed)
    t0 = time.perf_counter()
    res = GRID_DRIVERS[algorithm](g, p, cfg=cfg, model=model)
    wall = time.perf_counter() - t0
    return {
        "count": res.count,
        "virtual_makespan_s": res.extras["makespan"],
        "wall_s": wall,
    }


def bench_dataset(
    dataset: str, max_p: int, seed: int, model
) -> dict[str, Any]:
    """Plan + measure every candidate for one dataset."""
    g = load_dataset(dataset, seed=seed)
    signals = collect_signals(g, seed=seed)
    plan = plan_run(
        signals=signals, model=model, dataset=dataset, cores=1,
        max_p=max_p, seed=seed,
    )
    candidates: dict[str, dict[str, Any]] = {}
    counts = set()
    for key in sorted(plan.predicted):
        alg, _, ps = key.rpartition("-p")
        candidates[key] = {
            "predicted_s": plan.predicted[key],
            **_measure(g, alg, int(ps), seed, model),
        }
        counts.add(candidates[key]["count"])
    chosen = f"{plan.algorithm}-p{plan.p}"
    best = min(
        candidates, key=lambda k: (candidates[k]["virtual_makespan_s"], k)
    )
    best_s = candidates[best]["virtual_makespan_s"]
    return {
        "name": dataset,
        "chosen": chosen,
        "best_measured": best,
        "ratio_vs_best": (
            candidates[chosen]["virtual_makespan_s"] / best_s
            if best_s > 0 else 1.0
        ),
        "counts_agree": len(counts) == 1,
        "triangles": candidates[chosen]["count"],
        "plan": plan.to_dict(),
        "candidates": candidates,
    }


def run_bench(args: argparse.Namespace) -> dict[str, Any]:
    datasets, max_p = MODES["smoke" if args.smoke else "full"]
    if args.dataset:
        datasets = tuple(args.dataset)
    if args.max_p:
        max_p = args.max_p
    model = paper_model()
    cases = [
        bench_dataset(ds, max_p, args.seed, model) for ds in datasets
    ]
    return {
        "kind": "repro-autotune-bench",
        "suite": "autotune",
        "mode": "smoke" if args.smoke else "full",
        "host": host_metadata(),
        "config": {
            "max_p": max_p,
            "seed": args.seed,
            "ratio_gate": args.ratio_gate,
            "model_fingerprint": model.fingerprint(),
        },
        "cases": cases,
    }


def check_report(report: dict[str, Any], ratio_gate: float) -> list[str]:
    """Gate an autotunebench report; returns human-readable failures."""
    failures: list[str] = []
    cases = report.get("cases") or []
    if not cases:
        failures.append("report has no cases")
    for case in cases:
        name = case.get("name")
        ratio = case.get("ratio_vs_best")
        if ratio is None or ratio > ratio_gate:
            failures.append(
                f"{name}: auto plan {case.get('chosen')} is {ratio}x the "
                f"best measured candidate {case.get('best_measured')} "
                f"(gate {ratio_gate}x)"
            )
        if not case.get("counts_agree"):
            failures.append(
                f"{name}: candidates disagree on the triangle count"
            )
    return failures


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(
        prog="autotunebench", description=__doc__.splitlines()[0]
    )
    ap.add_argument("--smoke", action="store_true",
                    help="small dataset/grid sweep for CI")
    ap.add_argument("--dataset", action="append", default=[],
                    help="override the sweep's datasets (repeatable)")
    ap.add_argument("--max-p", type=int, default=0, dest="max_p",
                    help="override the sweep's largest rank count")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--out", default="BENCH_autotune.json")
    ap.add_argument("--check", action="store_true",
                    help="exit 1 unless every auto plan is within the gate")
    ap.add_argument("--ratio-gate", type=float, default=1.25,
                    dest="ratio_gate",
                    help="max allowed measured ratio of auto vs best "
                    "hand-picked candidate (default: 1.25)")
    args = ap.parse_args(argv)

    report = run_bench(args)
    with open(args.out, "w") as fh:
        fh.write(json.dumps(report, indent=2, sort_keys=True) + "\n")
    for case in report["cases"]:
        print(
            f"autotunebench {case['name']}: chose {case['chosen']}, "
            f"best {case['best_measured']}, "
            f"ratio {case['ratio_vs_best']:.3f}x",
            file=sys.stderr,
        )
    print(f"[report written to {args.out}]", file=sys.stderr)
    if args.check:
        failures = check_report(report, args.ratio_gate)
        if failures:
            for f in failures:
                print(f"CHECK FAILED: {f}", file=sys.stderr)
            return 1
        print(
            f"check passed: auto within {args.ratio_gate}x of best "
            "hand-picked on every dataset",
            file=sys.stderr,
        )
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
