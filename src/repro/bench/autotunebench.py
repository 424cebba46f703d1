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
(``--check``) fails when any dataset exceeds ``RATIO_GATE`` (1.25 —
the auto plan must stay within 25% of the best hand-picked
configuration).

Candidate rows feed back into the planner: ``repro history append
--bench BENCH_autotune.json`` records one ``{dataset}-{alg}-p{p}`` row
per measured candidate with a ``virtual_makespan_s`` metric, which is
precisely the shape :func:`repro.core.autotune.plan_run` consumes via
``history=`` to override its model with ground truth.

Run it as ``python -m repro.bench.autotunebench [--smoke] [--out PATH]
[--check] [--history DB] [--dataset NAME] [--max-p P] [--seed S]``:
``--out -`` prints the report instead of writing it, ``--history``
appends its rows, and ``--check`` prints each gate failure once as
``REGRESSION: ...`` and exits 1.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path
from typing import Any

from repro.bench.calibration import paper_model
from repro.bench.history import TIMING_KEYS, RunHistory, named_cases, row
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

#: ``--check``: max measured ratio of the auto plan vs the best
#: hand-picked candidate (also the ``max`` rule in
#: ``BENCH_autotune_baseline.json``).
RATIO_GATE = 1.25


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
        signals=signals, model=model, dataset=dataset, max_p=max_p,
        seed=seed,
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
    """Plan + measure every dataset of the sweep; returns the report."""
    mode = "smoke" if args.smoke else "full"
    datasets, max_p = MODES[mode]
    if args.dataset:
        datasets = tuple(args.dataset)
    if args.max_p:
        max_p = args.max_p
    model = paper_model()
    cases = []
    for ds in datasets:
        case = bench_dataset(ds, max_p, args.seed, model)
        cases.append(case)
        print(
            f"autotunebench {case['name']}: chose {case['chosen']}, "
            f"best {case['best_measured']}, "
            f"ratio {case['ratio_vs_best']:.3f}x",
            file=sys.stderr,
        )
    return {
        "kind": "repro-autotune-bench",
        "suite": "autotune",
        "mode": mode,
        "host": host_metadata(),
        "config": {
            "max_p": max_p,
            "seed": args.seed,
            "ratio_gate": RATIO_GATE,
            "model_fingerprint": model.fingerprint(),
        },
        "cases": cases,
    }


def history_rows(report: dict[str, Any]) -> list[dict[str, Any]]:
    """One row per measured candidate, shaped exactly as
    ``repro.core.autotune._history_makespans`` consumes them
    (``{dataset}-{alg}-p{p}`` / ``virtual_makespan_s``), so appending a
    report feeds measured ground truth back to the planner; plus one
    ``<dataset>-auto`` row carrying the plan quality."""
    rows = []
    for name, case in named_cases(report):
        for key, cand in sorted((case.get("candidates") or {}).items()):
            rows.append(
                row("autotune", f"{name}-{key}", cand, TIMING_KEYS
                    + ("count", "virtual_makespan_s", "predicted_s"))
            )
        rows.append(
            row("autotune", f"{name}-auto", case,
                ("chosen", "best_measured", "ratio_vs_best"))
        )
    return rows


def check(report: Any) -> list[str]:
    """Gate an autotunebench report; returns human-readable failures.  A
    report with nothing to gate is a failure, not a pass."""
    if next(named_cases(report), None) is None:
        return ["autotune: report has no cases, nothing was gated"]
    failures: list[str] = []
    for name, case in named_cases(report):
        ratio = case.get("ratio_vs_best")
        if ratio is None or ratio > RATIO_GATE:
            failures.append(
                f"{name}: auto plan {case.get('chosen')} is {ratio}x the "
                f"best measured candidate {case.get('best_measured')} "
                f"(gate {RATIO_GATE}x)"
            )
        if not case.get("counts_agree"):
            failures.append(
                f"{name}: candidates disagree on the triangle count"
            )
    return failures


def main(argv: list[str] | None = None) -> int:
    """Run, write, record, gate.  Exits 0, or 1 when ``--check`` found a
    failure."""
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--smoke", action="store_true",
                    help="CI-sized inputs instead of the full sweep")
    ap.add_argument("--out", default="BENCH_autotune.json",
                    help="report path, '-' for stdout only "
                    "(default: %(default)s)")
    ap.add_argument("--check", action="store_true",
                    help="exit 1 when the gate fails")
    ap.add_argument("--history", metavar="DB",
                    help="also append this run's rows to a history JSONL "
                    "(see `repro history`)")
    ap.add_argument("--dataset", action="append", default=[],
                    help="override the sweep's datasets (repeatable)")
    ap.add_argument("--max-p", type=int, default=0,
                    help="override the sweep's largest rank count")
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args(argv)

    report = run_bench(args)
    text = json.dumps(report, indent=2) + "\n"
    if args.out == "-":
        sys.stdout.write(text)
    else:
        Path(args.out).write_text(text)
        print(f"wrote {args.out}", file=sys.stderr)
    if args.history:
        n = RunHistory(args.history).append(history_rows(report))
        print(f"appended {n} rows to {args.history}", file=sys.stderr)
    if not args.check:
        return 0
    failures = check(report)
    for line in failures:
        print(f"REGRESSION: {line}", file=sys.stderr)
    if not failures:
        print("check passed: autotune", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
