"""Append-only benchmark run database and regression gate.

``RunHistory`` is a JSONL file — one row per (suite, case) measurement,
stamped with host metadata so rows from different machines are
distinguishable.  Rows come from telemetry records
(:func:`row_from_telemetry`) or bench reports
(:func:`rows_from_bench`); ``repro history append`` writes them,
``repro history list`` shows them, and ``repro history check`` gates
the newest rows against a committed baseline file.

Baseline format (``BENCH_baseline.json``)::

    {"schema": 1, "kind": "repro-bench-baseline",
     "entries": [{"suite": "count", "case": "g500-s14-p16",
                  "metrics": {"count": {"rule": "equal", "value": 123}}}]}

Rules: ``equal`` (exact match — determinism gates), ``min`` / ``max``
(absolute bounds), ``max_ratio`` (measured <= ref * ratio — perf
gates with headroom for machine noise).
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any

from repro.instrument.telemetry import host_metadata

HISTORY_SCHEMA = 1


class RunHistory:
    """Append-only JSONL run database (one JSON object per line)."""

    def __init__(self, path: Any):
        self.path = Path(path)

    def append(self, rows: list[dict[str, Any]]) -> int:
        """Append ``rows``, stamping schema + host; returns rows written."""
        if not rows:
            return 0
        host = host_metadata()
        self.path.parent.mkdir(parents=True, exist_ok=True)
        with self.path.open("a") as fh:
            for row in rows:
                out = dict(row)
                out.setdefault("schema", HISTORY_SCHEMA)
                out.setdefault("host", host)
                fh.write(json.dumps(out, sort_keys=True, default=str) + "\n")
        return len(rows)

    def rows(self) -> list[dict[str, Any]]:
        """All rows in file order; skips blank/corrupt lines (an
        interrupted append must not poison the whole database)."""
        if not self.path.exists():
            return []
        out: list[dict[str, Any]] = []
        for line in self.path.read_text().splitlines():
            line = line.strip()
            if not line:
                continue
            try:
                doc = json.loads(line)
            except ValueError:
                continue
            if isinstance(doc, dict):
                out.append(doc)
        return out

    def latest(self) -> dict[tuple[str, str], dict[str, Any]]:
        """Newest row per (suite, case)."""
        latest: dict[tuple[str, str], dict[str, Any]] = {}
        for row in self.rows():
            key = (str(row.get("suite", "")), str(row.get("case", "")))
            latest[key] = row
        return latest


def row_from_telemetry(record: dict[str, Any]) -> dict[str, Any]:
    """One history row from a telemetry record (``repro count
    --telemetry`` output)."""
    mem = record.get("memory") or {}
    return {
        "suite": "count",
        "case": f"{record.get('dataset') or 'graph'}-p{record.get('p')}",
        "executor": record.get("executor"),
        "digest": record.get("digest"),
        "metrics": {
            "count": record.get("count"),
            "wall_s": record.get("wall_s"),
            "virtual_makespan_s": record.get("virtual_makespan_s"),
            "peak_rss_bytes": mem.get("peak_rss_bytes"),
        },
    }


def _metrics(entry: dict[str, Any], **extra: Any) -> dict[str, Any]:
    out = {
        k: entry[k]
        for k in ("best_s", "best_ms", "wall_s", "peak_rss_bytes")
        if entry.get(k) is not None
    }
    out.update({k: v for k, v in extra.items() if v is not None})
    return out


def rows_from_bench(report: dict[str, Any]) -> list[dict[str, Any]]:
    """History rows from a ``repro.bench`` report, keyed on its ``suite``.

    One row per measured entry: ``<case>-seq`` / ``<case>-w<N>`` for the
    superstep-executor sweep (parallelbench), ``<case>-<backend>`` for
    the kernel microbenchmark (kernelbench), ``<case>-cold`` / ``-warm``
    / ``-mixed`` plus ``overload`` for servebench, one row per measured
    candidate plus ``<case>-auto`` for autotunebench, and ``<case>-stream``
    / ``-preprocess`` / ``-count`` — each child's RSS delta next to the
    ceiling it is gated against — for oocbench's ratio case.  Anything
    else (oocbench's parity cases, unknown suites) falls back to one row
    per case with whatever scalar timing fields are present.
    """
    suite = str(report.get("suite") or report.get("kind") or "bench")
    rows: list[dict[str, Any]] = []
    for case in report.get("cases") or []:
        name = case.get("name")
        if name is None:
            continue
        if suite == "parallel-superstep":
            seq = case.get("sequential") or {}
            rows.append(
                {
                    "suite": suite,
                    "case": f"{name}-seq",
                    "metrics": _metrics(seq, count=case.get("triangles")),
                }
            )
            for w, row in sorted((case.get("parallel") or {}).items()):
                pool = row.get("pool") or {}
                wall = pool.get("wall_s") or 0.0
                overhead = (
                    (
                        (pool.get("serialize_s") or 0.0)
                        + (pool.get("dispatch_s") or 0.0)
                    )
                    / wall
                    if wall > 0.0
                    else None
                )
                rows.append(
                    {
                        "suite": suite,
                        "case": f"{name}-w{w}",
                        "metrics": _metrics(
                            row,
                            speedup=row.get("speedup_vs_sequential"),
                            pool_overhead_frac=overhead,
                        ),
                    }
                )
        elif suite == "kernel-backends":
            for backend, timing in sorted(
                (case.get("backends") or {}).items()
            ):
                rows.append(
                    {
                        "suite": suite,
                        "case": f"{name}-{backend}",
                        "metrics": _metrics(
                            timing,
                            count=case.get("triangles"),
                            peak_rss_bytes=case.get("peak_rss_bytes"),
                        ),
                    }
                )
        elif suite == "serve":
            cold, warm = case.get("cold") or {}, case.get("warm") or {}
            mixed = case.get("mixed") or {}
            rows.append(
                {
                    "suite": suite,
                    "case": f"{name}-cold",
                    "digest": case.get("digest"),
                    "metrics": _metrics(
                        {},
                        count=case.get("triangles"),
                        p50_s=cold.get("p50_s"),
                        p99_s=cold.get("p99_s"),
                    ),
                }
            )
            rows.append(
                {
                    "suite": suite,
                    "case": f"{name}-warm",
                    "metrics": _metrics(
                        {},
                        p50_s=warm.get("p50_s"),
                        p99_s=warm.get("p99_s"),
                        warm_speedup_p50=case.get("warm_speedup_p50"),
                    ),
                }
            )
            rows.append(
                {
                    "suite": suite,
                    "case": f"{name}-mixed",
                    "metrics": _metrics(
                        {},
                        throughput_rps=mixed.get("throughput_rps"),
                        hit_ratio=mixed.get("hit_ratio"),
                        p99_s=mixed.get("p99_s"),
                    ),
                }
            )
        elif suite == "autotune":
            # One row per measured candidate, shaped exactly as
            # repro.core.autotune._history_makespans consumes them
            # ({dataset}-{alg}-p{p} / virtual_makespan_s), so appending
            # this report feeds measured ground truth back to the
            # planner; plus one -auto row carrying the plan quality.
            for key, cand in sorted((case.get("candidates") or {}).items()):
                rows.append(
                    {
                        "suite": suite,
                        "case": f"{name}-{key}",
                        "metrics": _metrics(
                            cand,
                            count=cand.get("count"),
                            virtual_makespan_s=cand.get(
                                "virtual_makespan_s"
                            ),
                            predicted_s=cand.get("predicted_s"),
                        ),
                    }
                )
            rows.append(
                {
                    "suite": suite,
                    "case": f"{name}-auto",
                    "metrics": _metrics(
                        {},
                        chosen=case.get("chosen"),
                        best_measured=case.get("best_measured"),
                        ratio_vs_best=case.get("ratio_vs_best"),
                    ),
                }
            )
        elif suite == "outofcore" and "graph_bytes" in case:
            for stage in ("stream", "preprocess", "count"):
                child = case.get(stage) or {}
                rows.append(
                    {
                        "suite": suite,
                        "case": f"{name}-{stage}",
                        "digest": case.get("digest"),
                        "metrics": _metrics(
                            child,
                            rss_delta_bytes=child.get("rss_delta_bytes"),
                            ceiling_bytes=child.get("ceiling_bytes"),
                            graph_to_rss_ratio=(
                                case.get("graph_to_rss_ratio")
                                if stage == "stream"
                                else None
                            ),
                            count=child.get("count"),
                            store_hit=child.get("store_hit"),
                        ),
                    }
                )
        else:
            rows.append(
                {
                    "suite": suite,
                    "case": str(name),
                    "metrics": _metrics(case, count=case.get("triangles")),
                }
            )
    if suite == "serve" and report.get("overload"):
        over = report["overload"]
        rows.append(
            {
                "suite": suite,
                "case": "overload",
                "metrics": _metrics(
                    {},
                    rejected_total=over.get("rejected_total"),
                    accepted=over.get("accepted"),
                    capacity=over.get("capacity"),
                    queue_depth_max=over.get("queue_depth_max"),
                ),
            }
        )
    return rows


def check_history(
    rows: dict[tuple[str, str], dict[str, Any]],
    baseline: dict[str, Any],
) -> list[str]:
    """Gate newest history rows against a baseline; returns failures.

    Every baseline entry must have a matching row — a silently missing
    case is itself a regression (the suite stopped measuring it).
    """
    failures: list[str] = []
    if baseline.get("kind") != "repro-bench-baseline":
        return [f"baseline: unexpected kind {baseline.get('kind')!r}"]
    for entry in baseline.get("entries") or []:
        suite, case = str(entry.get("suite")), str(entry.get("case"))
        row = rows.get((suite, case))
        if row is None:
            failures.append(f"{suite}/{case}: no history row found")
            continue
        measured = row.get("metrics") or {}
        for metric, rule in (entry.get("metrics") or {}).items():
            got = measured.get(metric)
            if got is None:
                failures.append(
                    f"{suite}/{case}: metric {metric!r} missing from row"
                )
                continue
            kind = rule.get("rule", "equal")
            if kind == "equal":
                if got != rule.get("value"):
                    failures.append(
                        f"{suite}/{case}: {metric}={got!r} != "
                        f"expected {rule.get('value')!r}"
                    )
            elif kind == "min":
                if float(got) < float(rule.get("value", 0.0)):
                    failures.append(
                        f"{suite}/{case}: {metric}={got} < "
                        f"min {rule.get('value')}"
                    )
            elif kind == "max":
                if float(got) > float(rule.get("value", 0.0)):
                    failures.append(
                        f"{suite}/{case}: {metric}={got} > "
                        f"max {rule.get('value')}"
                    )
            elif kind == "max_ratio":
                ref = float(rule.get("ref", 0.0))
                limit = ref * float(rule.get("max_ratio", 1.0))
                if float(got) > limit:
                    failures.append(
                        f"{suite}/{case}: {metric}={got} > "
                        f"{rule.get('max_ratio')}x ref {ref} (= {limit:.6g})"
                    )
            else:
                failures.append(
                    f"{suite}/{case}: unknown rule {kind!r} for {metric}"
                )
    return failures


def load_baseline(path: Any) -> dict[str, Any]:
    doc = json.loads(Path(path).read_text())
    if not isinstance(doc, dict):
        raise ValueError(f"{path}: baseline must be a JSON object")
    return doc
