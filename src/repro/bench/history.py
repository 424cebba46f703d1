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
from typing import Any, Iterator

from repro.instrument.telemetry import host_metadata

HISTORY_SCHEMA = 1

#: The scalar timing fields a history row takes from a report entry.
TIMING_KEYS = ("best_s", "best_ms", "wall_s", "peak_rss_bytes")


def row(
    suite: str,
    case: str,
    entry: dict[str, Any] | None = None,
    keys: tuple[str, ...] = TIMING_KEYS,
    **metrics: Any,
) -> dict[str, Any]:
    """One history row: the ``keys`` of ``entry``, then ``metrics`` (which
    win on a clash); ``None`` values are dropped."""
    entry = entry or {}
    found = {k: entry[k] for k in keys if entry.get(k) is not None}
    found.update((k, v) for k, v in metrics.items() if v is not None)
    return {"suite": suite, "case": case, "metrics": found}


def named_cases(report: Any) -> Iterator[tuple[Any, dict[str, Any]]]:
    """``(name, case)`` for every well-formed case of a report; a report
    read from disk may be anything, so malformed parts are skipped."""
    cases = report.get("cases") if isinstance(report, dict) else None
    for case in cases if isinstance(cases, list) else []:
        if isinstance(case, dict) and case.get("name") is not None:
            yield case["name"], case


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


def rows_from_bench(report: Any) -> list[dict[str, Any]]:
    """History rows from a ``repro.bench`` report.

    An autotunebench report (``suite == "autotune"``) gets that module's
    row emitter, imported on demand.  Anything else — a hand-written
    report, one from a retired suite — gets one row per named case with
    whatever scalar timing fields are present.
    """
    doc = report if isinstance(report, dict) else {}
    if doc.get("suite") == "autotune":
        from repro.bench.autotunebench import history_rows

        return history_rows(doc)
    name = str(doc.get("suite") or doc.get("kind") or "bench")
    return [
        row(name, str(case_name), case, count=case.get("triangles"))
        for case_name, case in named_cases(report)
    ]


def check_history(
    rows: dict[tuple[str, str], dict[str, Any]],
    baseline: dict[str, Any],
) -> list[str]:
    """Gate newest history rows against a baseline; returns failures.

    Every baseline entry must have a matching row — a silently missing
    case is itself a regression (the suite stopped measuring it).  A
    baseline is hand-written JSON, so each malformed part of it is a
    failure line too.
    """
    failures: list[str] = []
    if baseline.get("kind") != "repro-bench-baseline":
        return [f"baseline: unexpected kind {baseline.get('kind')!r}"]
    entries = baseline.get("entries") or []
    if not isinstance(entries, list):
        return [f"baseline: entries must be a list, not {entries!r}"]
    for entry in entries:
        if not isinstance(entry, dict):
            failures.append(f"baseline: entry {entry!r} is not an object")
            continue
        suite, case = str(entry.get("suite")), str(entry.get("case"))
        rules = entry.get("metrics") or {}
        if not isinstance(rules, dict):
            failures.append(
                f"{suite}/{case}: metrics must be an object, not {rules!r}"
            )
            continue
        newest = rows.get((suite, case))
        if newest is None:
            failures.append(f"{suite}/{case}: no history row found")
            continue
        measured = newest.get("metrics") or {}
        if not isinstance(measured, dict):
            failures.append(
                f"{suite}/{case}: row metrics must be an object, not "
                f"{measured!r}"
            )
            continue
        for metric, rule in rules.items():
            if not isinstance(rule, dict):
                failures.append(
                    f"{suite}/{case}: rule for {metric!r} must be an "
                    f"object, not {rule!r}"
                )
                continue
            got = measured.get(metric)
            if got is None:
                failures.append(
                    f"{suite}/{case}: metric {metric!r} missing from row"
                )
                continue
            kind = rule.get("rule", "equal")
            if kind in ("min", "max", "max_ratio"):
                try:
                    num = float(got)
                except (TypeError, ValueError):
                    failures.append(
                        f"{suite}/{case}: {metric}={got!r} is not a "
                        f"number (rule {kind!r})"
                    )
                    continue
            if kind == "equal":
                if got != rule.get("value"):
                    failures.append(
                        f"{suite}/{case}: {metric}={got!r} != "
                        f"expected {rule.get('value')!r}"
                    )
            elif kind == "min":
                if num < float(rule.get("value", 0.0)):
                    failures.append(
                        f"{suite}/{case}: {metric}={got} < "
                        f"min {rule.get('value')}"
                    )
            elif kind == "max":
                if num > float(rule.get("value", 0.0)):
                    failures.append(
                        f"{suite}/{case}: {metric}={got} > "
                        f"max {rule.get('value')}"
                    )
            elif kind == "max_ratio":
                ref = float(rule.get("ref", 0.0))
                limit = ref * float(rule.get("max_ratio", 1.0))
                if num > limit:
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
