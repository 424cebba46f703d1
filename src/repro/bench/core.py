"""The one front, report header and row shape of the ``repro.bench`` suites.

A suite module (kernelbench, parallelbench, servebench, oocbench,
autotunebench) builds a :class:`Suite` record — its own flags plus plain
``run`` / ``rows`` / ``check`` callables and a default artifact path —
and hands it to :func:`bench_main`.  What the five share lives here and
nowhere else: ``--smoke`` / ``--out`` / ``--check`` / ``--history``, how
a report is written and a gate result becomes an exit code, the header
of every report (:func:`envelope`) and the history-row shape (:func:`row`).

:data:`SUITES` maps a report's ``suite`` string to the module that owns
that report's shape, so a report read back from disk (``repro history
append --bench``) finds its row emitter and gate without importing the
other four suites.  Registering a suite is one entry in that table.
"""

from __future__ import annotations

import argparse
import dataclasses
import importlib
import json
import sys
from pathlib import Path
from typing import Any, Callable, Iterator

from repro.instrument.telemetry import host_metadata

#: report ``suite`` string -> module holding that suite's ``SUITE`` record.
SUITES = {
    "kernel-backends": "repro.bench.kernelbench",
    "parallel-superstep": "repro.bench.parallelbench",
    "serve": "repro.bench.servebench",
    "outofcore": "repro.bench.oocbench",
    "autotune": "repro.bench.autotunebench",
}


@dataclasses.dataclass(frozen=True)
class Suite:
    """What a suite module registers: data and callables, no base class."""

    name: str  #: the ``suite`` string of its reports (a key of SUITES)
    out: str  #: default ``--out`` path, the committed artifact
    flags: dict[str, dict[str, Any]]  #: its own options -> argparse kwargs
    run: Callable[[argparse.Namespace], dict[str, Any]]  #: args -> report
    rows: Callable[[dict[str, Any]], list[dict[str, Any]]]  #: history rows
    #: ``check(report, notes) -> failures``; a skipped gate says why in notes
    check: Callable[[dict[str, Any], list[str]], list[str]]


def envelope(suite: str, smoke: bool, **version: Any) -> dict[str, Any]:
    """The header every report starts with.  ``version`` is the suite's
    own stamp (``schema=N`` or ``kind="..."``)."""
    return {
        **version,
        "suite": suite,
        "mode": "smoke" if smoke else "full",
        "host": host_metadata(),
    }


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


def suite_of(report: Any) -> Suite | None:
    """The registered suite owning ``report``'s shape (its module is
    imported on demand), or ``None``."""
    name = report.get("suite") if isinstance(report, dict) else None
    path = SUITES.get(name) if isinstance(name, str) else None
    return importlib.import_module(path).SUITE if path else None


def gate(suite: Suite, report: Any, notes: list[str]) -> list[str]:
    """``suite.check`` behind the one guard all suites share: a report
    with nothing to gate is a failure, not a pass."""
    if next(named_cases(report), None) is None:
        return [f"{suite.name}: report has no cases, nothing was gated"]
    return suite.check(report, notes)


def bench_main(suite: Suite, argv: list[str] | None = None) -> int:
    """Parse the common + suite flags, run, write, record, gate.  Exits
    0, or 1 when ``--check`` found a failure; each failure is printed
    once as ``REGRESSION: ...``, each skipped gate as ``NOTE: ...``."""
    doc = sys.modules[suite.run.__module__].__doc__ or suite.name
    ap = argparse.ArgumentParser(description=doc.splitlines()[0])
    ap.add_argument("--smoke", action="store_true",
                    help="CI-sized inputs instead of the full sweep")
    ap.add_argument("--out", default=suite.out,
                    help="report path, '-' for stdout only "
                    "(default: %(default)s)")
    ap.add_argument("--check", action="store_true",
                    help="exit 1 when the suite's gate fails")
    ap.add_argument("--history", metavar="DB",
                    help="also append this run's rows to a history JSONL "
                    "(see `repro history`)")
    for flag, kwargs in suite.flags.items():
        ap.add_argument(flag, **kwargs)
    args = ap.parse_args(argv)

    report = suite.run(args)
    text = json.dumps(report, indent=2) + "\n"
    if args.out == "-":
        sys.stdout.write(text)
    else:
        Path(args.out).write_text(text)
        print(f"wrote {args.out}", file=sys.stderr)
    if args.history:
        from repro.bench.history import RunHistory

        n = RunHistory(args.history).append(suite.rows(report))
        print(f"appended {n} rows to {args.history}", file=sys.stderr)
    if not args.check:
        return 0
    notes: list[str] = []
    failures = gate(suite, report, notes)
    for line in notes:
        print(f"NOTE: {line}", file=sys.stderr)
    for line in failures:
        print(f"REGRESSION: {line}", file=sys.stderr)
    if not failures:
        print(f"check passed: {suite.name}", file=sys.stderr)
    return 1 if failures else 0
