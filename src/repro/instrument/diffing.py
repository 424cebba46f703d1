"""Compare two recorded telemetry runs (``repro diff``).

A telemetry record (see :mod:`repro.instrument.telemetry`) captures one
run's wall/virtual phase breakdown, memory and GC stats, keyed by the
preprocessing-store digest and the machine-model fingerprint.
:func:`diff_records` lines two records up phase by phase and reports the
deltas; :func:`render_diff` is the text view.

Comparability is checked, not enforced: runs with different store
digests (different graph/config), model fingerprints or hosts still
diff, but the mismatch is listed under ``warnings`` so a "regression"
that is actually an input change is visible at a glance.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any

from repro.instrument.telemetry import TELEMETRY_RECORD_SCHEMA


def load_record(path: Any) -> dict[str, Any]:
    """Read and validate one telemetry-record JSON file."""
    doc = json.loads(Path(path).read_text())
    if doc.get("kind") != "repro-telemetry":
        raise ValueError(
            f"{path}: not a telemetry record (kind={doc.get('kind')!r})"
        )
    if int(doc.get("schema", 0)) > TELEMETRY_RECORD_SCHEMA:
        raise ValueError(
            f"{path}: record schema {doc.get('schema')} is newer than this "
            f"reader ({TELEMETRY_RECORD_SCHEMA})"
        )
    return doc


def _delta(a: Any, b: Any) -> float | None:
    if a is None or b is None:
        return None
    return float(b) - float(a)


def _ratio(a: Any, b: Any) -> float | None:
    if a is None or b is None or float(a) == 0.0:
        return None
    return float(b) / float(a)


def diff_records(a: dict[str, Any], b: dict[str, Any]) -> dict[str, Any]:
    """Structured diff of two telemetry records (A = reference, B = new).

    Returns a JSON-serializable document with ``warnings`` (key
    mismatches), ``totals`` (wall/makespan/memory deltas) and per-phase
    rows.
    """
    warnings: list[str] = []
    for key, label in (
        ("digest", "store digest"),
        ("model_fingerprint", "machine-model fingerprint"),
        ("dataset", "dataset"),
        ("p", "rank count"),
        ("count", "triangle count"),
    ):
        va, vb = a.get(key), b.get(key)
        if va is not None and vb is not None and va != vb:
            warnings.append(f"{label} differs: {va!r} vs {vb!r}")
    ha, hb = a.get("host") or {}, b.get("host") or {}
    if ha and hb and ha != hb:
        keys = [k for k in ha if ha.get(k) != hb.get(k)]
        warnings.append(f"host differs ({', '.join(sorted(keys))})")

    phases: dict[str, Any] = {}
    pa, pb = a.get("phases") or {}, b.get("phases") or {}
    for name in sorted(set(pa) | set(pb)):
        ra, rb = pa.get(name) or {}, pb.get(name) or {}
        phases[name] = {
            "wall_a_s": ra.get("wall_s"),
            "wall_b_s": rb.get("wall_s"),
            "wall_delta_s": _delta(ra.get("wall_s"), rb.get("wall_s")),
            "wall_ratio": _ratio(ra.get("wall_s"), rb.get("wall_s")),
            "virtual_a_s": ra.get("virtual_s"),
            "virtual_b_s": rb.get("virtual_s"),
            "virtual_delta_s": _delta(
                ra.get("virtual_s"), rb.get("virtual_s")
            ),
            "comm_a": ra.get("comm_fraction"),
            "comm_b": rb.get("comm_fraction"),
            "rss_a_bytes": ra.get("rss_max_bytes"),
            "rss_b_bytes": rb.get("rss_max_bytes"),
            "only_in": ("a" if name not in pb else "b")
            if name not in pa or name not in pb
            else None,
        }

    ma, mb = a.get("memory") or {}, b.get("memory") or {}
    totals = {
        "wall_a_s": a.get("wall_s"),
        "wall_b_s": b.get("wall_s"),
        "wall_delta_s": _delta(a.get("wall_s"), b.get("wall_s")),
        "wall_ratio": _ratio(a.get("wall_s"), b.get("wall_s")),
        "virtual_makespan_a_s": a.get("virtual_makespan_s"),
        "virtual_makespan_b_s": b.get("virtual_makespan_s"),
        "virtual_makespan_delta_s": _delta(
            a.get("virtual_makespan_s"), b.get("virtual_makespan_s")
        ),
        "rss_end_delta_bytes": _delta(
            ma.get("rss_end_bytes"), mb.get("rss_end_bytes")
        ),
    }

    return {
        "kind": "repro-telemetry-diff",
        "a": {"label": a.get("label"), "executor": a.get("executor")},
        "b": {"label": b.get("label"), "executor": b.get("executor")},
        "warnings": warnings,
        "totals": totals,
        "phases": phases,
    }


def _fmt_s(v: Any) -> str:
    return f"{v:>9.3f}s" if v is not None else "        -"


def _fmt_ratio(v: Any) -> str:
    return f"{v:>6.2f}x" if v is not None else "     -"


def render_diff(diff: dict[str, Any]) -> str:
    """Text rendering of :func:`diff_records` (what ``repro diff``
    prints)."""
    lines: list[str] = []
    lines.append(
        f"diff: A={diff['a'].get('label') or '?'} "
        f"({diff['a'].get('executor') or '?'})  vs  "
        f"B={diff['b'].get('label') or '?'} "
        f"({diff['b'].get('executor') or '?'})"
    )
    for w in diff.get("warnings", []):
        lines.append(f"  WARNING: {w}")
    t = diff.get("totals", {})
    lines.append(
        f"  wall      A {_fmt_s(t.get('wall_a_s'))}  "
        f"B {_fmt_s(t.get('wall_b_s'))}  "
        f"delta {_fmt_s(t.get('wall_delta_s'))}  "
        f"{_fmt_ratio(t.get('wall_ratio'))}"
    )
    if t.get("virtual_makespan_a_s") is not None:
        lines.append(
            f"  makespan  A {_fmt_s(t.get('virtual_makespan_a_s'))}  "
            f"B {_fmt_s(t.get('virtual_makespan_b_s'))}  "
            f"delta {_fmt_s(t.get('virtual_makespan_delta_s'))}  (virtual)"
        )
    phases = diff.get("phases") or {}
    if phases:
        lines.append(
            "  phase       wall A     wall B      delta   ratio   "
            "virt delta"
        )
        for name, row in phases.items():
            lines.append(
                f"  {name:<10}{_fmt_s(row.get('wall_a_s'))} "
                f"{_fmt_s(row.get('wall_b_s'))} "
                f"{_fmt_s(row.get('wall_delta_s'))} "
                f"{_fmt_ratio(row.get('wall_ratio'))} "
                f"{_fmt_s(row.get('virtual_delta_s'))}"
                + (
                    f"   (only in {row['only_in'].upper()})"
                    if row.get("only_in")
                    else ""
                )
            )
    return "\n".join(lines)
