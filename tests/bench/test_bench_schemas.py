"""Bench artifact schemas: new fields present, old artifacts still read."""

from __future__ import annotations

from repro.bench import kernelbench, parallelbench
from repro.instrument.telemetry import host_metadata


def test_host_metadata_reexport_is_the_telemetry_one():
    # parallelbench used to import host_metadata from kernelbench; the
    # canonical home is now the telemetry module and kernelbench
    # re-exports it, so old import paths keep working.
    assert kernelbench.host_metadata is host_metadata


def test_parallelbench_check_reads_schema1_artifacts():
    # A schema-1 artifact: no wall_s / peak_rss_bytes, and (worst case)
    # no host block at all.  The gate must not KeyError.
    report = {
        "schema": 1,
        "cases": [
            {
                "name": "rmat9-p4",
                "scale": 9,
                "sequential": {"best_s": 1.0, "reps": 3},
                "parallel": {
                    "2": {
                        "best_s": 1.5,
                        "reps": 3,
                        "count_match": True,
                        "speedup_vs_sequential": 0.66,
                    }
                },
            }
        ],
    }
    assert parallelbench.check_regressions(report) == []
    report["cases"][0]["parallel"]["2"]["count_match"] = False
    failures = parallelbench.check_regressions(report)
    assert len(failures) == 1 and "diverged" in failures[0]


def _schema3_report(**overrides):
    report = {
        "schema": 3,
        "dispatch": "amortized",
        "host": {"usable_cpus": 8},
        "cases": [
            {
                "name": "rmat13-p16",
                "scale": 13,
                "sequential": {"best_s": 4.0, "reps": 3},
                "parallel": {
                    "4": {
                        "best_s": 1.6,
                        "reps": 3,
                        "count_match": True,
                        "speedup_vs_sequential": 2.5,
                        "pool": {
                            "wall_s": 1.0,
                            "serialize_s": 0.05,
                            "dispatch_s": 0.05,
                            "execute_s": 0.85,
                            "collect_s": 0.05,
                        },
                    }
                },
            }
        ],
    }
    report.update(overrides)
    return report


def test_parallelbench_check_schema3_overhead_gate():
    # Healthy amortized run: speedup and overhead fraction both pass.
    report = _schema3_report()
    assert parallelbench.check_regressions(report) == []

    # Non-execute overhead above OVERHEAD_FRACTION of the pool wall is a
    # regression even when the speedup itself still clears the bar.
    pool = report["cases"][0]["parallel"]["4"]["pool"]
    pool["serialize_s"], pool["dispatch_s"] = 0.2, 0.15
    failures = parallelbench.check_regressions(report)
    assert len(failures) == 1 and "non-execute overhead" in failures[0]

    # A schema-3 artifact's ``dispatch`` stamp is ignored (schema 4 has
    # no such key): the fraction gate binds whatever it says.
    batched = _schema3_report(dispatch="batched", cases=report["cases"])
    assert len(parallelbench.check_regressions(batched)) == 1


def test_parallelbench_check_notes_skipped_gates():
    # A core-limited host skips the speedup gate — loudly, via notes.
    report = _schema3_report(host={"usable_cpus": 1})
    notes: list[str] = []
    assert parallelbench.check_regressions(report, notes=notes) == []
    assert notes and "SKIPPED" in notes[0] and "1 < 4 CPUs" in notes[0]


def test_kernelbench_check_reads_schema2_artifacts():
    report = {
        "schema": 2,
        "cases": [
            {
                "name": "rmat9-q3",
                "backends": {
                    "row": {"best_ms": 2.0},
                    "batch": {"best_ms": 1.0},
                },
            }
        ],
    }
    assert kernelbench.check_regressions(report) == []
    report["cases"][0]["backends"]["batch"]["best_ms"] = 3.0
    assert len(kernelbench.check_regressions(report)) == 1
