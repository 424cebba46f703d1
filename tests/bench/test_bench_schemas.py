"""Per-suite gate logic on hand-built reports of the current schemas."""

from __future__ import annotations

from repro.bench import kernelbench, parallelbench


def _parallel_report(**overrides):
    report = {
        "schema": parallelbench.SCHEMA,
        "suite": "parallel-superstep",
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


def test_parallelbench_check_overhead_gate():
    # Healthy run: speedup and overhead fraction both pass.
    report = _parallel_report()
    assert parallelbench.check(report, []) == []

    # Non-execute overhead above OVERHEAD_FRACTION of the pool wall is a
    # regression even when the speedup itself still clears the bar.
    entry = report["cases"][0]["parallel"]["4"]
    entry["pool"]["serialize_s"], entry["pool"]["dispatch_s"] = 0.2, 0.15
    failures = parallelbench.check(report, [])
    assert len(failures) == 1 and "non-execute overhead" in failures[0]

    # A diverged count fails on its own, whatever the timings say.
    entry["count_match"] = False
    failures = parallelbench.check(report, [])
    assert len(failures) == 1 and "diverged" in failures[0]


def test_parallelbench_check_notes_skipped_gates():
    # A core-limited host skips the speedup gate — loudly, via notes.
    report = _parallel_report(host={"usable_cpus": 1})
    notes: list[str] = []
    assert parallelbench.check(report, notes) == []
    assert notes and "SKIPPED" in notes[0] and "1 < 4 CPUs" in notes[0]


def test_kernelbench_check_fires_when_batch_is_slower():
    report = {
        "schema": kernelbench.SCHEMA,
        "suite": "kernel-backends",
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
    assert kernelbench.check(report, []) == []
    report["cases"][0]["backends"]["batch"]["best_ms"] = 3.0
    assert len(kernelbench.check(report, [])) == 1


def test_kernelbench_check_gates_c_against_batch():
    def report(c_ms, compiled=True):
        timings = {"row": {"best_ms": 2.0}, "batch": {"best_ms": 1.0}}
        if c_ms is not None:
            timings["c"] = {"best_ms": c_ms}
        return {
            "schema": kernelbench.SCHEMA,
            "suite": "kernel-backends",
            "compiled": compiled,
            "cases": [{"name": "rmat9-q3", "backends": timings}],
        }

    notes: list[str] = []
    assert kernelbench.check(report(0.2), notes) == [] and notes == []
    assert kernelbench.check(report(1.05), notes) == []  # inside the tolerance
    (failure,) = kernelbench.check(report(1.2), notes)
    assert "c 1.200ms > batch 1.000ms" in failure
    # A host that could not build it: no column, no failure, a loud note.
    assert kernelbench.check(report(None, "no C compiler"), notes) == []
    assert notes == ["c column SKIPPED: no C compiler"]
