"""Per-suite gate logic on hand-built reports of the current schemas."""

from __future__ import annotations

from repro.bench import kernelbench


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
