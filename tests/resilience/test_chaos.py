"""The differential sweep (``repro chaos``): every cell of the tier-1
profile agrees with the oracle, and the sweep's own mechanics hold —
reproducible cells, the report and its artifacts, the flight recorder,
the exit code, the module entry point."""

from __future__ import annotations

import json
import runpy
import sys

import pytest

from repro.cli import main
from repro.core.config import KERNEL_BACKENDS
from repro.resilience.chaos import (
    DEFECTS,
    FAULTS,
    ROUTES,
    TOGGLES,
    draw_cell,
    run_cell,
    sweep,
    write_report,
)
from repro.resilience.recovery import RecoveryPolicy

#: Cells that once disagreed, with the graph each draws.
FIXTURES = [
    # powerlaw_cluster_fast(n, 1, ...) sampled from an empty attachment
    # list (IndexError) before its m == 1 fix.
    (0, 14, "holme-kim+self-loops+duplicates+reversed"),
    (0, 45, "holme-kim+hub+reversed+isolated"),
]

#: A traced cell of seed 0 whose random fault plan forces a restart.
FAULT_CELL = (0, 2)


@pytest.fixture(scope="module")
def tier1():
    return sweep(0)


def test_every_cell_agrees_with_the_oracle(tier1):
    bad = [r for r in tier1 if not r["ok"]]
    assert not bad, json.dumps(bad[:3], indent=1, default=str)


def test_the_profile_covers_every_axis(tier1):
    def seen(key):
        return {r[key] for r in tier1}

    assert {(r["algorithm"], r["path"]) for r in tier1} == set(ROUTES)
    assert seen("defect") == {"", *DEFECTS}
    assert seen("faults") == set(FAULTS)
    assert seen("traced") == {True, False}
    cfgs = {kv for r in tier1 for kv in r["cfg"].items()}
    assert {v for k, v in cfgs if k == "kernel_backend"} == set(KERNEL_BACKENDS)
    assert {v for k, v in cfgs if k == "enumeration"} == {"jik", "ijk"}
    assert len(cfgs) == len(KERNEL_BACKENDS) + 2 + 2 * len(TOGGLES)
    assert any(r.get("restarts") for r in tier1)
    assert any(r["n"] < r["p"] for r in tier1)
    assert {"hub", "self-loops", "duplicates", "reversed", "isolated"} <= {
        part for r in tier1 for part in r["graph"].split("+")
    }
    # a non-square 1D grid and a rectangular SUMMA grid
    assert any(r["grid"][0] != r["grid"][1] for r in tier1 if r["algorithm"] == "summa")
    assert any(r["algorithm"] == "aop" and r["p"] not in (1, 4, 9) for r in tier1)
    # an out-of-core read whose n= header lies past the first read block
    assert any(
        r["path"] in ("ooc", "ingest") and "padded" in r["file"]
        and "header-first" not in r["file"] for r in tier1 if r.get("file")
    )


@pytest.mark.parametrize("seed,index,graph", FIXTURES)
def test_fixed_disagreements_stay_fixed(seed, index, graph):
    row = run_cell(draw_cell(seed, index))
    assert row["graph"] == graph
    assert row["ok"], row["error"]


def test_cells_are_drawn_reproducibly():
    a, b = draw_cell(3, 17), draw_cell(3, 17)
    assert a == b and draw_cell(3, 18) != a
    (na, ea, da), (nb, eb, db) = a.graph(), b.graph()
    assert (na, da) == (nb, db) and (ea == eb).all()


def test_fault_cell_artifacts(tmp_path):
    cell = draw_cell(*FAULT_CELL)
    assert cell.faults == "random-plan" and cell.traced
    row = run_cell(cell, out_dir=tmp_path)
    assert row["ok"], row["error"]
    assert row["restarts"] >= 1 and row["faults_fired"]
    assert (tmp_path / "checkpoints" / cell.slug / "manifest.json").exists()
    ok = json.loads((tmp_path / "traces" / f"{cell.slug}-ok.json").read_text())
    assert "ckpt" in {e.get("cat") for e in ok["traceEvents"]}
    failed = json.loads((tmp_path / "traces" / f"{cell.slug}-attempt0.json").read_text())
    assert any(
        e.get("cat") == "fault" and e["name"].startswith("fault:")
        for e in failed["traceEvents"]
    )
    assert not (tmp_path / "flightrec").exists()  # only failures dump

    doc = json.loads(write_report([row], tmp_path, seed=0).read_text())
    assert (doc["cells"], doc["failures"]) == (1, 0)
    assert doc["rows"][0]["fault_plan"]["faults"]


def test_failed_cell_dumps_flight_recorder(tmp_path):
    cell = draw_cell(*FAULT_CELL)
    row = run_cell(cell, RecoveryPolicy(max_restarts=0), out_dir=tmp_path)
    assert not row["ok"] and "ResilienceExhausted" in row["error"]
    doc = json.loads((tmp_path / "flightrec" / f"{cell.slug}.json").read_text())
    assert doc["kind"] == "repro-flight-recorder"
    assert "ResilienceExhausted" in doc["reason"]
    assert doc["events"], "flight recorder dump carries no events"


def test_cli_writes_the_report_and_exits_1_on_a_disagreement(tmp_path, monkeypatch):
    assert main(["chaos", "--cells", "2", "--seed", "5", "--out", str(tmp_path), "--quiet"]) == 0
    assert json.loads((tmp_path / "chaos_report.json").read_text())["cells"] == 2

    import repro.baselines.serial as serial

    real = serial.count_triangles_node_iterator
    monkeypatch.setattr(serial, "count_triangles_node_iterator", lambda g: real(g) + 1)
    assert main(["chaos", "--cells", "2", "--seed", "5", "--quiet"]) == 1


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # runpy re-executes a loaded module
def test_module_entry_point_forwards_to_the_cli(monkeypatch):
    monkeypatch.setattr(sys, "argv", ["chaos", "--cells", "1", "--quiet"])
    with pytest.raises(SystemExit) as exc:
        runpy.run_module("repro.resilience.chaos", run_name="__main__")
    assert exc.value.code == 0
