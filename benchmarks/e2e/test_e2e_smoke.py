"""Smoke test of the end-to-end benchmark itself (run explicitly:
``PYTHONPATH=src python -m pytest benchmarks/e2e/test_e2e_smoke.py``; tier-1's
``testpaths`` does not include it).

A ``--smoke``-sized pass (RMAT scale 10, 3 ops, 20 serve requests) of
``run`` and ``layers``, twice with one seed.
"""

from __future__ import annotations

import json
import math
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
REPO = HERE.parents[1]
BENCH = [sys.executable, str(HERE / "bench.py")]
SPEC = json.loads((REPO / "BENCHMARK.json").read_text())
NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.\-]{1,16}$")
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(*args: str, cwd: Path = REPO) -> subprocess.CompletedProcess:
    return subprocess.run([*BENCH, *args], cwd=cwd, capture_output=True,
                          text=True, timeout=600)


@pytest.fixture(scope="module")
def reports(tmp_path_factory) -> list[dict]:
    """Two full smoke reports (``run`` + ``layers``) with one seed."""
    out = []
    for tag in "ab":
        path = tmp_path_factory.mktemp("e2e") / f"{tag}.json"
        for cmd in ("run", "layers"):
            proc = bench(cmd, "--smoke", "--seed", "7", "--out", str(path))
            assert proc.returncode == 0, proc.stdout + proc.stderr
        out.append(json.loads(path.read_text()))
    return out


def test_benchmark_json_grammar():
    names = [w["name"] for w in SPEC["workloads"]]
    for group in ("end_to_end", "per_layer"):
        for m in SPEC[group]:
            names.append(m["name"])
            assert UNIT_RE.match(m["unit"]), m
            assert m["better"] in ("lower", "higher"), m
    assert len(names) == len(set(names))
    assert all(NAME_RE.match(n) for n in names), names
    assert SPEC["paths"] == ["benchmarks/e2e"]
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])


def test_report_schema(reports):
    rep = reports[0]
    for section, group in (("run", "end_to_end"), ("layers", "per_layer")):
        assert rep[section]["smoke"] and rep[section]["seed"] == 7
        assert "usable_cpus" in rep[section]["host"]
        assert isinstance(rep[section]["host"]["core_limited"], bool)
        assert sorted(rep[section]["workloads"]) == sorted(WORKLOADS)
        for name, doc in rep[section]["workloads"].items():
            assert doc["ops"]["failed"] == 0, name
            assert not doc["leaks"]["processes"] and not doc["leaks"]["shm"]
            for m in SPEC[group]:
                got = doc["metrics"][m["name"]]
                assert got["unit"] == m["unit"], (name, m["name"])
                assert isinstance(got["value"], (int, float))
            assert all(NAME_RE.match(k) for k in doc["metrics"])
    for doc in rep["run"]["workloads"].values():
        assert doc["metrics"]["fail_ratio"]["value"] == 0
        assert all(doc["metrics"][m["name"]]["value"] > 0
                   for m in SPEC["end_to_end"])


def test_layers_sum_to_the_whole_call(reports):
    for name, doc in reports[0]["layers"]["workloads"].items():
        v = {k: m["value"] for k, m in doc["metrics"].items()}
        parts = (v["core.preprocess.partition_1d_s"] + v["core.preprocess.ppt_wall_s"]
                 + v["core.kernels.tct_kernel_s"] + v["core.tc2d.residual_s"])
        assert math.isclose(parts, v["core.tc2d.count_s"], rel_tol=1e-9), name


def test_kernel_replay_finds_the_oracle_count(reports):
    rep = reports[0]
    for name, doc in rep["layers"]["workloads"].items():
        assert doc["checks_failed"] == [], name
        assert (doc["metrics"]["core.kernels.triangles"]["value"]
                == rep["run"]["workloads"][name]["counts"]["oracle_triangles"])


def test_same_seed_repeats_exactly(reports):
    a, b = reports
    for name in WORKLOADS:
        ra, rb = (r["run"]["workloads"][name] for r in (a, b))
        assert ra["counts"] == rb["counts"]
        assert (ra["metrics"]["virtual_makespan_s"]["value"]
                == rb["metrics"]["virtual_makespan_s"]["value"])
        la, lb = (r["layers"]["workloads"][name]["metrics"] for r in (a, b))
        for metric, m in la.items():
            if m["unit"] in ("count", "B") or "virtual" in metric:
                assert m["value"] == lb[metric]["value"], (name, metric)


def test_compare_applies_the_bounds(reports, tmp_path):
    same, worse = tmp_path / "a.json", tmp_path / "worse.json"
    same.write_text(json.dumps(reports[0]))
    doctored = json.loads(json.dumps(reports[0]))
    doctored["run"]["workloads"]["rmat_dense"]["metrics"]["op_s_p50"]["value"] *= 2
    worse.write_text(json.dumps(doctored))
    assert bench("compare", str(same), str(same)).returncode == 0
    proc = bench("compare", str(same), str(worse))
    assert proc.returncode == 1 and "rmat_dense:op_s_p50" in proc.stdout


@pytest.mark.parametrize("trace,group", [("0", "end_to_end"), ("1", "per_layer")])
def test_driver_form_prints_one_json_object_last(trace, group):
    proc = subprocess.run(
        [*SPEC["command"], "--workload", "rmat_dense", "--seed", "5",
         "--seconds", "1", "--trace", trace, "--smoke"],
        cwd=REPO, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(doc) == {"correct", "attempted", "failed", "metrics"}
    assert doc["correct"] is True and doc["failed"] == 0 and doc["attempted"] >= 1
    assert set(doc["metrics"]) == {m["name"] for m in SPEC[group]}


def test_fails_without_the_program(tmp_path):
    """In a directory holding only BENCHMARK.json and the benchmark's own
    files there is nothing to measure: non-zero exit, no result line."""
    shutil.copy(REPO / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns(".work", "__pycache__", "trace-*"))
    proc = subprocess.run(
        [*SPEC["command"], "--workload", "rmat_dense", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
