"""Command-line interface."""

from __future__ import annotations

import pytest

from repro.cli import main


def test_count_tc2d_verified(capsys):
    assert main(["count", "g500-s12", "-p", "4", "--verify"]) == 0
    out = capsys.readouterr().out
    assert "count=" in out
    assert "OK" in out


@pytest.mark.parametrize("algo", ["summa", "aop", "surrogate", "psp", "havoq"])
def test_count_other_algorithms(capsys, algo):
    assert main(["count", "g500-s12", "-p", "4", "-a", algo, "--verify"]) == 0
    assert "OK" in capsys.readouterr().out


def test_count_with_toggles(capsys):
    assert (
        main(
            [
                "count",
                "g500-s12",
                "-p",
                "4",
                "--no-early-stop",
                "--no-modified-hashing",
                "--enumeration",
                "ijk",
                "--verify",
            ]
        )
        == 0
    )
    assert "OK" in capsys.readouterr().out


def test_count_from_edge_list_file(tmp_path, capsys, tiny_graph):
    from repro.graph.io import write_edge_list

    path = tmp_path / "g.txt"
    write_edge_list(tiny_graph, path)
    assert main(["count", str(path), "-p", "1", "--verify"]) == 0
    out = capsys.readouterr().out
    assert "count=3" in out


def test_count_unknown_dataset_exits():
    with pytest.raises(SystemExit):
        main(["count", "no-such-thing"])


def test_census(capsys):
    assert main(["census", "g500-s12", "-p", "4", "--top", "2"]) == 0
    out = capsys.readouterr().out
    assert "triangles" in out and "transitivity" in out


def test_datasets_listing(capsys):
    assert main(["datasets"]) == 0
    out = capsys.readouterr().out
    assert "twitter-like" in out and "g500-s12" in out


def test_bench_table1(capsys):
    assert main(["bench", "table1"]) == 0
    assert "Table 1" in capsys.readouterr().out


def test_bench_unknown_exits():
    with pytest.raises(SystemExit):
        main(["bench", "table99"])


# -- preprocessing cache (``--store`` / ``repro store``) ----------------------


@pytest.fixture()
def small_datasets(monkeypatch):
    """Shrink the scaled dataset analogues so CLI cache tests stay fast."""
    monkeypatch.setenv("REPRO_DATASET_SCALE", "0.0625")
    from repro.graph.datasets import clear_cache

    clear_cache()
    yield
    clear_cache()


def test_store_warm_then_count_skips_ppt(tmp_path, capsys, small_datasets):
    store = str(tmp_path / "store")
    assert (
        main(
            ["store", "warm", "--dir", store, "--dataset", "g500-s14", "-p", "4"]
        )
        == 0
    )
    capsys.readouterr()

    # Warm run: verified count, cache hit, and a profile report with a
    # cache phase but zero preprocessing operations.
    assert (
        main(
            [
                "count", "g500-s14", "-p", "4",
                "--store", store, "--profile", "--verify",
            ]
        )
        == 0
    )
    out = capsys.readouterr().out
    assert "OK" in out
    assert "cache: hit" in out and "preprocessing skipped" in out
    assert "cache_io" in out
    for ppt_op in ("relabel", "csr_build"):  # no ppt-phase ops ran
        assert ppt_op not in out


def test_count_cold_then_warm_same_count(tmp_path, capsys, small_datasets):
    store = str(tmp_path / "store")
    argv = ["count", "g500-s14", "-p", "4", "--store", store]
    assert main(argv) == 0
    cold = capsys.readouterr().out
    assert "cache: miss" in cold and "artifact stored" in cold
    assert main(argv) == 0
    warm = capsys.readouterr().out
    assert "cache: hit" in warm
    assert [l for l in cold.splitlines() if l.startswith("count=")] == [
        l for l in warm.splitlines() if l.startswith("count=")
    ]


def test_store_list_verify_prune(tmp_path, capsys, small_datasets):
    store = str(tmp_path / "store")
    assert (
        main(
            ["store", "warm", "--dir", store, "--dataset", "g500-s12", "-p", "4"]
        )
        == 0
    )
    capsys.readouterr()
    assert main(["store", "list", "--dir", store]) == 0
    assert "g500-s12" in capsys.readouterr().out
    assert main(["store", "verify", "--dir", store]) == 0
    assert "no problems" in capsys.readouterr().out
    assert main(["store", "prune", "--dir", store]) == 0
    assert "removed" in capsys.readouterr().out
    assert main(["store", "list", "--dir", store]) == 0
    assert "empty" in capsys.readouterr().out


def test_cache_flag_rejected_for_other_algorithms(small_datasets, tmp_path):
    with pytest.raises(SystemExit):
        main(
            [
                "count", "g500-s12", "-p", "4", "-a", "summa",
                "--store", str(tmp_path / "s"),
            ]
        )


# -- telemetry / diff / history ----------------------------------------------


def test_count_with_telemetry_writes_record(tmp_path, capsys, small_datasets):
    import json

    out = tmp_path / "tele.json"
    assert (
        main(
            [
                "count", "g500-s14", "-p", "4",
                "--telemetry", str(out), "--verify",
            ]
        )
        == 0
    )
    text = capsys.readouterr().out
    assert "OK" in text
    assert "telemetry:" in text and "phase" in text
    record = json.loads(out.read_text())
    assert record["kind"] == "repro-telemetry"
    assert record["p"] == 4
    assert set(record["phases"]) == {"ppt", "tct"}


def test_telemetry_counters_merge_into_trace(tmp_path, capsys, small_datasets):
    import json

    trace = tmp_path / "trace.json"
    assert (
        main(
            [
                "count", "g500-s14", "-p", "4",
                "--telemetry", str(tmp_path / "tele.json"),
                "--trace", str(trace),
            ]
        )
        == 0
    )
    capsys.readouterr()
    doc = json.loads(trace.read_text())
    assert any(e["ph"] == "C" for e in doc["traceEvents"])


def test_telemetry_rejected_for_other_algorithms(tmp_path, small_datasets):
    with pytest.raises(SystemExit):
        main(
            [
                "count", "g500-s12", "-p", "4", "-a", "aop",
                "--telemetry", str(tmp_path / "t.json"),
            ]
        )


def test_diff_cold_vs_warm_store(tmp_path, capsys, small_datasets):
    store = str(tmp_path / "store")
    cold = tmp_path / "cold.json"
    warm = tmp_path / "warm.json"
    argv = ["count", "g500-s14", "-p", "4", "--store", store, "--telemetry"]
    assert main(argv + [str(cold)]) == 0
    assert main(argv + [str(warm)]) == 0
    capsys.readouterr()

    assert main(["diff", str(cold), str(warm)]) == 0
    text = capsys.readouterr().out
    assert "ppt" in text and "WARNING" not in text

    assert main(["diff", str(cold), str(warm), "--json"]) == 0
    import json

    doc = json.loads(capsys.readouterr().out)
    ppt = doc["phases"]["ppt"]
    # The warm run skips preprocessing: its ppt exec-wall collapses.
    assert ppt["wall_b_s"] < max(1e-3, 0.1 * ppt["wall_a_s"])


def test_diff_rejects_non_records(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"kind": "something-else"}')
    with pytest.raises(SystemExit, match="not a telemetry record"):
        main(["diff", str(bad), str(bad)])


def test_history_append_list_check(tmp_path, capsys, small_datasets):
    import json

    record = tmp_path / "tele.json"
    db = str(tmp_path / "hist.jsonl")
    assert (
        main(
            ["count", "g500-s14", "-p", "4", "--telemetry", str(record)]
        )
        == 0
    )
    capsys.readouterr()

    assert main(["history", "append", "--db", db, "--record", str(record)]) == 0
    assert "appended 1 rows" in capsys.readouterr().out
    assert main(["history", "list", "--db", db]) == 0
    assert "g500-s14-p4" in capsys.readouterr().out

    count = json.loads(record.read_text())["count"]
    good = tmp_path / "good.json"
    good.write_text(
        json.dumps(
            {
                "schema": 1,
                "kind": "repro-bench-baseline",
                "entries": [
                    {
                        "suite": "count",
                        "case": "g500-s14-p4",
                        "metrics": {"count": {"rule": "equal", "value": count}},
                    }
                ],
            }
        )
    )
    assert main(["history", "check", "--db", db, "--baseline", str(good)]) == 0
    assert "OK" in capsys.readouterr().out

    bad = tmp_path / "bad.json"
    bad.write_text(
        good.read_text().replace(str(count), str(count + 1), 1)
    )
    assert main(["history", "check", "--db", db, "--baseline", str(bad)]) == 1
    assert "REGRESSION" in capsys.readouterr().out


def test_history_append_requires_input(tmp_path):
    with pytest.raises(SystemExit, match="needs"):
        main(["history", "append", "--db", str(tmp_path / "h.jsonl")])


# -- count --auto: pinned fields come from the parsed namespace ---------------


@pytest.mark.parametrize(
    "flags, pinned",
    [
        ([], None),
        (["-p9"], "p"),
        (["--ranks=9"], "p"),
        (["-p", "9"], "p"),
        (["--work", "2"], "workers"),  # unambiguous prefix
        (["-a", "coveredge", "--kernel", "row"], "algorithm, kernel_backend"),
    ],
)
def test_auto_pins_exactly_the_spelled_flags(capsys, small_datasets, flags, pinned):
    rc = main(["count", "g500-s12", "--auto", "--auto-max-p", "9", *flags])
    auto_line = next(
        ln for ln in capsys.readouterr().out.splitlines() if ln.startswith("auto:")
    )
    assert rc == 0
    assert auto_line.endswith(
        f"candidates; pinned: {pinned})" if pinned else "candidates)"
    )


def test_auto_rejects_non_grid_algorithms(small_datasets):
    with pytest.raises(SystemExit, match="plans the grid algorithms"):
        main(["count", "g500-s12", "--auto", "-a", "aop"])


def test_plannable_flag_defaults_still_apply_and_show_in_help(capsys, small_datasets):
    assert main(["count", "g500-s12"]) == 0
    assert "tc2d p=16 " in capsys.readouterr().out
    with pytest.raises(SystemExit):
        main(["count", "--help"])
    text = capsys.readouterr().out
    for default in ("default: 16", "default: tc2d", "default: auto", "default 0"):
        assert default in text
    assert "--dispatch" not in text and "--no-offload-ppt" not in text
