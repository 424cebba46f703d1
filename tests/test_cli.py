"""Command-line interface."""

from __future__ import annotations

import argparse
import subprocess
import sys

import pytest

from repro.cli import _COMMANDS, build_parser, main


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


def test_census(capsys, monkeypatch):
    """``census`` runs the distributed census once and prints the pinned
    lines."""
    import repro.apps.clustering
    import repro.core.listing

    calls = []
    census = repro.core.listing.triangle_census_2d

    def counted(*args, **kwargs):
        calls.append(args)
        return census(*args, **kwargs)

    monkeypatch.setattr(repro.core.listing, "triangle_census_2d", counted)
    monkeypatch.setattr(repro.apps.clustering, "triangle_census_2d", counted)
    monkeypatch.delenv("REPRO_DATASET_SCALE", raising=False)
    assert main(["census", "g500-s12", "-p", "4", "--top", "2"]) == 0
    assert len(calls) == 1
    assert capsys.readouterr().out.splitlines() == [
        "triangles      : 483,440",
        "transitivity   : 0.155870",
        "avg clustering : 0.271515",
        "top 2 vertices by triangle participation:",
        "  vertex      187  triangles=   33940  degree=1336",
        "  vertex     1898  triangles=   21645  degree=726",
    ]


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
        (["--kern", "row"], "kernel_backend"),  # unambiguous prefix
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
    for default in ("default: 16", "default: tc2d", "default: auto"):
        assert default in text
    assert "--dispatch" not in text and "--no-offload-ppt" not in text


@pytest.mark.parametrize(
    "argv",
    [
        [cmd, "g500-s12", flag, *value]
        for cmd in ("count", "profile")
        for flag, *value in (
            ("--executor", "parallel"), ("--workers", "2"), ("--trace-workers",)
        )
    ]
    + [["serve", "--executor", "parallel"], ["serve", "--workers", "2"]]
    + [["chaos", "--executor", "parallel"], ["chaos", "--workers", "2"]]
    + [["autotune", "g500-s12", "--cores", "4"]],
    ids=lambda argv: " ".join(argv),
)
def test_removed_executor_flags_are_argparse_errors(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [["count", "g500-s12", "-p", "0"], ["count", "g500-s12", "-a", "psp", "-p", "-3"]],
    ids=lambda argv: " ".join(argv),
)
def test_rank_count_below_one_is_a_usage_error(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "must be at least 1" in capsys.readouterr().err


def test_importing_the_cli_does_not_load_the_pool_module():
    code = "import sys, repro.cli; print('repro.simmpi.parallel' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        check=True, timeout=60,
    )
    assert out.stdout.split() == ["False"]


@pytest.mark.parametrize(
    "argv",
    [
        ["count", "{f}"],
        ["count", "{f}", "--store", "{d}"],
        ["count", "{f}", "--out-of-core", "--store", "{d}"],
        ["profile", "{f}", "-p", "4"],
        ["census", "{f}"],
        ["autotune", "{f}"],
        ["store", "ingest", "--input", "{f}", "--dir", "{d}"],
    ],
    ids=lambda argv: " ".join(a for a in argv if "{" not in a),
)
def test_malformed_edge_list_is_a_clean_error(tmp_path, capsys, argv):
    """Header n=5 with an id 7: every surface that reads the file exits 2
    naming it, and nothing reaches the store."""
    from repro.graph.store import GraphStore

    path = tmp_path / "phantom.txt"
    path.write_text("# n=5\n0 1\n0 2\n0 7\n")
    store = tmp_path / "store"
    argv = [a.format(f=path, d=store) for a in argv]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(path) in err
    assert GraphStore(store).digests() == []
    assert not GraphStore(store).inputs_dir.exists()


# -- one sub-command's parser --------------------------------------------------


def _parse_outcome(parse, argv, capsys):
    with pytest.raises(SystemExit) as exc:
        parse(argv)
    out = capsys.readouterr()
    return exc.value.code, out.out, out.err


@pytest.mark.parametrize(
    "argv",
    [["--help"]]
    + [[cmd, "--help"] for cmd in _COMMANDS]
    + [["count", "g500-s12", "--bogus"], ["store", "nosuch"], ["count", "-p", "0"]],
    ids=lambda argv: " ".join(argv),
)
def test_main_parses_as_the_whole_tree(capsys, monkeypatch, argv):
    """``main`` builds only the invoked sub-command's parser; its help
    and its usage errors are byte for byte the whole tree's."""
    monkeypatch.setenv("COLUMNS", "100")
    whole = _parse_outcome(build_parser().parse_args, argv, capsys)
    assert _parse_outcome(main, argv, capsys) == whole


def test_a_one_command_parser_holds_one_sub_parser():
    def sub_parsers(parser):
        [sub] = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
        return list(sub.choices)

    assert sub_parsers(build_parser()) == list(_COMMANDS)
    assert sub_parsers(build_parser("count")) == ["count"]
