"""Smoke-run the fast example scripts end to end.

The long-running sweep examples are exercised indirectly through the
bench harness; here we run the quick ones exactly as a user would.
"""

from __future__ import annotations

import runpy
import sys
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"


def run_example(name: str, argv: list[str] | None = None) -> None:
    old_argv = sys.argv
    sys.argv = [str(EXAMPLES / name)] + (argv or [])
    try:
        runpy.run_path(str(EXAMPLES / name), run_name="__main__")
    finally:
        sys.argv = old_argv


def test_quickstart(capsys):
    run_example("quickstart.py")
    out = capsys.readouterr().out
    assert "OK: counts agree" in out


def test_trace_gantt(capsys, tmp_path):
    import json

    trace_file = tmp_path / "gantt.trace.json"
    run_example("trace_gantt.py", [str(trace_file)])
    out = capsys.readouterr().out
    assert "rank 8 |" in out
    assert "#" in out and "." in out
    # The example also exports a Perfetto/Chrome trace of the same run.
    assert "Perfetto" in out
    doc = json.loads(trace_file.read_text())
    assert set(doc) == {"traceEvents", "displayTimeUnit", "otherData"}
    assert doc["otherData"]["ranks"] == 9
    phases = [e for e in doc["traceEvents"] if e["ph"] == "X"]
    assert any(e["name"] == "tct" and e["cat"] == "phase" for e in phases)
    assert all({"ph", "pid", "tid", "ts"} <= set(e) for e in phases)


def test_compare_baselines_small(capsys):
    run_example("compare_baselines.py", ["g500-s12", "4"])
    out = capsys.readouterr().out
    assert "fastest overall" in out
    assert "WRONG" not in out


@pytest.mark.slow
def test_ktruss(capsys):
    run_example("ktruss.py")
    out = capsys.readouterr().out
    assert "maximum non-empty truss" in out


@pytest.mark.slow
def test_clustering(capsys):
    run_example("clustering_coefficients.py")
    out = capsys.readouterr().out
    assert "transitivity" in out


# -- documentation snippets ---------------------------------------------------
#
# The fenced code blocks in the user-facing docs are executable claims;
# run them so they can never rot.

REPO = EXAMPLES.parent
DOCS = REPO / "docs"


def fenced_blocks(path: Path, lang: str) -> list[str]:
    import re

    return re.findall(
        rf"```{lang}\n(.*?)```", path.read_text(), flags=re.S
    )


@pytest.fixture()
def small_datasets(monkeypatch):
    monkeypatch.setenv("REPRO_DATASET_SCALE", "0.0625")
    from repro.graph.datasets import clear_cache

    clear_cache()
    yield
    clear_cache()


def test_readme_quickstart_snippet():
    blocks = fenced_blocks(REPO / "README.md", "python")
    assert blocks, "README.md lost its quickstart python block"
    exec(compile(blocks[0], "README.md:quickstart", "exec"), {})


def test_datasets_doc_python_snippets(small_datasets, tmp_path):
    blocks = fenced_blocks(DOCS / "datasets.md", "python")
    assert len(blocks) >= 2, "docs/datasets.md lost its python examples"
    for i, block in enumerate(blocks):
        src = block.replace("/tmp/repro-store", str(tmp_path / "doc-store"))
        exec(compile(src, f"docs/datasets.md:python[{i}]", "exec"), {})


def test_datasets_doc_shell_snippets(small_datasets, tmp_path):
    import os
    import subprocess

    blocks = fenced_blocks(DOCS / "datasets.md", "bash")
    assert blocks, "docs/datasets.md lost its CLI walkthrough"
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO / "src")
    env["REPRO_DATASET_SCALE"] = "0.0625"
    for i, block in enumerate(blocks):
        script = block.replace(
            "/tmp/repro-store", str(tmp_path / "doc-store")
        )
        proc = subprocess.run(
            ["bash", "-euo", "pipefail", "-c", script],
            cwd=REPO,
            env=env,
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, (
            f"docs/datasets.md bash block {i} failed:\n"
            f"{proc.stdout}\n{proc.stderr}"
        )


def test_autotune_doc_python_snippet():
    blocks = fenced_blocks(DOCS / "autotune.md", "python")
    assert blocks, "docs/autotune.md lost its library-API example"
    for i, block in enumerate(blocks):
        exec(compile(block, f"docs/autotune.md:python[{i}]", "exec"), {})


@pytest.mark.slow
def test_autotune_doc_shell_snippets(tmp_path):
    """Run every bash block in docs/autotune.md exactly as written.

    Deliberately at FULL dataset scale (no REPRO_DATASET_SCALE): the
    history-check block gates the smoke bench against the committed
    BENCH_autotune_baseline.json, whose triangle counts are full-scale.
    """
    import os
    import subprocess

    blocks = fenced_blocks(DOCS / "autotune.md", "bash")
    assert len(blocks) >= 3, "docs/autotune.md lost its CLI walkthrough"
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO / "src")
    env.pop("REPRO_DATASET_SCALE", None)
    for i, block in enumerate(blocks):
        script = block.replace("/tmp/", f"{tmp_path}/")
        proc = subprocess.run(
            ["bash", "-euo", "pipefail", "-c", script],
            cwd=REPO,
            env=env,
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, (
            f"docs/autotune.md bash block {i} failed:\n"
            f"{proc.stdout}\n{proc.stderr}"
        )


def test_cli_auto_respects_pinned_flags(capsys):
    """`count --auto -p 9` must plan around the pinned grid and say so."""
    from repro.cli import main

    rc = main(["count", "g500-s12", "--auto", "--auto-max-p", "9", "-p", "9"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "auto:" in out and "-p 9" in out
    assert "pinned: p" in out
