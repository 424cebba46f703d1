"""Shared benchmark fixtures.

Every benchmark regenerates one of the paper's tables/figures, prints it,
and writes it under ``benchmarks/results/`` so EXPERIMENTS.md can link the
artifacts.  The expensive sweeps are memoized in-process
(:mod:`repro.bench.runner`), so the suite shares one Table 2 grid across
Figures 1-3 and Tables 3-4.

Set ``REPRO_BENCH_QUICK=1`` to sweep 5 rank counts instead of the paper's
10; quick artifacts go to the git-ignored ``benchmarks/results/quick/``,
never over the committed full-sweep ones.  Set ``REPRO_STORE_DIR`` to
share the on-disk preprocessing cache (:mod:`repro.graph.store`) across
benchmark *processes*: the first suite run warms it, subsequent runs
(and ``repro count``/``profile``/chaos runs pointed at the same root)
skip the ppt phase with bit-identical results.
"""

from __future__ import annotations

import os
from pathlib import Path

import pytest

RESULTS_DIR = Path(__file__).parent / "results"


@pytest.fixture(scope="session", autouse=True)
def shared_store() -> Path | None:
    """Create the shared store root early so every worker/bench module
    sees the same directory (the runner picks it up from the env)."""
    from repro.graph.store import resolve_store_dir

    path = resolve_store_dir()
    if path is None:
        return None
    path.mkdir(parents=True, exist_ok=True)
    return path


@pytest.fixture(scope="session")
def results_dir() -> Path:
    quick = os.environ.get("REPRO_BENCH_QUICK")
    path = RESULTS_DIR / "quick" if quick else RESULTS_DIR
    path.mkdir(parents=True, exist_ok=True)
    return path


@pytest.fixture(scope="session")
def save_artifact(results_dir):
    """Write one experiment's text artifact and echo it to stdout."""

    def _save(name: str, text: str) -> None:
        path = results_dir / f"{name}.txt"
        path.write_text(text + "\n")
        print(f"\n{text}\n[saved to {path}]")

    return _save
