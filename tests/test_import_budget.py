"""Import budget: ``repro.cli`` and a warm ``repro count FILE --store DIR``
load only the modules the count runs, and the lazy package exports
(:mod:`repro._lazy`) behave like eager ones.

The budget checks run in a subprocess, so modules this pytest process
has already imported cannot mask what a fresh interpreter loads.
"""

from __future__ import annotations

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.graph.generators import rmat_graph
from repro.graph.io import write_edge_list

SRC = Path(__file__).resolve().parents[1] / "src"

#: Packages whose ``__init__`` re-exports lazily.
LAZY_PACKAGES = [
    "repro",
    "repro.baselines",
    "repro.bench",
    "repro.core",
    "repro.core.kernels",
    "repro.graph",
    "repro.instrument",
    "repro.simmpi",
]

#: Never loaded by ``import repro.cli`` nor by a warm file count.
FORBIDDEN = [
    "repro.baselines",
    "repro.bench.runner",
    "repro.core.autotune",
    "repro.core.balance",
    "repro.core.coveredge",
    "repro.core.listing",
    "repro.core.summa",
    "repro.graph.datasets",
    "repro.graph.generators",
    "repro.graph.stats",
    "repro.instrument.chrometrace",
    "repro.instrument.commmatrix",
    "repro.instrument.diffing",
    "repro.instrument.metrics",
    "repro.instrument.profiling",
    "repro.instrument.report",
    "repro.instrument.telemetry",
    "repro.instrument.waits",
    "repro.simmpi.parallel",
]

_REPORT = (
    "import json, sys; "
    "print(json.dumps(sorted(m for m in sys.modules if m.startswith('repro'))))"
)


def _loaded_after(code: str, cwd: Path) -> list[str]:
    """``repro`` modules loaded once ``code`` ran in a fresh interpreter."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    out = subprocess.run(
        [sys.executable, "-c", f"{code}\n{_REPORT}"],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=300,
    )
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout.strip().splitlines()[-1])


def _forbidden(loaded: list[str]) -> list[str]:
    return [m for m in loaded if any(m == f or m.startswith(f + ".") for f in FORBIDDEN)]


def test_importing_the_cli_loads_no_algorithm(tmp_path):
    loaded = _loaded_after("import repro.cli", tmp_path)
    assert _forbidden(loaded) == []
    assert "repro.core.tc2d" not in loaded  # nothing of the engine yet


def test_a_warm_file_count_loads_only_what_it_runs(tmp_path):
    write_edge_list(rmat_graph(scale=8, edge_factor=8, seed=3), tmp_path / "g.txt")
    count = (
        "import runpy, sys\n"
        "sys.argv = ['repro', 'count', 'g.txt', '-p', '16', '--store', 'st']\n"
        "try:\n"
        "    runpy.run_module('repro', run_name='__main__', alter_sys=True)\n"
        "except SystemExit as exc:\n"
        "    assert not exc.code, exc.code"
    )
    _loaded_after(count, tmp_path)  # cold: fills the store
    loaded = _loaded_after(count, tmp_path)
    assert _forbidden(loaded) == []
    assert "repro.core.tc2d" in loaded and "repro.graph.store" in loaded
    # The blocks of this graph are all non-empty, so with the compiled
    # backend "auto" never reaches the pure-Python kernels.
    from repro.core.kernels import compiled

    if compiled.available():
        assert "repro.core.kernels.rowwise" not in loaded
        assert "repro.core.kernels.batched" not in loaded


def test_registry_names_take_precedence_over_bare_file_names(tmp_path, monkeypatch):
    """``cli._load_graph`` reads a spec with a suffix or a directory part
    as a file without loading the registry; that shortcut is only sound
    while every registry name is a bare word."""
    from repro.cli import _load_graph
    from repro.graph.datasets import REGISTRY, load_dataset

    assert all("." not in n and os.sep not in n and "/" not in n for n in REGISTRY)
    name = next(iter(REGISTRY))
    monkeypatch.chdir(tmp_path)
    (tmp_path / name).write_text("0 1\n")  # a file shadowing a registry name
    assert _load_graph(name, 0).num_edges == load_dataset(name).num_edges


@pytest.mark.parametrize("package", LAZY_PACKAGES)
def test_lazy_exports_behave_like_eager_ones(package):
    mod = importlib.import_module(package)
    assert set(mod.__all__) <= set(dir(mod))
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        getattr(mod, "no_such_name")
    namespace: dict = {}
    exec(f"from {package} import *", namespace)
    assert set(mod.__all__) <= set(namespace)


def test_every_lazy_export_resolves_under_warnings_as_errors(tmp_path):
    """A broken lazy target fails here, not on a user's first access."""
    code = (
        "import importlib\n"
        f"for pkg in {LAZY_PACKAGES!r}:\n"
        "    mod = importlib.import_module(pkg)\n"
        "    for name in mod.__all__:\n"
        "        assert getattr(mod, name) is not None, (pkg, name)"
    )
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    out = subprocess.run(
        [sys.executable, "-W", "error", "-c", code],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300,
    )
    assert out.returncode == 0, out.stderr


def test_grid_drivers_resolve_by_name_without_the_other_driver(tmp_path):
    code = (
        "from repro.core import GRID_DRIVERS\n"
        "assert sorted(GRID_DRIVERS) == ['coveredge', 'tc2d']\n"
        "assert GRID_DRIVERS['tc2d'].__name__ == 'count_triangles_2d'"
    )
    loaded = _loaded_after(code, tmp_path)
    assert "repro.core.tc2d" in loaded
    assert "repro.core.coveredge" not in loaded
