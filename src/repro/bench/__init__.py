"""Experiment harness regenerating every table and figure of the paper.

Per-experiment entry points live in :mod:`repro.bench.tables` and
:mod:`repro.bench.figures`; the shared parameter-sweep runner (with
in-process memoization so the Table 2 sweep feeds Figures 1-3 and
Tables 3-4 without re-running) is :mod:`repro.bench.runner`, and the
machine-model calibration used by all experiments is
:mod:`repro.bench.calibration`.

The two wall-clock layer suites (``python -m repro.bench.<suite>``:
oocbench, autotunebench) share one command line, report
header and history-row shape, all in :mod:`repro.bench.core`; their
rows land in :mod:`repro.bench.history`.  The names below load their
module on first access (:mod:`repro._lazy`), so reading the machine
model does not import the sweep runner.
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.bench.calibration import PAPER_RANKS, bench_ranks, paper_model
    from repro.bench.runner import clear_sweep_cache, run_point, sweep

__all__ = [
    "PAPER_RANKS",
    "bench_ranks",
    "clear_sweep_cache",
    "paper_model",
    "run_point",
    "sweep",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.bench.calibration": "PAPER_RANKS bench_ranks paper_model",
    "repro.bench.runner": "clear_sweep_cache run_point sweep",
})
