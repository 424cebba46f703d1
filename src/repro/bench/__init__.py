"""Experiment harness regenerating every table and figure of the paper.

Per-experiment entry points live in :mod:`repro.bench.tables` and
:mod:`repro.bench.figures`; the shared parameter-sweep runner (with
in-process memoization so the Table 2 sweep feeds Figures 1-3 and
Tables 3-4 without re-running) is :mod:`repro.bench.runner`, and the
machine-model calibration used by all experiments is
:mod:`repro.bench.calibration`.

The five wall-clock layer suites (``python -m repro.bench.<suite>``:
kernelbench, parallelbench, servebench, oocbench, autotunebench) share
one command line, report header and history-row shape, all in
:mod:`repro.bench.core`; their rows land in :mod:`repro.bench.history`.
"""

from repro.bench.calibration import paper_model, PAPER_RANKS, bench_ranks
from repro.bench.runner import sweep, run_point, clear_sweep_cache

__all__ = [
    "PAPER_RANKS",
    "bench_ranks",
    "clear_sweep_cache",
    "paper_model",
    "run_point",
    "sweep",
]
