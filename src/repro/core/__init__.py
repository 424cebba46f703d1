"""The paper's contribution: 2D-cyclic distributed triangle counting.

Public entry points:

* :func:`~repro.core.tc2d.count_triangles_2d` — run the full pipeline
  (1D input -> cyclic redistribution -> degree reordering -> 2D cyclic
  blocks -> Cannon-pattern counting) on the simulated-MPI substrate and
  return counts, phase timings and instrumentation.
* :class:`~repro.core.config.TC2DConfig` — feature toggles for the
  enumeration scheme and the Section 5.2 optimizations (used by the
  ablation benchmarks).
* :func:`~repro.core.summa.count_triangles_summa` — the rectangular-grid
  SUMMA variant sketched in the paper's conclusion.
* :func:`~repro.core.coveredge.count_triangles_coveredge` — the
  cover-edge algorithm (Bader et al.) on the same substrate, emitting
  the same result/span/counter contracts as tc2d.
* :func:`~repro.core.autotune.plan_run` — the cost-model auto-tuner
  behind ``repro count --auto``: pick algorithm × grid from cheap graph
  signals and the machine model.
* :data:`GRID_DRIVERS` — ``TC2DConfig.algorithm`` name -> driver, for
  callers that dispatch on the planned algorithm.

All drivers share one Cannon rotation, run driver and result assembler
(:mod:`repro.core.cannon`).  Every name here loads its module on first
access (:mod:`repro._lazy`).
"""

from typing import TYPE_CHECKING

from repro._lazy import LazyRegistry, lazy_exports

if TYPE_CHECKING:
    from repro.core.allgather_variant import count_triangles_2d_allgather
    from repro.core.autotune import GraphSignals, Plan, collect_signals, plan_run
    from repro.core.balance import compare_distributions, task_distribution_stats
    from repro.core.config import TC2DConfig
    from repro.core.counts import ShiftRecord, TriangleCountResult
    from repro.core.coveredge import count_triangles_coveredge
    from repro.core.grid import ProcessorGrid
    from repro.core.listing import TriangleCensus, triangle_census_2d
    from repro.core.summa import count_triangles_summa
    from repro.core.tc2d import count_triangles_2d

#: The square-grid drivers the auto-tuner plans over, by
#: ``TC2DConfig.algorithm`` name; both take the same arguments.  A driver's
#: module loads when it is looked up, so ``GRID_DRIVERS["tc2d"]`` does not
#: import the cover-edge counter.
GRID_DRIVERS = LazyRegistry({
    "tc2d": "repro.core.tc2d:count_triangles_2d",
    "coveredge": "repro.core.coveredge:count_triangles_coveredge",
})

__all__ = [
    "GRID_DRIVERS",
    "GraphSignals",
    "Plan",
    "ProcessorGrid",
    "ShiftRecord",
    "TC2DConfig",
    "TriangleCensus",
    "TriangleCountResult",
    "collect_signals",
    "compare_distributions",
    "count_triangles_2d",
    "count_triangles_2d_allgather",
    "count_triangles_coveredge",
    "count_triangles_summa",
    "plan_run",
    "task_distribution_stats",
    "triangle_census_2d",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.core.allgather_variant": "count_triangles_2d_allgather",
    "repro.core.autotune": "GraphSignals Plan collect_signals plan_run",
    "repro.core.balance": "compare_distributions task_distribution_stats",
    "repro.core.config": "TC2DConfig",
    "repro.core.counts": "ShiftRecord TriangleCountResult",
    "repro.core.coveredge": "count_triangles_coveredge",
    "repro.core.grid": "ProcessorGrid",
    "repro.core.listing": "TriangleCensus triangle_census_2d",
    "repro.core.summa": "count_triangles_summa",
    "repro.core.tc2d": "count_triangles_2d",
})
