"""Reference and competitor triangle-counting algorithms.

* :mod:`repro.baselines.serial` — exact single-process counters (list- and
  map-based, Section 3.1) used as ground truth by the test suite.
* :mod:`repro.baselines.havoq` — a HavoqGT-style distributed baseline
  (2-core peeling + directed wedge generation + wedge-closure queries,
  Pearce et al. [14, 15]); Table 5's competitor.
* :mod:`repro.baselines.aop` — Arifuzzaman et al.'s communication-avoiding
  1D "overlapping partition" algorithm (AOP) [1]; Table 6.
* :mod:`repro.baselines.surrogate` — their space-efficient push-based
  variant (Surrogate) [1]; Table 6.
* :mod:`repro.baselines.psp` — a blocked 1D algorithm in the spirit of
  Kanewala et al.'s OPT-PSP [10]; Table 6.

All distributed baselines run on the same simulated-MPI substrate and
machine model as the 2D algorithm, so their modeled times are directly
comparable.  Each counter loads its module on first access
(:mod:`repro._lazy`).
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.baselines.serial import (
        count_triangles_list_based,
        count_triangles_map_based,
        count_triangles_node_iterator,
    )
    from repro.baselines.havoq import count_triangles_havoq
    from repro.baselines.aop import count_triangles_aop
    from repro.baselines.surrogate import count_triangles_surrogate
    from repro.baselines.psp import count_triangles_psp

__all__ = [
    "count_triangles_aop",
    "count_triangles_havoq",
    "count_triangles_list_based",
    "count_triangles_map_based",
    "count_triangles_node_iterator",
    "count_triangles_psp",
    "count_triangles_surrogate",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.baselines.aop": "count_triangles_aop",
    "repro.baselines.havoq": "count_triangles_havoq",
    "repro.baselines.psp": "count_triangles_psp",
    "repro.baselines.serial": (
        "count_triangles_list_based count_triangles_map_based "
        "count_triangles_node_iterator"
    ),
    "repro.baselines.surrogate": "count_triangles_surrogate",
})
