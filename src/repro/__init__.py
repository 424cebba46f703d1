"""repro — reproduction of "A 2D Parallel Triangle Counting Algorithm for
Distributed-Memory Architectures" (Tom & Karypis, ICPP 2019).

Quickstart::

    from repro import rmat_graph, count_triangles_2d

    g = rmat_graph(scale=12, seed=0)
    result = count_triangles_2d(g, p=16)
    print(result.count, result.tct_time)

Packages:

* :mod:`repro.core` — the 2D cyclic / Cannon-pattern algorithm and its
  SUMMA extension;
* :mod:`repro.simmpi` — the deterministic simulated-MPI runtime the
  distributed algorithms execute on;
* :mod:`repro.graph` — CSR structures, generators, IO, datasets;
* :mod:`repro.hashing` — the map-based intersection hash table;
* :mod:`repro.baselines` — serial references and the 1D/wedge competitors;
* :mod:`repro.bench` — harness regenerating the paper's tables/figures;
* :mod:`repro.instrument` — observability: per-phase metrics, comm
  matrix, wait-for analysis, Perfetto trace export, counters, reports.
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.core.config import TC2DConfig
    from repro.core.counts import TriangleCountResult
    from repro.core.summa import count_triangles_summa
    from repro.core.tc2d import count_triangles_2d
    from repro.graph.csr import CSR, Graph
    from repro.graph.datasets import load_dataset
    from repro.graph.generators import erdos_renyi_gnm, rmat_graph
    from repro.graph.stats import triangle_count_linalg
    from repro.simmpi import CacheModel, Engine, MachineModel

__version__ = "1.0.0"

__all__ = [
    "CSR",
    "CacheModel",
    "Engine",
    "Graph",
    "MachineModel",
    "TC2DConfig",
    "TriangleCountResult",
    "count_triangles_2d",
    "count_triangles_summa",
    "erdos_renyi_gnm",
    "load_dataset",
    "rmat_graph",
    "triangle_count_linalg",
    "__version__",
]

# Each name loads its module on first access (see :mod:`repro._lazy`), so
# importing ``repro.cli`` does not import the whole package.
__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.core.config": "TC2DConfig",
    "repro.core.counts": "TriangleCountResult",
    "repro.core.summa": "count_triangles_summa",
    "repro.core.tc2d": "count_triangles_2d",
    "repro.graph.csr": "CSR Graph",
    "repro.graph.datasets": "load_dataset",
    "repro.graph.generators": "erdos_renyi_gnm rmat_graph",
    "repro.graph.stats": "triangle_count_linalg",
    "repro.simmpi": "CacheModel Engine MachineModel",
})
