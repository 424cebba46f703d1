"""Graph substrate: CSR storage, generators, IO, statistics, datasets.

Everything the triangle-counting algorithms consume is built here from
scratch: a compressed-sparse-row adjacency structure (:class:`CSR`), an
undirected simple-graph wrapper (:class:`Graph`), RMAT/Kronecker and
social-network-like generators, edge-list IO, and the named
scaled-down dataset registry that mirrors the paper's Table 1.  The
names below load their module on first access (:mod:`repro._lazy`).
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.graph.csr import CSR, Graph
    from repro.graph.datasets import DatasetSpec, dataset_names, load_dataset
    from repro.graph.dcsr import DCSR
    from repro.graph.generators import (
        barabasi_albert,
        complete_graph,
        configuration_model,
        erdos_renyi_gnm,
        grid_2d,
        rmat_edges,
        rmat_graph,
        watts_strogatz,
    )
    from repro.graph.stats import (
        clustering_coefficients,
        degree_summary,
        global_clustering,
        triangle_count_linalg,
        wedge_count,
    )

__all__ = [
    "CSR",
    "DCSR",
    "DatasetSpec",
    "Graph",
    "barabasi_albert",
    "clustering_coefficients",
    "complete_graph",
    "configuration_model",
    "dataset_names",
    "degree_summary",
    "erdos_renyi_gnm",
    "global_clustering",
    "grid_2d",
    "load_dataset",
    "rmat_edges",
    "rmat_graph",
    "triangle_count_linalg",
    "watts_strogatz",
    "wedge_count",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.graph.csr": "CSR Graph",
    "repro.graph.datasets": "DatasetSpec dataset_names load_dataset",
    "repro.graph.dcsr": "DCSR",
    "repro.graph.generators": (
        "barabasi_albert complete_graph configuration_model erdos_renyi_gnm "
        "grid_2d rmat_edges rmat_graph watts_strogatz"
    ),
    "repro.graph.stats": (
        "clustering_coefficients degree_summary global_clustering "
        "triangle_count_linalg wedge_count"
    ),
})
