"""Clustering coefficients and transitivity via the distributed census.

The paper's Section 1 names the clustering coefficient and the
transitivity ratio as the canonical consumers of triangle counts.  This
module computes both from one :func:`~repro.core.listing.triangle_census_2d`
run, so the heavy lifting happens on the simulated distributed pipeline
rather than serially.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.config import TC2DConfig
from repro.core.listing import triangle_census_2d
from repro.graph.csr import Graph
from repro.graph.stats import wedge_count
from repro.simmpi import MachineModel


@dataclass(frozen=True)
class ClusteringProfile:
    """Clustering metrics of a graph.

    Attributes
    ----------
    triangles:
        Global triangle count.
    vertex_triangles:
        Per-vertex triangle participation from the census.
    local:
        Per-vertex local clustering coefficient (0 where degree < 2).
    average:
        Mean of the local coefficients (Watts-Strogatz clustering).
    transitivity:
        Global transitivity ratio ``3 * triangles / wedges``.
    """

    triangles: int
    vertex_triangles: np.ndarray
    local: np.ndarray
    average: float
    transitivity: float


def clustering_profile(
    graph: Graph,
    p: int = 4,
    cfg: TC2DConfig | None = None,
    model: MachineModel | None = None,
) -> ClusteringProfile:
    """Compute local/average clustering and transitivity using the 2D
    distributed triangle census on ``p`` simulated ranks."""
    census = triangle_census_2d(graph, p, cfg=cfg, model=model)
    d = graph.degrees.astype(np.float64)
    wedges_per_vertex = d * (d - 1) / 2.0
    with np.errstate(divide="ignore", invalid="ignore"):
        local = np.where(
            wedges_per_vertex > 0,
            census.vertex_triangles / np.maximum(wedges_per_vertex, 1e-300),
            0.0,
        )
    w = wedge_count(graph)
    transitivity = 3.0 * census.count / w if w else 0.0
    average = float(local.mean()) if graph.n else 0.0
    return ClusteringProfile(
        triangles=census.count,
        vertex_triangles=census.vertex_triangles,
        local=local,
        average=average,
        transitivity=transitivity,
    )
