"""Shared fixtures: small deterministic graphs and a fast machine model."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import settings

from repro.graph import Graph, erdos_renyi_gnm, rmat_graph
from repro.graph.generators import barabasi_albert, powerlaw_cluster_fast
from repro.simmpi import CacheModel, MachineModel

# CI's long property runs: `pytest --hypothesis-profile=long --hypothesis-seed=0`.
settings.register_profile("long", max_examples=2000, deadline=None)


@pytest.fixture(scope="session")
def er_graph() -> Graph:
    """A mid-size Erdos-Renyi graph with plenty of triangles."""
    return erdos_renyi_gnm(400, 3500, seed=42)


@pytest.fixture(scope="session")
def rmat_small() -> Graph:
    """A small RMAT graph with heavy degree skew (the paper's regime)."""
    return rmat_graph(10, edge_factor=8, seed=3)


@pytest.fixture(scope="session")
def ba_graph() -> Graph:
    """Preferential-attachment graph (power-law, moderate clustering)."""
    return barabasi_albert(300, 4, seed=9)


@pytest.fixture(scope="session")
def cluster_graph() -> Graph:
    """Holme-Kim graph (power-law, high clustering)."""
    return powerlaw_cluster_fast(300, 5, 0.5, seed=5)


@pytest.fixture(scope="session")
def tiny_graph() -> Graph:
    """A hand-checkable 6-vertex graph with exactly 3 triangles:
    (0,1,2), (0,2,3) and (2,3,4); vertex 5 is isolated."""
    edges = np.array(
        [[0, 1], [1, 2], [0, 2], [2, 3], [0, 3], [3, 4], [2, 4]], dtype=np.int64
    )
    return Graph.from_edges(6, edges)


@pytest.fixture(scope="session")
def preprocessed_blocks():
    """``f(graph, p)`` -> per-rank ``(u, l, task)`` blocks, exactly as a
    cold run's preprocessing hands them to the counting phase."""
    from repro.core import TC2DConfig
    from repro.core.grid import ProcessorGrid
    from repro.core.preprocess import partition_1d, preprocess
    from repro.simmpi import Engine

    def program(ctx, chunks, cfg):
        grid = ProcessorGrid.for_ranks(ctx.num_ranks)
        return preprocess(ctx, chunks[ctx.rank], grid, cfg)

    def run(graph: Graph, p: int) -> list:
        return Engine(p).run(program, partition_1d(graph, p), TC2DConfig()).returns

    return run


@pytest.fixture()
def compiler_less(monkeypatch):
    """The state of a host that cannot build the compiled kernel backend:
    ``auto`` dispatches between ``row`` and ``batch`` as it did before
    ``"c"`` existed, an explicit ``"c"`` raises.  (Pool workers take the
    backend the parent resolved, so this covers pooled runs too.)"""
    from repro.core.kernels import compiled

    monkeypatch.setattr(compiled, "_loaded", "no C compiler (compiler_less fixture)")


@pytest.fixture()
def fast_model() -> MachineModel:
    """Machine model without cache effects, for timing-algebra tests."""
    return MachineModel(cache=None)


@pytest.fixture()
def cached_model() -> MachineModel:
    """Machine model with an aggressive cache penalty, for cache tests."""
    return MachineModel(
        cache=CacheModel(cache_bytes=1024, max_penalty=3.0, saturate_ratio=4.0)
    )
