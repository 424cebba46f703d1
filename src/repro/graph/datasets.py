"""Named dataset registry mirroring the paper's Table 1 at reduced scale.

The paper's graphs (Table 1) range from 1.2e9 to 8.6e9 edges, which a
pure-Python single-core reproduction cannot sweep.  The registry keeps the
same *families* and the same relative roles:

===============  =====================  ====================================
ours             paper analogue         role
===============  =====================  ====================================
g500-s12..s16    g500-s26..s29          RMAT/Kronecker, graph500 parameters
twitter-like     twitter [11]           power-law, triangle-rich social net
friendster-like  friendster [17]        power-law, almost triangle-free
===============  =====================  ====================================

Graphs are generated on demand and cached in-process
(:func:`load_dataset`).  A count through a
:class:`~repro.graph.store.GraphStore` records which graph a name
generates under :func:`registry_key`, so a warm count of a name neither
generates nor digests its graph
(:func:`~repro.core.tc2d.count_input_2d`).  The environment variable
``REPRO_DATASET_SCALE`` (a float, default 1.0) scales dataset sizes
globally: 0.5 halves vertex counts for quick runs, 2.0 doubles them for
longer, higher-fidelity sweeps.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.graph.csr import Graph
from repro.graph.generators import (
    configuration_model,
    powerlaw_cluster_fast,
    rmat_graph,
)

#: Bump when a generator change alters the graphs a registry name
#: produces; the store's records of the old graphs then miss instead of
#: serving them (:func:`registry_key`).
REGISTRY_VERSION = 1

#: Paper Table 1 ground truth, for side-by-side reporting in EXPERIMENTS.md.
PAPER_TABLE1: dict[str, dict[str, int]] = {
    "twitter": {
        "vertices": 41_652_230,
        "edges": 1_202_513_046,
        "triangles": 34_824_916_864,
    },
    "friendster": {
        "vertices": 119_432_957,
        "edges": 1_799_999_986,
        "triangles": 191_716,
    },
    "g500-s26": {
        "vertices": 67_108_864,
        "edges": 1_073_741_824,
        "triangles": 49_158_464_716,
    },
    "g500-s27": {
        "vertices": 134_217_728,
        "edges": 2_147_483_648,
        "triangles": 106_858_898_940,
    },
    "g500-s28": {
        "vertices": 268_435_456,
        "edges": 4_294_967_296,
        "triangles": 231_425_307_324,
    },
    "g500-s29": {
        "vertices": 536_870_912,
        "edges": 8_589_934_592,
        "triangles": 499_542_556_876,
    },
}


def _scale() -> float:
    try:
        return float(os.environ.get("REPRO_DATASET_SCALE", "1.0"))
    except ValueError:
        return 1.0


@dataclass(frozen=True)
class DatasetSpec:
    """One registry entry.

    Attributes
    ----------
    name:
        Registry key.
    paper_name:
        The Table 1 graph this dataset stands in for.
    description:
        What the generator produces and why it is a faithful analogue.
    builder:
        ``builder(seed, scale) -> Graph``.
    """

    name: str
    paper_name: str
    description: str
    builder: Callable[[int, float], Graph] = field(repr=False)


def _rmat_builder(scale_exp: int) -> Callable[[int, float], Graph]:
    def build(seed: int, scale: float) -> Graph:
        # Global scaling nudges the RMAT scale exponent by whole levels.
        adj = 0
        s = scale
        while s >= 2.0:
            adj += 1
            s /= 2.0
        while s <= 0.5:
            adj -= 1
            s *= 2.0
        return rmat_graph(max(4, scale_exp + adj), edge_factor=16, seed=seed)

    return build


def _twitter_builder(seed: int, scale: float) -> Graph:
    n = max(64, int(9_000 * scale))
    return powerlaw_cluster_fast(n, m=12, p_triad=0.45, seed=seed)


def _friendster_builder(seed: int, scale: float) -> Graph:
    n = max(64, int(40_000 * scale))
    return configuration_model(n, gamma=2.4, d_min=3, seed=seed)


REGISTRY: dict[str, DatasetSpec] = {
    "g500-s12": DatasetSpec(
        "g500-s12",
        "g500-s26",
        "RMAT scale 12, edge factor 16 (graph500 parameters)",
        _rmat_builder(12),
    ),
    "g500-s13": DatasetSpec(
        "g500-s13",
        "g500-s27",
        "RMAT scale 13, edge factor 16 (graph500 parameters)",
        _rmat_builder(13),
    ),
    "g500-s14": DatasetSpec(
        "g500-s14",
        "g500-s28",
        "RMAT scale 14, edge factor 16 (graph500 parameters)",
        _rmat_builder(14),
    ),
    "g500-s15": DatasetSpec(
        "g500-s15",
        "g500-s29",
        "RMAT scale 15, edge factor 16 (graph500 parameters)",
        _rmat_builder(15),
    ),
    "g500-s16": DatasetSpec(
        "g500-s16",
        "g500-s29",
        "RMAT scale 16, edge factor 16 (larger optional sweep)",
        _rmat_builder(16),
    ),
    "twitter-like": DatasetSpec(
        "twitter-like",
        "twitter",
        "Holme-Kim powerlaw-cluster graph: heavy-tailed degrees with high "
        "clustering (triangle-rich, like twitter)",
        _twitter_builder,
    ),
    "friendster-like": DatasetSpec(
        "friendster-like",
        "friendster",
        "power-law configuration model: heavy-tailed degrees with vanishing "
        "clustering (almost triangle-free, like friendster)",
        _friendster_builder,
    ),
}


def dataset_names() -> list[str]:
    """All registered dataset names."""
    return list(REGISTRY)


#: Graphs built in this process, by ``(name, seed, scale)``.
_BUILT: dict[tuple[str, int, float], Graph] = {}


def load_dataset(name: str, seed: int = 0) -> Graph:
    """Build (or fetch from the in-process cache) the named dataset."""
    if name not in REGISTRY:
        raise KeyError(
            f"unknown dataset {name!r}; available: {', '.join(REGISTRY)}"
        )
    key = (name, seed, _scale())
    if key not in _BUILT:
        _BUILT[key] = REGISTRY[name].builder(seed, _scale())
    return _BUILT[key]


def registry_key(name: str, seed: int = 0) -> str:
    """The input key of a registry dataset (the store's record of it is
    ``inputs/<key>.json``): the sha256 of :data:`REGISTRY_VERSION`, the
    name, the seed, the effective ``REPRO_DATASET_SCALE`` and numpy's
    version — the generators draw from ``np.random.default_rng``, whose
    streams numpy does not promise to keep across versions."""
    parts = ["repro-registry", REGISTRY_VERSION, name, int(seed), _scale(),
             np.__version__]
    blob = json.dumps(parts, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def clear_cache() -> None:
    """Drop the in-process graph cache (mostly for tests)."""
    _BUILT.clear()
