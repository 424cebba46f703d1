"""Shared sweep runner with in-process memoization.

Table 2, Figures 1-3 and Tables 3-4 all consume the same
(dataset x rank-count) grid of 2D-algorithm runs; running it once and
sharing the results keeps the full benchmark suite's wall time sane.

When ``REPRO_STORE_DIR`` is set, runs additionally read/write the
on-disk preprocessing cache (:mod:`repro.graph.store`), so repeated
benchmark invocations across *processes* skip the ppt phase too.  Tables
that report preprocessing cost stay honest: a warm hit replays the ppt
statistics the cold run recorded, which — the engine being deterministic
— are bit-identical to what a fresh run would measure.
"""

from __future__ import annotations

from typing import Iterable

from repro.bench.calibration import paper_model
from repro.core import TC2DConfig, TriangleCountResult, count_triangles_2d
from repro.graph.datasets import load_dataset
from repro.simmpi import MachineModel

_CACHE: dict[tuple, TriangleCountResult] = {}


def _store():
    """The shared on-disk store, or ``None`` when ``REPRO_STORE_DIR`` is
    unset (opt-in: plain test runs must not write to the user's home)."""
    from repro.graph.store import store_from_env

    return store_from_env()


def _cfg_key(cfg: TC2DConfig) -> tuple:
    return (
        cfg.enumeration,
        cfg.doubly_sparse,
        cfg.modified_hashing,
        cfg.early_stop,
        cfg.blob_serialization,
    )


def run_point(
    dataset: str,
    p: int,
    cfg: TC2DConfig | None = None,
    model: MachineModel | None = None,
    seed: int = 0,
) -> TriangleCountResult:
    """One memoized 2D-algorithm run on a named dataset."""
    cfg = cfg if cfg is not None else TC2DConfig()
    model = model if model is not None else paper_model()
    key = (dataset, p, seed, _cfg_key(cfg), _model_key(model))
    if key not in _CACHE:
        graph = load_dataset(dataset, seed=seed)
        _CACHE[key] = count_triangles_2d(
            graph, p, cfg=cfg, model=model, dataset=dataset, cache=_store()
        )
    return _CACHE[key]


def _model_key(model: MachineModel) -> tuple:
    cache = model.cache
    return (
        model.alpha,
        model.beta,
        model.send_overhead,
        None
        if cache is None
        else (cache.cache_bytes, cache.max_penalty, cache.saturate_ratio),
    )


def sweep(
    dataset: str,
    ranks: Iterable[int],
    cfg: TC2DConfig | None = None,
    model: MachineModel | None = None,
    seed: int = 0,
) -> list[TriangleCountResult]:
    """Run (or fetch) the 2D algorithm across a rank grid."""
    return [run_point(dataset, p, cfg=cfg, model=model, seed=seed) for p in ranks]


def clear_sweep_cache() -> None:
    """Drop memoized results (tests that tweak global state use this)."""
    _CACHE.clear()
