"""Micro-benchmarks of the hot kernels (wall time, pytest-benchmark).

These time the actual Python implementations (not simulated seconds):
the per-row hash build/probe cycle, the block intersection kernel, and
blob (de)serialization.  They exist to catch wall-time regressions in the
kernels that dominate every experiment's run time.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.blocks import Block, build_block
from repro.core.config import KERNEL_BACKENDS, TC2DConfig
from repro.core.kernels import (
    compiled,
    get_backend,
    resolve_backend,
)
from repro.graph import rmat_graph
from repro.hashing import BlockHashMap


@pytest.fixture(scope="module")
def block_triple():
    """A realistic (task, U, L) triple from an RMAT graph's 2D split."""
    g = rmat_graph(11, seed=2)
    q = 3
    U = g.upper_csr()
    rows, cols = U.to_coo()
    # Block (0, 0) with inner residue 0.
    sel_u = (rows % q == 0) & (cols % q == 0)
    u_blk = build_block(
        "U-row",
        0,
        0,
        (g.n + q - 1) // q,
        (g.n + q - 1) // q,
        rows[sel_u] // q,
        cols[sel_u] // q,
    )
    l_blk = build_block(
        "L-col",
        0,
        0,
        (g.n + q - 1) // q,
        (g.n + q - 1) // q,
        rows[sel_u] // q,
        cols[sel_u] // q,
    )
    t_blk = build_block(
        "task",
        0,
        0,
        (g.n + q - 1) // q,
        (g.n + q - 1) // q,
        cols[sel_u] // q,
        rows[sel_u] // q,
    )
    return t_blk, u_blk, l_blk


def test_bench_hashmap_build_probe(benchmark):
    rng = np.random.default_rng(0)
    keys = rng.choice(4096, size=48, replace=False).astype(np.int64)
    queries = rng.integers(0, 4096, size=256).astype(np.int64)
    hm = BlockHashMap(128)

    def cycle():
        hm.build(keys)
        hits, _ = hm.lookup_many(queries)
        return hits

    result = benchmark(cycle)
    assert result == int(np.isin(queries, keys).sum())


def test_bench_hashmap_probed_mode(benchmark):
    rng = np.random.default_rng(1)
    keys = rng.choice(4096, size=48, replace=False).astype(np.int64)
    queries = rng.integers(0, 4096, size=256).astype(np.int64)
    hm = BlockHashMap(128)

    def cycle():
        hm.build(keys, allow_fast=False)
        hits, _ = hm.lookup_many(queries)
        return hits

    result = benchmark(cycle)
    assert result == int(np.isin(queries, keys).sum())


def test_bench_intersection_kernel(benchmark, block_triple):
    t_blk, u_blk, l_blk = block_triple
    cfg = TC2DConfig()
    _, kernel = resolve_backend(cfg.kernel_backend, t_blk, u_blk, l_blk, cfg)
    st = benchmark(kernel, t_blk, u_blk, l_blk, cfg)
    assert st.triangles >= 0
    assert st.tasks > 0


@pytest.mark.parametrize("backend", ["row", "batch", "c"])
def test_bench_intersection_kernel_backend(benchmark, block_triple, backend):
    """Per-backend timing of the same block triple; the order these
    timings should show is gated in tier-1 by
    ``tests/core/test_kernels_registry.py::test_backends_keep_their_speed_order``."""
    if backend == "c" and not compiled.available():
        pytest.skip(f"compiled backend: {compiled.unavailable_reason()}")
    t_blk, u_blk, l_blk = block_triple
    cfg = TC2DConfig(kernel_backend=backend)
    st = benchmark(get_backend(backend), t_blk, u_blk, l_blk, cfg)
    assert st.triangles >= 0
    assert st.tasks > 0


def test_backend_parity_on_bench_input(block_triple):
    """Before trusting any timing: the backends must agree bit-for-bit on
    the benchmark input (counts AND logical counters)."""
    from dataclasses import asdict

    t_blk, u_blk, l_blk = block_triple
    cfg = TC2DConfig()
    st_row = get_backend("row")(t_blk, u_blk, l_blk, cfg)
    for other in KERNEL_BACKENDS:
        if other in ("row", "auto") or (other == "c" and not compiled.available()):
            continue
        st = get_backend(other)(t_blk, u_blk, l_blk, cfg)
        assert asdict(st_row) == asdict(st), other


def test_bench_intersection_kernel_no_optimizations(benchmark, block_triple):
    t_blk, u_blk, l_blk = block_triple
    cfg = TC2DConfig(doubly_sparse=False, modified_hashing=False, early_stop=False)
    _, kernel = resolve_backend(cfg.kernel_backend, t_blk, u_blk, l_blk, cfg)
    st = benchmark(kernel, t_blk, u_blk, l_blk, cfg)
    assert st.triangles >= 0


def test_bench_blob_roundtrip(benchmark, block_triple):
    _t, u_blk, _l = block_triple

    def roundtrip():
        return Block.from_blob(u_blk.to_blob()).nnz

    assert benchmark(roundtrip) == u_blk.nnz
