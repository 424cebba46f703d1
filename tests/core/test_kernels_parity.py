"""Row vs batch backend parity — the kernel-contract tests.

The batch backend is only allowed to change wall time: triangle counts,
``support_out`` accumulation and every logical :class:`KernelStats`
counter must be bit-identical to the row-wise reference under every
toggle combination, because the counters drive the simulated machine
model's virtual clock.
"""

from __future__ import annotations

import dataclasses
from itertools import product

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.config import TC2DConfig
from repro.core.intersect import count_block_pair
from repro.core.kernels import (
    batched,
    enumerate_hits_batch,
    enumerate_hits_row,
    resolve_backend,
)
from tests.core.test_intersect import random_case, to_blocks

#: All 2^3 combinations of the kernel-relevant Section 5.2 toggles.
TOGGLE_GRID = [
    TC2DConfig(
        doubly_sparse=ds,
        modified_hashing=mh,
        early_stop=es,
        hashmap_slack=slack,
    )
    for (ds, mh, es), slack in product(
        product([True, False], repeat=3), [1, 1.5, 2]
    )
]


def _asdicts(tb, ub, lb, cfg):
    sup_row = np.zeros(tb.nnz, dtype=np.int64)
    sup_batch = np.zeros(tb.nnz, dtype=np.int64)
    st_row = count_block_pair(tb, ub, lb, cfg, sup_row, backend="row")
    st_batch = count_block_pair(tb, ub, lb, cfg, sup_batch, backend="batch")
    return (
        dataclasses.asdict(st_row),
        dataclasses.asdict(st_batch),
        sup_row,
        sup_batch,
    )


@pytest.mark.parametrize(
    "cfg", TOGGLE_GRID, ids=lambda c: (
        f"ds{int(c.doubly_sparse)}-mh{int(c.modified_hashing)}"
        f"-es{int(c.early_stop)}-slack{c.hashmap_slack}"
    )
)
def test_parity_random_blocks(cfg):
    """Seeded sweep: identical KernelStats and support on random triples."""
    rng = np.random.default_rng(7)
    for _ in range(25):
        tb, ub, lb = to_blocks(*random_case(rng))
        d_row, d_batch, sup_row, sup_batch = _asdicts(tb, ub, lb, cfg)
        assert d_row == d_batch
        assert np.array_equal(sup_row, sup_batch)


def _collision_heavy_case(rng, n_inner=4096):
    """Ten rows of keys congruent modulo 64: they collide in the
    direct-mask check, and often in the Fibonacci layout too."""
    urows = {
        j: sorted(
            (rng.choice(64, size=rng.integers(1, 9), replace=False) * 64
             + j) % n_inner
        )
        for j in range(10)
    }
    lcols = {
        i: sorted(
            rng.choice(n_inner, size=rng.integers(0, 40), replace=False)
        )
        for i in range(10)
    }
    tasks = sorted({(j, int(rng.integers(0, 10))) for j in range(10)}
                   | {(int(rng.integers(0, 10)), int(rng.integers(0, 10)))
                      for _ in range(20)})
    return to_blocks(tasks, urows, lcols, n_outer=10, n_inner=n_inner)


def test_parity_collision_heavy():
    """Force probed (slow) builds: keys congruent modulo the table size
    collide in both the direct-mask check and the Fibonacci layout."""
    cfg = TC2DConfig(modified_hashing=True)
    rng = np.random.default_rng(11)
    for _ in range(50):
        tb, ub, lb = _collision_heavy_case(rng)
        d_row, d_batch, sup_row, sup_batch = _asdicts(tb, ub, lb, cfg)
        assert d_row == d_batch
        assert np.array_equal(sup_row, sup_batch)


def test_parity_probed_mode_under_auto():
    """``modified_hashing=False`` under the default ``auto`` backend is
    batched since the bulk layout (every build probed, none replayed row
    by row) and still reports the reference's counters."""
    cfg = TC2DConfig(modified_hashing=False)
    assert cfg.kernel_backend == "auto"
    rng = np.random.default_rng(13)
    for _ in range(25):
        tb, ub, lb = _collision_heavy_case(rng)
        assert resolve_backend("auto", tb, ub, lb, cfg)[0] == "batch"
        sup_row = np.zeros(tb.nnz, dtype=np.int64)
        sup_auto = np.zeros(tb.nnz, dtype=np.int64)
        st_row = count_block_pair(tb, ub, lb, cfg, sup_row, backend="row")
        st_auto = count_block_pair(tb, ub, lb, cfg, sup_auto)
        assert st_auto.hash_fast_builds == 0 < st_auto.insert_steps_slow
        assert dataclasses.asdict(st_row) == dataclasses.asdict(st_auto)
        assert np.array_equal(sup_row, sup_auto)


def test_parity_without_dense_slot_scratch(monkeypatch):
    """Above ``_DENSE_SLOT_LIMIT`` slow-row membership goes through the
    row-encoded ``searchsorted``; a limit of 0 sends every block pair
    there."""
    monkeypatch.setattr(batched, "_DENSE_SLOT_LIMIT", 0)
    rng = np.random.default_rng(17)
    for cfg in (TC2DConfig(), TC2DConfig(modified_hashing=False),
                TC2DConfig(early_stop=False, hashmap_slack=2)):
        for _ in range(15):
            tb, ub, lb = _collision_heavy_case(rng)
            d_row, d_batch, sup_row, sup_batch = _asdicts(tb, ub, lb, cfg)
            assert d_row["probe_steps_slow"] > 0
            assert d_row == d_batch
            assert np.array_equal(sup_row, sup_batch)
            for a, b in zip(enumerate_hits_row(tb, ub, lb, cfg),
                            enumerate_hits_batch(tb, ub, lb, cfg)):
                assert np.array_equal(a, b)


def test_parity_full_table():
    """hashmap_slack=1 with a power-of-two row length fills the table
    completely — misses then walk capacity+1 steps, the worst case of the
    closed-form probe accounting."""
    cfg = TC2DConfig(modified_hashing=False, hashmap_slack=1)
    urows = {0: [1, 5, 9, 13]}  # 4 keys, capacity 4: full table
    lcols = {0: [0, 1, 2, 3, 4, 5, 6, 7]}
    tb, ub, lb = to_blocks([(0, 0)], urows, lcols, n_outer=2, n_inner=16)
    d_row, d_batch, sup_row, sup_batch = _asdicts(tb, ub, lb, cfg)
    assert d_row == d_batch
    assert np.array_equal(sup_row, sup_batch)


def test_enumeration_parity():
    """Both enumerators emit the same (j, i, k) triples in the same
    order (the listing pipeline relies on row-major task order)."""
    rng = np.random.default_rng(3)
    for cfg in (TC2DConfig(), TC2DConfig(early_stop=False),
                TC2DConfig(modified_hashing=False)):
        for _ in range(25):
            tb, ub, lb = to_blocks(*random_case(rng))
            row = enumerate_hits_row(tb, ub, lb, cfg)
            batch = enumerate_hits_batch(tb, ub, lb, cfg)
            for a, b in zip(row, batch):
                assert np.array_equal(a, b)


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(
    data=st.data(),
    ds=st.booleans(),
    mh=st.booleans(),
    es=st.booleans(),
)
def test_parity_property(data, ds, mh, es):
    """Property form: arbitrary small block triples, arbitrary toggles."""
    n_outer = data.draw(st.integers(1, 8), label="n_outer")
    n_inner = data.draw(st.integers(1, 12), label="n_inner")
    urows = {
        j: sorted(set(data.draw(
            st.lists(st.integers(0, n_inner - 1), max_size=6)
        )))
        for j in range(n_outer)
    }
    urows = {j: r for j, r in urows.items() if r}
    lcols = {
        i: sorted(set(data.draw(
            st.lists(st.integers(0, n_inner - 1), max_size=6)
        )))
        for i in range(n_outer)
    }
    lcols = {i: c for i, c in lcols.items() if c}
    tasks = sorted(set(data.draw(st.lists(
        st.tuples(st.integers(0, n_outer - 1), st.integers(0, n_outer - 1)),
        max_size=12,
    ))))
    cfg = TC2DConfig(doubly_sparse=ds, modified_hashing=mh, early_stop=es)
    tb, ub, lb = to_blocks(tasks, urows, lcols, n_outer=n_outer,
                           n_inner=n_inner)
    d_row, d_batch, sup_row, sup_batch = _asdicts(tb, ub, lb, cfg)
    assert d_row == d_batch
    assert np.array_equal(sup_row, sup_batch)
