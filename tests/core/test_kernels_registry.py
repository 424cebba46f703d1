"""The kernel backend registry, auto-dispatch and capacity sizing."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import kernels
from repro.core.config import TC2DConfig
from repro.core.intersect import count_block_pair
from repro.core.kernels import (
    KernelStats,
    available_backends,
    choose_backend,
    get_backend,
    get_enumerator,
    kernel_capacity,
    register_backend,
    resolve_backend,
)
from repro.core.kernels.dispatch import AUTO_MIN_ROWS
from repro.hashing import BlockHashMap
from tests.core.test_intersect import random_case, to_blocks


def test_builtin_backends_registered():
    names = available_backends()
    assert "row" in names and "batch" in names and "auto" in names


def test_unknown_backend_rejected():
    with pytest.raises(ValueError, match="unknown kernel backend"):
        get_backend("simd")
    with pytest.raises(ValueError, match="unknown kernel backend"):
        get_enumerator("simd")
    tb, ub, lb = to_blocks([(0, 0)], {0: [1]}, {0: [1]})
    with pytest.raises(ValueError, match="unknown kernel backend"):
        count_block_pair(tb, ub, lb, TC2DConfig(), backend="simd")


def test_auto_name_reserved():
    with pytest.raises(ValueError, match="reserved"):
        register_backend("auto", lambda *a, **k: KernelStats())


def test_double_registration_rejected_unless_replace():
    fn = get_backend("row")
    with pytest.raises(ValueError, match="already registered"):
        register_backend("row", fn)
    register_backend("row", fn, kernels.enumerate_hits_row, replace=True)
    assert get_backend("row") is fn


def test_custom_backend_roundtrip():
    calls = []

    def probe_backend(tb, ub, lb, cfg, support_out=None):
        calls.append(tb.nnz)
        return kernels.count_block_pair_row(tb, ub, lb, cfg, support_out)

    register_backend("probe-test", probe_backend)
    try:
        tb, ub, lb = to_blocks([(0, 0)], {0: [1]}, {0: [1]})
        st = count_block_pair(tb, ub, lb, TC2DConfig(), backend="probe-test")
        assert st.triangles == 1
        assert calls == [1]
        # No enumeration twin registered: falls back to the row enumerator.
        assert get_enumerator("probe-test") is kernels.enumerate_hits_row
    finally:
        kernels._REGISTRY.pop("probe-test", None)


def test_config_rejects_unknown_backend():
    with pytest.raises(ValueError, match="kernel_backend"):
        TC2DConfig(kernel_backend="simd")


def test_auto_dispatch_wide_block_batches():
    rng = np.random.default_rng(0)
    tasks = [(j, j) for j in range(AUTO_MIN_ROWS + 2)]
    urows = {j: [int(rng.integers(0, 15))] for j, _ in tasks}
    lcols = {j: [0, 1] for j, _ in tasks}
    tb, ub, lb = to_blocks(tasks, urows, lcols, n_outer=AUTO_MIN_ROWS + 2)
    cfg = TC2DConfig()
    assert choose_backend(tb, ub, lb, cfg) == "batch"
    name, fn = resolve_backend("auto", tb, ub, lb, cfg)
    assert name == "batch"
    assert fn is get_backend("batch")


def test_auto_dispatch_degenerate_blocks_stay_row():
    cfg = TC2DConfig()
    tb, ub, lb = to_blocks([], {}, {})
    assert choose_backend(tb, ub, lb, cfg) == "row"
    tb, ub, lb = to_blocks([(0, 0)], {0: [1]}, {0: [1]})
    assert choose_backend(tb, ub, lb, cfg) == "row"


def test_auto_dispatch_probed_mode_batches():
    """Without modified hashing every build is probed, and the batch
    backend lays all of them out in one bulk call — the shape rule
    decides, the toggle does not."""
    tasks = [(j, j) for j in range(AUTO_MIN_ROWS + 2)]
    tb, ub, lb = to_blocks(
        tasks,
        {j: [1, 2] for j, _ in tasks},
        {j: [1, 2] for j, _ in tasks},
        n_outer=AUTO_MIN_ROWS + 2,
    )
    cfg = TC2DConfig(modified_hashing=False)
    assert choose_backend(tb, ub, lb, cfg) == "batch"


def test_auto_matches_concrete_backends():
    rng = np.random.default_rng(42)
    import dataclasses

    for _ in range(20):
        tb, ub, lb = to_blocks(*random_case(rng))
        cfg = TC2DConfig()
        d = {
            b: dataclasses.asdict(count_block_pair(tb, ub, lb, cfg, backend=b))
            for b in ("auto", "row", "batch")
        }
        assert d["auto"] == d["row"] == d["batch"]


def test_kernel_capacity_rounds_fractional_slack():
    """Pin the sizing rule: slack 1.5 on a longest row of 5 rounds the
    product 7.5 to 8 (not truncated to 7) before the power-of-two
    rounding, so the map capacity is 8."""
    tb, ub, lb = to_blocks(
        [(0, 0)], {0: [1, 2, 3, 4, 5]}, {0: [1]}, n_inner=16
    )
    cfg = TC2DConfig(hashmap_slack=1.5)
    assert ub.dcsr.max_row_length() == 5
    cap = kernel_capacity(cfg, ub.dcsr)
    assert cap == 8
    assert BlockHashMap(cap).capacity == 8


def test_kernel_capacity_floor():
    tb, ub, lb = to_blocks([], {}, {})
    assert kernel_capacity(TC2DConfig(), ub.dcsr) == 4
