"""The kernel backend registry, auto-dispatch and capacity sizing."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import kernels
from repro.core.kernels import compiled
from repro.core.config import TC2DConfig
from repro.core.intersect import count_block_pair
from repro.core.kernels import (
    KernelStats,
    KernelUnavailableError,
    available_backends,
    choose_backend,
    get_backend,
    get_enumerator,
    kernel_capacity,
    prepare_backend,
    register_backend,
    resolve_backend,
)
from repro.core.kernels.dispatch import AUTO_MIN_ROWS
from repro.hashing import BlockHashMap
from tests.core.test_intersect import random_case, to_blocks


def test_builtin_backends_registered():
    names = available_backends()
    assert "row" in names and "batch" in names and "auto" in names
    assert "c" in names  # registered always; runnable where it loads
    assert set(names) == set(kernels.KERNEL_BACKENDS)


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


@pytest.fixture()
def compiled_loaded():
    if not compiled.available():
        pytest.skip(f"compiled backend unavailable: {compiled.unavailable_reason()}")


def _wide_block():
    rng = np.random.default_rng(0)
    tasks = [(j, j) for j in range(AUTO_MIN_ROWS + 2)]
    urows = {j: [int(rng.integers(0, 15))] for j, _ in tasks}
    lcols = {j: [0, 1] for j, _ in tasks}
    return to_blocks(tasks, urows, lcols, n_outer=AUTO_MIN_ROWS + 2)


def test_auto_dispatch_wide_block_batches(compiler_less):
    tb, ub, lb = _wide_block()
    cfg = TC2DConfig()
    assert choose_backend(tb, ub, lb, cfg) == "batch"
    name, fn = resolve_backend("auto", tb, ub, lb, cfg)
    assert name == "batch"
    assert fn is get_backend("batch")


def test_auto_dispatch_wide_block_compiled(compiled_loaded):
    tb, ub, lb = _wide_block()
    cfg = TC2DConfig()
    assert choose_backend(tb, ub, lb, cfg) == "c"
    name, fn = resolve_backend("auto", tb, ub, lb, cfg)
    assert name == "c"
    assert fn is get_backend("c")


def test_auto_dispatch_degenerate_blocks_stay_row(compiler_less):
    cfg = TC2DConfig()
    tb, ub, lb = to_blocks([], {}, {})
    assert choose_backend(tb, ub, lb, cfg) == "row"
    tb, ub, lb = to_blocks([(0, 0)], {0: [1]}, {0: [1]})
    assert choose_backend(tb, ub, lb, cfg) == "row"


def test_auto_dispatch_degenerate_blocks_compiled(compiled_loaded):
    """Nothing to count stays ``row`` (no call at all is cheaper than a
    foreign call); a single task already goes to ``"c"``."""
    cfg = TC2DConfig()
    tb, ub, lb = to_blocks([], {}, {})
    assert choose_backend(tb, ub, lb, cfg) == "row"
    tb, ub, lb = to_blocks([(0, 0)], {0: [1]}, {0: [1]})
    assert choose_backend(tb, ub, lb, cfg) == "c"


def _probed_block():
    tasks = [(j, j) for j in range(AUTO_MIN_ROWS + 2)]
    return to_blocks(
        tasks,
        {j: [1, 2] for j, _ in tasks},
        {j: [1, 2] for j, _ in tasks},
        n_outer=AUTO_MIN_ROWS + 2,
    )


def test_auto_dispatch_probed_mode_batches(compiler_less):
    """Without modified hashing every build is probed, and the batch
    backend lays all of them out in one bulk call — the shape rule
    decides, the toggle does not."""
    tb, ub, lb = _probed_block()
    cfg = TC2DConfig(modified_hashing=False)
    assert choose_backend(tb, ub, lb, cfg) == "batch"


def test_auto_dispatch_probed_mode_compiled(compiled_loaded):
    tb, ub, lb = _probed_block()
    cfg = TC2DConfig(modified_hashing=False)
    assert choose_backend(tb, ub, lb, cfg) == "c"


def test_explicit_c_on_a_compiler_less_host_is_a_typed_error(compiler_less):
    tb, ub, lb = to_blocks([(0, 0)], {0: [1]}, {0: [1]})
    for ask in (
        lambda: get_backend("c"),
        lambda: prepare_backend("c"),
        lambda: resolve_backend("c", tb, ub, lb, TC2DConfig()),
        lambda: count_block_pair(tb, ub, lb, TC2DConfig(), backend="c"),
    ):
        with pytest.raises(KernelUnavailableError, match="no C compiler") as info:
            ask()
        assert "no C compiler" in info.value.reason
    prepare_backend("auto")  # silent
    assert get_enumerator("c") is kernels.enumerate_hits_batch


def test_auto_matches_concrete_backends():
    rng = np.random.default_rng(42)
    import dataclasses

    for _ in range(20):
        tb, ub, lb = to_blocks(*random_case(rng))
        cfg = TC2DConfig()
        d = {
            b: dataclasses.asdict(count_block_pair(tb, ub, lb, cfg, backend=b))
            for b in ("auto", "row", "batch")
            + (("c",) if compiled.available() else ())
        }
        assert all(v == d["row"] for v in d.values())


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
