"""The kernel backend registry, auto-dispatch, the backends' speed order
and capacity sizing."""

from __future__ import annotations

import functools
import time

import numpy as np
import pytest

from repro.core import kernels
from repro.core.blocks import build_block
from repro.core.kernels import compiled
from repro.core.config import TC2DConfig
from repro.core.kernels import (
    KernelUnavailableError,
    choose_backend,
    get_backend,
    kernel_capacity,
    prepare_backend,
    resolve_backend,
)
from repro.core.kernels.dispatch import AUTO_MIN_ROWS
from repro.graph import rmat_graph
from tests.core.test_intersect import random_case, to_blocks


def test_builtin_backends_registered():
    # "c" is always there; runnable where it loads.
    assert set(kernels._REGISTRY) == set(kernels.KERNEL_BACKENDS) - {"auto"}


def test_unknown_backend_rejected():
    with pytest.raises(ValueError, match="unknown kernel backend"):
        get_backend("simd")
    tb, ub, lb = to_blocks([(0, 0)], {0: [1]}, {0: [1]})
    with pytest.raises(ValueError, match="unknown kernel backend"):
        resolve_backend("simd", tb, ub, lb, TC2DConfig(), listing=True)


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
    """Where the library loaded every block pair goes to ``"c"``, an empty
    one too (a run on ``"c"`` never loads the Python kernels), and a
    listing call on it to ``"batch"``."""
    cfg = TC2DConfig()
    for blocks in (to_blocks([], {}, {}), to_blocks([(0, 0)], {0: [1]}, {0: [1]})):
        assert choose_backend(*blocks, cfg) == "c"
        assert resolve_backend("auto", *blocks, cfg, listing=True)[0] == "batch"


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
        lambda: compiled.count_block_pair_c(tb, ub, lb, TC2DConfig()),
    ):
        with pytest.raises(KernelUnavailableError, match="no C compiler") as info:
            ask()
        assert "no C compiler" in info.value.reason
    prepare_backend("auto")  # silent


def test_auto_matches_concrete_backends():
    rng = np.random.default_rng(42)
    import dataclasses

    for _ in range(20):
        tb, ub, lb = to_blocks(*random_case(rng))
        cfg = TC2DConfig()
        d = {
            b: dataclasses.asdict(
                resolve_backend(b, tb, ub, lb, cfg)[1](tb, ub, lb, cfg)
            )
            for b in ("auto", "row", "batch")
            + (("c",) if compiled.available() else ())
        }
        assert all(v == d["row"] for v in d.values())


# -- the speed order that makes ``auto`` pick c, then batch ------------------

#: A backend ``auto`` prefers may be at most this much slower than the one
#: it replaces (the slack absorbs timer noise on the small cases).
SPEED_TOLERANCE = 1.10

#: case -> (RMAT scale, grid side q, config).  The probed case is the
#: collision-heavy one: 1396 task rows, every hash build probed.
SPEED_CASES = {
    "rmat9-q3": (9, 3, TC2DConfig()),
    "rmat10-q3": (10, 3, TC2DConfig()),
    "rmat13-q3-probed": (13, 3, TC2DConfig(modified_hashing=False)),
}

#: pair -> (the backend ``auto`` prefers, the one it replaces).
SPEED_PAIRS = {"batch-vs-row": ("batch", "row"), "c-vs-batch": ("c", "batch")}


@functools.cache
def _rmat_block_triple(scale, q):
    """(task, U, L) block (0, 0) of the 2D cyclic split of an RMAT graph's
    upper triangle over a ``q x q`` grid."""
    g = rmat_graph(scale, seed=2)
    rows, cols = g.upper_csr().to_coo()
    sel = (rows % q == 0) & (cols % q == 0)
    r, c = rows[sel] // q, cols[sel] // q
    nb = (g.n + q - 1) // q
    return (
        build_block("task", 0, 0, nb, nb, c, r),
        build_block("U-row", 0, 0, nb, nb, r, c),
        build_block("L-col", 0, 0, nb, nb, r, c),
    )


@pytest.mark.parametrize("pair", SPEED_PAIRS)
@pytest.mark.parametrize("case", SPEED_CASES)
def test_backends_keep_their_speed_order(case, pair):
    """The preferred backend is not slower than the one it replaces, best
    of 5 interleaved round-robin, once both agree on every counter."""
    fast, slow = SPEED_PAIRS[pair]
    if fast == "c" and not compiled.available():
        pytest.skip(f"compiled backend: {compiled.unavailable_reason()}")
    scale, q, cfg = SPEED_CASES[case]
    blocks = _rmat_block_triple(scale, q)
    fns = {b: get_backend(b) for b in (fast, slow)}
    assert fns[fast](*blocks, cfg) == fns[slow](*blocks, cfg)

    best = dict.fromkeys(fns, float("inf"))
    for _rep in range(5):
        for b, fn in fns.items():  # interleaved so noise hits both alike
            t0 = time.perf_counter()
            fn(*blocks, cfg)
            best[b] = min(best[b], time.perf_counter() - t0)
    assert best[fast] <= best[slow] * SPEED_TOLERANCE, (
        f"{case}: {fast} {best[fast] * 1e3:.3f} ms > "
        f"{slow} {best[slow] * 1e3:.3f} ms x {SPEED_TOLERANCE}"
    )


def test_kernel_capacity_floor():
    tb, ub, lb = to_blocks([], {}, {})
    assert kernel_capacity(ub.dcsr) == 4
