"""Row vs batch vs compiled backend parity — the kernel-contract tests.

The batch and compiled backends are only allowed to change wall time:
triangle counts, the ``(j, i, k)`` triples a listing call appends to
``hits_out`` and every logical :class:`KernelStats` counter must be
bit-identical to the row-wise reference under every toggle combination,
because the counters drive the simulated machine model's virtual clock.
A listing call on ``"c"`` resolves to ``"batch"``.  On a host that cannot
build the compiled backend the comparisons run two ways instead of three
and :func:`test_parity_covers_the_compiled_backend` is skipped with the
reason.
"""

from __future__ import annotations

import dataclasses
from itertools import product

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import GRID_DRIVERS, count_triangles_summa
from repro.core.blocks import Block
from repro.core.config import TC2DConfig
from repro.core.kernels import batched, compiled, resolve_backend
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


def backends() -> tuple[str, ...]:
    """The backends under comparison: ``row`` first (the reference)."""
    return ("row", "batch", "c") if compiled.available() else ("row", "batch")


def run_kernel(backend, tb, ub, lb, cfg, listing=False):
    """``(KernelStats as dict, listed triples or None)`` of one call on
    the kernel ``backend`` resolves to."""
    hits = [] if listing else None
    _, fn = resolve_backend(backend, tb, ub, lb, cfg, listing=listing)
    st = dataclasses.asdict(fn(tb, ub, lb, cfg, hits))
    if not listing:
        return st, None
    return st, np.concatenate(hits) if hits else np.empty((0, 3), np.int64)


def assert_parity(tb, ub, lb, cfg) -> dict:
    """Every backend, counting and listing, reports the reference's
    counters, and every listing call the reference's triples in the same
    order; returns the reference's counters."""
    d_row, hits_row = run_kernel("row", tb, ub, lb, cfg, listing=True)
    assert len(hits_row) == d_row["triangles"]
    for backend in backends():
        assert run_kernel(backend, tb, ub, lb, cfg)[0] == d_row, backend
        d, hits = run_kernel(backend, tb, ub, lb, cfg, listing=True)
        assert d == d_row, backend
        assert np.array_equal(hits, hits_row), backend
    return d_row


def test_parity_covers_the_compiled_backend():
    if not compiled.available():
        pytest.skip(f"two-way parity only: {compiled.unavailable_reason()}")
    assert backends()[-1] == "c"


@pytest.mark.parametrize(
    "cfg", TOGGLE_GRID, ids=lambda c: (
        f"ds{int(c.doubly_sparse)}-mh{int(c.modified_hashing)}"
        f"-es{int(c.early_stop)}-slack{c.hashmap_slack}"
    )
)
def test_parity_random_blocks(cfg):
    """Seeded sweep: identical KernelStats and triples on random blocks."""
    rng = np.random.default_rng(7)
    for _ in range(25):
        tb, ub, lb = to_blocks(*random_case(rng))
        assert_parity(tb, ub, lb, cfg)


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
        assert_parity(tb, ub, lb, cfg)


def _probed_mode_under_auto(picked: str) -> None:
    cfg = TC2DConfig(modified_hashing=False)
    assert cfg.kernel_backend == "auto"
    rng = np.random.default_rng(13)
    for _ in range(25):
        tb, ub, lb = _collision_heavy_case(rng)
        assert resolve_backend("auto", tb, ub, lb, cfg)[0] == picked
        st_auto, _ = run_kernel("auto", tb, ub, lb, cfg)
        assert st_auto["hash_fast_builds"] == 0 < st_auto["insert_steps_slow"]
        assert st_auto == run_kernel("row", tb, ub, lb, cfg)[0]
        listed = [run_kernel(b, tb, ub, lb, cfg, listing=True)
                  for b in ("row", "auto")]
        assert listed[0][0] == listed[1][0]
        assert np.array_equal(listed[0][1], listed[1][1])


def test_parity_probed_mode_under_auto(compiler_less):
    """``modified_hashing=False`` under the default ``auto`` backend is
    batched since the bulk layout (every build probed, none replayed row
    by row) and still reports the reference's counters."""
    _probed_mode_under_auto("batch")


def test_parity_probed_mode_under_auto_compiled():
    """The same where the library loaded: ``auto`` is ``"c"``."""
    if not compiled.available():
        pytest.skip(f"compiled backend unavailable: {compiled.unavailable_reason()}")
    _probed_mode_under_auto("c")


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
            assert assert_parity(tb, ub, lb, cfg)["probe_steps_slow"] > 0


def test_parity_full_table():
    """hashmap_slack=1 with a power-of-two row length fills the table
    completely — misses then walk capacity+1 steps, the worst case of the
    closed-form probe accounting."""
    cfg = TC2DConfig(modified_hashing=False, hashmap_slack=1)
    urows = {0: [1, 5, 9, 13]}  # 4 keys, capacity 4: full table
    lcols = {0: [0, 1, 2, 3, 4, 5, 6, 7]}
    tb, ub, lb = to_blocks([(0, 0)], urows, lcols, n_outer=2, n_inner=16)
    assert_parity(tb, ub, lb, cfg)


def test_enumeration_parity():
    """Row and batch list the same (j, i, k) triples in the same order —
    row-major task order, which the census relies on — and ``c`` lists
    through ``batch``."""
    rng = np.random.default_rng(3)
    for cfg in (TC2DConfig(), TC2DConfig(early_stop=False),
                TC2DConfig(modified_hashing=False)):
        for _ in range(25):
            tb, ub, lb = to_blocks(*random_case(rng))
            assert resolve_backend("c", tb, ub, lb, cfg, listing=True)[0] == "batch"
            row = run_kernel("row", tb, ub, lb, cfg, listing=True)[1]
            batch = run_kernel("batch", tb, ub, lb, cfg, listing=True)[1]
            assert np.array_equal(row, batch)
            order = np.lexsort(row.T[::-1])
            assert np.array_equal(order, np.arange(len(row)))


@settings(
    # Tier-1 draws 40 cases; a loaded profile brings its own budget (CI:
    # `--hypothesis-profile=long --hypothesis-seed=0`, 2000 cases).
    max_examples=(
        40 if settings.default is settings.get_profile("default")
        else settings.default.max_examples
    ),
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
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
    assert_parity(tb, ub, lb, cfg)


# -- blocks as they arrive, triples as they append, degenerate shapes ------


def _via_blob(block: Block) -> Block:
    return Block.from_blob(block.to_blob())


def _via_mmap(block: Block, path) -> Block:
    import mmap

    path.write_bytes(block.to_blob().tobytes())
    with open(path, "rb") as fh:
        buf = mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ)
    return Block.from_mmap(buf)


@pytest.mark.parametrize("arrival", ["blob", "mmap"])
def test_parity_on_deserialized_blocks(arrival, tmp_path):
    """Blocks off the wire (views into one blob) and out of a store file
    (read-only views into a mapping) count like the ones built in place."""
    rng = np.random.default_rng(19)
    for cfg in (TC2DConfig(), TC2DConfig(modified_hashing=False)):
        for n in range(10):
            built = _collision_heavy_case(rng)
            if arrival == "blob":
                arrived = [_via_blob(b) for b in built]
            else:
                arrived = [
                    _via_mmap(b, tmp_path / f"{n}-{k}.blob")
                    for k, b in enumerate(built)
                ]
                assert not arrived[1].dcsr.indices.flags.writeable
            assert assert_parity(*arrived, cfg) == assert_parity(*built, cfg)


def test_parity_hits_append_to_the_list():
    """``hits_out`` is appended to, never cleared or rewritten."""
    rng = np.random.default_rng(23)
    cfg = TC2DConfig()
    for _ in range(20):
        tb, ub, lb = _collision_heavy_case(rng)
        fresh = run_kernel("row", tb, ub, lb, cfg, listing=True)[1]
        for backend in ("row", "batch"):
            sentinel = np.full((2, 3), -1, dtype=np.int64)
            hits = [sentinel]
            resolve_backend(backend, tb, ub, lb, cfg, listing=True)[1](
                tb, ub, lb, cfg, hits
            )
            assert hits[0] is sentinel and (sentinel == -1).all()
            assert np.array_equal(np.concatenate(hits[1:] or [fresh]), fresh)


@pytest.mark.parametrize(
    "tasks, urows, lcols, n_outer",
    [
        ([(0, 0), (1, 1)], {}, {0: [1, 2], 1: [3]}, 2),
        ([(0, 0), (1, 1)], {0: [1, 2], 1: [3]}, {}, 2),
        ([], {0: [1]}, {0: [1]}, 2),
        ([(0, 0)], {0: [1, 3, 5]}, {0: [0, 1, 5, 9]}, 1),
        ([(0, 0)], {0: [9]}, {0: [1, 2]}, 1),
    ],
    ids=["empty-u", "empty-l", "no-tasks", "single-row", "all-cut"],
)
def test_parity_degenerate_shapes(tasks, urows, lcols, n_outer):
    for cfg in TOGGLE_GRID[::3]:
        tb, ub, lb = to_blocks(tasks, urows, lcols, n_outer=n_outer, n_inner=12)
        assert_parity(tb, ub, lb, cfg)


# -- the drivers: batch and c, same numbers to the last bit -----------------


def _report(res) -> dict:
    return {
        "count": int(res.count),
        "counters_ppt": res.counters_ppt,
        "counters_tct": res.counters_tct,
        "clocks": [
            float(t).hex()
            for t in (res.ppt_time, res.tct_time, res.overall_time,
                      res.extras["makespan"])
        ],
        "shifts": [
            (s.shift, s.rank, float(s.compute_seconds).hex(), s.tasks)
            for s in res.shift_records
        ],
        "hash_builds": (res.hash_builds, res.hash_fast_builds),
    }


DRIVERS = {
    **GRID_DRIVERS,
    "summa": lambda g, p, cfg: count_triangles_summa(
        g, *{4: (2, 2), 9: (3, 3), 16: (2, 8)}[p], cfg
    ),
}


@pytest.mark.parametrize("p", [4, 9, 16])
@pytest.mark.parametrize("driver", sorted(DRIVERS))
def test_drivers_agree_between_batch_and_c(driver, p, rmat_small):
    if not compiled.available():
        pytest.skip(f"compiled backend unavailable: {compiled.unavailable_reason()}")
    reports = {}
    for backend in ("batch", "c"):
        res = DRIVERS[driver](rmat_small, p, TC2DConfig(kernel_backend=backend))
        assert set(res.extras["kernel_backend_uses"]) == {backend}
        reports[backend] = _report(res)
    assert reports["batch"] == reports["c"]
