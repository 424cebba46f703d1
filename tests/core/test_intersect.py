"""The block intersection kernel vs a brute-force reference."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.blocks import build_block
from repro.core.config import TC2DConfig
from repro.core.kernels import KernelStats, resolve_backend


def count_pair(tb, ub, lb, cfg, hits_out=None):
    """The kernel ``cfg.kernel_backend`` resolves to for this block pair."""
    _, fn = resolve_backend(
        cfg.kernel_backend, tb, ub, lb, cfg, listing=hits_out is not None
    )
    return fn(tb, ub, lb, cfg, hits_out)


def brute_force(tasks, urows, lcols):
    """Reference: for every task (j, i), |urows[j] & lcols[i]|."""
    total = 0
    for j, i in tasks:
        total += len(set(urows.get(j, [])) & set(lcols.get(i, [])))
    return total


def random_case(rng, n_outer=12, n_inner=15):
    urows = {}
    for j in range(n_outer):
        if rng.random() < 0.7:
            k = rng.integers(0, 6)
            urows[j] = sorted(
                rng.choice(n_inner, size=min(k, n_inner), replace=False).tolist()
            )
    lcols = {}
    for i in range(n_outer):
        if rng.random() < 0.7:
            k = rng.integers(0, 6)
            lcols[i] = sorted(
                rng.choice(n_inner, size=min(k, n_inner), replace=False).tolist()
            )
    ntasks = int(rng.integers(0, 25))
    tasks = [
        (int(rng.integers(0, n_outer)), int(rng.integers(0, n_outer)))
        for _ in range(ntasks)
    ]
    tasks = sorted(set(tasks))
    return tasks, urows, lcols


def to_blocks(tasks, urows, lcols, n_outer=12, n_inner=15):
    t_rows = np.array([j for j, _ in tasks], dtype=np.int64)
    t_cols = np.array([i for _, i in tasks], dtype=np.int64)
    u_r = np.array([j for j, row in urows.items() for _ in row], dtype=np.int64)
    u_c = np.array([k for row in urows.values() for k in row], dtype=np.int64)
    l_r = np.array([i for i, col in lcols.items() for _ in col], dtype=np.int64)
    l_c = np.array([k for col in lcols.values() for k in col], dtype=np.int64)
    tb = build_block("task", 0, 0, n_outer, n_outer, t_rows, t_cols)
    ub = build_block("U-row", 0, 0, n_outer, n_inner, u_r, u_c)
    lb = build_block("L-col", 0, 0, n_outer, n_inner, l_r, l_c)
    return tb, ub, lb


@pytest.mark.parametrize(
    "cfg",
    [
        TC2DConfig(),
        TC2DConfig(doubly_sparse=False),
        TC2DConfig(modified_hashing=False),
        TC2DConfig(early_stop=False),
        TC2DConfig(doubly_sparse=False, modified_hashing=False, early_stop=False),
    ],
    ids=["all-on", "no-dsparse", "no-mhash", "no-estop", "all-off"],
)
def test_kernel_matches_brute_force_random(cfg):
    rng = np.random.default_rng(0)
    for _ in range(60):
        tasks, urows, lcols = random_case(rng)
        tb, ub, lb = to_blocks(tasks, urows, lcols)
        st = count_pair(tb, ub, lb, cfg)
        assert st.triangles == brute_force(tasks, urows, lcols)


def test_residue_mismatch_rejected():
    tb, ub, lb = to_blocks([(0, 0)], {0: [1]}, {0: [1]})
    ub.inner_residue = 3
    with pytest.raises(ValueError):
        count_pair(tb, ub, lb, TC2DConfig())


def test_empty_blocks():
    tb, ub, lb = to_blocks([], {}, {})
    st = count_pair(tb, ub, lb, TC2DConfig())
    assert st.triangles == 0
    assert st.tasks == 0


def test_row_visit_counts_respect_doubly_sparse():
    tasks = [(2, 3), (7, 1)]
    urows = {2: [0, 1], 7: [5]}
    lcols = {3: [1], 1: [5]}
    tb, ub, lb = to_blocks(tasks, urows, lcols)
    on = count_pair(tb, ub, lb, TC2DConfig(doubly_sparse=True))
    off = count_pair(tb, ub, lb, TC2DConfig(doubly_sparse=False))
    assert on.triangles == off.triangles == 2
    assert on.row_visits == 2  # only non-empty task rows
    assert off.row_visits == 12  # every local row


def test_early_stop_skips_low_candidates():
    # U row min is 10: probe candidates below 10 must be skipped.
    tasks = [(0, 0)]
    urows = {0: [10, 12]}
    lcols = {0: [1, 2, 3, 10, 12]}
    tb, ub, lb = to_blocks(tasks, urows, lcols)
    with_stop = count_pair(tb, ub, lb, TC2DConfig(early_stop=True))
    without = count_pair(tb, ub, lb, TC2DConfig(early_stop=False))
    assert with_stop.triangles == without.triangles == 2
    assert with_stop.probes_skipped == 3
    assert without.probes_skipped == 0
    assert with_stop.probe_steps < without.probe_steps


def test_tasks_counter_excludes_empty_partners():
    # Task (0,0): both sides non-empty -> counted.  Task (1,1): empty U row
    # -> not counted.  Task (0,2): empty L col -> not counted.
    tasks = [(0, 0), (1, 1), (0, 2)]
    urows = {0: [5]}
    lcols = {0: [5], 1: [5]}
    tb, ub, lb = to_blocks(tasks, urows, lcols)
    st = count_pair(tb, ub, lb, TC2DConfig())
    assert st.tasks == 1
    assert st.triangles == 1


def test_modified_hashing_counts_fast_builds():
    tasks = [(0, 0), (1, 1)]
    urows = {0: [3, 4], 1: [7]}
    lcols = {0: [3], 1: [7]}
    tb, ub, lb = to_blocks(tasks, urows, lcols)
    on = count_pair(tb, ub, lb, TC2DConfig(modified_hashing=True))
    off = count_pair(tb, ub, lb, TC2DConfig(modified_hashing=False))
    assert on.triangles == off.triangles == 2
    assert on.hash_fast_builds > 0
    assert off.hash_fast_builds == 0


def test_hits_list_every_triangle_per_task():
    tasks = [(0, 0), (0, 1), (2, 2)]
    urows = {0: [1, 2, 3], 2: [4]}
    lcols = {0: [1, 3], 1: [2], 2: [5]}
    tb, ub, lb = to_blocks(tasks, urows, lcols)
    hits = []
    st = count_pair(tb, ub, lb, TC2DConfig(), hits)
    assert st.triangles == 3
    # (j, i, k) in task order: row 0 cols [0, 1]; row 2 closes nothing.
    assert np.concatenate(hits).tolist() == [[0, 0, 1], [0, 0, 3], [0, 1, 2]]


def test_hits_match_plain_count_random():
    rng = np.random.default_rng(7)
    for _ in range(30):
        tasks, urows, lcols = random_case(rng)
        tb, ub, lb = to_blocks(tasks, urows, lcols)
        hits = []
        st = count_pair(tb, ub, lb, TC2DConfig(), hits)
        assert st == count_pair(tb, ub, lb, TC2DConfig())
        listed = np.concatenate(hits) if hits else np.empty((0, 3), int)
        assert len(listed) == st.triangles
        for j, i, k in listed.tolist():
            assert (j, i) in tasks and k in urows[j] and k in lcols[i]


def test_kernel_stats_merge():
    a = KernelStats(row_visits=1, tasks=2, triangles=3, probe_steps_fast=4)
    b = KernelStats(
        row_visits=10, tasks=20, triangles=30, probe_steps_slow=40, insert_steps_fast=7
    )
    a.merge(b)
    assert (a.row_visits, a.tasks, a.triangles) == (11, 22, 33)
    assert a.probe_steps == 44  # fast + slow aggregate
    assert a.hash_insert_steps == 7
