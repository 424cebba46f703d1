"""BlockHashMap: correctness of both build/lookup modes and the counters."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.hashing import BlockHashMap, build_and_lookup, hashmap, probed_layouts
from repro.hashing.hashmap import fib_hash, fib_shift


def test_capacity_rounds_to_pow2():
    assert BlockHashMap(5).capacity == 8
    assert BlockHashMap(8).capacity == 8
    assert BlockHashMap(0).capacity == 4


def test_build_too_many_keys_rejected():
    hm = BlockHashMap(4)
    with pytest.raises(ValueError):
        hm.build(np.arange(5))


def test_empty_build_and_lookup():
    hm = BlockHashMap(8)
    assert hm.build(np.empty(0, dtype=np.int64)) is True
    hits, steps = hm.lookup_many(np.array([1, 2, 3]))
    assert hits == 0


def test_fast_path_used_when_slots_distinct():
    hm = BlockHashMap(64)
    assert hm.build(np.array([1, 2, 3], dtype=np.int64)) is True
    assert hm.is_fast_mode
    assert hm.stats.insert_steps == hm.stats.inserts


def test_fast_path_fallback_on_slot_collision():
    hm = BlockHashMap(8)
    # 0 and 8 collide under & 7.
    assert hm.build(np.array([0, 8], dtype=np.int64), allow_fast=True) is False
    assert not hm.is_fast_mode
    hits, _ = hm.lookup_many(np.array([0, 8, 16], dtype=np.int64))
    assert hits == 2


def test_allow_fast_false_forces_probing():
    hm = BlockHashMap(64)
    assert hm.build(np.array([1, 2, 3], dtype=np.int64), allow_fast=False) is False
    hits, _ = hm.lookup_many(np.array([1, 2, 3, 4], dtype=np.int64))
    assert hits == 3


def test_rebuild_invalidates_previous_contents():
    hm = BlockHashMap(16)
    hm.build(np.array([1, 2, 3], dtype=np.int64))
    hm.build(np.array([7, 8], dtype=np.int64))
    hits, _ = hm.lookup_many(np.array([1, 2, 3, 7, 8], dtype=np.int64))
    assert hits == 2


def test_rebuild_alternating_modes():
    hm = BlockHashMap(8)
    hm.build(np.array([0, 8], dtype=np.int64))  # probed
    hm.build(np.array([1, 2], dtype=np.int64))  # fast
    assert hm.is_fast_mode
    hits, _ = hm.lookup_many(np.array([0, 8, 1, 2], dtype=np.int64))
    assert hits == 2


def test_probed_lookup_counts_collision_steps():
    hm = BlockHashMap(8)
    hm.build(np.array([0, 8, 16], dtype=np.int64), allow_fast=True)
    assert hm.stats.insert_steps > 3
    before = hm.stats.lookup_steps
    hits, steps = hm.lookup_many(np.array([16], dtype=np.int64))
    assert hits == 1
    assert steps >= 1
    assert hm.stats.lookup_steps - before == steps


def test_full_table_lookup_of_absent_key_terminates():
    hm = BlockHashMap(4)
    hm.build(np.array([0, 4, 8, 12], dtype=np.int64), allow_fast=True)
    hits, steps = hm.lookup_many(np.array([16], dtype=np.int64))
    assert hits == 0
    assert steps <= hm.capacity + 1


def test_hit_mask_matches_lookup_many():
    hm = BlockHashMap(32)
    keys = np.array([3, 17, 40], dtype=np.int64)
    hm.build(keys, allow_fast=False)
    qs = np.array([3, 4, 17, 40, 41], dtype=np.int64)
    mask = hm.hit_mask(qs)
    assert np.array_equal(mask, [True, False, True, True, False])


def test_contains_scalar():
    hm = BlockHashMap(16)
    hm.build(np.array([5], dtype=np.int64))
    assert hm.contains(5)
    assert not hm.contains(6)


def test_stats_merge():
    from repro.hashing import HashStats

    a = HashStats(builds=1, inserts=2, insert_steps=3, lookups=4, lookup_steps=5)
    b = HashStats(builds=1, fast_builds=1, inserts=1, insert_steps=1, lookups=1, lookup_steps=1)
    a.merge(b)
    assert (a.builds, a.fast_builds, a.inserts) == (2, 1, 3)
    assert (a.insert_steps, a.lookups, a.lookup_steps) == (4, 5, 6)


@settings(max_examples=100, deadline=None)
@given(
    keys=st.lists(st.integers(0, 2**40), max_size=40, unique=True),
    queries=st.lists(st.integers(0, 2**40), max_size=60),
    allow_fast=st.booleans(),
)
def test_property_membership_exact(keys, queries, allow_fast):
    keys_arr = np.array(keys, dtype=np.int64)
    qs = np.array(queries, dtype=np.int64)
    hm = BlockHashMap(max(4, 2 * len(keys)))
    hm.build(keys_arr, allow_fast=allow_fast)
    hits, _ = hm.lookup_many(qs)
    assert hits == int(np.isin(qs, keys_arr).sum())
    mask = hm.hit_mask(qs)
    assert np.array_equal(mask, np.isin(qs, keys_arr))


@settings(max_examples=50, deadline=None)
@given(st.lists(st.integers(0, 1000), min_size=1, max_size=30, unique=True))
def test_property_all_inserted_keys_found(keys):
    keys_arr = np.array(keys, dtype=np.int64)
    hm = BlockHashMap(2 * len(keys))
    hm.build(keys_arr)
    hits, _ = hm.lookup_many(keys_arr)
    assert hits == len(keys)


# -- probed_layouts: the bulk insert walk ------------------------------------


def _reference_layout(keys, capacity, shift):
    """The per-row sequential walk ``BlockHashMap.probed_layout`` ran
    before the bulk layout existed: one hash, one ``np.unique``, one
    Python loop that counts a step per slot visited."""
    keys = np.asarray(keys, dtype=np.int64)
    n = len(keys)
    slots = fib_hash(keys, shift)
    if len(np.unique(slots)) == n:
        return slots, n
    steps = 0
    occupied = set()
    positions = []
    for pos in slots.tolist():
        steps += 1
        while pos in occupied:
            pos = (pos + 1) % capacity
            steps += 1
        occupied.add(pos)
        positions.append(pos)
    return np.array(positions, dtype=np.int64), steps


def _keys_by_slot(capacity, universe=1 << 13):
    """``universe`` candidate keys grouped by their Fibonacci slot."""
    ids = np.arange(universe, dtype=np.int64)
    slots = fib_hash(ids, fib_shift(capacity))
    return [ids[slots == s].tolist() for s in range(capacity)]


@st.composite
def _layout_rows(draw):
    """A capacity and a list of ``(row id, keys)`` with the shapes the
    walk has to get right, in an arbitrary mix."""
    capacity = 1 << draw(st.integers(2, 6))
    by_slot = _keys_by_slot(capacity)
    rows = []
    for _ in range(draw(st.integers(0, 8))):
        kind = draw(st.sampled_from(
            ["random", "one_slot", "tail", "full", "single", "empty"]
        ))
        if kind == "one_slot":  # every key of the row hashes to one slot
            pool = by_slot[draw(st.integers(0, capacity - 1))]
        elif kind == "tail":  # collisions that wrap past capacity - 1
            pool = by_slot[capacity - 1] + by_slot[capacity - 2]
        else:
            pool = range(1 << 13)
        if kind in ("full", "single", "empty"):
            size = {"full": capacity, "single": 1, "empty": 0}[kind]
        else:
            size = draw(st.integers(1, capacity))
        rows.append(draw(st.lists(
            st.sampled_from(pool), min_size=size, max_size=size, unique=True
        )))
    # Row ids ascend with gaps; a row of zero keys leaves no trace.
    ids = sorted(draw(st.lists(st.integers(0, 10**6), min_size=len(rows),
                               max_size=len(rows), unique=True)))
    return capacity, list(zip(ids, rows))


@settings(max_examples=200, deadline=None)
@given(_layout_rows())
def test_probed_layouts_equals_per_row_walk(case):
    """Slots and step counts of the bulk layout equal the sequential
    per-row walk, row by row."""
    capacity, rows = case
    shift = fib_shift(capacity)
    keys = np.array([k for _, ks in rows for k in ks], dtype=np.int64)
    row_of_key = np.array([r for r, ks in rows for _ in ks], dtype=np.int64)
    layout, steps = probed_layouts(keys, row_of_key, capacity, shift)
    assert layout.dtype == np.int64 and len(layout) == len(steps) == len(keys)
    lo = 0
    for _, ks in rows:
        want_layout, want_steps = _reference_layout(ks, capacity, shift)
        hi = lo + len(ks)
        assert layout[lo:hi].tolist() == want_layout.tolist()
        assert int(steps[lo:hi].sum()) == want_steps
        lo = hi


def test_probed_layouts_wraps_and_fills():
    """Pinned shapes: four keys on the last slot of a four-slot table
    wrap to 0, 1, 2 (1 + 2 + 3 + 4 steps); a collision-free neighbour
    row in the same call keeps its slots at one step per key."""
    capacity = 4
    by_slot = _keys_by_slot(capacity)
    crowd = by_slot[3][:4]
    calm = [by_slot[s][0] for s in (2, 0, 1)]
    layout, steps = probed_layouts(
        np.array(calm + crowd), np.array([2] * 3 + [9] * 4),
        capacity, fib_shift(capacity),
    )
    assert layout.tolist() == [2, 0, 1, 3, 0, 1, 2]
    assert steps.tolist() == [1, 1, 1, 1, 2, 3, 4]


def test_probed_layout_method_is_the_one_row_case():
    hm = BlockHashMap(8)
    keys = np.array(_keys_by_slot(8)[5][:3] + _keys_by_slot(8)[6][:2])
    layout, steps = hm.probed_layout(keys)
    want_layout, want_steps = _reference_layout(keys, 8, hm.shift)
    assert layout.tolist() == want_layout.tolist() and steps == want_steps
    hm.build(keys, allow_fast=False)
    assert hm.stats.insert_steps == want_steps


def test_probed_layouts_rejects_overfull_row():
    """More keys than slots can never be placed; the walk must refuse
    instead of probing round the table forever."""
    with pytest.raises(ValueError, match="exceeds capacity 4"):
        probed_layouts(np.arange(10), np.array([0] * 5 + [1] * 5), 4,
                       fib_shift(4))


# -- build_and_lookup: the bulk build + lookup loop --------------------------


@st.composite
def _bulk_rows(draw):
    """A capacity and ``(keys, queries)`` per row, in an arbitrary mix of
    the shapes the bulk form has to get right."""
    capacity = 1 << draw(st.integers(2, 6))
    by_slot = _keys_by_slot(capacity)
    universe = 1 << 13
    rows = []
    for _ in range(draw(st.integers(1, 8))):
        kind = draw(st.sampled_from(
            ["random", "one_slot", "one_mask_slot", "full", "empty"]
        ))
        if kind == "one_slot":  # every key hashes to one Fibonacci slot
            pool = by_slot[draw(st.integers(0, capacity - 1))]
        elif kind == "one_mask_slot":  # every key on one direct-mask slot
            pool = range(draw(st.integers(0, capacity - 1)), universe, capacity)
        else:
            pool = range(universe)
        size = {"full": capacity, "empty": 0}.get(kind)
        if size is None:
            size = draw(st.integers(1, capacity))
        keys = sorted(draw(st.lists(
            st.sampled_from(pool), min_size=size, max_size=size, unique=True
        )))
        # Present and absent ids alike; an empty list is a row with no
        # queries, queries on an empty row probe an empty build.
        candidates = st.integers(0, universe - 1)
        if keys:
            candidates = st.one_of(st.sampled_from(keys), candidates)
        rows.append((keys, draw(st.lists(candidates, max_size=12))))
    return capacity, rows


@settings(
    # Tier-1 draws 100 cases; a loaded profile brings its own budget (CI:
    # `--hypothesis-profile=long --hypothesis-seed=0`, 2000 cases).
    max_examples=(
        100 if settings.default is settings.get_profile("default")
        else settings.default.max_examples
    ),
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    case=_bulk_rows(),
    allow_fast=st.booleans(),
    past_dense_scratch=st.booleans(),
    data=st.data(),
)
def test_build_and_lookup_equals_per_row_loop(
    case, allow_fast, past_dense_scratch, data
):
    """Hit mask and all four step counters of the bulk form equal a
    ``BlockHashMap(capacity).build(row, allow_fast)`` + ``lookup_many``
    loop over the rows, whatever order the queries come in."""
    capacity, rows = case
    keys = np.array([k for ks, _ in rows for k in ks], dtype=np.int64)
    key_row = np.array([r for r, (ks, _) in enumerate(rows) for _ in ks],
                       dtype=np.int64)
    queries = np.array([q for _, qs in rows for q in qs], dtype=np.int64)
    query_row = np.array([r for r, (_, qs) in enumerate(rows) for _ in qs],
                         dtype=np.int64)
    order = np.array(data.draw(st.permutations(range(len(queries)))),
                     dtype=np.int64)
    # Past the dense id -> slot scratch even one probed row takes the
    # row-encoded searchsorted.
    id_bound = hashmap._DENSE_SLOT_LIMIT + 1 if past_dense_scratch else 1 << 13
    got = build_and_lookup(keys, key_row, capacity, queries[order],
                           query_row[order], id_bound, allow_fast)

    want_hit = np.zeros(len(queries), dtype=bool)
    want = dict.fromkeys(
        ["fast_builds", "insert_steps_fast", "insert_steps_slow",
         "probe_steps_fast", "probe_steps_slow"], 0)
    n_rows = 1 + max(int(key_row.max(initial=-1)),
                     int(query_row.max(initial=-1)))
    lo = 0
    for row_keys, row_queries in rows[:n_rows]:
        hm = BlockHashMap(capacity)
        fast = hm.build(np.array(row_keys, dtype=np.int64), allow_fast)
        path = "fast" if fast else "slow"
        want["fast_builds"] += fast
        want[f"insert_steps_{path}"] += hm.stats.insert_steps
        qs = np.array(row_queries, dtype=np.int64)
        hits, steps = hm.lookup_many(qs)
        want[f"probe_steps_{path}"] += steps
        want_hit[lo : lo + len(qs)] = hm.hit_mask(qs)
        assert int(want_hit[lo : lo + len(qs)].sum()) == hits
        lo += len(qs)
    assert np.array_equal(got.hit, want_hit[order])
    assert {k: getattr(got, k) for k in want} == want


def test_build_and_lookup_full_table_miss_walks_capacity_plus_one():
    """A row filling its table makes a miss walk every slot and then the
    capped extra round — capacity + 1 steps, as the map's loop charges."""
    keys = np.array(_keys_by_slot(4)[3][:4], dtype=np.int64)
    got = build_and_lookup(keys, np.zeros(4, dtype=np.int64), 4,
                           np.array([1 << 12], dtype=np.int64),
                           np.zeros(1, dtype=np.int64), 1 << 13, False)
    assert got.hit.tolist() == [False] and 1 << 12 not in keys
    assert got.probe_steps_slow == 5 and got.probe_steps_fast == 0
