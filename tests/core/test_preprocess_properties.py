"""Property-based tests of the preprocessing building blocks.

The linear-time local steps are held to the formulations they replaced
(comparison sorts and binary searches), kept here as oracles.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.arrayutil import sorted_unique
from repro.core.grid import ProcessorGrid
from repro.core.preprocess import (
    _cyclic_relabel,
    _label_order,
    chunk_bounds,
    cyclic_bounds,
    translate_labels,
    ul_parts,
)
from repro.simmpi import Engine
from tests.core.test_arrayutil import split_by_owner_int64


def _translate_labels_searchsorted(ctx, entries, offsets, my_values):
    """``translate_labels`` before the dense table: a comparison sort for
    the unique labels, binary searches for their owners and answers."""
    comm = ctx.comm
    uniq = sorted_unique(np.asarray(entries, dtype=np.int64))
    owners = np.searchsorted(offsets, uniq, side="right").astype(np.int64) - 1
    got_requests = comm.alltoall(split_by_owner_int64(owners, uniq, comm.size))
    my_lo = int(offsets[comm.rank])
    replies = [my_values[np.asarray(q, dtype=np.int64) - my_lo] for q in got_requests]
    ctx.charge("scan", sum(len(q) for q in got_requests))
    got_replies = comm.alltoall(replies)
    values = np.concatenate(got_replies) if uniq.size else np.empty(0, np.int64)
    ctx.charge("relabel", len(entries) + len(uniq))
    return values[np.searchsorted(uniq, entries)]


@settings(deadline=None)
@given(
    p=st.integers(1, 6),
    n=st.integers(0, 40),
    cyclic=st.booleans(),
    data=st.data(),
)
def test_translate_labels_matches_searchsorted_oracle(p, n, cyclic, data):
    """Same answers, dtype, counters and clocks (to the last bit) on empty
    ranks, repeated labels, ``n < p`` and ranks with no entries."""
    offsets = cyclic_bounds(n, p) if cyclic else chunk_bounds(n, p)
    table = np.array(data.draw(st.permutations(range(n))), dtype=np.int64)
    entries = st.lists(st.integers(0, max(n - 1, 0)), max_size=25 if n else 0)
    per_rank = [np.array(data.draw(entries), dtype=np.int64) for _ in range(p)]

    def program(ctx, translate):
        lo, hi = int(offsets[ctx.rank]), int(offsets[ctx.rank + 1])
        return translate(ctx, per_rank[ctx.rank], offsets, table[lo:hi])

    new = Engine(p).run(program, translate_labels)
    old = Engine(p).run(program, _translate_labels_searchsorted)
    for got, want, entries in zip(new.returns, old.returns, per_rank):
        assert got.dtype == want.dtype
        assert got.tolist() == want.tolist() == table[entries].tolist()
    assert new.counters == old.counters
    assert [c.now.hex() for c in new.clocks] == [c.now.hex() for c in old.clocks]


@settings(deadline=None)
@given(
    q=st.integers(1, 12),
    edges=st.lists(st.tuples(st.integers(0, 200), st.integers(0, 200)), max_size=80),
    flips=st.lists(st.booleans(), max_size=80),
)
def test_ul_parts_match_per_half_split(q, edges, flips):
    """The fused U/L owner sort groups exactly the parts the two per-half
    ``split_by_owner`` calls did, with their lengths as the counts (``q`` up to 12 puts ``2 p`` on both
    sides of the uint8/uint16 boundary)."""
    p = q * q
    pairs = np.array(edges, dtype=np.int64).reshape(-1, 2)
    row_rep, cols = pairs[:, 0], pairs[:, 1]
    upper = cols > row_rep
    # Arbitrary classifications too, like the (degree, label) comparison.
    m = min(len(flips), len(upper))
    upper[:m] ^= np.array(flips[:m], dtype=bool)
    pairs, counts = ul_parts(row_rep, cols, upper, q, p)
    want = []
    for half in (upper, ~upper):
        sel = np.stack([row_rep[half], cols[half]], axis=1)
        dest = (sel[:, 0] % q) * q + sel[:, 1] % q
        want += split_by_owner_int64(dest, sel, p)
    assert counts.tolist() == [len(w) for w in want]
    bounds = np.cumsum([0, *counts.tolist()])
    for lo, hi, w in zip(bounds[:-1], bounds[1:], want):
        g = pairs[lo:hi]
        assert g.dtype == w.dtype and g.shape == w.shape
        assert np.array_equal(g, w)


def _sort_compare_rejects(labels, lo, hi):
    """The redistribution check ``_label_order`` replaced."""
    return len(labels) != hi - lo or (
        len(labels) > 0 and not np.array_equal(np.sort(labels), np.arange(lo, hi))
    )


@settings(deadline=None)
@given(
    lo=st.integers(0, 20),
    k=st.integers(0, 12),
    data=st.data(),
)
def test_label_order_rejects_what_sort_compare_rejected(lo, k, data):
    hi = lo + k
    if data.draw(st.booleans()):
        labels = np.array(data.draw(st.permutations(range(lo, hi))), dtype=np.int64)
    else:
        near = st.integers(max(lo - 2, 0), hi + 2)
        labels = np.array(data.draw(st.lists(near, max_size=k + 2)), dtype=np.int64)
    if _sort_compare_rejects(labels, lo, hi):
        with pytest.raises(AssertionError, match="lost or duplicated"):
            _label_order(labels, lo, hi)
    else:
        assert _label_order(labels, lo, hi).tolist() == np.argsort(
            labels, kind="stable"
        ).tolist()


def _cyclic_bounds_loop(n, p):
    """``cyclic_bounds`` before it was vectorized: a Python loop over p."""
    sizes = [(n - r + p - 1) // p if r < n else 0 for r in range(p)]
    return np.concatenate([[0], np.cumsum(sizes)]).astype(np.int64)


@settings(max_examples=100, deadline=None)
@given(
    n=st.one_of(st.just(0), st.integers(0, 40), st.integers(0, 5000)),
    p=st.one_of(st.just(1), st.integers(1, 80)),
)
def test_cyclic_bounds_matches_the_loop_it_replaced(n, p):
    """Same offsets and dtype for ``n = 0``, ``n < p``, ``p = 1`` and the
    rest."""
    got = cyclic_bounds(n, p)
    want = _cyclic_bounds_loop(n, p)
    assert got.dtype == want.dtype and got.tolist() == want.tolist()


@pytest.mark.parametrize("n, p", [(0, 1), (0, 7), (3, 8), (1, 1), (9, 1), (8, 8)])
def test_cyclic_bounds_corner_cases(n, p):
    assert cyclic_bounds(n, p).tolist() == _cyclic_bounds_loop(n, p).tolist()


@settings(max_examples=100, deadline=None)
@given(n=st.integers(1, 500), p=st.integers(1, 32))
def test_cyclic_relabel_is_permutation(n, p):
    offsets = cyclic_bounds(n, p)
    v = np.arange(n, dtype=np.int64)
    lam = _cyclic_relabel(v, n, p, offsets)
    assert sorted(lam.tolist()) == list(range(n))


@settings(max_examples=100, deadline=None)
@given(n=st.integers(1, 500), p=st.integers(1, 32))
def test_cyclic_relabel_owner_is_v_mod_p(n, p):
    """The image of residue class r fills exactly rank r's bound range."""
    offsets = cyclic_bounds(n, p)
    v = np.arange(n, dtype=np.int64)
    lam = _cyclic_relabel(v, n, p, offsets)
    owners = np.searchsorted(offsets, lam, side="right") - 1
    assert np.array_equal(owners, v % p)


@settings(max_examples=100, deadline=None)
@given(n=st.integers(0, 1000), p=st.integers(1, 40))
def test_bounds_partition_range(n, p):
    for bounds in (chunk_bounds(n, p), cyclic_bounds(n, p)):
        assert bounds[0] == 0 and bounds[-1] == n
        assert np.all(np.diff(bounds) >= 0)
        sizes = np.diff(bounds)
        assert sizes.max() - sizes.min() <= 1 or n < p


@settings(max_examples=60, deadline=None)
@given(q=st.integers(1, 13), n=st.integers(0, 300))
def test_grid_local_counts_partition(q, n):
    grid = ProcessorGrid(q)
    assert sum(grid.local_count(r, n) for r in range(q)) == n


@settings(max_examples=60, deadline=None)
@given(q=st.integers(2, 13))
def test_cannon_shift_orbit_covers_all_columns(q):
    """Following shift_u from any start visits every grid column once."""
    grid = ProcessorGrid(q)
    for x in range(q):
        col = 0
        seen = set()
        for _ in range(q):
            seen.add(col)
            dest, _src = grid.shift_u(x, col)
            _dx, col = grid.coords(dest)
        assert seen == set(range(q))
