"""Open-addressing hash map for adjacency-fragment intersection.

One :class:`BlockHashMap` is allocated per 2D block sweep and reused for
every row (the paper reuses the map across all tasks sharing a row, and we
additionally avoid clearing it between rows with a generation-stamp
array).  Two build/lookup modes exist:

* **probed** — multiplicative (Fibonacci) hashing with linear probing; the
  baseline mode.
* **fast (direct-mask)** — the paper's "modified hashing routine for
  sparser vertices": when the fragment is no longer than the table and its
  ``key & mask`` slots happen to be pairwise distinct, keys are placed by a
  single bitwise AND and probed with one vectorized compare, with no
  probing loop at all.  After 2D decomposition most fragments are ~1/√p of
  an adjacency list, so this path dominates at scale — which is exactly why
  the optimization's benefit grows with the rank count (Section 7.3).

All operation counting is *logical* (one step per insert/probe plus one per
collision-resolution hop), independent of how numpy vectorizes the work, so
the simulated-time model sees what a C implementation would do.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.arrayutil import sorted_unique

_EMPTY = np.int64(-1)
#: Fibonacci hashing multiplier (golden ratio in 64-bit fixed point).
_FIB = np.uint64(0x9E3779B97F4A7C15)


@dataclass
class HashStats:
    """Cumulative operation counts for one map's lifetime.

    ``insert_steps``/``lookup_steps`` include one step per key plus one per
    collision hop, so ``insert_steps - inserts`` is the number of collision
    resolutions (zero on the fast path by construction).
    """

    builds: int = 0
    fast_builds: int = 0
    inserts: int = 0
    insert_steps: int = 0
    lookups: int = 0
    lookup_steps: int = 0

    def merge(self, other: "HashStats") -> None:
        self.builds += other.builds
        self.fast_builds += other.fast_builds
        self.inserts += other.inserts
        self.insert_steps += other.insert_steps
        self.lookups += other.lookups
        self.lookup_steps += other.lookup_steps


def _next_pow2(x: int) -> int:
    p = 1
    while p < x:
        p <<= 1
    return p


def table_capacity(requested: int) -> int:
    """Table size for a requested capacity: the next power of two, at
    least 4 — the rounding :class:`BlockHashMap` applies."""
    return max(4, _next_pow2(requested))


def fib_shift(capacity: int) -> int:
    """Right-shift of the Fibonacci hash for a power-of-two ``capacity``
    (``64 - log2(capacity)``)."""
    return 64 - (capacity - 1).bit_length()


def fib_hash(keys: np.ndarray, shift: int) -> np.ndarray:
    """Vectorized Fibonacci (multiplicative) hash to table slots.

    ``shift`` is :func:`fib_shift` of the table capacity, so external
    probing code (the batched kernel backend) lands on the same slots as
    the map itself.
    """
    with np.errstate(over="ignore"):
        return (
            (np.asarray(keys, dtype=np.int64).astype(np.uint64) * _FIB)
            >> np.uint64(shift)
        ).astype(np.int64)


def colliding_rows(
    row_idx: np.ndarray, slots: np.ndarray, capacity: int, n_rows: int
) -> np.ndarray:
    """Bool per row: do two of its keys share a table slot?

    ``row_idx`` (in ``range(n_rows)``) and ``slots`` (in
    ``range(capacity)``) are aligned per key.  One sort of the combined
    (row, slot) code and a neighbour compare — the bulk form of the
    pairwise-distinct test :meth:`BlockHashMap.build` applies to one row.
    """
    enc = np.sort(row_idx * capacity + slots)
    collides = np.zeros(n_rows, dtype=bool)
    collides[enc[1:][enc[1:] == enc[:-1]] // capacity] = True
    return collides


def probed_layouts(
    keys: np.ndarray, row_of_key: np.ndarray, capacity: int, shift: int
) -> tuple[np.ndarray, np.ndarray]:
    """Probed builds of many rows at once: the final slot of every key
    and the logical steps its insert took, each row built into its own
    empty table of ``capacity`` slots (a power of two; ``shift`` is its
    :func:`fib_shift`).

    ``keys`` holds the rows back to back and ``row_of_key`` names each
    key's row with non-decreasing ids (gaps are fine).  A row's keys are
    distinct and at most ``capacity`` many.

    This is the one implementation of the sequential
    insert-with-linear-probing walk: :meth:`BlockHashMap.build` calls it
    with a single row and the batched kernel backend with all
    collision-prone rows of a block pair, so both report bit-identical
    counters.  Rows whose Fibonacci slots are pairwise distinct never hit
    an occupied slot (whatever the insert order), so one sort-based
    duplicate scan settles them — layout = slots, one step per key.  Only
    the remaining rows are walked first come first served, in a single
    flat Python pass (a fresh generation starts from an empty table, so a
    per-row dict of taken slots is the whole table state).  An insert's
    step count is a function of the layout — one plus the cyclic distance
    from the key's hash slot to its final slot — so the walk records
    positions only.
    """
    keys = np.asarray(keys, dtype=np.int64)
    row_of_key = np.asarray(row_of_key)
    n = len(keys)
    slots = fib_hash(keys, shift)
    settled = slots, np.ones(n, dtype=np.int64)
    if n < 2:
        return settled
    if row_of_key[0] == row_of_key[-1]:
        # One row: the duplicate scan needs no row bookkeeping (this is
        # the per-row cost of the reference backend).
        if len(sorted_unique(slots)) == n:
            return settled
        walk, row_lens = slice(None), [n]
    else:
        # Compact row index per key, then the keys of colliding rows.
        new_row = np.empty(n, dtype=bool)
        new_row[0] = True
        np.not_equal(row_of_key[1:], row_of_key[:-1], out=new_row[1:])
        row_idx = np.cumsum(new_row) - 1
        collides = colliding_rows(row_idx, slots, capacity, int(row_idx[-1]) + 1)
        walk = np.nonzero(collides[row_idx])[0]
        if walk.size == 0:
            return settled
        row_lens = np.bincount(row_idx[walk])
        row_lens = row_lens[row_lens > 0].tolist()
    if max(row_lens) > capacity:  # pigeonhole: such a row always collides
        raise ValueError(
            f"cannot lay out: a row of {max(row_lens)} keys exceeds "
            f"capacity {capacity}"
        )

    mask = capacity - 1
    start = slots[walk].tolist()
    final: list[int] = []
    lo = 0
    for row_len in row_lens:
        taken: dict[int, None] = {}  # insertion-ordered: the row's layout
        for pos in start[lo : lo + row_len]:
            while pos in taken:
                pos = (pos + 1) & mask
            taken[pos] = None
        final.extend(taken)
        lo += row_len
    layout = slots.copy()
    layout[walk] = final
    return layout, ((layout - slots) & mask) + 1


class BlockHashMap:
    """Reusable integer-key hash table sized for one block's rows.

    Parameters
    ----------
    capacity:
        Table size; rounded up to a power of two (minimum 4).
    """

    def __init__(self, capacity: int):
        self.capacity = table_capacity(capacity)
        self.mask = np.int64(self.capacity - 1)
        self._shift = np.uint64(fib_shift(self.capacity))
        self._table = np.full(self.capacity, _EMPTY, dtype=np.int64)
        self._stamp = np.zeros(self.capacity, dtype=np.int64)
        self._gen = 0
        self._fast_mode = False
        self._size = 0
        self.stats = HashStats()

    # -- building -----------------------------------------------------------

    def build(self, keys: np.ndarray, allow_fast: bool = True) -> bool:
        """(Re)populate the map with ``keys`` (distinct non-negative ints).

        Returns True when the direct-mask fast path was used.  The previous
        contents are invalidated in O(1) via the generation stamp.
        """
        keys = np.asarray(keys, dtype=np.int64)
        n = len(keys)
        if n > self.capacity:
            raise ValueError(
                f"cannot build: {n} keys exceed capacity {self.capacity}"
            )
        self._gen += 1
        self._size = n
        self.stats.builds += 1
        self.stats.inserts += n
        if n == 0:
            self._fast_mode = True
            self.stats.fast_builds += 1
            return True

        if allow_fast:
            slots = keys & self.mask
            # "No collision" heuristic check: slots pairwise distinct.
            if len(sorted_unique(slots)) == n:
                self._table[slots] = keys
                self._stamp[slots] = self._gen
                self._fast_mode = True
                self.stats.fast_builds += 1
                self.stats.insert_steps += n
                return True

        # Probed build: Fibonacci hash + linear probing.
        self._fast_mode = False
        positions, steps = self.probed_layout(keys)
        self._table[positions] = keys
        self._stamp[positions] = self._gen
        self.stats.insert_steps += steps
        return False

    def probed_layout(self, keys: np.ndarray) -> tuple[np.ndarray, int]:
        """Final slot of each key and the logical step count of a probed
        build of ``keys`` into an empty table, without touching the map
        (:func:`probed_layouts` for this one row)."""
        keys = np.asarray(keys, dtype=np.int64)
        layout, steps = probed_layouts(
            keys, np.zeros(len(keys), dtype=np.int64), self.capacity, self.shift
        )
        return layout, int(steps.sum())

    # -- querying -----------------------------------------------------------

    def lookup_many(self, queries: np.ndarray) -> tuple[int, int]:
        """Count how many of ``queries`` are present.

        Returns ``(hits, steps)`` where steps is the logical probe count
        (also accumulated into :attr:`stats`).
        """
        queries = np.asarray(queries, dtype=np.int64)
        nq = len(queries)
        self.stats.lookups += nq
        if nq == 0 or self._size == 0:
            self.stats.lookup_steps += nq
            return 0, nq
        if self._fast_mode:
            slots = queries & self.mask
            hits = int(
                np.count_nonzero(
                    (self._stamp[slots] == self._gen)
                    & (self._table[slots] == queries)
                )
            )
            self.stats.lookup_steps += nq
            return hits, nq

        # Probed lookup, vectorized round by round: each round resolves the
        # queries whose current slot is empty (miss) or matches (hit).
        with np.errstate(over="ignore"):
            pos = ((queries.astype(np.uint64) * _FIB) >> self._shift).astype(
                np.int64
            )
        alive = np.ones(nq, dtype=bool)
        hits = 0
        steps = 0
        for _round in range(self.capacity + 1):
            idx = np.nonzero(alive)[0]
            if idx.size == 0:
                break
            p = pos[idx]
            steps += idx.size
            occupied = self._stamp[p] == self._gen
            match = occupied & (self._table[p] == queries[idx])
            hits += int(np.count_nonzero(match))
            resolved = match | ~occupied
            alive[idx[resolved]] = False
            pos[idx[~resolved]] = (p[~resolved] + 1) & self.mask
        self.stats.lookup_steps += steps
        return hits, steps

    def contains(self, key: int) -> bool:
        """Scalar membership test (tests and small utilities)."""
        hits, _ = self.lookup_many(np.array([key], dtype=np.int64))
        return hits == 1

    def hit_mask(self, queries: np.ndarray) -> np.ndarray:
        """Boolean membership mask for ``queries`` (used by listing
        extensions; charges the same logical step counts as
        :meth:`lookup_many`)."""
        queries = np.asarray(queries, dtype=np.int64)
        nq = len(queries)
        self.stats.lookups += nq
        out = np.zeros(nq, dtype=bool)
        if nq == 0 or self._size == 0:
            self.stats.lookup_steps += nq
            return out
        if self._fast_mode:
            slots = queries & self.mask
            out = (self._stamp[slots] == self._gen) & (
                self._table[slots] == queries
            )
            self.stats.lookup_steps += nq
            return out
        with np.errstate(over="ignore"):
            pos = ((queries.astype(np.uint64) * _FIB) >> self._shift).astype(
                np.int64
            )
        alive = np.ones(nq, dtype=bool)
        steps = 0
        for _round in range(self.capacity + 1):
            idx = np.nonzero(alive)[0]
            if idx.size == 0:
                break
            p = pos[idx]
            steps += idx.size
            occupied = self._stamp[p] == self._gen
            match = occupied & (self._table[p] == queries[idx])
            out[idx[match]] = True
            resolved = match | ~occupied
            alive[idx[resolved]] = False
            pos[idx[~resolved]] = (p[~resolved] + 1) & self.mask
        self.stats.lookup_steps += steps
        return out

    @property
    def is_fast_mode(self) -> bool:
        """Whether the current contents were built with the direct-mask
        fast path."""
        return self._fast_mode

    @property
    def shift(self) -> int:
        """Right-shift of the Fibonacci hash (``64 - log2(capacity)``)."""
        return int(self._shift)

    def __len__(self) -> int:
        return self._size

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"BlockHashMap(capacity={self.capacity}, size={self._size}, "
            f"fast={self._fast_mode})"
        )
