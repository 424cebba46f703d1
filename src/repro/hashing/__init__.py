"""Hash-map machinery for map-based set intersection.

The 2D algorithm intersects adjacency-list fragments by hashing one list
and probing it with the other (Section 3.1 of the paper).  This package
provides the open-addressing map (:class:`BlockHashMap`) with the paper's
"modified hashing routine for sparser vertices": fragments short enough to
be collision-free are inserted with a direct ``key & mask`` placement and
probed with a single vectorized compare, skipping linear probing entirely
(Section 5.2).  :func:`probed_layouts` is the one linear-probing insert
walk — the map builds with it one row at a time, the bulk form lays out
every collision-prone row in one call.  :func:`build_and_lookup` is that
bulk form of a per-row build + ``lookup_many`` loop over many rows, with
the map's exact counters; the batched kernel backend and the 1D
competitors (AOP, Surrogate, OPT-PSP) count with it.
"""

from repro.hashing.hashmap import (
    BlockHashMap,
    HashStats,
    build_and_lookup,
    probed_layouts,
)

__all__ = [
    "BlockHashMap",
    "HashStats",
    "build_and_lookup",
    "probed_layouts",
]
