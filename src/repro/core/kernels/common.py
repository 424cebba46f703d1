"""Shared pieces of the intersection-kernel backends.

Every backend — row-wise reference, batched, or anything registered later —
consumes the same ``(task, U, L)`` block triple, produces the same
:class:`KernelStats`, and sizes its hash map with the same
:func:`kernel_capacity` rule.  Keeping these here (rather than in one
backend module) is what makes the backends interchangeable: the logical
operation counters are part of the kernel *contract*, not an
implementation detail, because the simulated machine model turns them into
virtual time (Table 4 / Figure 2 read them directly).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.blocks import Block
from repro.graph.dcsr import DCSR


@dataclass
class KernelStats:
    """Logical operation counts from one (or more) kernel invocations."""

    row_visits: int = 0
    tasks: int = 0  # tasks reaching the map-based intersection (Table 4)
    hash_builds: int = 0
    hash_fast_builds: int = 0
    insert_steps_fast: int = 0  # direct-mask (collision-free) inserts
    insert_steps_slow: int = 0  # multiplicative-hash probed inserts
    probe_steps_fast: int = 0  # single-compare lookups in fast-mode maps
    probe_steps_slow: int = 0  # probed lookups (incl. collision hops)
    probes_skipped: int = 0  # candidates eliminated by the early stop
    triangles: int = 0

    @property
    def hash_insert_steps(self) -> int:
        """Total insert steps, fast (bitmask) plus slow (probed) path."""
        return self.insert_steps_fast + self.insert_steps_slow

    @property
    def probe_steps(self) -> int:
        """Total probe steps, fast (bitmask) plus slow (probed) path."""
        return self.probe_steps_fast + self.probe_steps_slow

    def merge(self, other: "KernelStats") -> None:
        """Accumulate another block-pair's counters into this record."""
        self.row_visits += other.row_visits
        self.tasks += other.tasks
        self.hash_builds += other.hash_builds
        self.hash_fast_builds += other.hash_fast_builds
        self.insert_steps_fast += other.insert_steps_fast
        self.insert_steps_slow += other.insert_steps_slow
        self.probe_steps_fast += other.probe_steps_fast
        self.probe_steps_slow += other.probe_steps_slow
        self.probes_skipped += other.probes_skipped
        self.triangles += other.triangles


def kernel_capacity(u_dcsr: DCSR) -> int:
    """Hash-map capacity for one block sweep: the longest local fragment,
    at least 4.

    Every backend must size its map with this exact rule: the capacity
    fixes the slot mask, and the slot mask decides which rows take the
    collision-free fast path, which is observable in the logical counters.
    """
    return max(4, u_dcsr.max_row_length())


def require_aligned(u_block: Block, l_block: Block) -> None:
    """Reject operand blocks whose inner residues disagree (Equation 6)."""
    if u_block.inner_residue != l_block.inner_residue:
        raise ValueError(
            "operand blocks misaligned: U carries residue "
            f"{u_block.inner_residue}, L carries {l_block.inner_residue} "
            "(Cannon shift mismatch)"
        )
