"""Processor-grid index arithmetic for the 2D cyclic decomposition.

The paper arranges ``p`` ranks as a ``sqrt(p) x sqrt(p)`` grid; matrix
element (i, j) lives on grid position ``(i % q, j % q)`` with local indices
``(i // q, j // q)`` (Section 5.1: "the adjacency list of a vertex vi is
accessed using the transformed index vi / sqrt(p)").  This module
centralizes that arithmetic plus the Cannon shift/skew partner formulas so
the algorithm and its tests share one source of truth.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


def exact_sqrt(p: int) -> int:
    """Integer square root of a perfect square of at least 1; raises
    otherwise."""
    if p < 1:
        raise ValueError(f"the rank count must be at least 1, got p={p}")
    q = math.isqrt(p)
    if q * q != p:
        raise ValueError(
            f"the 2D algorithm needs a perfect-square rank count, got p={p}"
        )
    return q


@dataclass(frozen=True)
class ProcessorGrid:
    """A ``q x q`` grid over ranks ``0..q*q-1`` in row-major order."""

    q: int

    @property
    def p(self) -> int:
        """Total rank count."""
        return self.q * self.q

    @classmethod
    def for_ranks(cls, p: int) -> "ProcessorGrid":
        """Grid for a perfect-square total rank count."""
        return cls(exact_sqrt(p))

    # -- rank <-> coordinates ------------------------------------------------

    def coords(self, rank: int) -> tuple[int, int]:
        """Grid coordinates (row x, col y) of a rank."""
        if not 0 <= rank < self.p:
            raise ValueError(f"rank {rank} outside grid of {self.p}")
        return divmod(rank, self.q)[0], rank % self.q

    def rank_of(self, x: int, y: int) -> int:
        """Rank at grid position (x, y) (coordinates taken mod q)."""
        return (x % self.q) * self.q + (y % self.q)

    # -- element / block ownership --------------------------------------------

    def owner_of_entry(self, i: int, j: int) -> int:
        """Rank owning matrix element (i, j) under cell-by-cell cyclic
        distribution."""
        return self.rank_of(i % self.q, j % self.q)

    def local_id(self, v: int) -> int:
        """Transformed local index of global id ``v`` (``v // q``)."""
        return v // self.q

    def local_count(self, residue: int, n: int) -> int:
        """How many of the ids ``0..n-1`` are congruent to ``residue``."""
        if n <= residue:
            return 0
        return (n - residue + self.q - 1) // self.q

    def global_id(self, residue: int, local: int) -> int:
        """Inverse of (residue, local_id): ``local * q + residue``."""
        return local * self.q + residue

    # -- Cannon movement -------------------------------------------------------
    #
    # Equation 6: at step z, P(x, y) works on U_{x, (x+y+z)%q} and
    # L_{(x+y+z)%q, y}.  (The prose in Section 5.1 states the initial-skew
    # destination with the opposite sign; the formulas here follow
    # Equation 6, which is the self-consistent version.)

    def skew_u(self, x: int, y: int) -> tuple[int, int]:
        """(dest, source) ranks for the initial skew of the local U block
        held by P(x, y)."""
        dest = self.rank_of(x, y - x)
        src = self.rank_of(x, y + x)
        return dest, src

    def skew_l(self, x: int, y: int) -> tuple[int, int]:
        """(dest, source) ranks for the initial skew of the local L block."""
        dest = self.rank_of(x - y, y)
        src = self.rank_of(x + y, y)
        return dest, src

    def shift_u(self, x: int, y: int) -> tuple[int, int]:
        """(dest, source) for the per-step leftward shift of U blocks."""
        return self.rank_of(x, y - 1), self.rank_of(x, y + 1)

    def shift_l(self, x: int, y: int) -> tuple[int, int]:
        """(dest, source) for the per-step upward shift of L blocks."""
        return self.rank_of(x - 1, y), self.rank_of(x + 1, y)

    def operand_residue(self, x: int, y: int, z: int) -> int:
        """The inner residue z' = (x + y + z) % q processed at step z."""
        return (x + y + z) % self.q
