"""Distribution load-balance analysis (Section 5.1's design argument).

The paper argues that a naive 2D *block* partitioning of the task matrix
is doubly imbalanced — the upper-triangular structure empties the blocks
on one side of the diagonal, and the degree ordering concentrates heavy
rows/columns at high indices — while a cell-by-cell *cyclic* distribution
assigns every rank a near-equal share of tasks, light and heavy alike.

This module quantifies that claim: :func:`task_distribution_stats`
computes the exact per-rank task counts the two schemes would assign for a
given graph and grid, and the associated imbalance ratios.  It also
weights tasks by the work of their map-based intersection (the product of
fragment lengths), since equal task counts with unequal task costs is
precisely the failure mode the degree ordering induces.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.grid import ProcessorGrid
from repro.graph.csr import Graph

SCHEMES = ("cyclic", "block")


@dataclass(frozen=True)
class DistributionStats:
    """Per-rank task load under one distribution scheme.

    Attributes
    ----------
    scheme:
        ``"cyclic"`` (the paper's choice) or ``"block"`` (the naive
        alternative it rejects).
    tasks_per_rank:
        Number of C[L] non-zeros each rank owns.
    work_per_rank:
        Intersection work proxy per rank: sum over owned tasks of
        ``min(d_U(j), d_U(i))`` (the probe-side fragment bound).
    """

    scheme: str
    tasks_per_rank: np.ndarray
    work_per_rank: np.ndarray

    @property
    def task_imbalance(self) -> float:
        """max/avg ratio of per-rank task counts (1.0 = perfect)."""
        avg = self.tasks_per_rank.mean()
        return float(self.tasks_per_rank.max() / avg) if avg > 0 else 1.0

    @property
    def work_imbalance(self) -> float:
        """max/avg ratio of per-rank intersection work."""
        avg = self.work_per_rank.mean()
        return float(self.work_per_rank.max() / avg) if avg > 0 else 1.0

    @property
    def empty_ranks(self) -> int:
        """Ranks that receive no tasks at all."""
        return int(np.count_nonzero(self.tasks_per_rank == 0))


def task_distribution_stats(
    graph: Graph, p: int, scheme: str = "cyclic"
) -> DistributionStats:
    """Exact per-rank task loads for C[L] under a 2D distribution scheme.

    The graph is degree-reordered first (as the algorithm always does);
    tasks are the non-zeros of L, i.e. each edge (i, j) with j the later
    endpoint produces the task at matrix cell (j, i).
    """
    if scheme not in SCHEMES:
        raise ValueError(f"scheme must be one of {SCHEMES}, got {scheme!r}")
    grid = ProcessorGrid.for_ranks(p)
    q = grid.q
    U = graph.degree_order_upper()
    rows, cols = U.to_coo()  # (i, j) with i < j in degree order
    # Task cell = (j, i) in L.
    tj, ti = cols, rows
    n = graph.n
    if scheme == "cyclic":
        owner = (tj % q) * q + (ti % q)
    else:
        block = max(1, (n + q - 1) // q)
        owner = np.minimum(tj // block, q - 1) * q + np.minimum(ti // block, q - 1)

    tasks_per_rank = np.bincount(owner, minlength=p).astype(np.int64)

    # Work proxy: probe-side fragment length bound per task.
    du = U.row_lengths().astype(np.int64)
    work = np.minimum(du[ti], du[tj])
    work_per_rank = np.zeros(p, dtype=np.int64)
    np.add.at(work_per_rank, owner, work)

    return DistributionStats(
        scheme=scheme,
        tasks_per_rank=tasks_per_rank,
        work_per_rank=work_per_rank,
    )


def compare_distributions(graph: Graph, p: int) -> dict[str, DistributionStats]:
    """Both schemes side by side (the Section 5.1 design comparison)."""
    return {s: task_distribution_stats(graph, p, s) for s in SCHEMES}
