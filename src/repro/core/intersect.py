"""Map-based block intersection (the per-shift compute step).

For the task block C[L] (jik enumeration), a task at (row j, column i)
contributes ``|U_j  intersect  L_col_i|`` triangles, where both fragments
are restricted to the current inner residue z'.  The actual work is done
by one of the interchangeable backends in :mod:`repro.core.kernels`:

* ``"row"`` — the reference per-row loop (hash build per row, probe per
  task), a direct transcription of the paper's Section 5.2 kernel;
* ``"batch"`` — fully vectorized bulk gathers + one ``searchsorted``
  membership pass, with only collision-afflicted rows replayed through
  the hash map;
* ``"c"`` — the reference loop as one C file, compiled with ``cc`` on
  first use (unavailable — a typed error — on a host that cannot);
* ``"auto"`` — ``"c"`` where it loaded, else a per-block-pair choice from
  cheap shape statistics.

:func:`count_block_pair` resolves ``cfg.kernel_backend`` and delegates.
Operation counts are *logical* (what a scalar C implementation would
execute); backends only change wall time, never the counters or the
modeled virtual time — see ``docs/kernels.md`` for the contract and the
microbenchmark harness that protects it.
"""

from __future__ import annotations

import numpy as np

from repro.core.blocks import Block
from repro.core.config import TC2DConfig
from repro.core.kernels import KernelStats, kernel_capacity, resolve_backend

__all__ = ["KernelStats", "count_block_pair", "kernel_capacity"]


def count_block_pair(
    task_block: Block,
    u_block: Block,
    l_block: Block,
    cfg: TC2DConfig,
    support_out: np.ndarray | None = None,
    backend: str | None = None,
) -> KernelStats:
    """Count the triangles closed by one (task, U, L) block triple.

    When ``support_out`` is given (length = task nnz, aligned with the task
    block's CSR order), per-task triangle counts are accumulated into it —
    the hook the k-truss/support extension uses.

    ``backend`` overrides ``cfg.kernel_backend`` (``"row"``, ``"batch"``,
    ``"c"`` or ``"auto"``) for this call.

    Returns a :class:`KernelStats`; the triangle count is
    ``stats.triangles``.
    """
    name = backend if backend is not None else cfg.kernel_backend
    _, fn = resolve_backend(name, task_block, u_block, l_block, cfg)
    return fn(task_block, u_block, l_block, cfg, support_out)
