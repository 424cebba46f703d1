"""Auto-dispatch heuristic for the intersection-kernel backends.

The ``"auto"`` backend picks ``"c"`` for every block pair when the
compiled library loaded on this host (it was 5-20x faster than
``"batch"`` on every measured block pair, the smallest included, and
the tier-1 speed-order gate
``tests/core/test_kernels_registry.py::test_backends_keep_their_speed_order``
keeps it no slower, so no shape rule is needed), and otherwise ``"row"``
or ``"batch"`` per block pair from cheap shape statistics — numbers
already sitting in the DCSR headers, so the decision costs a few scalar
reads per Cannon shift.  All backends return identical results and
identical logical counters, so the choice only ever affects wall time; a
bad guess is a performance bug, never a correctness bug.  No
:class:`TC2DConfig` toggle enters the decision: with modified hashing
off every build is probed, and the batch backend lays all probed rows
out in one bulk call, so it wins there as well.
"""

from __future__ import annotations

from repro.core.blocks import Block
from repro.core.config import TC2DConfig
from repro.core.kernels import compiled

#: Blocks with at least this many non-empty task rows always batch: the
#: batched plan's fixed setup cost amortizes over rows saved.
AUTO_MIN_ROWS = 8
#: Below AUTO_MIN_ROWS, batch only when there is real per-row volume:
#: enough task entries overall and a long-enough mean task row.
AUTO_MIN_NNZ = 64
AUTO_MIN_MEAN_ROW_LEN = 4.0


def block_shape_stats(task_block: Block) -> tuple[int, int, float]:
    """``(nnz, nonempty_rows, mean_row_length)`` of the task block."""
    t = task_block.dcsr
    nnz = t.nnz
    nrows = len(t.nonempty_rows)
    return nnz, nrows, (nnz / nrows if nrows else 0.0)


def choose_backend(
    task_block: Block, u_block: Block, l_block: Block, cfg: TC2DConfig
) -> str:
    """Pick ``"c"``, ``"row"`` or ``"batch"`` for one block pair."""
    if compiled.available():
        return "c"
    nnz, nrows, mean_len = block_shape_stats(task_block)
    if nnz == 0 or nrows == 0:
        return "row"  # nothing to do; skip the batch plan setup
    if nrows >= AUTO_MIN_ROWS:
        return "batch"
    if nnz >= AUTO_MIN_NNZ and mean_len >= AUTO_MIN_MEAN_ROW_LEN:
        return "batch"
    return "row"
