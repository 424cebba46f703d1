"""Worker-side entry points for the parallel superstep executor.

:func:`kernel_job` is what a :class:`~repro.simmpi.parallel.SuperstepPool`
worker runs for one rank of one Cannon epoch: it rebuilds the (task, U, L)
block triple **zero-copy** from the shared-memory arena via
:meth:`~repro.core.blocks.Block.from_blob` (the blob header's crc32 is
verified, so a corrupted segment fails loudly), runs the already-resolved
concrete kernel backend, and ships the logical
:class:`~repro.core.kernels.common.KernelStats` back as a plain dict —
the only bytes that cross the pickle channel.

:func:`sort_job` and :func:`build_blocks_job` offload the preprocessing
hot phases the same way (whenever a pool is attached): the counting sort's
local placement and the U/L/task block assembly + blob serialization.  Their
outputs are arrays, which would be expensive to pickle, so they return
through :func:`~repro.simmpi.parallel.pack_result_arrays` — a worker-
created shared-memory segment the parent adopts and unlinks.

The rank program applies every returned result under the deterministic
scheduler (charges, counters, tracer spans, count accumulation), so each
worker computes a *pure function of the submitted bytes*: same inputs +
same config → same outputs, bit-identical to running the phase inline.

Backend resolution happens in the **parent** (``resolve_backend`` runs
rank-side before submission) for two reasons: the ``"auto"`` choice is
part of the observable result (span labels, ``backend_uses``), and
custom backends registered only in the parent process do not exist in
spawn workers unless a ``worker_init`` hook re-registers them — see
:func:`repro.simmpi.parallel._worker_initializer`.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Sequence

import numpy as np

from repro.core.blocks import Block
from repro.core.kernels import get_backend
from repro.core.preprocess import assemble_blocks, counting_sort_placement
from repro.simmpi.parallel import pack_result_arrays

#: Entry-point string rank programs pass to ``ctx.offload`` (resolved by
#: import inside each spawn worker).
KERNEL_JOB_ENTRY = "repro.core.superstep:kernel_job"

#: Preprocessing offload entries (see :mod:`repro.core.preprocess`, which
#: spells them as literals to avoid a circular import of this module).
SORT_JOB_ENTRY = "repro.core.superstep:sort_job"
BUILD_JOB_ENTRY = "repro.core.superstep:build_blocks_job"


def kernel_job(arrays: Sequence[np.ndarray], meta: dict) -> dict[str, Any]:
    """Run one per-rank intersection kernel from its block blobs.

    Parameters
    ----------
    arrays:
        ``(task_blob, u_blob, l_blob)`` — int64 block blobs as produced
        by :meth:`Block.to_blob`, viewed zero-copy out of the shm arena.
    meta:
        ``backend`` (concrete, non-auto backend name) and ``cfg`` (the
        run's :class:`~repro.core.config.TC2DConfig`); ``rank`` and
        ``shift`` ride along for error messages and worker-span tooling.

    Returns
    -------
    dict
        ``dataclasses.asdict`` of the kernel's ``KernelStats`` — plain
        ints, no views into the arena.
    """
    task_blob, u_blob, l_blob = arrays
    task_block = Block.from_blob(task_blob)
    u_block = Block.from_blob(u_blob)
    l_block = Block.from_blob(l_blob)
    kernel_fn = get_backend(meta["backend"])
    stats = kernel_fn(task_block, u_block, l_block, meta["cfg"])
    return dataclasses.asdict(stats)


def sort_job(arrays: Sequence[np.ndarray], meta: dict) -> dict[str, Any]:
    """Run the counting sort's pure local placement for one rank.

    ``arrays`` is ``(d, global_start, prior)`` — the owned degrees and
    the two exclusive-scan tables the collectives produced rank-side.
    Returns the relabeling table through a shm-return segment (it is
    ``n_local`` int64s — too big to pickle pointlessly).
    """
    d, global_start, prior = arrays
    return pack_result_arrays([counting_sort_placement(d, global_start, prior)])


def build_blocks_job(arrays: Sequence[np.ndarray], meta: dict) -> dict[str, Any]:
    """Assemble one rank's (U, L, task) blocks and serialize the blobs.

    ``arrays`` is the flattened received U/L coordinate pairs; ``meta``
    carries the grid scalars (``x, y, q, n_rows_local, n_cols_local,
    n_inner, enumeration``).  Returns the three ``Block.to_blob`` images
    through a shm-return segment; the parent reconstructs with the
    crc-verifying ``Block.from_blob`` — the same representation blocks
    already use for shifting and checkpointing, so offloaded assembly is
    bit-identical to inline assembly.
    """
    u_flat, l_flat = arrays
    u_recv = u_flat.reshape(-1, 2)
    l_recv = l_flat.reshape(-1, 2)
    u_block, l_block, task_block = assemble_blocks(
        u_recv,
        l_recv,
        meta["x"],
        meta["y"],
        meta["q"],
        meta["n_rows_local"],
        meta["n_cols_local"],
        meta["n_inner"],
        meta["enumeration"],
    )
    return pack_result_arrays(
        [u_block.to_blob(), l_block.to_blob(), task_block.to_blob()]
    )
