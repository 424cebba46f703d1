"""The worker-side entry point of the parallel superstep executor.

:func:`kernel_job` is what a :class:`~repro.simmpi.parallel.SuperstepPool`
worker runs for one rank of one Cannon epoch: it rebuilds the (task, U, L)
block triple **zero-copy** from the shared-memory arena via
:meth:`~repro.core.blocks.Block.from_blob` (the blob header's crc32 is
verified, so a corrupted segment fails loudly), runs the already-resolved
concrete kernel backend, and ships the logical
:class:`~repro.core.kernels.common.KernelStats` back as a plain dict —
the only bytes that cross the pickle channel.  It is the pool's one job:
preprocessing stays on the scheduler, its local sort and block assembly
being too short to repay a dispatch.

The rank program applies every returned result under the deterministic
scheduler (charges, counters, tracer spans, count accumulation), so each
worker computes a *pure function of the submitted bytes*: same inputs +
same config → same outputs, bit-identical to running the kernel inline.

Backend resolution happens in the **parent** (``resolve_backend`` runs
rank-side before submission) for two reasons: the ``"auto"`` choice is
part of the observable result (span labels, ``backend_uses``); and the
compiled ``"c"`` backend is built (once, by the driver's
``prepare_backend``) before the first job names it, so a worker's
``get_backend("c")`` only ever loads the cached library — no worker runs
a compiler.  Spawn workers see only the backends registered at import
time.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Sequence

import numpy as np

from repro.core.blocks import Block
from repro.core.kernels import get_backend

#: Entry-point string rank programs pass to ``ctx.offload`` (resolved by
#: import inside each spawn worker).
KERNEL_JOB_ENTRY = "repro.core.superstep:kernel_job"


def kernel_job(arrays: Sequence[np.ndarray], meta: dict) -> dict[str, Any]:
    """Run one per-rank intersection kernel from its block blobs.

    Parameters
    ----------
    arrays:
        ``(task_blob, u_blob, l_blob)`` — int64 block blobs as produced
        by :meth:`Block.to_blob`, viewed zero-copy out of the shm arena.
    meta:
        ``backend`` (concrete, non-auto backend name) and ``cfg`` (the
        run's :class:`~repro.core.config.TC2DConfig`).

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
