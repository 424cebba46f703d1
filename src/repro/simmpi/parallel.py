"""Shared-memory parallel superstep executor for the SPMD engine.

The engine's cooperative scheduler runs one virtual rank at a time, which
keeps execution deterministic but leaves every core except one idle.  The
paper's Cannon schedule, however, makes each shift epoch's per-rank
counting kernels *data-independent* (the Eq. 6 residue invariant pins
every operand before any kernel runs), so the heavy compute of one epoch
is an embarrassingly parallel batch.  :class:`SuperstepPool` exploits
exactly that structure:

* a rank program calls :meth:`~repro.simmpi.engine.RankContext.offload`
  at a compute site, handing the pool its input arrays and a picklable
  ``meta`` dict, and blocks (in *real* time only — the virtual clock
  never sees the pool);
* when the scheduler finds no runnable rank, it drains the pool: every
  pending job is dispatched to a persistent ``multiprocessing`` worker
  pool and the results are collected **in rank order**;
* the submitting ranks resume one at a time under the normal
  deterministic schedule and apply their results (charges, tracer
  records, count deltas) exactly as the sequential executor would.

Because the pool only ever computes *pure functions of the submitted
bytes* and every state mutation happens rank-side under the sequential
scheduler, counts, virtual clocks, counters, traces and profile reports
are bit-identical to a sequential run — the pool can only change wall
time.

Transport
---------
Input arrays travel through one ``multiprocessing.shared_memory`` arena
segment that is reused (grow-only) across dispatches, so an epoch's
operand blobs cost one ``memcpy`` into the arena and **no pickling of
array payloads**.  Workers map the segment once and rebuild zero-copy
views; only the small result dicts (a kernel's statistics) come back
through the pickle channel.

A drain coalesces the pending jobs into at most ``workers`` round-robin
batches and submits **one future per batch**; a worker runs its batch
back to back and returns the whole result list in one pickle reply.
Per-job failure attribution survives batching: an entry that raises is
caught in the worker and reported per job, so :class:`WorkerCrashError`
still names the exact rank (a dead worker process or a timeout is
attributed to every rank of the batch it was running).

Workers are started with the explicit ``spawn`` context: each worker is
a fresh interpreter that re-imports the job's entry module, so
module-level registries (e.g. the kernel-backend registry, which
registers ``"row"``/``"batch"``/``"c"`` at import time — the compiled
library behind ``"c"`` is a file the parent built before the first job,
which a worker only loads) are rebuilt from scratch instead of
inheriting an arbitrary fork-time snapshot of the parent — the parent's
tracer, engine state and any half-initialized globals never leak into
workers.

A worker that dies (or an entry that raises) surfaces as the typed
:class:`~repro.simmpi.errors.WorkerCrashError` on the driver, never as a
hang or a silent partial result.
"""

from __future__ import annotations

import importlib
import os
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures import TimeoutError as FutureTimeoutError
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from multiprocessing import get_context, shared_memory
from typing import Any, Callable, Sequence

import numpy as np

from repro.simmpi.errors import SimMPIError, WorkerCrashError

#: Smallest arena allocation; grow-only doubling starts here.
_MIN_ARENA_BYTES = 1 << 16

#: Slot alignment inside the arena (int64 payloads want 8-byte offsets).
_ALIGN = 8


def _resolve_entry(entry: str) -> Callable:
    """Import ``"package.module:function"`` and return the function.

    Entry points are strings (not callables) because jobs cross a process
    boundary: the worker re-imports the module in its own interpreter,
    which is what makes ``spawn`` workers immune to unpicklable closures.
    """
    mod_name, sep, fn_name = entry.partition(":")
    if not sep or not mod_name or not fn_name:
        raise ValueError(
            f"entry must look like 'package.module:function', got {entry!r}"
        )
    fn = getattr(importlib.import_module(mod_name), fn_name, None)
    if fn is None:
        raise ValueError(f"module {mod_name!r} has no attribute {fn_name!r}")
    return fn


@dataclass(frozen=True)
class _JobDesc:
    """Worker-side description of one job (small and picklable)."""

    shm_name: str
    #: Per-array ``(byte offset, dtype string, element count)`` in the arena.
    slots: tuple[tuple[int, str, int], ...]
    entry: str
    meta: dict
    #: Virtual rank the job belongs to (per-job failure attribution when
    #: several jobs ride one batch future).
    rank: int = -1


@dataclass
class _PendingJob:
    """Parent-side record of one submitted-but-undispatched job; its
    ``arrays`` are copied into the arena at dispatch."""

    rank: int
    entry: str
    arrays: tuple[np.ndarray, ...]
    meta: dict


def _aligned(nbytes: int) -> int:
    return (nbytes + _ALIGN - 1) // _ALIGN * _ALIGN


class _ShmArena:
    """One grow-only shared-memory segment reused across dispatches.

    Growing allocates a fresh segment (shm cannot be resized in place)
    and unlinks the old one; workers notice the new name on their next
    job and drop their stale mapping.  ``allocations`` counts segment
    (re)creations so tests can assert steady-state reuse.
    """

    def __init__(self) -> None:
        self.shm: shared_memory.SharedMemory | None = None
        self.capacity = 0
        self.allocations = 0

    def ensure(self, nbytes: int) -> shared_memory.SharedMemory:
        if self.shm is None or nbytes > self.capacity:
            cap = max(_MIN_ARENA_BYTES, self.capacity)
            while cap < nbytes:
                cap *= 2
            self.close()
            self.shm = shared_memory.SharedMemory(create=True, size=cap)
            self.capacity = cap
            self.allocations += 1
        return self.shm

    def close(self) -> None:
        shm, self.shm, self.capacity = self.shm, None, 0
        if shm is None:
            return
        try:
            shm.close()
        except BufferError:  # pragma: no cover - view pinned by a frame
            pass  # unlink below still frees the name; mapping dies later
        try:
            shm.unlink()
        except FileNotFoundError:  # pragma: no cover - already gone
            pass


# ---------------------------------------------------------------------------
# worker side (runs in spawned interpreters)
# ---------------------------------------------------------------------------

#: Arena mappings held by this worker, keyed by segment name.  At most one
#: live entry: a new name means the parent's arena grew and the old
#: segment is already unlinked, so stale mappings are closed eagerly.
_WORKER_SHM: dict[str, shared_memory.SharedMemory] = {}


def _attach_arena(name: str) -> shared_memory.SharedMemory:
    shm = _WORKER_SHM.get(name)
    if shm is None:
        for stale in list(_WORKER_SHM):
            _WORKER_SHM.pop(stale).close()
        shm = shared_memory.SharedMemory(name=name)
        _WORKER_SHM[name] = shm
    return shm


def _run_job(desc: _JobDesc) -> Any:
    """Execute one job in a worker: map the arena, rebuild zero-copy
    array views, run the entry and return its (picklable) result.

    The entry receives ``(arrays, meta)`` where ``arrays`` are read-only
    views into the shared segment; it must treat them as immutable inputs
    and must not keep references past its return (the parent reuses the
    arena for the next dispatch).
    """
    shm = _attach_arena(desc.shm_name)
    arrays = [
        np.frombuffer(shm.buf, dtype=np.dtype(dt), count=count, offset=off)
        for off, dt, count in desc.slots
    ]
    result = _resolve_entry(desc.entry)(arrays, desc.meta)
    del arrays  # release the exported buffer before the next arena swap
    return result


def _run_job_batch(descs: Sequence[_JobDesc]) -> list[dict[str, Any]]:
    """Execute a batch of jobs back to back in one worker (one pickle
    round-trip for the whole list — the communication-agglomeration move
    that makes small kernels worth dispatching at all).

    Per-job exceptions are caught and returned as ``{"error", "rank"}``
    records instead of poisoning the batch future, so the parent can
    attribute the failure to the exact rank even though several ranks
    shared the future.  (A worker *death* still breaks the future; the
    parent then blames every rank of the batch.)
    """
    out: list[dict[str, Any]] = []
    for desc in descs:
        try:
            out.append({"result": _run_job(desc)})
        except BaseException as exc:
            out.append(
                {
                    "error": f"{type(exc).__name__}: {exc}",
                    "rank": desc.rank,
                }
            )
    return out


def _crash_for_tests(arrays: Sequence[np.ndarray], meta: dict) -> None:
    """Job entry that kills its worker process (crash-path tests only)."""
    os._exit(int(meta.get("code", 17)))


# ---------------------------------------------------------------------------
# parent side
# ---------------------------------------------------------------------------


class SuperstepPool:
    """Persistent spawn-context worker pool with a shared-memory arena.

    Parameters
    ----------
    workers:
        Worker process count; ``0`` means the CPUs this process may run
        on (its scheduling affinity, which a container or ``taskset``
        may set below ``os.cpu_count()``).
    timeout:
        Real seconds to wait for any single job result before declaring
        the pool wedged (:class:`WorkerCrashError`); engines override it
        per dispatch with their own ``real_timeout``.

    The pool outlives individual engine runs: a caller may attach one
    pool to many engines, so worker spawn cost and arena allocations
    amortize across runs.  Use it as a context manager (or call
    :meth:`shutdown`) to release the workers and unlink the arena.
    """

    def __init__(self, workers: int = 0, *, timeout: float = 600.0):
        if workers < 0:
            raise ValueError("workers must be >= 0 (0 = usable CPUs)")
        if not workers:
            from repro.instrument.telemetry import usable_cpus

            workers = usable_cpus()
        self.workers = workers
        self.timeout = timeout
        # Explicit spawn context: see the module docstring for why fork
        # is never safe here (inherited registries, tracer state, locks).
        self._executor: ProcessPoolExecutor | None = ProcessPoolExecutor(
            max_workers=self.workers, mp_context=get_context("spawn")
        )
        self._arena = _ShmArena()
        self._pending: dict[int, _PendingJob] = {}
        self._results: dict[int, Any] = {}

    @property
    def arena_allocations(self) -> int:
        """Shared-memory segment (re)creations so far (reuse metric)."""
        return self._arena.allocations

    def pending(self) -> bool:
        """Whether any submitted job is waiting for a dispatch."""
        return bool(self._pending)

    def has_result(self, rank: int) -> bool:
        """Whether a dispatch has produced ``rank``'s result yet."""
        return rank in self._results

    def take_result(self, rank: int) -> Any:
        """Hand ``rank`` its result (once; the pool forgets it)."""
        return self._results.pop(rank)

    def reset(self) -> None:
        """Drop pending jobs and unclaimed results (start of an engine
        run, or teardown of an aborted one).  Workers and the arena
        segment persist."""
        self._pending.clear()
        self._results.clear()

    def submit(
        self,
        rank: int,
        entry: str,
        arrays: Sequence[np.ndarray],
        meta: dict | None = None,
    ) -> None:
        """Queue one job for ``rank``; it runs at the next :meth:`dispatch`.

        ``entry`` is a ``"module:function"`` string resolved *in the
        worker*; it is called as ``entry(arrays, meta)`` and must return
        a picklable value containing no views into the input arrays.
        The arrays are copied into the arena at dispatch.
        """
        if self._executor is None:
            raise SimMPIError("superstep pool is shut down")
        if rank in self._pending or rank in self._results:
            raise SimMPIError(
                f"rank {rank} already has a superstep job in flight"
            )
        _resolve_entry(entry)  # fail fast in the parent on a bad entry
        self._pending[rank] = _PendingJob(
            rank=rank,
            entry=entry,
            arrays=tuple(np.ascontiguousarray(a) for a in arrays),
            meta=dict(meta or {}),
        )

    def dispatch(self, timeout: float | None = None) -> list[int]:
        """Run every pending job concurrently; return the served ranks.

        The arrays are packed into the arena and the jobs are grouped
        round-robin into at most ``workers`` batch futures, one pickle
        round-trip each.  Results are recorded **in rank order** so the
        caller's wake-up sequence is deterministic regardless of
        batching.  Any worker death, in-job exception or timeout raises
        :class:`WorkerCrashError` naming the failing rank (a dead worker
        or timeout names the whole batch; pending state is cleared so
        the owning engine can abort cleanly).
        """
        if self._executor is None:
            raise SimMPIError("superstep pool is shut down")
        if not self._pending:
            return []
        jobs = [self._pending[r] for r in sorted(self._pending)]
        limit = self.timeout if timeout is None else timeout

        total = sum(_aligned(int(a.nbytes)) for job in jobs for a in job.arrays)
        shm = self._arena.ensure(max(total, 1))
        buf = np.frombuffer(shm.buf, dtype=np.uint8)
        offset = 0
        descs: list[_JobDesc] = []
        for job in jobs:
            slots = []
            for a in job.arrays:
                buf[offset : offset + a.nbytes] = a.reshape(-1).view(np.uint8)
                slots.append((offset, str(a.dtype), a.size))
                offset += _aligned(int(a.nbytes))
            descs.append(
                _JobDesc(
                    shm_name=shm.name,
                    slots=tuple(slots),
                    entry=job.entry,
                    meta=job.meta,
                    rank=job.rank,
                )
            )
        # Drop the packing view *before* anything can raise: a propagating
        # exception keeps this frame alive in its traceback, and a live
        # numpy view into the segment would make shm.close() fail with
        # BufferError at shutdown.
        del buf

        # Round-robin grouping keeps batch sizes within one of each other.
        nbatches = min(self.workers, len(jobs))
        groups = [
            list(range(i, len(jobs), nbatches)) for i in range(nbatches)
        ]
        futures = [
            (idxs, self._executor.submit(_run_job_batch, [descs[i] for i in idxs]))
            for idxs in groups
        ]
        outs: dict[int, dict[str, Any]] = {}
        try:
            for idxs, fut in futures:
                batch_ranks = [jobs[i].rank for i in idxs]
                try:
                    batch_out = fut.result(timeout=limit)
                except BrokenProcessPool as exc:
                    raise WorkerCrashError(
                        batch_ranks[0],
                        f"worker process died mid-job (batch ranks {batch_ranks})",
                    ) from exc
                except FutureTimeoutError as exc:
                    raise WorkerCrashError(
                        batch_ranks[0],
                        f"no result within {limit}s of real time "
                        f"(worker wedged? batch ranks {batch_ranks})",
                    ) from exc
                except Exception as exc:
                    raise WorkerCrashError(
                        batch_ranks[0], f"job raised {type(exc).__name__}: {exc}"
                    ) from exc
                for i, out in zip(idxs, batch_out):
                    if "error" in out:
                        # The entry raised inside the worker; the batch
                        # survived, so attribution is exact.
                        raise WorkerCrashError(
                            out.get("rank", jobs[i].rank),
                            f"job raised {out['error']}",
                        )
                    outs[i] = out
            # All futures resolved; record results in rank order so
            # downstream bookkeeping is batching-invariant.
            for i, job in enumerate(jobs):
                self._results[job.rank] = outs[i]["result"]
        finally:
            self._pending.clear()
        return [job.rank for job in jobs]

    # -- lifecycle ----------------------------------------------------------

    def shutdown(self) -> None:
        """Stop the workers and unlink the arena (idempotent)."""
        if self._executor is not None:
            self._executor.shutdown(wait=True, cancel_futures=True)
            self._executor = None
        self._arena.close()
        self._pending.clear()
        self._results.clear()

    def __enter__(self) -> "SuperstepPool":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.shutdown()

    def __del__(self) -> None:  # pragma: no cover - GC-order dependent
        try:
            self.shutdown()
        except Exception:
            pass
