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

Zero-copy transport
-------------------
Input arrays travel through one ``multiprocessing.shared_memory`` arena
segment that is reused (grow-only) across dispatches, so an epoch's
operand blobs cost one ``memcpy`` into the arena and **no pickling of
array payloads**.  Workers map the segment once and rebuild zero-copy
views; only the small result dicts (a kernel's statistics) come back
through the pickle channel.

Batched dispatch
----------------
Submitting one executor future per rank costs one pickle round-trip per
job — measurably dominant when kernels are small (the fine-grained
communication failure mode; cf. communication agglomeration in
Sanders & Uhl).  A drain therefore coalesces the pending jobs into at
most ``workers`` round-robin batches and submits **one future per
batch**; a worker runs its batch back to back and returns the whole
result list in one pickle reply.  Per-job failure attribution survives
batching: an entry that raises is caught in the worker and reported per
job, so :class:`WorkerCrashError` still names the exact rank (a dead
worker process or a timeout is attributed to every rank of the batch it
was running).

Resident blocks
---------------
Arrays that are reused across many dispatches (the shift-invariant task
block and — unless a fault injector may rewrite them in flight — the
travelling U/L blobs, whose *content* is pinned by the Eq. 6 residue
invariant even as their location rotates) can be published once with
:meth:`SuperstepPool.put_resident` and referenced in later submissions
by a :class:`Resident` key instead of re-copying the bytes every epoch.
Residents live at the front of the arena segment (they survive arena
growth — the region is copied to the new segment before the old one is
unlinked) and are dropped by :meth:`SuperstepPool.reset`, which bumps
``resident_generation`` so stale keys cannot alias across engine runs.

A resident may also be **file-backed**
(:meth:`SuperstepPool.put_resident_file`): instead of copying bytes into
the arena, the slot records ``(path, offset, dtype, count)`` into an
immutable on-disk file — a store rank file
(:func:`~repro.core.blocks.read_rank_file`) — and each worker ``mmap``\\ s
the file once and rebuilds read-only views on demand.  Warm cache-hit
runs publish their U/L/task blobs this way: the block bytes go straight
from the page cache into the kernels without ever being copied through
the parent process or the arena.

Worker lifecycle (spawn, not fork)
----------------------------------
Workers are started with the explicit ``spawn`` context: each worker is
a fresh interpreter that re-imports the job's entry module, so
module-level registries (e.g. the kernel-backend registry, which
registers ``"row"``/``"batch"``/``"c"`` at import time — the compiled
library behind ``"c"`` is a file the parent built before the first job,
which a worker only loads) are rebuilt from scratch
instead of inheriting an arbitrary fork-time snapshot of the parent —
the parent's tracer, engine state and any half-initialized globals never
leak into workers.  Code that mutates module state beyond import-time
registration (e.g. ``register_backend`` of a custom backend) must pass a
``worker_init`` entry point so every worker replays that registration;
see :func:`SuperstepPool.__init__`.

A worker that dies (or an entry that raises) surfaces as the typed
:class:`~repro.simmpi.errors.WorkerCrashError` on the driver, never as a
hang or a silent partial result.
"""

from __future__ import annotations

import importlib
import mmap
import os
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures import TimeoutError as FutureTimeoutError
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
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
class WorkerSpan:
    """Real wall-time extent of one job on one pool worker.

    Unlike the engine's virtual-time spans these are *wall-clock* and
    therefore nondeterministic; they live outside the
    :class:`~repro.simmpi.tracing.Tracer` so default trace exports stay
    bit-identical across executors, and are merged into the Perfetto
    export only on request (``--trace-workers``).

    Times are ``time.perf_counter`` seconds relative to the pool's
    creation; on Linux ``perf_counter`` is ``CLOCK_MONOTONIC``, which is
    comparable across the parent and its workers.
    """

    worker: int  # worker process pid
    rank: int  # virtual rank the job was submitted for
    label: str  # display label, e.g. "kernel:batch"
    begin: float
    end: float
    dispatch: int  # which drain of the pool this job rode in

    @property
    def duration(self) -> float:
        """Wall seconds the job occupied its worker."""
        return self.end - self.begin


@dataclass
class PoolStats:
    """Cumulative wall-clock accounting of a pool's dispatches.

    The four bucket timers **partition** each :meth:`SuperstepPool.
    dispatch` call's wall time — ``serialize_s`` (arena packing, incl.
    job-list prep), ``dispatch_s`` (future submission), ``execute_s``
    (blocked in ``Future.result``) and ``collect_s`` (result/span
    bookkeeping) sum to ``wall_s`` up to float rounding — so a telemetry
    report can attribute *all* of the pool's real cost, not sample it.

    Counters are cumulative over the pool's lifetime (pools are reused
    across engine runs); per-run views subtract a
    :meth:`SuperstepPool.stats_snapshot` taken at run begin.  ``*_peak``
    fields are high-water marks and pass through deltas unchanged.
    """

    dispatches: int = 0
    jobs: int = 0
    batches: int = 0  # futures submitted (<= workers per dispatch)
    wall_s: float = 0.0
    serialize_s: float = 0.0
    dispatch_s: float = 0.0
    execute_s: float = 0.0
    collect_s: float = 0.0
    payload_bytes: int = 0  # transient bytes memcpy'd into the arena
    payload_peak: int = 0  # largest single-dispatch transient payload
    queue_peak: int = 0  # most jobs pending at any dispatch
    resident_puts: int = 0  # put_resident calls (writes into the arena)
    resident_hits: int = 0  # job inputs served from a resident slot
    resident_bytes: int = 0  # bytes written by put_resident
    #: Per-worker busy seconds (pid -> sum of job durations).
    worker_busy_s: dict[int, float] = field(default_factory=dict)

    def as_dict(self, arena_capacity: int = 0) -> dict[str, Any]:
        """JSON-serializable snapshot (telemetry-record ``pool`` field)."""
        return {
            "dispatches": self.dispatches,
            "jobs": self.jobs,
            "batches": self.batches,
            "wall_s": self.wall_s,
            "serialize_s": self.serialize_s,
            "dispatch_s": self.dispatch_s,
            "execute_s": self.execute_s,
            "collect_s": self.collect_s,
            "payload_bytes": self.payload_bytes,
            "payload_peak": self.payload_peak,
            "queue_peak": self.queue_peak,
            "resident_puts": self.resident_puts,
            "resident_hits": self.resident_hits,
            "resident_bytes": self.resident_bytes,
            "arena_capacity_bytes": arena_capacity,
            "worker_busy_s": {str(k): v for k, v in self.worker_busy_s.items()},
        }


@dataclass(frozen=True)
class Resident:
    """Marker usable in a :meth:`SuperstepPool.submit` ``arrays`` sequence:
    "this input is the resident slot published under ``key``" — the bytes
    were written into the arena by an earlier
    :meth:`~SuperstepPool.put_resident` and are *not* re-copied.

    Keys are arbitrary hashables; rank programs use structured tuples
    such as ``("task", rank)`` or ``("U", x, inner_residue)``.
    """

    key: Any


@dataclass(frozen=True)
class _JobDesc:
    """Worker-side description of one job (small and picklable)."""

    shm_name: str
    #: Per-array slot: a 3-tuple ``(byte offset, dtype string, element
    #: count)`` into the arena, or a 4-tuple ``(path, byte offset, dtype
    #: string, element count)`` into an immutable on-disk file that the
    #: worker memory-maps (file-backed residents).
    slots: tuple[tuple, ...]
    entry: str
    meta: dict
    #: Virtual rank the job belongs to (per-job failure attribution when
    #: several jobs ride one batch future).
    rank: int = -1


@dataclass
class _PendingJob:
    """Parent-side record of one submitted-but-undispatched job.

    ``arrays`` elements are either contiguous ndarrays (copied into the
    arena's transient region at dispatch) or :class:`Resident` markers
    (resolved to already-written slots, zero copies).
    """

    rank: int
    entry: str
    arrays: tuple[Any, ...]
    meta: dict
    label: str


def _aligned(nbytes: int) -> int:
    return (nbytes + _ALIGN - 1) // _ALIGN * _ALIGN


class _ShmArena:
    """One grow-only shared-memory segment reused across dispatches.

    Growing allocates a fresh segment (shm cannot be resized in place)
    and unlinks the old one; workers notice the new name on their next
    job and drop their stale mapping.  ``allocations`` counts segment
    (re)creations so tests can assert steady-state reuse.

    The first ``resident_used`` bytes are the **resident region**: slots
    written once via :meth:`SuperstepPool.put_resident` and referenced
    across many dispatches.  Growth preserves it — the bytes are copied
    into the new segment at the same offsets, so resident slot records
    stay valid across reallocations.  Transient per-dispatch payloads
    pack after it.
    """

    def __init__(self) -> None:
        self.shm: shared_memory.SharedMemory | None = None
        self.capacity = 0
        self.allocations = 0
        self.resident_used = 0

    def ensure(self, nbytes: int) -> shared_memory.SharedMemory:
        if self.shm is None or nbytes > self.capacity:
            cap = max(_MIN_ARENA_BYTES, self.capacity)
            while cap < nbytes:
                cap *= 2
            old = self.shm
            self.shm = None
            new = shared_memory.SharedMemory(create=True, size=cap)
            if old is not None and self.resident_used:
                # Keep published resident slots valid: same offsets, new
                # segment.  Only the resident prefix carries state across
                # dispatches; transient bytes are dead after each drain.
                new.buf[: self.resident_used] = old.buf[: self.resident_used]
            self._release(old)
            self.shm = new
            self.capacity = cap
            self.allocations += 1
        assert self.shm is not None
        return self.shm

    @staticmethod
    def _release(shm: shared_memory.SharedMemory | None) -> None:
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

    def close(self) -> None:
        if self.shm is not None:
            self._release(self.shm)
            self.shm = None
            self.capacity = 0
            self.resident_used = 0


# ---------------------------------------------------------------------------
# worker side (runs in spawned interpreters)
# ---------------------------------------------------------------------------

#: Arena mappings held by this worker, keyed by segment name.  At most one
#: live entry: a new name means the parent's arena grew and the old
#: segment is already unlinked, so stale mappings are closed eagerly.
_WORKER_SHM: dict[str, shared_memory.SharedMemory] = {}


def _worker_initializer(worker_init: str | None) -> None:
    """Per-worker startup hook (runs once in each spawned interpreter).

    ``worker_init`` is an optional ``"module:function"`` entry called with
    no arguments.  This is the documented place to replay module-state
    mutations that ``spawn`` does not inherit — most importantly
    registering custom kernel backends
    (:func:`repro.core.kernels.register_backend`), which only exist in
    the parent unless every worker re-registers them.
    """
    if worker_init:
        _resolve_entry(worker_init)()


def _attach_arena(name: str) -> shared_memory.SharedMemory:
    shm = _WORKER_SHM.get(name)
    if shm is None:
        for stale in list(_WORKER_SHM):
            _WORKER_SHM.pop(stale).close()
        shm = shared_memory.SharedMemory(name=name)
        _WORKER_SHM[name] = shm
    return shm


#: Read-only mmaps of file-backed resident files held by this worker,
#: keyed by path.  Store rank files are immutable (written once, then
#: only renamed), so a mapping never goes stale; at most a handful of
#: files are live per run, so no eviction is needed.
_WORKER_MMAPS: dict[str, mmap.mmap] = {}


def _attach_file(path: str) -> mmap.mmap:
    mm = _WORKER_MMAPS.get(path)
    if mm is None:
        with open(path, "rb") as fh:
            mm = mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ)
        _WORKER_MMAPS[path] = mm
    return mm


def _run_job(desc: _JobDesc) -> dict[str, Any]:
    """Execute one job in a worker: map the arena, rebuild zero-copy
    array views, run the entry, return its (picklable) result plus the
    job's wall-time extent.

    The entry receives ``(arrays, meta)`` where ``arrays`` are read-only
    views into the shared segment; it must treat them as immutable inputs
    and must not keep references past its return (the parent reuses the
    arena for the next dispatch).
    """
    t0 = time.perf_counter()
    shm = _attach_arena(desc.shm_name)
    arrays = []
    for slot in desc.slots:
        if len(slot) == 4:  # file-backed resident: map, don't copy
            path, off, dt, count = slot
            arrays.append(
                np.frombuffer(
                    _attach_file(path), dtype=np.dtype(dt), count=count,
                    offset=off,
                )
            )
        else:
            off, dt, count = slot
            arrays.append(
                np.frombuffer(
                    shm.buf, dtype=np.dtype(dt), count=count, offset=off
                )
            )
    fn = _resolve_entry(desc.entry)
    result = fn(arrays, desc.meta)
    del arrays  # release the exported buffer before the next arena swap
    return {
        "result": result,
        "t0": t0,
        "t1": time.perf_counter(),
        "worker": os.getpid(),
    }


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
            out.append(_run_job(desc))
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
        Worker process count; ``0`` means ``os.cpu_count()``.
    timeout:
        Real seconds to wait for any single job result before declaring
        the pool wedged (:class:`WorkerCrashError`); engines override it
        per dispatch with their own ``real_timeout``.
    worker_init:
        Optional ``"module:function"`` entry replayed once in every
        spawned worker (see :func:`_worker_initializer`); required when
        jobs depend on parent-side module-state mutations such as custom
        kernel-backend registrations.

    The pool outlives individual engine runs: the resilient restart
    driver and benchmark harnesses attach one pool to many engines, so
    worker spawn cost and arena allocations amortize across runs.  Use
    it as a context manager (or call :meth:`shutdown`) to release the
    workers and unlink the arena.
    """

    def __init__(
        self,
        workers: int = 0,
        *,
        timeout: float = 600.0,
        worker_init: str | None = None,
    ):
        if workers < 0:
            raise ValueError("workers must be >= 0 (0 = cpu count)")
        self.workers = workers or (os.cpu_count() or 1)
        self.timeout = timeout
        self.worker_init = worker_init
        # Explicit spawn context: see the module docstring for why fork
        # is never safe here (inherited registries, tracer state, locks).
        self._executor: ProcessPoolExecutor | None = ProcessPoolExecutor(
            max_workers=self.workers,
            mp_context=get_context("spawn"),
            initializer=_worker_initializer,
            initargs=(worker_init,),
        )
        self._arena = _ShmArena()
        self._pending: dict[int, _PendingJob] = {}
        self._results: dict[int, Any] = {}
        self._spans: list[WorkerSpan] = []
        #: Resident slots: key -> (offset, dtype str, element count) for
        #: arena slots, or (path, offset, dtype str, element count) for
        #: file-backed slots (see :meth:`put_resident_file`).
        self._resident: dict[Any, tuple] = {}
        self.resident_generation = 0
        self._t0 = time.perf_counter()
        self.dispatches = 0
        self.jobs_run = 0
        self.stats = PoolStats()
        self._telemetry: Any = None

    # -- bookkeeping --------------------------------------------------------

    @property
    def arena_allocations(self) -> int:
        """Shared-memory segment (re)creations so far (reuse metric)."""
        return self._arena.allocations

    def attach_telemetry(self, telemetry: Any) -> None:
        """Attach a :class:`~repro.instrument.telemetry.Telemetry` session
        (duck-typed: anything with ``note(kind, **detail)``) so queue
        depth, arena occupancy, per-job latency and crashes record into
        its flight recorder.  :attr:`stats` accumulates either way —
        telemetry only adds the event stream."""
        self._telemetry = telemetry

    def stats_snapshot(self) -> dict[str, Any]:
        """JSON-serializable copy of :attr:`stats` (plus current arena
        capacity).  Take one at run begin to compute per-run deltas."""
        return self.stats.as_dict(arena_capacity=self._arena.capacity)

    def pending(self) -> bool:
        """Whether any submitted job is waiting for a dispatch."""
        return bool(self._pending)

    def has_result(self, rank: int) -> bool:
        """Whether a dispatch has produced ``rank``'s result yet."""
        return rank in self._results

    def take_result(self, rank: int) -> Any:
        """Hand ``rank`` its result (once; the pool forgets it)."""
        return self._results.pop(rank)

    def drain_spans(self) -> list[WorkerSpan]:
        """Worker spans recorded since the last drain (and forget them)."""
        spans, self._spans = self._spans, []
        return spans

    def reset(self) -> None:
        """Drop pending jobs, unclaimed results and resident slots (start
        of an engine run, or teardown of an aborted one).  Workers and the
        arena segment persist; residents must be republished because a new
        run's blocks share nothing with the last run's."""
        self._pending.clear()
        self._results.clear()
        self.invalidate_residents()

    # -- resident slots -----------------------------------------------------

    def put_resident(self, key: Any, array: np.ndarray) -> None:
        """Write ``array`` into the arena's resident region under ``key``.

        The bytes are copied **once, now**; later :meth:`submit` calls
        reference them with ``Resident(key)`` at zero copy cost.
        Re-publishing an existing key with the same byte size overwrites
        the slot in place; a different size allocates a fresh slot (the
        old bytes are dead until :meth:`invalidate_residents`).  Slots do
        not survive :meth:`reset` — the generation counter bumps so
        cross-run aliasing is structurally impossible.
        """
        if self._executor is None:
            raise SimMPIError("superstep pool is shut down")
        arr = np.ascontiguousarray(array)
        slot = self._resident.get(key)
        if slot is not None and slot[1:] == (str(arr.dtype), arr.size):
            offset = slot[0]
            shm = self._arena.ensure(self._arena.resident_used)
        else:
            offset = _aligned(self._arena.resident_used)
            shm = self._arena.ensure(offset + max(int(arr.nbytes), 1))
            self._arena.resident_used = offset + int(arr.nbytes)
            self._resident[key] = (offset, str(arr.dtype), arr.size)
        buf = np.frombuffer(shm.buf, dtype=np.uint8)
        buf[offset : offset + arr.nbytes] = arr.reshape(-1).view(np.uint8)
        del buf
        self.stats.resident_puts += 1
        self.stats.resident_bytes += int(arr.nbytes)
        if self._telemetry is not None:
            self._telemetry.note(
                "pool.resident",
                key=repr(key),
                nbytes=int(arr.nbytes),
                used_bytes=self._arena.resident_used,
                generation=self.resident_generation,
            )

    def put_resident_file(
        self, key: Any, slot: tuple[str, int, str, int]
    ) -> None:
        """Publish a **file-backed** resident slot under ``key``.

        ``slot`` is ``(path, byte offset, dtype string, element count)``
        into a file that must stay byte-immutable while published (store
        rank files qualify: they are written once via atomic rename and
        never modified).  Nothing is copied anywhere — each worker
        ``mmap``\\ s the file on first use and rebuilds read-only views,
        so the bytes travel page cache → kernel with zero parent-side
        copies.  Shares the key namespace, generation semantics and
        :meth:`reset` lifecycle with :meth:`put_resident`.
        """
        if self._executor is None:
            raise SimMPIError("superstep pool is shut down")
        path, offset, dtype_str, count = slot
        nbytes = int(count) * np.dtype(dtype_str).itemsize
        self._resident[key] = (str(path), int(offset), str(dtype_str), int(count))
        self.stats.resident_puts += 1
        self.stats.resident_bytes += nbytes
        if self._telemetry is not None:
            self._telemetry.note(
                "pool.resident",
                key=repr(key),
                nbytes=nbytes,
                storage="file",
                generation=self.resident_generation,
            )

    def has_resident(self, key: Any) -> bool:
        """Whether ``key`` is currently published in the resident region."""
        return key in self._resident

    def invalidate_residents(self) -> None:
        """Drop every resident slot and bump :attr:`resident_generation`.

        The arena segment itself persists (capacity is reused); only the
        slot directory empties, so a ``Resident`` reference to a dropped
        key fails loudly at the next submit instead of silently reading
        stale bytes.
        """
        self._resident.clear()
        self._arena.resident_used = 0
        self.resident_generation += 1

    # -- the superstep ------------------------------------------------------

    def submit(
        self,
        rank: int,
        entry: str,
        arrays: Sequence[Any],
        meta: dict | None = None,
        label: str = "",
    ) -> None:
        """Queue one job for ``rank``; it runs at the next :meth:`dispatch`.

        ``entry`` is a ``"module:function"`` string resolved *in the
        worker*; it is called as ``entry(arrays, meta)`` and must return
        a picklable value containing no views into the input arrays.

        ``arrays`` elements may be ndarrays (copied into the arena at
        dispatch) or :class:`Resident` markers referencing slots already
        published with :meth:`put_resident` — an unpublished key is
        rejected here, before the rank parks on the result.
        """
        if self._executor is None:
            raise SimMPIError("superstep pool is shut down")
        if rank in self._pending or rank in self._results:
            raise SimMPIError(
                f"rank {rank} already has a superstep job in flight"
            )
        _resolve_entry(entry)  # fail fast in the parent on a bad entry
        packed: list[Any] = []
        for a in arrays:
            if isinstance(a, Resident):
                if a.key not in self._resident:
                    raise SimMPIError(
                        f"rank {rank} references unpublished resident "
                        f"block {a.key!r} (generation "
                        f"{self.resident_generation})"
                    )
                packed.append(a)
            else:
                packed.append(np.ascontiguousarray(a))
        self._pending[rank] = _PendingJob(
            rank=rank,
            entry=entry,
            arrays=tuple(packed),
            meta=dict(meta or {}),
            label=label or entry,
        )
        depth = len(self._pending)
        if depth > self.stats.queue_peak:
            self.stats.queue_peak = depth
        if self._telemetry is not None:
            self._telemetry.note(
                "pool.queue", depth=depth, rank=rank, label=label or entry
            )

    def dispatch(self, timeout: float | None = None) -> list[int]:
        """Run every pending job concurrently; return the served ranks.

        Transient arrays are packed into the arena after the resident
        region, :class:`Resident` references resolve to their published
        slots (zero copies), and the jobs are grouped round-robin into
        at most ``workers`` batch futures, one pickle round-trip each.
        Results are recorded **in rank order** so the caller's
        wake-up sequence is deterministic regardless of batching.  Any
        worker death, in-job exception or timeout raises
        :class:`WorkerCrashError` naming the failing rank (a dead worker
        or timeout names the whole batch; pending state is cleared so
        the owning engine can abort cleanly).
        """
        if self._executor is None:
            raise SimMPIError("superstep pool is shut down")
        if not self._pending:
            return []
        # Bucket accounting (see PoolStats): t_start..t_packed is
        # serialize, ..t_submitted is dispatch, the Future.result waits
        # sum to execute, and the remaining collection-loop time is
        # collect — a partition of this call's wall time.
        t_start = time.perf_counter()
        jobs = [self._pending[r] for r in sorted(self._pending)]
        limit = self.timeout if timeout is None else timeout

        base = _aligned(self._arena.resident_used)
        total = sum(
            _aligned(int(a.nbytes))
            for job in jobs
            for a in job.arrays
            if not isinstance(a, Resident)
        )
        shm = self._arena.ensure(max(base + total, 1))
        buf = np.frombuffer(shm.buf, dtype=np.uint8)
        offset = base
        resident_hits = 0
        descs: list[_JobDesc] = []
        for job in jobs:
            slots: list[tuple] = []
            for a in job.arrays:
                if isinstance(a, Resident):
                    slot = self._resident.get(a.key)
                    if slot is None:
                        del buf
                        raise SimMPIError(
                            f"rank {job.rank} references unpublished "
                            f"resident block {a.key!r}"
                        )
                    slots.append(slot)
                    resident_hits += 1
                    continue
                flat = a.reshape(-1).view(np.uint8)
                buf[offset : offset + a.nbytes] = flat
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
        t_packed = time.perf_counter()
        if self._telemetry is not None:
            self._telemetry.note(
                "pool.arena",
                used_bytes=base + total,
                resident_bytes=self._arena.resident_used,
                capacity_bytes=self._arena.capacity,
                allocations=self._arena.allocations,
                jobs=len(jobs),
            )

        # Round-robin grouping keeps batch sizes within one of each other.
        nbatches = min(self.workers, len(jobs))
        groups = [
            list(range(i, len(jobs), nbatches)) for i in range(nbatches)
        ]
        futures = [
            (idxs, self._executor.submit(_run_job_batch, [descs[i] for i in idxs]))
            for idxs in groups
        ]
        t_submitted = time.perf_counter()
        outs: dict[int, dict[str, Any]] = {}
        execute_s = 0.0
        served: list[int] = []
        try:
            for idxs, fut in futures:
                batch_ranks = [jobs[i].rank for i in idxs]
                t_wait = time.perf_counter()
                try:
                    batch_out = fut.result(timeout=limit)
                except BrokenProcessPool as exc:
                    reason = (
                        "worker process died mid-job "
                        f"(batch ranks {batch_ranks})"
                    )
                    self._note_crash(batch_ranks[0], reason)
                    raise WorkerCrashError(batch_ranks[0], reason) from exc
                except FutureTimeoutError as exc:
                    reason = (
                        f"no result within {limit}s of real time "
                        f"(worker wedged? batch ranks {batch_ranks})"
                    )
                    self._note_crash(batch_ranks[0], reason)
                    raise WorkerCrashError(batch_ranks[0], reason) from exc
                except Exception as exc:
                    reason = f"job raised {type(exc).__name__}: {exc}"
                    self._note_crash(batch_ranks[0], reason)
                    raise WorkerCrashError(batch_ranks[0], reason) from exc
                execute_s += time.perf_counter() - t_wait
                for i, out in zip(idxs, batch_out):
                    if "error" in out:
                        # The entry raised inside the worker; the batch
                        # survived, so attribution is exact.
                        reason = f"job raised {out['error']}"
                        self._note_crash(out.get("rank", jobs[i].rank), reason)
                        raise WorkerCrashError(
                            out.get("rank", jobs[i].rank), reason
                        )
                    outs[i] = out
            # All futures resolved; record results/spans in rank order so
            # downstream bookkeeping is batching-invariant.
            for i, job in enumerate(jobs):
                out = outs[i]
                self._results[job.rank] = out["result"]
                self._spans.append(
                    WorkerSpan(
                        worker=out["worker"],
                        rank=job.rank,
                        label=job.label,
                        begin=out["t0"] - self._t0,
                        end=out["t1"] - self._t0,
                        dispatch=self.dispatches,
                    )
                )
                served.append(job.rank)
                self.jobs_run += 1
                busy = out["t1"] - out["t0"]
                self.stats.worker_busy_s[out["worker"]] = (
                    self.stats.worker_busy_s.get(out["worker"], 0.0) + busy
                )
                if self._telemetry is not None:
                    # Dispatch latency: submission to worker start (IPC +
                    # queueing in the executor), comparable because
                    # perf_counter is CLOCK_MONOTONIC across processes.
                    self._telemetry.note(
                        "pool.job",
                        rank=job.rank,
                        label=job.label,
                        worker=out["worker"],
                        dispatch=self.dispatches,
                        latency_s=out["t0"] - t_submitted,
                        exec_s=busy,
                    )
        finally:
            self._pending.clear()
        t_end = time.perf_counter()
        st = self.stats
        st.dispatches += 1
        st.jobs += len(served)
        st.batches += len(futures)
        st.wall_s += t_end - t_start
        st.serialize_s += t_packed - t_start
        st.dispatch_s += t_submitted - t_packed
        st.execute_s += execute_s
        st.collect_s += (t_end - t_submitted) - execute_s
        st.payload_bytes += total
        st.resident_hits += resident_hits
        if total > st.payload_peak:
            st.payload_peak = total
        if self._telemetry is not None:
            self._telemetry.note(
                "pool.dispatch",
                dispatch=self.dispatches,
                jobs=len(served),
                batches=len(futures),
                wall_s=t_end - t_start,
                serialize_s=t_packed - t_start,
                dispatch_s=t_submitted - t_packed,
                execute_s=execute_s,
                collect_s=(t_end - t_submitted) - execute_s,
                payload_bytes=total,
                resident_hits=resident_hits,
            )
        self.dispatches += 1
        return served

    def _note_crash(self, rank: int, reason: str) -> None:
        """Record a worker crash into the attached telemetry (if any)
        before the typed error propagates — the driver's crash dump then
        carries the failing dispatch's event trail."""
        if self._telemetry is not None:
            self._telemetry.note("pool.crash", rank=rank, reason=reason)

    # -- lifecycle ----------------------------------------------------------

    def shutdown(self) -> None:
        """Stop the workers and unlink the arena (idempotent)."""
        if self._executor is not None:
            self._executor.shutdown(wait=True, cancel_futures=True)
            self._executor = None
        self._arena.close()
        self._pending.clear()
        self._results.clear()
        self._resident.clear()

    def __enter__(self) -> "SuperstepPool":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.shutdown()

    def __del__(self) -> None:  # pragma: no cover - GC-order dependent
        try:
            self.shutdown()
        except Exception:
            pass
