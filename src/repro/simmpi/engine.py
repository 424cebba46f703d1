"""SPMD execution engine: virtual ranks, scheduling, message delivery.

The engine runs ``p`` rank programs on ``p`` real threads, but only one
thread executes at any moment: whoever holds the *execution token*.  A rank
runs until it blocks on communication (or finishes); it then picks the next
runnable rank itself — round-robin from a cursor kept on the engine — wakes
that rank's thread and parks its own.  This gives normal blocking-style rank
code (no generators, no async) while keeping execution fully deterministic
and immune to GIL scheduling noise, at the price of one thread hand-off per
block.

Parking is one raw ``_thread`` lock per rank, allocated held: ``acquire``
parks, a ``release`` from the thread passing the token wakes, and the woken
``acquire`` leaves the lock held for the next park.

The scheduler thread (the caller of :meth:`Engine.run`) holds the token only
when there is something to decide: at start-up, when **no rank is runnable**
(every rank finished: return; a superstep batch is pending: dispatch it;
otherwise: report the deadlock) and when a rank failed (unwind the rest).
In between it sleeps on its own lock in windows of ``real_timeout`` seconds
and declares the run wedged when a whole window passes without a single
hand-off between ranks.

Virtual time: every rank owns a :class:`~repro.simmpi.clock.RankClock`.
Sends are eager (buffered): the sender pays only a small injection overhead
and the message is stamped with its wire arrival time
``sender_now + alpha + beta * nbytes``.  A receive completes at
``max(receiver_now, arrival)``; any gap is accounted as communication
(waiting) time, which is exactly what the paper's Figure 3 measures.
"""

from __future__ import annotations

import _thread
import itertools
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator, Sequence

import numpy as np

from repro.simmpi.clock import PhaseStats, RankClock
from repro.simmpi.comm import (
    _COLL_TAG,
    _ENVELOPE,
    _MISMATCH_HINT,
    ANY_SOURCE,
    ANY_TAG,
    Comm,
)
from repro.simmpi.costmodel import MachineModel, item_sizes, payload_nbytes
from repro.simmpi.errors import (
    CollectiveMismatchError,
    DeadlockError,
    RankCrashError,
    RankFailedError,
    SimMPIError,
)
from repro.simmpi.tracing import Tracer

_NEW, _READY, _RUNNING, _BLOCKED, _FINISHED, _FAILED = range(6)


class _Abort(BaseException):
    """Injected into parked rank threads to unwind them after a failure.

    Derives from ``BaseException`` so user-level ``except Exception``
    handlers cannot swallow it.
    """


@dataclass(slots=True)
class _Message:
    """An in-flight (delivered-but-unreceived) message.

    ``seq`` numbers messages in global send order (what matching orders
    by); ``trace_seq`` is the canonical number the trace records carry
    (:meth:`Engine._trace_seq`).
    """

    seq: int
    trace_seq: int
    src: int
    dst: int
    tag: int
    comm_id: int
    payload: Any
    nbytes: int
    arrival: float


class _Rendezvous:
    """One open all-to-all: the send lists deposited so far and, once the
    last member has arrived, what every member receives."""

    __slots__ = ("seq", "comm_id", "members", "sends", "recvs")

    def __init__(self, seq: int, comm_id: Any, members: list[int]):
        self.seq = seq
        self.comm_id = comm_id
        self.members = members
        #: Communicator rank -> its send list, in arrival order.
        self.sends: dict[int, Sequence[Any]] = {}
        #: Communicator rank -> its receive list; ``None`` while open.
        self.recvs: list[list[Any]] | None = None

    def __str__(self) -> str:
        return f"alltoall#{self.seq}(comm={self.comm_id})"


class _RankState:
    """Book-keeping for one virtual rank."""

    def __init__(self, rank: int):
        self.rank = rank
        self.state = _NEW
        #: Parking lock, held whenever the rank is not being woken: the
        #: rank parks by acquiring it, the token passer wakes it by
        #: releasing it.
        self.park = _thread.allocate_lock()
        self.park.acquire()
        self.thread: threading.Thread | None = None
        self.mailbox: list[_Message] = []
        self.blocked_on: str = ""
        self.result: Any = None
        self.error: BaseException | None = None


@dataclass
class RunResult:
    """Outcome of one :meth:`Engine.run` call.

    Attributes
    ----------
    returns:
        Per-rank return values of the program, indexed by rank.
    clocks:
        Per-rank :class:`RankClock` with final times and phase stats.
    counters:
        Per-rank operation counters (``kind -> count``) accumulated by
        :meth:`RankContext.charge`.
    tracer:
        The run's :class:`Tracer` (empty unless tracing was enabled).
    yields:
        How many times a rank blocked and gave up the execution token —
        one real thread hand-off each, the engine's dominant wall-clock
        cost at large ``p``.
    scheduler_wakeups:
        How many times the scheduler thread was woken to decide something
        (no rank runnable, or a rank failed).
    """

    returns: list[Any]
    clocks: list[RankClock]
    counters: list[dict[str, float]]
    tracer: Tracer
    mem_peaks: list[int] = field(default_factory=list)
    yields: int = 0
    scheduler_wakeups: int = 0

    @property
    def num_ranks(self) -> int:
        """Number of ranks the run executed (``p``)."""
        return len(self.returns)

    @property
    def makespan(self) -> float:
        """Virtual time at which the last rank finished."""
        return max(c.now for c in self.clocks)

    def phase_names(self) -> list[str]:
        """All phase names recorded by any rank, sorted."""
        names: set[str] = set()
        for c in self.clocks:
            names.update(c.phases)
        return sorted(names)

    def phase_stats(self, name: str) -> list[PhaseStats]:
        """Per-rank stats for phase ``name`` (only ranks that entered it)."""
        return [c.phases[name] for c in self.clocks if name in c.phases]

    def phase_time(self, name: str) -> float:
        """Reported wall time of a phase: latest end minus earliest start,
        the way an MPI program timed around barriers reports it."""
        stats = self.phase_stats(name)
        if not stats:
            raise KeyError(f"no rank recorded phase {name!r}")
        return max(s.end for s in stats) - min(s.start for s in stats)

    def phase_comm_fraction(self, name: str) -> float:
        """Aggregate fraction of phase time spent in communication."""
        stats = self.phase_stats(name)
        comm = sum(s.comm for s in stats)
        compute = sum(s.compute for s in stats)
        total = comm + compute
        return comm / total if total > 0 else 0.0

    def counter_total(self, kind: str) -> float:
        """Sum of one operation counter over all ranks."""
        return sum(c.get(kind, 0.0) for c in self.counters)


class RankContext:
    """Per-rank handle passed to the SPMD program.

    Exposes the rank id, the world communicator, the virtual clock, and the
    instrumentation entry points (:meth:`charge`, :meth:`phase`).
    """

    def __init__(self, engine: "Engine", rank: int):
        self.engine = engine
        self.rank = rank
        self.num_ranks = engine.num_ranks
        self.clock = RankClock(rank)
        self.counters: dict[str, float] = {}
        self.comm = Comm(engine, rank, list(range(engine.num_ranks)), comm_id=0)
        self.mem_bytes = 0
        self.mem_peak = 0
        #: Open telemetry phase frames: ``[name, enter_wall, parked_s]``.
        #: Parked time (this rank waiting while others run — see
        #: ``Engine._yield_token``) is subtracted at phase exit so
        #: the reported wall time is *executing* wall time, immune to the
        #: scheduler's serialized phase interleaving across ranks.
        self._tele_frames: list[list] = []

    def alloc_mem(self, nbytes: int) -> None:
        """Account ``nbytes`` of live data structures on this rank.

        The engine does not police real allocations; algorithms call this
        (and :meth:`free_mem`) around their long-lived structures so the
        per-rank memory high-water mark — the paper's memory-scalability
        argument for Cannon's pattern — can be reported.
        """
        self.mem_bytes += int(nbytes)
        if self.mem_bytes > self.mem_peak:
            self.mem_peak = self.mem_bytes

    def free_mem(self, nbytes: int) -> None:
        """Release ``nbytes`` previously accounted via :meth:`alloc_mem`."""
        self.mem_bytes = max(0, self.mem_bytes - int(nbytes))

    @property
    def model(self) -> MachineModel:
        """The engine's machine cost model."""
        return self.engine.model

    @property
    def tracer(self) -> Tracer:
        """The engine's tracer (check ``enabled`` before building a record)."""
        return self.engine.tracer

    def charge(
        self, kind: str, count: float, working_set_bytes: float | None = None
    ) -> None:
        """Account ``count`` operations of ``kind`` as local compute.

        Advances the virtual clock by the model's compute time and
        accumulates the raw count in :attr:`counters` (Table 4 / Figure 2
        read these counters, so kernels must charge *logical* operation
        counts, independent of how the Python implementation vectorizes).
        """
        if count == 0:
            return
        dt = self.engine.model.compute_time(kind, count, working_set_bytes)
        t0 = self.clock.now
        self.clock.advance_compute(dt)
        self.counters[kind] = self.counters.get(kind, 0.0) + count
        tr = self.engine.tracer
        if tr.enabled:
            tr.span_point(
                t0, self.clock.now, self.rank, "compute", kind, count=count
            )

    def fault_point(self, site: str) -> None:
        """Consult the engine's fault injector at a named execution site.

        Rank programs call this at phase boundaries and shift steps (the
        engine itself calls it at every :meth:`phase` begin) so a seeded
        :class:`~repro.resilience.faults.FaultPlan` can stall or crash the
        rank there.  A no-op (one attribute check) when no injector is
        installed.  Injected stalls advance the virtual clock; injected
        crashes raise :class:`RankCrashError`, which surfaces on the driver
        as a :class:`RankFailedError` for the recovery layer to catch.
        """
        inj = self.engine.faults
        if inj is None:
            return
        act = inj.at_point(self.rank, site)
        if act is None:
            return
        tr = self.engine.tracer
        if act.kind == "stall":
            t0 = self.clock.now
            self.clock.advance_compute(act.delay)
            if tr.enabled:
                tr.span_point(
                    t0, self.clock.now, self.rank, "fault", "fault:stall",
                    site=site, delay=act.delay,
                )
        elif act.kind == "crash":
            if tr.enabled:
                tr.span_point(
                    self.clock.now, self.clock.now, self.rank, "fault",
                    "fault:crash", site=site,
                )
            raise RankCrashError(self.rank, site)
        else:  # pragma: no cover - plan validation rejects other kinds
            raise SimMPIError(f"unknown point-fault kind {act.kind!r}")

    def offload(
        self,
        entry: str,
        arrays: Any,
        meta: dict | None = None,
        label: str = "",
    ) -> Any:
        """Run ``entry(arrays, meta)`` on the engine's superstep pool.

        Blocks this virtual rank in *real* time only: the job is queued,
        the rank parks, and once the scheduler has run every other rank
        to its own blocking point the whole batch executes concurrently
        on the pool's worker processes (see
        :mod:`repro.simmpi.parallel`).  The virtual clock does not
        advance — callers account the returned result's logical cost
        with :meth:`charge` exactly as they would for inline compute, so
        offloading is invisible to virtual time, counters and traces.

        Requires a pool attached at engine construction
        (``Engine(..., superstep=pool)``); raises
        :class:`~repro.simmpi.errors.SimMPIError` otherwise.
        """
        return self.engine.offload_rank(self.rank, entry, arrays, meta, label)

    def put_resident(self, key: Any, array: Any) -> None:
        """Publish ``array`` into the superstep pool's resident arena
        region under ``key`` (see
        :meth:`repro.simmpi.parallel.SuperstepPool.put_resident`).

        Later :meth:`offload` calls reference the slot with
        ``Resident(key)`` instead of re-shipping the bytes — the move
        for inputs whose content is invariant across epochs.  Publishing
        is a real-time-only side effect: the virtual clock, counters and
        traces never see it.  Requires a pool attached at engine
        construction.
        """
        pool = self.engine.superstep
        if pool is None:
            raise SimMPIError(
                "no superstep pool attached to this engine; construct it "
                "with Engine(..., superstep=SuperstepPool(...)) or use the "
                "sequential executor"
            )
        pool.put_resident(key, array)

    def put_resident_file(self, key: Any, slot: Any) -> None:
        """Publish a **file-backed** resident slot under ``key`` (see
        :meth:`repro.simmpi.parallel.SuperstepPool.put_resident_file`).

        ``slot`` is ``(path, byte offset, dtype string, element count)``
        into an immutable file; workers mmap it instead of receiving a
        copy through the arena — how warm cache-hit runs serve their
        store-resident block blobs with zero parent-side copies.
        """
        pool = self.engine.superstep
        if pool is None:
            raise SimMPIError(
                "no superstep pool attached to this engine; construct it "
                "with Engine(..., superstep=SuperstepPool(...)) or use the "
                "sequential executor"
            )
        pool.put_resident_file(key, slot)

    def has_resident(self, key: Any) -> bool:
        """Whether ``key`` is published on the pool (False without one)."""
        pool = self.engine.superstep
        return pool is not None and pool.has_resident(key)

    @contextmanager
    def phase(self, name: str) -> Iterator[PhaseStats]:
        """Scope a named timing phase (nestable)."""
        self.fault_point(f"phase:{name}")
        tr = self.engine.tracer
        tele = self.engine.telemetry
        ph = self.clock.phase_begin(name)
        span = None
        if tr.enabled:
            span = tr.span_begin(self.clock.now, self.rank, "phase", ph.name)
        if tele is not None:
            self._tele_frames.append([ph.name, time.perf_counter(), 0.0])
        try:
            yield ph
        finally:
            self.clock.phase_end(ph)
            if tr.enabled:
                tr.span_end(self.clock.now, span)
            # Top level: a nested phase's name carries its parent's path.
            if ph.name == name:
                tr.phase_closed(self.rank, name, ph.elapsed)
            if tele is not None and self._tele_frames:
                fname, t_enter, parked = self._tele_frames.pop()
                tele.phase_exit(
                    self.rank, fname, time.perf_counter() - t_enter - parked
                )


class Engine:
    """Deterministic single-process SPMD engine.

    Parameters
    ----------
    num_ranks:
        Number of virtual ranks (``p``).
    model:
        Machine cost model; defaults to :class:`MachineModel()`.
    trace:
        When true, record a full span trace (see :class:`Tracer`).  A
        :class:`Tracer` *instance* is adopted as-is; its progress hooks
        (:meth:`Tracer.phase_closed`, :meth:`Tracer.cache_loaded`) are
        called whether or not it records.
    real_timeout:
        Real (wall-clock) seconds without a single hand-off between ranks
        after which the scheduler thread declares the run wedged: it
        checks once per ``real_timeout`` window, so a rank that never
        yields is reported after at most twice that long.  Also bounds one
        superstep dispatch and the final join of each rank thread.  This
        is a safety net for engine bugs, not part of the simulation.
    fault_injector:
        Optional deterministic fault injector (duck-typed; see
        :class:`~repro.resilience.faults.FaultInjector` for the reference
        implementation).  The engine consults it at two kinds of site:

        * ``on_send(src, dst, tag, comm_id, nbytes, payload)`` for every
          wire message; a returned action with ``kind`` ``"drop"``,
          ``"delay"`` (extra ``action.delay`` seconds of wire latency),
          ``"dup"`` (deliver twice) or ``"corrupt"`` (deliver
          ``action.payload`` instead) perturbs the delivery;
        * ``at_point(rank, site)`` at named execution sites
          (:meth:`RankContext.fault_point`); ``"stall"`` advances the
          rank's clock by ``action.delay``, ``"crash"`` raises
          :class:`RankCrashError`.

        Every injected fault is recorded by the tracer as one
        ``cat="fault"`` span named ``fault:<kind>``, so faults are visible
        in the Perfetto export next to the message they perturbed.
    telemetry:
        Optional :class:`~repro.instrument.telemetry.Telemetry` session.
        When attached, every :meth:`RankContext.phase` exit reports its
        *executing* wall time (scheduler-parked time subtracted) into the
        session's flight recorder and per-phase accumulators.  ``None``
        (the default) costs one attribute check per phase and per yield;
        virtual clocks, counters and traces are bit-identical either way
        (telemetry only observes real time, never simulated state).
    superstep:
        Optional :class:`~repro.simmpi.parallel.SuperstepPool`.  When
        attached, rank programs may call :meth:`RankContext.offload` to
        fan pure compute jobs out to real worker processes: jobs queue
        while ranks run, and the scheduler drains the pool whenever no
        rank is runnable, so an epoch's data-independent jobs execute
        concurrently without perturbing virtual time or determinism.
        The pool is *borrowed*, never owned: it survives (and is reused
        across) engine runs, and the caller shuts it down.
    """

    def __init__(
        self,
        num_ranks: int,
        model: MachineModel | None = None,
        trace: bool | Tracer = False,
        real_timeout: float = 600.0,
        fault_injector: Any = None,
        superstep: Any = None,
        telemetry: Any = None,
    ):
        if num_ranks < 1:
            raise ValueError("num_ranks must be >= 1")
        self.num_ranks = num_ranks
        self.model = model if model is not None else MachineModel()
        if isinstance(trace, Tracer):
            self.tracer = trace
        else:
            self.tracer = Tracer(enabled=bool(trace))
        self.real_timeout = real_timeout
        self.faults = fault_injector
        self.superstep = superstep
        self.telemetry = telemetry
        self._states: list[_RankState] = []
        self._ctxs: list[RankContext] = []
        self._seq = itertools.count()
        #: Wire messages each world rank has sent this run (see _trace_seq).
        self._sent: list[int] = []
        #: Open all-to-all rendezvous by communicator id (a communicator
        #: has at most one).  Owned by whoever holds the execution token.
        self._rendezvous: dict[Any, _Rendezvous] = {}
        #: Where the scheduler thread parks (same protocol as a rank's
        #: ``park`` lock); replaced at the start of every run.
        self._sched_lock = _thread.allocate_lock()
        self._aborting = False
        self._failed = False
        #: Round-robin position: the search for the next runnable rank
        #: starts here.  Owned by whoever holds the execution token.
        self._cursor = 0
        self._running_rank: int = -1
        self._handoffs = 0
        self._yields = 0
        self._sched_wakeups = 0

    # ------------------------------------------------------------------
    # driver side
    # ------------------------------------------------------------------

    def run(self, program: Callable[..., Any], *args: Any, **kwargs: Any) -> RunResult:
        """Execute ``program(ctx, *args, **kwargs)`` on every rank.

        Returns a :class:`RunResult`; raises :class:`RankFailedError` if any
        rank program raised, or :class:`DeadlockError` if all unfinished
        ranks blocked with no message able to unblock them.
        """
        self._states = [_RankState(r) for r in range(self.num_ranks)]
        self._ctxs = [RankContext(self, r) for r in range(self.num_ranks)]
        self._aborting = False
        self._failed = False
        self._cursor = 0
        self._handoffs = self._yields = self._sched_wakeups = 0
        self._sent = [0] * self.num_ranks
        # Deposits of a run aborted mid-collective must not leak into this one.
        self._rendezvous = {}
        # An aborted earlier run may have left the old lock in either state.
        self._sched_lock = _thread.allocate_lock()
        self._sched_lock.acquire()
        if self.superstep is not None:
            # Jobs of an aborted earlier run must not leak into this one.
            self.superstep.reset()

        for st in self._states:
            st.thread = threading.Thread(
                target=self._thread_main,
                args=(st, program, args, kwargs),
                name=f"simmpi-rank-{st.rank}",
                daemon=True,
            )
            st.state = _READY
            st.thread.start()

        try:
            self._schedule_loop()
        finally:
            if any(st.state not in (_FINISHED, _FAILED) for st in self._states):
                self._abort_parked_ranks()
            for st in self._states:
                if st.thread is not None:
                    st.thread.join(timeout=self.real_timeout)

        failed = [st for st in self._states if st.state == _FAILED]
        if failed:
            st = failed[0]
            assert st.error is not None
            raise RankFailedError(st.rank, st.error) from st.error

        return RunResult(
            returns=[st.result for st in self._states],
            clocks=[ctx.clock for ctx in self._ctxs],
            counters=[ctx.counters for ctx in self._ctxs],
            tracer=self.tracer,
            mem_peaks=[ctx.mem_peak for ctx in self._ctxs],
            yields=self._yields,
            scheduler_wakeups=self._sched_wakeups,
        )

    def _schedule_loop(self) -> None:
        """Scheduler-thread side: decide what happens when no rank holds
        the token (start-up, nothing runnable, a rank failed)."""
        while True:
            nxt = self._pick_runnable()
            if nxt is None and self.superstep is not None and self.superstep.pending():
                # Superstep barrier: every rank that could run has either
                # finished, blocked on a receive, or parked behind an
                # offloaded job — the pending batch is as large as it can
                # get, so this is the moment real parallelism happens.
                # dispatch() serves results in rank order; the served
                # ranks rejoin the deterministic round-robin schedule.
                for r in self.superstep.dispatch(timeout=self.real_timeout):
                    st = self._states[r]
                    if st.state == _BLOCKED:
                        st.state = _READY
                continue
            if nxt is None:
                unfinished = {
                    st.rank: st.blocked_on or "blocked"
                    for st in self._states
                    if st.state not in (_FINISHED, _FAILED)
                }
                if not unfinished:
                    return  # all done
                for rv in self._rendezvous.values():
                    for r in rv.sends:
                        unfinished[rv.members[r]] += (
                            f" {len(rv.sends)} of {len(rv.members)} arrived"
                        )
                self._abort_parked_ranks()
                raise DeadlockError(unfinished)
            self._resume(nxt)
            self._await_wakeup()
            self._sched_wakeups += 1
            if self._failed:
                self._abort_parked_ranks()
                return

    def _await_wakeup(self) -> None:
        """Park the scheduler thread until a rank hands it the token.

        The ranks pass the token among themselves without involving this
        thread, so a long silence is normal; a wedged run is one where the
        hand-off count stood still for a whole ``real_timeout`` window.
        """
        while True:
            seen = self._handoffs
            if self._sched_lock.acquire(timeout=self.real_timeout):
                return
            if self._handoffs == seen:
                raise SimMPIError(
                    f"rank {self._running_rank} did not yield within "
                    f"{self.real_timeout}s of real time; the run is wedged"
                )

    def _abort_parked_ranks(self) -> None:
        """Wake every unfinished rank so that it unwinds with ``_Abort``.

        Normally called with the token in hand.  On a wedge (or an
        interrupt) one rank is still running; it sees ``_aborting`` at its
        next yield and unwinds too.
        """
        self._aborting = True
        for st in self._states:
            # locked(): a rank woken by an earlier abort call may not have
            # recorded its exit yet, and releasing twice is an error.
            if st.state not in (_FINISHED, _FAILED) and st.park.locked():
                st.park.release()

    # ------------------------------------------------------------------
    # token passing (run by whichever thread holds the execution token)
    # ------------------------------------------------------------------

    def _pick_runnable(self) -> int | None:
        """First ``_READY`` rank at or after the cursor, wrapping around."""
        states = self._states
        cursor = self._cursor
        for r in range(cursor, self.num_ranks):
            if states[r].state == _READY:
                return r
        for r in range(cursor):
            if states[r].state == _READY:
                return r
        return None

    def _resume(self, rank: int) -> None:
        """Hand the execution token to ``rank`` and wake its thread."""
        st = self._states[rank]
        self._cursor = (rank + 1) % self.num_ranks
        st.state = _RUNNING
        self._running_rank = rank
        self._handoffs += 1
        st.park.release()

    def _pass_token(self) -> None:
        """Give up the token: the calling rank just blocked or finished.

        The next runnable rank in round-robin order gets it directly; the
        scheduler thread is woken only when there is none, or when the
        caller failed and the run has to be torn down.
        """
        if not self._failed:
            nxt = self._pick_runnable()
            if nxt is not None:
                self._resume(nxt)
                return
        self._sched_lock.release()

    # ------------------------------------------------------------------
    # rank-thread side
    # ------------------------------------------------------------------

    def _thread_main(
        self,
        st: _RankState,
        program: Callable[..., Any],
        args: tuple,
        kwargs: dict,
    ) -> None:
        # Park until someone hands us the execution token.
        st.park.acquire()
        if self._aborting:
            st.state = _FINISHED
            return
        try:
            st.result = program(self._ctxs[st.rank], *args, **kwargs)
            st.state = _FINISHED
        except _Abort:
            st.state = _FINISHED
        except BaseException as exc:  # noqa: BLE001 - reported to the driver
            st.error = exc
            st.state = _FAILED
            self._failed = True
        # Under an abort the scheduler thread is unwinding everyone and
        # nobody waits for the token.
        if not self._aborting:
            self._pass_token()

    def _yield_token(self, st: _RankState) -> None:
        """Pass the execution token on and park until it comes back.

        With telemetry attached, the park duration is added to every open
        phase frame of this rank so phase exits can report executing wall
        time: the engine serializes rank execution, so without this
        correction a phase's wall time would mostly measure *other ranks*
        running (e.g. after the cache barrier, rank 0 executes its whole
        first tct epoch before rank 1 leaves its empty ppt phase).
        """
        tele = self.telemetry
        t_park = time.perf_counter() if tele is not None else 0.0
        self._yields += 1
        if not self._aborting:
            self._pass_token()
            st.park.acquire()
        if tele is not None:
            parked = time.perf_counter() - t_park
            for frame in self._ctxs[st.rank]._tele_frames:
                frame[2] += parked
        if self._aborting:
            raise _Abort()

    def _block(self, rank: int, why: str) -> None:
        """Mark ``rank`` blocked and yield; returns once rescheduled."""
        st = self._states[rank]
        st.state = _BLOCKED
        st.blocked_on = why
        self._yield_token(st)
        st.blocked_on = ""

    # ------------------------------------------------------------------
    # messaging primitives (called from rank threads via Comm)
    # ------------------------------------------------------------------

    def post_send(
        self,
        src: int,
        dst: int,
        tag: int,
        comm_id: int,
        payload: Any,
        coll_op: str | None = None,
    ) -> None:
        """Eagerly deliver a message into ``dst``'s mailbox.

        LogGP-style accounting: the *sender* pays the injection overhead
        plus the byte serialization time (its NIC pushes the bytes out
        one message at a time, so back-to-back sends serialize), and the
        message then arrives one wire latency (alpha) later.  ``coll_op``
        names the send record of a message sent from inside a collective,
        so trace consumers can attribute wire traffic to
        ``bcast``/``alltoall``/... instead of raw sends.
        """
        ctx = self._ctxs[src]
        nbytes = payload_nbytes(payload)
        t0 = ctx.clock.now
        ctx.clock.advance_comm(self.model.send_overhead + self.model.beta * nbytes)
        arrival = ctx.clock.now + self.model.alpha
        seq = next(self._seq)
        trace_seq = self._trace_seq(src)
        copies = 1
        fault = (
            self.faults.on_send(src, dst, tag, comm_id, nbytes, payload)
            if self.faults is not None
            else None
        )
        if fault is not None:
            # The sender already paid its full injection cost above: from
            # its point of view the send succeeded, the network misbehaves.
            if self.tracer.enabled:
                self.tracer.span_point(
                    t0, ctx.clock.now, src, "fault", f"fault:{fault.kind}",
                    site="send", dst=dst, nbytes=nbytes, tag=tag,
                )
            if fault.kind == "drop":
                return  # vanished on the wire; no delivery
            if fault.kind == "delay":
                arrival += fault.delay
            elif fault.kind == "corrupt":
                payload = fault.payload
            elif fault.kind == "dup":
                copies = 2
            else:
                raise SimMPIError(f"unknown message-fault kind {fault.kind!r}")
        dst_state = self._states[dst]
        for i in range(copies):
            dst_state.mailbox.append(
                _Message(
                    seq if i == 0 else next(self._seq),
                    trace_seq if i == 0 else self._trace_seq(src),
                    src, dst, tag, comm_id, payload, nbytes, arrival,
                )
            )
        if self.tracer.enabled:
            self.tracer.span_point(
                t0, ctx.clock.now, src, "comm",
                coll_op if coll_op is not None else "send",
                dst=dst, nbytes=nbytes, tag=tag, arrival=arrival, seq=trace_seq,
            )
        # A parked receiver might now have a match; let it re-check.
        if dst_state.state == _BLOCKED:
            dst_state.state = _READY

    def wait_recv(
        self, rank: int, source: int, tag: int, comm_id: int
    ) -> tuple[Any, int, int]:
        """Blocking receive; returns ``(payload, actual_source, actual_tag)``.

        Matching follows MPI semantics: the earliest-sent message from a
        matching (source, tag, communicator) is delivered; per-pair order is
        never overtaken.  Waiting time (gap between the receive post and the
        message's wire arrival) is charged as communication.
        """
        st = self._states[rank]
        ctx = self._ctxs[rank]
        while True:
            idx = self._match(st.mailbox, source, tag, comm_id)
            if idx is not None:
                msg = st.mailbox.pop(idx)
                waited = ctx.clock.wait_until(msg.arrival)
                if self.tracer.enabled:
                    # One wait record per completed receive; a message that
                    # was already there is a zero-length wait.
                    self.tracer.span_point(
                        ctx.clock.now - waited, ctx.clock.now, rank,
                        "comm", "wait", src=msg.src, nbytes=msg.nbytes,
                        tag=msg.tag, waited=waited, seq=msg.trace_seq,
                    )
                return msg.payload, msg.src, msg.tag
            self._block(
                rank,
                f"recv(source={'ANY' if source == ANY_SOURCE else source}, "
                f"tag={'ANY' if tag == ANY_TAG else tag}, comm={comm_id})",
            )

    def _trace_seq(self, src: int) -> int:
        """Number ``src``'s next wire message for the trace.

        The number is ``n * num_ranks + src`` for the sender's ``n``-th
        message of the run: unique, and a function of the sender's own
        program order alone, so it does not depend on how the scheduler
        interleaved the ranks (nor on which all-to-all path ran).
        """
        n = self._sent[src]
        self._sent[src] = n + 1
        return n * self.num_ranks + src

    @staticmethod
    def _match(
        mailbox: list[_Message], source: int, tag: int, comm_id: int
    ) -> int | None:
        best: int | None = None
        best_seq = -1
        for i, m in enumerate(mailbox):
            if m.comm_id != comm_id:
                continue
            if source != ANY_SOURCE and m.src != source:
                continue
            if tag != ANY_TAG and m.tag != tag:
                continue
            if best is None or m.seq < best_seq:
                best, best_seq = i, m.seq
        return best

    # ------------------------------------------------------------------
    # all-to-all as one rendezvous (called from rank threads via Comm)
    # ------------------------------------------------------------------

    @property
    def observes_envelopes(self) -> bool:
        """Whether something attached to this engine acts on individual
        messages: a fault injector (``on_send`` may drop, delay, duplicate
        or corrupt each one).  Collectives must then run as the
        point-to-point messages that define them.  A tracer does not count:
        the rendezvous records what the messages would have."""
        return self.faults is not None

    def alltoall(self, comm: Comm, seq: int, objs: Sequence[Any]) -> list[Any]:
        """Execute ``comm``'s all-to-all number ``seq`` as one rendezvous.

        The caller deposits its send list and parks; the last member to
        arrive evaluates the whole pairwise exchange
        (:meth:`_complete_alltoall`) and wakes the others, so a collective
        costs ``size - 1`` hand-offs instead of one per blocked receive.
        Virtual time, phase accounting, the returned objects and the trace
        records are those of :meth:`Comm.alltoall`'s envelope loop, bit for
        bit; only valid while nothing :attr:`observes_envelopes`.
        """
        rank = comm.members[comm.rank]
        rv = self._rendezvous.get(comm.comm_id)
        if rv is None:
            rv = _Rendezvous(seq, comm.comm_id, comm.members)
            self._rendezvous[comm.comm_id] = rv
        elif rv.seq != seq:
            raise CollectiveMismatchError(
                f"collective mismatch on rank {rank}: entered alltoall#{seq} "
                f"while rank {rv.members[next(iter(rv.sends))]} waits in {rv} "
                f"{_MISMATCH_HINT}"
            )
        rv.sends[comm.rank] = objs
        if len(rv.sends) == comm.size:
            del self._rendezvous[comm.comm_id]
            self._complete_alltoall(rv)
        mailbox = self._states[rank].mailbox
        while rv.recvs is None:
            # An eager send may wake this rank early.  Nothing of this
            # communicator's collectives can legitimately be in flight to a
            # member that is inside one, so such an envelope means the
            # sender is in a different collective.
            for m in mailbox:
                if m.tag == _COLL_TAG and m.comm_id == comm.comm_id:
                    raise CollectiveMismatchError(
                        f"collective mismatch on rank {rank}: waiting in {rv}, "
                        f"got {m.payload[2]!r}#{m.payload[1]} from rank {m.src} "
                        f"{_MISMATCH_HINT}"
                    )
            self._block(rank, str(rv))
        return rv.recvs[comm.rank]

    def _complete_alltoall(self, rv: _Rendezvous) -> None:
        """Evaluate a full rendezvous: the last arrival runs this.

        The envelope loop's virtual outcome is a recurrence over the entry
        clocks and the size matrix.  In step ``k`` every rank ``r`` sends
        to ``r + k`` (``now[r] += send_overhead + beta * nbytes[r, r+k]``,
        the message arriving ``alpha`` later) and then receives from
        ``r - k`` (``now[r] = max(now[r], arrival[r-k])``, the gap being
        waiting time).  Each step is evaluated for all ranks at once, with
        the same floating-point operations in the same order as
        :meth:`post_send` and :meth:`RankClock.wait_until` apply them, and
        every open phase of a rank takes that rank's increments in order.
        A traced run then gets the loop's records (:meth:`_trace_alltoall`).
        """
        p = len(rv.members)
        model = self.model
        clocks = [self._ctxs[w].clock for w in rv.members]
        sends = [rv.sends[r] for r in range(p)]
        # Each message is the tuple (_ENVELOPE, seq, op, item): its first
        # three items and header are the same for the whole collective.
        head = payload_nbytes((_ENVELOPE, rv.seq, "alltoall"))
        nbytes = head + np.array([item_sizes(objs) for objs in sends], dtype=np.int64)
        cost = model.send_overhead + model.beta * nbytes
        ranks = np.arange(p)
        # by_step[k, r]: what rank r's send of step k costs it.
        by_step = cost[ranks, (ranks + ranks[:, None]) % p]
        # at[0]: every rank's clock on entry; at[2k - 1]: after its send of
        # step k; at[2k]: after its receive of step k.
        at = np.empty((2 * p - 1, p))
        at[0] = [clock.now for clock in clocks]
        open_comm = [clock.open_comm() for clock in clocks]
        # comm[d, r]: rank r's open phase at depth d (ranks nest to
        # different depths; the padding is computed and dropped).
        comm = np.zeros((max(map(len, open_comm)), p))
        for r, totals in enumerate(open_comm):
            comm[: len(totals), r] = totals
        for k in range(1, p):
            sent = np.add(at[2 * k - 2], by_step[k], out=at[2 * k - 1])
            comm += by_step[k]
            arrival = np.roll(sent + model.alpha, k)  # from rank r - k
            comm += np.maximum(arrival - sent, 0.0)
            np.maximum(sent, arrival, out=at[2 * k])
        for clock, t, totals, was in zip(clocks, at[-1].tolist(), comm.T.tolist(), open_comm):
            clock.settle(t, totals[: len(was)])
        if self.tracer.enabled:
            self._trace_alltoall(rv.members, at, nbytes)
        for w in rv.members:
            self._sent[w] += p - 1
        rv.recvs = [list(col) for col in zip(*sends)]
        for w in rv.members:
            st = self._states[w]
            if st.state == _BLOCKED:
                st.state = _READY

    def _trace_alltoall(
        self, members: list[int], at: np.ndarray, nbytes: np.ndarray
    ) -> None:
        """Record a completed rendezvous as the envelope loop records it.

        Per member ``i``, in the loop's order: for ``k = 1 .. p-1`` the
        send record of its message to member ``i + k``, then the wait
        record of its receive from member ``i - k``.  Every field comes
        from the recurrence: ``at`` holds the members' clocks (see
        :meth:`_complete_alltoall`), ``nbytes[i, j]`` the size of member
        ``i``'s message to member ``j``, and the ``seq`` numbers continue
        each sender's count (:meth:`_trace_seq`).  The floating-point
        operations are :meth:`post_send`'s and :meth:`wait_recv`'s, so the
        records equal the loop's bit for bit.
        """
        p, n = len(members), self.num_ranks
        tr, alpha = self.tracer, self.model.alpha
        sizes = nbytes.tolist()
        # The seq of each member's first message of this collective; its
        # k-th is (k - 1) * n later.
        first = [self._sent[w] * n + w for w in members]
        for i, (w, c) in enumerate(zip(members, at.T.tolist())):
            for k in range(1, p):
                dst, src = (i + k) % p, (i - k) % p
                tr.span_point(
                    c[2 * k - 2], c[2 * k - 1], w, "comm", "alltoall",
                    dst=members[dst], nbytes=sizes[i][dst], tag=_COLL_TAG,
                    arrival=c[2 * k - 1] + alpha, seq=first[i] + (k - 1) * n,
                )
                waited = c[2 * k] - c[2 * k - 1]  # 0.0 when already there
                tr.span_point(
                    c[2 * k] - waited, c[2 * k], w, "comm", "wait",
                    src=members[src], nbytes=sizes[src][i], tag=_COLL_TAG,
                    waited=waited, seq=first[src] + (k - 1) * n,
                )

    # ------------------------------------------------------------------
    # superstep offload
    # ------------------------------------------------------------------

    def offload_rank(
        self,
        rank: int,
        entry: str,
        arrays: Any,
        meta: dict | None,
        label: str,
    ) -> Any:
        """Queue a superstep job for ``rank`` and park it until the result
        is in (see :meth:`RankContext.offload` for the contract)."""
        pool = self.superstep
        if pool is None:
            raise SimMPIError(
                "no superstep pool attached to this engine; construct it "
                "with Engine(..., superstep=SuperstepPool(...)) or use the "
                "sequential executor"
            )
        pool.submit(rank, entry, arrays, meta, label=label)
        # An eager message delivery can wake this rank before its result
        # exists (post_send marks any blocked destination runnable), so
        # re-park until the dispatch that serves this rank has happened.
        while not pool.has_result(rank):
            self._block(rank, f"superstep({label or entry})")
        return pool.take_result(rank)
