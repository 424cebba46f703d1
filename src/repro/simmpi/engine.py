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

Rank threads outlive a run.  One process-wide set of them is grown lazily
to the largest ``p`` asked for (nothing starts at import); a run takes
``p`` idle threads under a lock, so two engines running at once (``repro
serve``) never share one, and gives them back when it ends.  A rank's park
lock is its thread's own lock: an idle thread is parked on it, so the
run's first resume of the rank starts it, with no extra hand-off.  At run
end :meth:`Engine.run` waits up to ``real_timeout`` for each thread's
end-of-job signal; a thread that misses it (wedged) is abandoned, never
handed a later run, and exits once it unwinds.  An idle thread keeps no
reference to its last run.  Why: ``p`` fresh threads per run each landed
on whichever glibc per-thread arena was free, and the heap grew op after
op.  Over repeated ``rmat_dense`` ops (p = 16) in one process, VmRSS after
ops 0/1/2/5/10/16 read 98/118/126/145/161/153 MiB with fresh threads and
98/112/115/116/116/116 MiB with long-lived ones; the gauge's
``peak_rss_mb`` went 197 -> 162 MiB (2-CPU x86_64 host).

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
    """One open collective: what the members deposited so far and, once the
    last member has arrived, what every member receives.

    ``form`` names the collective.  For ``"alltoall"`` each deposit is a
    send list; for ``"alltoallv"`` it is ``(views, table, layout)``: byte
    views of the send arrays, their ``(arrays, size)`` count table and
    ``(single, ((dtype, row shape), ...))``, which every member must agree
    on.  For every other form it is the member's message generator.
    """

    __slots__ = ("seq", "comm_id", "members", "form", "sends", "recvs", "label")

    def __init__(self, seq: int, comm_id: Any, members: list[int], form: str):
        self.seq = seq
        self.comm_id = comm_id
        self.members = members
        self.form = form
        #: Communicator rank -> its deposit, in arrival order.
        self.sends: dict[int, Any] = {}
        #: ``None`` while open.  Then the object form's receive lists, the
        #: counts form's ``(incoming, rows, byte_bounds, views)`` from which
        #: every member cuts its own receive, or what each member's
        #: generator returned.
        self.recvs: Any = None
        #: What a member parked here is blocked on.
        self.label = f"{form}#{seq}(comm={comm_id})"

    def __str__(self) -> str:
        return self.label


class _RankState:
    """Book-keeping for one virtual rank."""

    def __init__(self, rank: int, park: Any):
        self.rank = rank
        self.state = _NEW
        #: Parking lock (the carrying thread's, see :class:`_RankThread`),
        #: held whenever the rank is not being woken: the rank parks by
        #: acquiring it, the token passer wakes it by releasing it.
        self.park = park
        self.mailbox: list[_Message] = []
        self.blocked_on: str = ""
        self.result: Any = None
        self.error: BaseException | None = None


class _RankThread:
    """One long-lived OS thread of :data:`_RANK_THREADS`; it carries one
    rank of one run at a time.

    ``park`` is the carried rank's parking lock and is held whenever the
    thread is not running: an idle thread waits on it for the run that
    set ``job`` to resume its rank.  ``done`` is released at the end of
    each job, the signal :meth:`_RankThreads.give_back` waits for.
    """

    __slots__ = ("index", "park", "done", "job", "abandoned", "thread")

    def __init__(self, index: int):
        self.index = index
        self.park = _thread.allocate_lock()
        self.park.acquire()
        self.done = _thread.allocate_lock()
        self.done.acquire()
        #: ``(engine, state, program, args, kwargs)`` of the rank to carry;
        #: ``None`` once taken, so an idle thread refers to no run.
        self.job: tuple | None = None
        self.abandoned = False
        self.thread = threading.Thread(
            target=self._main, name=f"simmpi-rank-{index}", daemon=True
        )
        self.thread.start()

    def _main(self) -> None:
        while True:
            self.park.acquire()
            engine, st, program, args, kwargs = self.job
            self.job = None
            engine._run_rank(st, program, args, kwargs)
            engine = st = program = args = kwargs = None
            # On a wedge the scheduler aborts while a rank still passes the
            # token, and a wake racing the abort can leave the lock
            # released; the next job must find it held.
            self.park.acquire(False)
            if _RANK_THREADS.finish(self):
                return


class _RankThreads:
    """The process-wide set of rank threads: idle ones, lowest index first
    (so sequential runs keep rank ``r`` on thread ``r``), handed out under
    a lock and grown on demand."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._idle: list[_RankThread] = []
        self._started = 0

    def take(self, n: int) -> list[_RankThread]:
        """``n`` threads no other run holds, starting those missing."""
        with self._lock:
            got = self._idle[:n]
            del self._idle[:n]
            first = self._started
            self._started += n - len(got)
        return got + [_RankThread(i) for i in range(first, first + n - len(got))]

    def finish(self, t: _RankThread) -> bool:
        """``t``'s end-of-job signal; true if ``t`` was abandoned and exits."""
        with self._lock:
            t.done.release()
            return t.abandoned

    def give_back(self, threads: list[_RankThread], timeout: float) -> None:
        """Wait up to ``timeout`` for each thread's end-of-job signal and
        return the threads that gave it to the idle set; the others are
        abandoned."""
        back = []
        for t in threads:
            if not t.done.acquire(timeout=timeout):
                with self._lock:
                    if not t.done.acquire(False):
                        t.abandoned = True
                        continue
            back.append(t)
        with self._lock:
            self._idle += back
            self._idle.sort(key=lambda t: t.index)


#: Every engine's rank threads.
_RANK_THREADS = _RankThreads()


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
        superstep dispatch and the wait for each rank thread's end-of-job
        signal (a thread that misses it is abandoned).  This is a safety
        net for engine bugs, not part of the simulation.
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
        #: Open collective rendezvous by communicator id (a communicator
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

        threads = _RANK_THREADS.take(self.num_ranks)
        self._states = [_RankState(r, t.park) for r, t in enumerate(threads)]
        for st, t in zip(self._states, threads):
            st.state = _READY
            t.job = (self, st, program, args, kwargs)

        try:
            self._schedule_loop()
        finally:
            if any(st.state not in (_FINISHED, _FAILED) for st in self._states):
                self._abort_parked_ranks()
            _RANK_THREADS.give_back(threads, self.real_timeout)

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
        """Wake every parked rank so that it unwinds with ``_Abort``.

        Normally called with the token in hand.  On a wedge (or an
        interrupt) one rank is still running; it sees ``_aborting`` at its
        next yield and unwinds too.  A woken rank is marked running, so a
        second call before it records its exit does not wake it twice.
        """
        self._aborting = True
        for st in self._states:
            if st.state in (_READY, _BLOCKED):
                st.state = _RUNNING
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

    def _run_rank(
        self,
        st: _RankState,
        program: Callable[..., Any],
        args: tuple,
        kwargs: dict,
    ) -> None:
        """Run rank ``st`` on its thread, which was just handed the
        execution token (or woken to unwind)."""
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
        clock = self._ctxs[src].clock
        nbytes = payload_nbytes(payload)
        t0 = clock.now
        clock.advance_comm(self.model.send_overhead + self.model.beta * nbytes)
        arrival = clock.now + self.model.alpha
        trace_seq = self._trace_seq(src)
        msg = _Message(
            next(self._seq), trace_seq, src, dst, tag, comm_id, payload,
            nbytes, arrival,
        )
        copies = 1
        fault = (
            self.faults.on_send(src, dst, tag, comm_id, msg.nbytes, payload)
            if self.faults is not None
            else None
        )
        if fault is not None:
            # The sender already paid its full injection cost above: from
            # its point of view the send succeeded, the network misbehaves.
            if self.tracer.enabled:
                self.tracer.span_point(
                    t0, self._ctxs[src].clock.now, src, "fault",
                    f"fault:{fault.kind}",
                    site="send", dst=dst, nbytes=msg.nbytes, tag=tag,
                )
            if fault.kind == "drop":
                return  # vanished on the wire; no delivery
            if fault.kind == "delay":
                msg.arrival += fault.delay
            elif fault.kind == "corrupt":
                msg.payload = fault.payload
            elif fault.kind == "dup":
                copies = 2
            else:
                raise SimMPIError(f"unknown message-fault kind {fault.kind!r}")
        dst_state = self._states[dst]
        dst_state.mailbox.append(msg)
        if copies == 2:
            dst_state.mailbox.append(
                _Message(
                    next(self._seq), self._trace_seq(src), src, dst, tag,
                    comm_id, msg.payload, msg.nbytes, msg.arrival,
                )
            )
        if self.tracer.enabled:
            self._record_send(
                t0, src, dst, tag, msg.nbytes, msg.arrival, trace_seq, coll_op
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
        while True:
            idx = self._match(st.mailbox, source, tag, comm_id)
            if idx is not None:
                msg = st.mailbox.pop(idx)
                waited = self._ctxs[rank].clock.wait_until(msg.arrival)
                if self.tracer.enabled:
                    self._record_wait(
                        rank, waited, msg.src, msg.tag, msg.nbytes, msg.trace_seq
                    )
                return msg.payload, msg.src, msg.tag
            self._block(
                rank,
                f"recv(source={'ANY' if source == ANY_SOURCE else source}, "
                f"tag={'ANY' if tag == ANY_TAG else tag}, comm={comm_id})",
            )

    def _record_send(
        self, t0: float, src: int, dst: int, tag: int, nbytes: int,
        arrival: float, trace_seq: int, coll_op: str | None,
    ) -> None:
        """The send record of a message ``src`` injected from ``t0`` on.  A
        scan's round suffix (``"scan4"``) is dropped from the collective's
        name."""
        self.tracer.span_point(
            t0, self._ctxs[src].clock.now, src, "comm",
            "send" if coll_op is None else coll_op.rstrip("0123456789"),
            dst=dst, nbytes=nbytes, tag=tag, arrival=arrival, seq=trace_seq,
        )

    def _record_wait(
        self, rank: int, waited: float, src: int, tag: int, nbytes: int,
        trace_seq: int,
    ) -> None:
        """The wait record of ``rank``'s receive that just waited
        ``waited`` (zero for a message that was already there)."""
        now = self._ctxs[rank].clock.now
        self.tracer.span_point(
            now - waited, now, rank, "comm", "wait", src=src, nbytes=nbytes,
            tag=tag, waited=waited, seq=trace_seq,
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
    # collectives as one rendezvous (called from rank threads via Comm)
    # ------------------------------------------------------------------

    @property
    def observes_envelopes(self) -> bool:
        """Whether something attached to this engine acts on individual
        messages: a fault injector (``on_send`` may drop, delay, duplicate
        or corrupt each one).  Collectives must then run as the
        point-to-point messages that define them.  A tracer does not count:
        the rendezvous records what the messages would have."""
        return self.faults is not None

    def collective(self, comm: Comm, seq: int, form: str, gen: Any) -> Any:
        """Execute ``comm``'s collective number ``seq`` as one rendezvous.

        ``gen`` is the caller's message generator (see :class:`Comm`).
        The caller deposits it and parks; the last member to arrive steps
        every member's generator (:meth:`_complete_steps`) and wakes the
        others, so a collective costs ``size - 1`` hand-offs and no
        point-to-point message.  Returns what the caller's generator
        returned.  Virtual time, phase accounting, the handed-over objects
        and the trace records are those of stepping the generator message
        by message, bit for bit; only valid while nothing
        :attr:`observes_envelopes`.
        """
        return self._meet(comm, seq, form, gen).recvs[comm.rank]

    def alltoall(self, comm: Comm, seq: int, objs: Sequence[Any]) -> list[Any]:
        """:meth:`collective` for :meth:`Comm.alltoall`, evaluated by a
        vectorised recurrence (:meth:`_complete_alltoall`) instead of by
        stepping ``p`` generators of ``p - 1`` steps each."""
        rv = self._meet(comm, seq, "alltoall", objs)
        return rv.recvs[comm.rank]

    def alltoallv(
        self,
        comm: Comm,
        seq: int,
        arrays: tuple[np.ndarray, ...],
        counts: np.ndarray,
        single: bool,
    ) -> tuple[Any, Any]:
        """:meth:`alltoall` for :meth:`Comm.alltoallv`'s counts form.

        The caller deposits byte views of its (checked) send arrays and
        its ``(len(arrays), size)`` count table; the last arrival sizes
        every message from the tables alone (:meth:`_size_counts`).  After
        the wake-up each member copies its own rows out of the senders'
        buffers, one ``join`` of memoryview slices per array, in its own
        thread: no member allocates anyone else's receive.
        """
        views = tuple(
            memoryview(np.ascontiguousarray(a).reshape(-1).view(np.uint8))
            for a in arrays
        )
        layout = (single, tuple((a.dtype, a.shape[1:]) for a in arrays))
        rv = self._meet(comm, seq, "alltoallv", (views, counts, layout))
        incoming, rows, byte_bounds, sent = rv.recvs
        d = comm.rank
        recv = []
        for j, (dtype, row_shape) in enumerate(layout[1]):
            lo, hi = byte_bounds[j, d : d + 2].tolist()
            data = bytearray().join([v[a:b] for v, a, b in zip(sent[j], lo, hi)])
            got = np.frombuffer(data, dtype=dtype)
            recv.append(got.reshape((rows[d][j],) + row_shape))
        if single:
            return recv[0], incoming[d][0]
        return tuple(recv), tuple(incoming[d])

    def _meet(self, comm: Comm, seq: int, form: str, deposit: Any) -> _Rendezvous:
        """Deposit this member's part of ``comm``'s collective ``seq`` and
        park until the last member has completed the rendezvous."""
        rank = comm.members[comm.rank]
        rv = self._rendezvous.get(comm.comm_id)
        if rv is None:
            rv = _Rendezvous(seq, comm.comm_id, comm.members, form)
            self._rendezvous[comm.comm_id] = rv
        elif rv.seq != seq or rv.form != form:
            raise CollectiveMismatchError(
                f"collective mismatch on rank {rank}: entered {form}#{seq} "
                f"while rank {rv.members[next(iter(rv.sends))]} waits in {rv} "
                f"{_MISMATCH_HINT}"
            )
        rv.sends[comm.rank] = deposit
        if len(rv.sends) == comm.size:
            del self._rendezvous[comm.comm_id]
            if form in ("alltoall", "alltoallv"):
                self._complete_alltoall(rv)
            else:
                self._complete_steps(rv)
            for w in rv.members:
                st = self._states[w]
                if st.state == _BLOCKED:
                    st.state = _READY
        # An eager point-to-point send may wake this rank early.
        while rv.recvs is None:
            self._block(rank, rv.label)
        return rv

    def _complete_steps(self, rv: _Rendezvous) -> None:
        """Evaluate a full generator rendezvous: the last arrival runs this.

        Every member's generator is stepped in turn until it finishes or
        waits for a message not yet sent.  A send charges its sender
        exactly as :meth:`post_send` does and queues the message under
        ``(source, destination, tag)``; a receive takes the oldest message
        of its queue and charges the receiver exactly as :meth:`wait_recv`
        does.  Each clock and open phase therefore takes its own member's
        floating-point operations in that member's order, whatever order
        the members are stepped in; traced, each member's send and wait
        records come out in its own order, with the ``seq`` numbers its
        sends take (:meth:`_trace_seq`).  Payloads pass by reference.
        Raises :class:`CollectiveMismatchError` when the members' messages
        do not pair up (say, two members name different roots).
        """
        members = rv.members
        p = len(members)
        gens = [rv.sends[i] for i in range(p)]
        clocks = [self._ctxs[w].clock for w in members]
        results: list[Any] = [None] * p
        overhead, beta, alpha = (
            self.model.send_overhead, self.model.beta, self.model.alpha
        )
        sent, n = self._sent, self.num_ranks
        traced = self.tracer.enabled
        #: (source, destination, tag) in communicator ranks -> the queued
        #: ``(payload, nbytes, arrival, trace seq)`` messages, oldest first.
        queues: dict[tuple[int, int, int], list] = {}
        #: The receive a member parked on, and who waits on which queue.
        pending: list[Any] = [None] * p
        parked: dict[tuple[int, int, int], int] = {}
        ready = list(range(p))
        left = p
        while ready:
            i = ready.pop()
            step, me, clock = gens[i].send, members[i], clocks[i]
            msg, got, pending[i] = pending[i], None, None
            try:
                while True:
                    if msg is None:
                        msg = step(got)
                    if len(msg) == 4:
                        # post_send's charge, in its floating-point order.
                        dest, tag, payload, name = msg
                        nbytes = payload_nbytes(payload)
                        t0 = clock.now
                        clock.advance_comm(overhead + beta * nbytes)
                        arrival = clock.now + alpha
                        seq = sent[me] * n + me  # as _trace_seq numbers it
                        sent[me] += 1
                        if traced:
                            self._record_send(
                                t0, me, members[dest], tag, nbytes, arrival, seq, name
                            )
                        key = (i, dest, tag)
                        queue = queues.get(key)
                        if queue is None:
                            queues[key] = [(payload, nbytes, arrival, seq)]
                        else:
                            queue.append((payload, nbytes, arrival, seq))
                        if parked and key in parked:
                            ready.append(parked.pop(key))
                        got = None
                    else:
                        source, tag = msg
                        key = (source, i, tag)
                        queue = queues.get(key)
                        if not queue:
                            pending[i] = msg
                            parked[key] = i
                            break
                        # wait_recv's charge.
                        got, nbytes, arrival, seq = queue.pop(0)
                        waited = clock.wait_until(arrival)
                        if traced:
                            self._record_wait(
                                me, waited, members[source], tag, nbytes, seq
                            )
                    msg = None
            except StopIteration as stop:
                results[i] = stop.value
                left -= 1
        unreceived = sum(map(len, queues.values()))
        if left or unreceived:
            stuck = sorted(members[i] for i in parked.values())
            raise CollectiveMismatchError(
                f"collective mismatch in {rv}: the members' messages do not "
                f"pair up (ranks {stuck} wait for a message nobody sends, "
                f"{unreceived} sent are never received) {_MISMATCH_HINT}"
            )
        rv.recvs = results

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
        if rv.form == "alltoall":
            sizes = [item_sizes(objs) for objs in sends]
            nbytes = head + np.array(sizes, dtype=np.int64)
        else:
            nbytes, plan = self._size_counts(rv, sends, head)
        cost = model.send_overhead + model.beta * nbytes
        ranks = np.arange(p)
        # src[k, r] = r - k: the rank whose step-k message rank r receives.
        src = (ranks - ranks[:, None]) % p
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
            arrival = (sent + model.alpha)[src[k]]
            comm += np.maximum(arrival - sent, 0.0)
            np.maximum(sent, arrival, out=at[2 * k])
        for clock, t, totals, was in zip(clocks, at[-1].tolist(), comm.T.tolist(), open_comm):
            clock.settle(t, totals[: len(was)])
        if self.tracer.enabled:
            self._trace_alltoall(rv.members, at, nbytes)
        for w in rv.members:
            self._sent[w] += p - 1
        if rv.form == "alltoall":
            rv.recvs = [list(col) for col in zip(*sends)]
        else:
            rv.recvs = (*plan, list(zip(*[views for views, _, _ in sends])))

    @staticmethod
    def _size_counts(
        rv: _Rendezvous, sends: list[Any], head: int
    ) -> tuple[np.ndarray, tuple[np.ndarray, list, np.ndarray]]:
        """The counts form's size matrix and what each member cuts its
        receive by: ``(incoming, rows, byte_bounds)``.

        With ``table[r, j, d]`` the rows of array ``j`` member ``r`` sends
        to ``d``: a message is ``(_ENVELOPE, seq, op, item)`` with ``item``
        the slice for ``d`` (a tuple of slices when the members passed
        tuples), so its :func:`payload_nbytes` is ``head``, plus a tuple's
        header, plus an array's size (its bytes and a constant) per slice.
        ``incoming[d, j]`` is member ``d``'s receive counts of array ``j``,
        ``rows[d][j]`` their sum, and ``byte_bounds[j, d, r]`` where
        ``d``'s bytes start in member ``r``'s array ``j``.  Raises
        :class:`CollectiveMismatchError` unless every member sent arrays of
        the same dtypes, row shapes and tuple arity.
        """
        layouts = [layout for _, _, layout in sends]
        for r, layout in enumerate(layouts):
            if layout != layouts[0]:
                raise CollectiveMismatchError(
                    f"alltoallv mismatch in {rv}: ranks {rv.members[0]} and "
                    f"{rv.members[r]} send rows of another dtype, row shape or "
                    f"arity {_MISMATCH_HINT}"
                )
        single, arrays = layouts[0]
        row_bytes = np.array(
            [dtype.itemsize * int(np.prod(shape)) for dtype, shape in arrays],
            dtype=np.int64,
        )
        table = np.stack([counts for _, counts, _ in sends])
        fixed = head + (0 if single else payload_nbytes(()))
        fixed += payload_nbytes(np.empty(0)) * len(arrays)
        nbytes = fixed + row_bytes @ table
        p = len(sends)
        byte_bounds = np.zeros((len(arrays), p + 1, p), dtype=np.int64)
        np.cumsum(
            table.transpose(1, 2, 0) * row_bytes[:, None, None],
            axis=1,
            out=byte_bounds[:, 1:],
        )
        incoming = table.transpose(2, 1, 0).copy()
        rows = incoming.sum(axis=2).tolist()
        return nbytes, (incoming, rows, byte_bounds)

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
        pool.submit(rank, entry, arrays, meta)
        # An eager message delivery can wake this rank before its result
        # exists (post_send marks any blocked destination runnable), so
        # re-park until the dispatch that serves this rank has happened.
        while not pool.has_result(rank):
            self._block(rank, f"superstep({label or entry})")
        return pool.take_result(rank)
