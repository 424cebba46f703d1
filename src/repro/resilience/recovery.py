"""Checkpoint-restart recovery driver for the 2D counting pipeline.

:func:`count_triangles_2d_resilient` wraps
:func:`~repro.core.tc2d.count_triangles_2d`'s rank program in a restart
loop on the shared run driver (:class:`~repro.core.cannon.GridJob`: one
job — store entry, worker pool, telemetry — for the whole loop, one
:meth:`~repro.core.cannon.GridJob.run` per attempt): each attempt resumes
every rank from the latest *complete*
checkpoint epoch (see :mod:`repro.resilience.checkpoint`); a
fault-induced failure — injected crash, deadlock from a dropped message,
blob-checksum corruption, collective mismatch from a duplicated envelope —
records an attempt, backs off, and retries until the
:class:`RecoveryPolicy` budget is spent.

Because the engine is deterministic and faults are one-shot, the
recovered run's triangle count is bit-identical to the fault-free run's:
the restored state at epoch ``e`` *is* the fault-free state at epoch
``e`` (blob checksums verify the bytes, the Eq. 6 residue assertion
verifies the operand positions), and everything after ``e`` re-executes
cleanly.
"""

from __future__ import annotations

import tempfile
import time
from dataclasses import dataclass
from typing import Any

from repro.core.blocks import Block
from repro.core.cannon import GridJob
from repro.core.config import TC2DConfig
from repro.core.counts import TriangleCountResult
from repro.core.grid import ProcessorGrid
from repro.core.tc2d import tc2d_rank_program
from repro.graph.csr import Graph
from repro.resilience.checkpoint import CheckpointStore, RankSnapshot
from repro.resilience.faults import FaultInjector, FaultPlan
from repro.simmpi import MachineModel
from repro.simmpi.engine import RankContext
from repro.simmpi.errors import (
    DeadlockError,
    RankFailedError,
    ResilienceExhaustedError,
    SimMPIError,
)
from repro.simmpi.tracing import Tracer


@dataclass(frozen=True)
class RecoveryPolicy:
    """Retry/backoff budget for the restart loop.

    ``backoff(attempt)`` grows exponentially from ``backoff_base`` and is
    clamped at ``backoff_cap``; the delay is always *recorded* in the
    attempt log (chaos asserts it is bounded) but only actually slept when
    ``sleep`` is true — the simulated cluster does not need real seconds
    to pass, production deployments against flaky shared storage would.
    """

    max_restarts: int = 8
    backoff_base: float = 0.01
    backoff_factor: float = 2.0
    backoff_cap: float = 1.0
    sleep: bool = False

    def backoff(self, attempt: int) -> float:
        """Backoff (seconds) after failed attempt number ``attempt``."""
        return min(
            self.backoff_cap,
            self.backoff_base * self.backoff_factor**attempt,
        )


@dataclass
class AttemptRecord:
    """One row of the recovery log."""

    attempt: int
    restored_epoch: int | None
    outcome: str  # "ok" or the failure's exception type name
    error: str = ""
    backoff: float = 0.0
    faults_fired: int = 0


@dataclass
class AttemptTrace:
    """Duck-types :class:`~repro.simmpi.engine.RunResult` for the Perfetto
    exporter so failed attempts' traces (where faults fired) can be
    exported with :func:`~repro.instrument.write_chrome_trace` too."""

    tracer: Tracer
    num_ranks: int

    @property
    def makespan(self) -> float:
        return max((s.end for s in self.tracer.spans), default=0.0)


class ResilienceContext:
    """Rank-side checkpoint hooks handed to ``tc2d_rank_program``.

    One instance per attempt, shared by all rank threads (safe: the engine
    serializes rank execution).  ``restore_epoch`` is fixed before the
    attempt starts so every rank resumes from the same consistent cut.
    """

    def __init__(
        self,
        store: CheckpointStore,
        restore_epoch: int | None,
        interval: int = 1,
    ):
        if interval < 1:
            raise ValueError("checkpoint interval must be >= 1")
        self.store = store
        self.restore_epoch = restore_epoch
        self.interval = interval

    def restore_snapshot(self, rank: int) -> RankSnapshot | None:
        """The snapshot this rank must resume from (None = fresh start)."""
        if self.restore_epoch is None:
            return None
        return self.store.load(self.restore_epoch, rank)

    def save(
        self,
        ctx: RankContext,
        epoch: int,
        local_count: int,
        u_block: Block,
        l_block: Block,
        task_block: Block,
    ) -> None:
        """Snapshot one rank at one epoch boundary (honoring ``interval``).

        The final epoch (no outstanding shifts) is always saved so a crash
        during the closing reduction never replays counting work.
        """
        q = ProcessorGrid.for_ranks(ctx.num_ranks).q
        if epoch % self.interval != 0 and epoch != q:
            return
        snap = RankSnapshot.capture(
            ctx.rank, epoch, local_count, u_block, l_block, task_block
        )
        nbytes = self.store.save(snap)
        t0 = ctx.clock.now
        ctx.charge("checkpoint_io", nbytes)
        tr = ctx.tracer
        if tr.enabled:
            tr.span_point(
                t0, ctx.clock.now, ctx.rank, "ckpt", f"checkpoint:{epoch}",
                nbytes=nbytes,
            )


def count_triangles_2d_resilient(
    graph: Graph,
    p: int,
    cfg: TC2DConfig | None = None,
    model: MachineModel | None = None,
    fault_plan: FaultPlan | None = None,
    checkpoint_dir: Any = None,
    policy: RecoveryPolicy | None = None,
    checkpoint_interval: int = 1,
    trace: bool = False,
    dataset: str = "",
    superstep: Any = None,
    cache: Any = None,
    telemetry: Any = None,
) -> TriangleCountResult:
    """Count triangles with checkpoint/restart under (optional) faults.

    Parameters
    ----------
    graph, p, cfg, model, dataset:
        As for :func:`~repro.core.tc2d.count_triangles_2d`.
    fault_plan:
        Seeded :class:`FaultPlan` to inject (``None`` = clean run; the
        checkpointing machinery still exercises, and any failure is then
        re-raised instead of retried).
    checkpoint_dir:
        Directory for the checkpoint store; a temporary directory is used
        (and cleaned up) when omitted.
    policy:
        Retry/backoff budget; defaults to :class:`RecoveryPolicy()`.
    checkpoint_interval:
        Snapshot every k-th epoch (1 = every shift step).
    trace:
        Trace every attempt; failed attempts' traces (where the faults
        fired) land in ``extras["attempt_traces"]``, the successful run in
        ``extras["run"]``.
    superstep:
        Existing :class:`~repro.simmpi.parallel.SuperstepPool` to reuse
        across attempts.  When omitted and ``cfg.executor ==
        "parallel"``, one pool is created for the whole restart loop
        (workers persist across attempts — an aborted attempt only drops
        its pending jobs) and shut down on return.  Recovery semantics
        are executor-independent: checkpoints capture rank-side state
        only, and a restored attempt re-offloads from its resume epoch.
    cache:
        Preprocessing cache, as for
        :func:`~repro.core.tc2d.count_triangles_2d` (``True``, a path, a
        ``GraphStore`` or a ``RunCache``).  A store hit skips the ppt
        phase on *every* attempt; a checkpoint restore still takes
        precedence (it carries later, mid-tct state).  Cache **writes**
        are disabled whenever a fault plan is active — an injected fault
        can corrupt preprocessing traffic, and a poisoned artifact would
        outlive the run — so only fault-free runs warm the store.
    telemetry:
        Optional :class:`~repro.instrument.telemetry.Telemetry` session
        shared by every attempt.  Each restart begins a fresh per-run
        window; attempt outcomes (restored epoch, failure type, backoff)
        are recorded as flight-recorder events, and exhausting the
        restart budget dumps the recorder before
        :class:`ResilienceExhaustedError` propagates.  The successful
        attempt's summary lands in ``result.extras["telemetry"]``.

    Returns
    -------
    TriangleCountResult
        The standard result record; ``extras`` additionally carries
        ``attempts`` (list of :class:`AttemptRecord`), ``restarts``,
        ``faults_fired``, ``checkpoint_manifest`` and
        ``attempt_traces``.

    Raises
    ------
    ResilienceExhaustedError
        If the run still fails after ``policy.max_restarts`` restarts.
    """
    policy = policy if policy is not None else RecoveryPolicy()
    grid = ProcessorGrid.for_ranks(p)
    injector = FaultInjector(fault_plan) if fault_plan is not None else None

    tmp = None
    if checkpoint_dir is None:
        tmp = tempfile.TemporaryDirectory(prefix="repro-ckpt-")
        checkpoint_dir = tmp.name
    store = CheckpointStore(checkpoint_dir)

    attempts: list[AttemptRecord] = []
    failed_traces: list[AttemptTrace] = []
    try:
        with GridJob(
            graph, p, cfg, "tc2d", model=model, trace=trace, dataset=dataset,
            superstep=superstep, cache=cache, telemetry=telemetry,
            fault_injector=injector,
        ) as job:
            run_cache = job.caches[0] if job.caches else None
            for attempt in range(policy.max_restarts + 1):
                if injector is not None:
                    injector.new_attempt()
                restore_epoch = store.latest_complete_epoch(p)
                rctx = ResilienceContext(
                    store, restore_epoch, interval=checkpoint_interval
                )
                failure = None
                try:
                    run = job.run(
                        tc2d_rank_program, job.cfg, rctx, run_cache,
                        label_suffix=f"-attempt{attempt}",
                    )
                except (RankFailedError, DeadlockError, SimMPIError) as exc:
                    failure = exc
                rec = AttemptRecord(
                    attempt=attempt,
                    restored_epoch=restore_epoch,
                    outcome="ok" if failure is None else type(failure).__name__,
                    error="" if failure is None else str(failure),
                    backoff=0.0 if failure is None else policy.backoff(attempt),
                    faults_fired=len(injector.fired) if injector is not None else 0,
                )
                attempts.append(rec)
                if telemetry is not None:
                    telemetry.note(
                        "attempt",
                        attempt=attempt,
                        restored_epoch=restore_epoch,
                        outcome=rec.outcome,
                        faults_fired=rec.faults_fired,
                        backoff=rec.backoff,
                    )
                if failure is None:
                    break
                if trace:
                    failed_traces.append(AttemptTrace(job.engine.tracer, p))
                if injector is None:
                    # No faults were injected: this is a real bug, not a
                    # simulated outage — never mask it behind retries.
                    # (GridJob.run already dumped the flight recorder.)
                    raise failure
                if attempt == policy.max_restarts:
                    if telemetry is not None:
                        telemetry.crash_dump(reason="ResilienceExhausted")
                    raise ResilienceExhaustedError(attempt + 1, failure) from failure
                if policy.sleep and rec.backoff > 0:
                    time.sleep(rec.backoff)

            manifest = store.write_manifest(
                p,
                grid.q,
                extra={
                    "fault_plan": (
                        fault_plan.to_json() if fault_plan is not None else None
                    ),
                    "attempts": len(attempts),
                },
            )
            result = job.finish(run, "tc2d-resilient")
        result.extras["attempts"] = attempts
        result.extras["restarts"] = len(attempts) - 1
        result.extras["faults_fired"] = (
            [f.spec.describe() for f in injector.fired]
            if injector is not None
            else []
        )
        result.extras["checkpoint_manifest"] = (
            None if tmp is not None else str(manifest)
        )
        result.extras["attempt_traces"] = failed_traces
        return result
    finally:
        if tmp is not None:
            tmp.cleanup()
