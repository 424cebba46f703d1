"""The 2D parallel triangle counting algorithm (Sections 5.1-5.3).

:func:`count_triangles_2d` is the public driver: it lays the graph out in
the initial 1D block distribution, launches one SPMD rank program per
virtual rank on the simulated-MPI engine, and assembles the result record.

Each rank program:

1. runs the preprocessing pipeline (phase ``"ppt"``): cyclic
   redistribution, degree reordering, U/L split, 2D cyclic distribution;
2. performs Cannon's initial skew, then ``sqrt(p)`` rounds of
   *count local blocks -> shift U left -> shift L up* (phase ``"tct"``),
   accumulating the local triangle count — the shared
   :func:`~repro.core.cannon.cannon_pass`;
3. joins a global sum-reduction of the count.

Correctness invariant (checked every step): the U and L blocks a rank
processes always carry the same inner residue ``z' = (x + y + z) % q`` —
Equation 6 of the paper.
"""

from __future__ import annotations

from typing import Any

from repro.core.cannon import (
    TAGS_TC2D,
    GridJob,
    KernelTally,
    Operands,
    assemble_result,
    cannon_pass,
    load_warm_blocks,
    rank_record,
)
from repro.core.config import TC2DConfig
from repro.core.counts import TriangleCountResult
from repro.core.grid import ProcessorGrid
from repro.core.preprocess import InputChunk, preprocess, preprocess_with_labels
from repro.graph.csr import Graph
from repro.simmpi import SUM, MachineModel, RunResult, SuperstepPool, Tracer
from repro.simmpi.engine import RankContext


def tc2d_rank_program(
    ctx: RankContext,
    chunks: list[InputChunk],
    cfg: TC2DConfig,
    resilience: Any = None,
    cache: Any = None,
) -> dict[str, Any]:
    """SPMD program executed by every rank (public for tests/examples that
    want to run it on a custom engine).

    ``resilience`` (optional) is a
    :class:`~repro.resilience.recovery.ResilienceContext`: when provided,
    the rank restores its state from the latest complete checkpoint epoch
    (skipping preprocessing and the skew entirely) and snapshots its
    travelling blocks + partial count at every shift-step boundary, so a
    later attempt can resume mid-Cannon-rotation.  Named fault points
    (``"shift:z"``, ``"shift:z:exchange"``) are declared each step for the
    engine's fault injector.

    ``cache`` (optional) is a :class:`~repro.graph.store.RunCache`.  On a
    store **hit** the rank loads its crc-verified blocks inside a
    ``cache`` phase (charged at the ``cache_io`` rate) and the ``ppt``
    phase is entered but left empty, so phase reports stay well-defined
    and honest: the trace shows a cache span where preprocessing would
    have been.  On a **miss** preprocessing runs exactly as without a
    cache and each rank persists its blocks as an uncharged side effect —
    a cold cached run is bit-identical to an uncached run.  A checkpoint
    restore (mid-tct state) takes precedence over the cache (pre-tct
    state).
    """
    comm = ctx.comm
    grid = ProcessorGrid.for_ranks(comm.size)
    chunk = chunks[ctx.rank]

    snap = resilience.restore_snapshot(ctx.rank) if resilience is not None else None
    if cache is not None and cache.hit and snap is None:
        [ops] = load_warm_blocks(ctx, [cache])
    else:
        with ctx.phase("ppt"):
            if snap is not None:
                # Restart path: the checkpoint replaces preprocessing.  The
                # blob deserialization checksum-verifies every block; the
                # residue assertion in the counting loop then proves the
                # restored operands sit exactly where the fault-free schedule
                # would have them.
                ops = Operands(*snap.blocks())
                ctx.charge("checkpoint_io", snap.nbytes)
            elif cache is not None and cache.writable:
                blocks, (lo, labels) = preprocess_with_labels(ctx, chunk, grid, cfg)
                cache.save_rank(ctx.rank, *blocks, lo, labels)
                ops = Operands(*blocks)
                del blocks  # ops alone must hold the travelling blocks
            else:
                ops = Operands(*preprocess(ctx, chunk, grid, cfg))
            for blk in ops.blocks():
                ctx.alloc_mem(blk.nbytes_estimate())
            comm.barrier()
    counters_ppt = dict(ctx.counters)

    tally = KernelTally()
    with ctx.phase("tct"):
        local_count = cannon_pass(
            ctx, grid, cfg, ops, tally, tags=TAGS_TC2D, prefix="", shift_base=0,
            resilience=resilience, snap=snap,
        )
        total = comm.allreduce(local_count, SUM)
    return rank_record(ctx, counters_ppt, total, local_count, tally)


def count_triangles_2d(
    graph: Graph,
    p: int,
    cfg: TC2DConfig | None = None,
    model: MachineModel | None = None,
    trace: bool | Tracer = False,
    dataset: str = "",
    keep_run: bool = False,
    superstep: SuperstepPool | None = None,
    cache: Any = None,
    telemetry: Any = None,
) -> TriangleCountResult:
    """Count the triangles of ``graph`` with the 2D algorithm on ``p``
    simulated ranks (``p`` must be a perfect square).

    Parameters
    ----------
    graph:
        Undirected simple graph.
    p:
        Number of MPI ranks (perfect square; the paper sweeps 16..169).
    cfg:
        Feature toggles; defaults to all optimizations on, jik enumeration.
    model:
        Machine cost model for the virtual clock; defaults to
        :class:`MachineModel()`.
    trace:
        Record a full engine event trace in ``result.extras["run"]``.
        A :class:`~repro.simmpi.tracing.Tracer` instance is adopted
        as-is: it records (and the run is kept) only if enabled, and its
        progress hooks see every top-level phase exit either way.
    dataset:
        Label copied into the result for reporting.
    keep_run:
        Keep the raw :class:`RunResult` in ``result.extras["run"]``.
    superstep:
        Existing :class:`~repro.simmpi.parallel.SuperstepPool` to reuse
        (worker spawn cost then amortizes across runs).  When omitted
        and ``cfg.executor == "parallel"``, a pool with ``cfg.workers``
        workers is created for this run and shut down afterwards.
    cache:
        Preprocessing cache (see :mod:`repro.graph.store`): ``True`` for
        the default store root, a path, a ``GraphStore`` or an opened
        ``RunCache``.  On a store hit the ppt phase is skipped — blocks
        load directly from disk under a ``cache`` span — and the result
        is bit-identical to a cold run; on a miss the artifact is
        written for next time.  ``result.extras["cache"]`` reports which
        happened.
    telemetry:
        Optional :class:`~repro.instrument.telemetry.Telemetry` session
        (started by the caller).  The run records per-phase executing
        wall time, pool dispatch buckets and memory/GC samples; the
        summary record lands in ``result.extras["telemetry"]`` and the
        flight recorder is dumped (``crash_dir`` permitting) when the
        run raises — including :class:`~repro.simmpi.errors.
        WorkerCrashError` from the parallel executor.  Counts, clocks,
        counters and traces are bit-identical with or without it.

    Returns
    -------
    TriangleCountResult
        Exact count plus simulated phase times, counters, per-shift
        records and hash statistics.  Under the parallel executor,
        ``extras`` additionally carries ``executor``, ``workers`` and
        the run's wall-clock ``worker_spans``.
    """
    ProcessorGrid.for_ranks(p)  # validates perfect square early
    with GridJob(
        graph, p, cfg, "tc2d", model=model, trace=trace, dataset=dataset,
        superstep=superstep, cache=cache, telemetry=telemetry,
    ) as job:
        run = job.run(
            tc2d_rank_program, job.cfg, None, job.caches[0] if job.caches else None
        )
        return job.finish(run, _label(job.cfg), keep_run)


def _label(cfg: TC2DConfig) -> str:
    return "tc2d" if cfg.enumeration == "jik" else "tc2d-ijk"


def assemble_tc2d_result(
    run: RunResult,
    p: int,
    cfg: TC2DConfig,
    dataset: str = "",
    keep_run: bool = False,
) -> TriangleCountResult:
    """Build the :class:`TriangleCountResult` record from a finished
    :func:`tc2d_rank_program` run (see
    :func:`~repro.core.cannon.assemble_result`)."""
    return assemble_result(run, p, cfg, _label(cfg), dataset, keep_run)
