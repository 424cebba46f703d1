"""The machinery every grid algorithm shares: one Cannon rotation, one
run driver, one result assembler.

The paper has a single communication skeleton (Section 5.1): skew the
operands, then ``sqrt(p)`` rounds of *count local blocks -> shift U left
-> shift L up*, during which the U and L blocks a rank holds always carry
the same inner residue ``(x + y + z) % q`` — Equation 6.  That skeleton
lives here once:

* :func:`cannon_pass` — the rotation over one (U, L, task) block triple.
  :mod:`~repro.core.tc2d` runs it once per rank, the cover-edge counter
  (:mod:`~repro.core.coveredge`) twice under pass-scoped tags and keys,
  and the census (:mod:`~repro.core.listing`) reuses its exchange step
  (:func:`exchange_operands`) around an enumerating kernel.
* :func:`count_blocks` — one intersection-kernel call charged to the
  rank's clock; also what the SUMMA and allgather variants call per step.
* :class:`GridJob` — the run driver: store entries, input partition,
  worker pool, telemetry, engine run, result assembly, cleanup.  Every
  ``count_triangles_*`` driver is a ``with GridJob(...)`` block; the
  resilient restart loop calls :meth:`GridJob.run` once per attempt.
* :func:`assemble_result` — per-rank return records -> one
  :class:`~repro.core.counts.TriangleCountResult`.

A new grid algorithm supplies a rank program (preprocess — or
:func:`load_warm_blocks` on a store hit — call :func:`cannon_pass` or
:func:`count_blocks`, return :func:`rank_record`)
and a driver that opens a :class:`GridJob`; nothing else is per-algorithm.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Callable, Sequence

from repro.core.blocks import Block, exchange_block
from repro.core.config import TC2DConfig
from repro.core.counts import ShiftRecord, TriangleCountResult
from repro.core.grid import ProcessorGrid
from repro.core.kernels import KernelStats, prepare_backend, resolve_backend
from repro.core.preprocess import partition_1d
from repro.core.superstep import KERNEL_JOB_ENTRY
from repro.graph.csr import Graph
from repro.simmpi import Engine, MachineModel, Resident, RunResult, SuperstepPool
from repro.simmpi.engine import RankContext

#: ``(skew U, skew L, shift U, shift L)`` message tags of the tc2d rotation
#: (also the census's); cover-edge uses disjoint quadruples per pass.
TAGS_TC2D = (100, 110, 120, 130)


@dataclass
class KernelTally:
    """What one rank accumulates over its kernel calls.  The field names
    are the matching keys of the rank's return record (``vars(tally)``)."""

    shifts: list[tuple[int, float, int]] = field(default_factory=list)
    hash_builds: int = 0
    hash_fast_builds: int = 0
    backend_uses: dict[str, int] = field(default_factory=dict)


@dataclass
class Operands:
    """One rank's operand set for a rotation: the travelling ``u`` and
    ``l`` blocks and the resident ``task`` block.

    Exchanges replace ``u`` and ``l`` *in place*, so whoever holds the
    record holds only the current blocks — the outgoing block is released
    when its replacement arrives, in real memory as in the accounting.
    """

    u: Block
    l: Block
    task: Block

    def blocks(self) -> tuple[Block, Block, Block]:
        """``(u, l, task)`` as currently held."""
        return self.u, self.l, self.task


def count_blocks(
    ctx: RankContext,
    cfg: TC2DConfig,
    task_block: Block,
    u_block: Block,
    l_block: Block,
    tally: KernelTally,
    operands: tuple | None = None,
    shift: int = 0,
) -> tuple[str, KernelStats]:
    """Run the intersection kernel on one block triple and charge it.

    Inline by default; with ``operands`` (block blobs or
    :class:`~repro.simmpi.Resident` references) the kernel runs on the
    engine's worker pool instead.  Either way the logical
    :class:`~repro.core.kernels.KernelStats` are charged to this rank's
    clock here, so clocks, counters and traces do not depend on where the
    kernel ran.  Returns ``(backend name, stats)``.
    """
    working_set = (
        u_block.nbytes_estimate()
        + l_block.nbytes_estimate()
        + task_block.nbytes_estimate()
    )
    # Resolve per block pair so "auto" can pick differently shift by shift
    # (block shapes change as operands travel the grid).
    bname, kernel_fn = resolve_backend(
        cfg.kernel_backend, task_block, u_block, l_block, cfg
    )
    if operands is not None:
        # Parallel superstep: ship the operands to the worker pool and
        # park; every rank's epoch-z kernel lands in the same dispatch
        # batch (the blocks are data-independent — Eq. 6 pins all
        # operands before any kernel runs).
        payload = ctx.offload(
            KERNEL_JOB_ENTRY,
            operands,
            meta={"backend": bname, "cfg": cfg, "rank": ctx.rank, "shift": shift},
            label=f"kernel:{bname}",
        )
        st = KernelStats(**payload)
    else:
        st = kernel_fn(task_block, u_block, l_block, cfg)
    tally.backend_uses[bname] = tally.backend_uses.get(bname, 0) + 1
    tally.hash_builds += st.hash_builds
    tally.hash_fast_builds += st.hash_fast_builds
    ctx.charge("row_visit", st.row_visits, working_set)
    ctx.charge("task", st.tasks, working_set)
    ctx.charge("hash_insert_fast", st.insert_steps_fast, working_set)
    ctx.charge("hash_insert", st.insert_steps_slow, working_set)
    ctx.charge("hash_probe_fast", st.probe_steps_fast, working_set)
    ctx.charge("hash_probe", st.probe_steps_slow, working_set)
    return bname, st


def exchange_operands(
    ctx: RankContext,
    grid: ProcessorGrid,
    cfg: TC2DConfig,
    ops: Operands,
    tags: tuple[int, int, int, int],
    skew: bool = False,
) -> None:
    """One communication step of the rotation: Cannon's initial alignment
    (``skew``) or a unit shift — U along the grid row, then L along the
    grid column.  Replaces ``ops.u`` and ``ops.l`` by the received blocks."""
    x, y = grid.coords(ctx.rank)
    if skew:
        (du, su), (dl, sl) = grid.skew_u(x, y), grid.skew_l(x, y)
        tag_u, tag_l = tags[:2]
    else:
        (du, su), (dl, sl) = grid.shift_u(x, y), grid.shift_l(x, y)
        tag_u, tag_l = tags[2:]

    def swap(old: Block, new: Block) -> Block:
        # Memory accounting for a travelling block exchange: the outgoing
        # block is released once the replacement arrives (Cannon's pattern
        # keeps exactly one U and one L block live -- the memory-scalability
        # property Section 5.1 claims).
        ctx.free_mem(old.nbytes_estimate())
        ctx.alloc_mem(new.nbytes_estimate())
        return new

    blob = cfg.blob_serialization
    ops.u = swap(ops.u, exchange_block(ctx.comm, ops.u, du, su, blob, tag_u))
    ops.l = swap(ops.l, exchange_block(ctx.comm, ops.l, dl, sl, blob, tag_l))


def load_warm_blocks(ctx: RankContext, caches: Sequence[Any]) -> list[Operands]:
    """The warm path of a rank program: load this rank's crc-verified
    blocks from every (hit) store entry inside a ``cache`` phase, charged
    at the ``cache_io`` rate, then enter an empty ``ppt`` phase so phase
    reports stay well-defined and honest — the trace shows a cache span
    where preprocessing would have been.

    Returns one :class:`Operands` per entry; their blocks know where in
    the store files they were mapped from (:attr:`Block.slot`), which is
    what lets :func:`cannon_pass` point a worker pool at the files.
    """
    rank = ctx.rank
    with ctx.phase("cache"):
        t0 = ctx.clock.now
        loaded = [cache.load_rank(rank) for cache in caches]
        nbytes = sum(entry[3] for entry in loaded)
        ctx.charge("cache_io", nbytes)
        ctx.tracer.cache_loaded(rank, nbytes)
        if ctx.tracer.enabled:
            ctx.tracer.span_point(
                t0, ctx.clock.now, rank, "cache",
                f"cache:load:{caches[0].digest[:12]}", nbytes=nbytes,
            )
        out = []
        for u_block, l_block, task_block, _ in loaded:
            ops = Operands(u_block, l_block, task_block)
            for blk in ops.blocks():
                ctx.alloc_mem(blk.nbytes_estimate())
            out.append(ops)
        ctx.comm.barrier()
    with ctx.phase("ppt"):
        pass  # keeps run.phase_time("ppt") defined (and zero)
    return out


def cannon_pass(
    ctx: RankContext,
    grid: ProcessorGrid,
    cfg: TC2DConfig,
    ops: Operands,
    tally: KernelTally,
    *,
    tags: tuple[int, int, int, int],
    prefix: str,
    shift_base: int,
    resilience: Any = None,
    snap: Any = None,
) -> int:
    """One full Cannon rotation (skew + ``q`` count/shift epochs) over one
    operand set; returns this rank's partial count.

    ``tags`` are the pass's message tags (see :data:`TAGS_TC2D`);
    ``prefix`` scopes its fault-point names (``"shift:z"`` vs
    ``"cover:shift:z"``) and resident keys; ``shift_base`` offsets the
    recorded shift ids so several passes stay distinguishable in one
    record stream.  Kernel statistics accumulate into ``tally``.

    ``resilience`` (a :class:`~repro.resilience.recovery.ResilienceContext`)
    snapshots the travelling blocks + partial count at every epoch
    boundary; ``snap`` is the snapshot to resume from — its blocks are
    already skewed and shifted, so the pass re-enters the loop at
    ``snap.epoch`` with ``snap.local_count``.  Blocks that came out of a
    warm store entry (they carry a :attr:`Block.slot`) are served to the
    worker pool straight from the store files — by every rank or by none,
    which the cross-rank resident keys below rely on and a rank file being
    mappable by construction guarantees.
    """
    q = grid.q
    x, y = grid.coords(ctx.rank)
    offloading = ctx.engine.superstep is not None
    # Residency assumes block *content* is exchange-invariant (only
    # location rotates under Cannon's schedule).  A fault injector can
    # break that — corrupt faults rewrite payloads in flight — so
    # fault-injected runs ship per-epoch transient blobs instead.
    resident = offloading and ctx.engine.faults is None
    site = f"{prefix}:shift" if prefix else "shift"
    who = f"rank {ctx.rank} {prefix}".rstrip()

    def key(*parts: Any) -> tuple:
        return (prefix, *parts) if prefix else parts

    # Read the file addresses now: the skew replaces ops.u and ops.l.
    task_slot, u_slot, l_slot = ops.task.slot, ops.u.slot, ops.l.slot
    file_backed = offloading and task_slot is not None
    if file_backed:
        # The task block is only referenced by this very rank, so its
        # file slot is safe with or without U/L residency.
        ctx.put_resident_file(key("task", ctx.rank), task_slot)
        if resident:
            # Pre-skew schedule-ahead publication.  The stored U/L blobs
            # carry this rank's *pre-skew* inner residues; over a grid row
            # (column) those residues are a bijection onto 0..q-1 exactly
            # like the post-skew ones, so the key union covers every
            # epoch's operand and the bytes are the very pages the skewed
            # copies travelled as.  Every rank publishes before its first
            # blocking call of the pass and drains only fire once no rank
            # is runnable, so all slots are live before any kernel
            # references a grid peer's key.
            ctx.put_resident_file(key("U", x, ops.u.inner_residue), u_slot)
            ctx.put_resident_file(key("L", y, ops.l.inner_residue), l_slot)

    local_sum, start_z = (0, 0) if snap is None else (snap.local_count, snap.epoch)
    if snap is None:
        if q > 1:
            exchange_operands(ctx, grid, cfg, ops, tags, skew=True)
        if resilience is not None:
            resilience.save(ctx, 0, local_sum, *ops.blocks())

    task_ref: Any = None
    if offloading:
        # The task block never travels: publish its blob once as a
        # resident slot and reference it every epoch instead of
        # re-serializing and re-copying it per shift.
        if not file_backed:
            ctx.put_resident(key("task", ctx.rank), ops.task.as_blob())
        task_ref = Resident(key("task", ctx.rank))
    if resident and not file_backed:
        # Schedule-ahead publication: Eq. 6 pins every later epoch's
        # operand *content* right now — blocks only rotate location.
        # Each rank publishing its current U/L blob keyed by (role,
        # fixed residue, inner residue) covers the rank's whole Cannon
        # schedule: at epoch z this rank reads ("U", x, (x+y+z) % q),
        # which a grid peer published under this very protocol.  All
        # publications precede the first dispatch because drains only
        # fire once every rank has parked on its epoch job.
        ctx.put_resident(key("U", x, ops.u.inner_residue), ops.u.as_blob())
        ctx.put_resident(key("L", y, ops.l.inner_residue), ops.l.as_blob())

    for z in range(start_z, q):
        ctx.fault_point(f"{site}:{z}")
        # Eq. 6 — also what the resident keys below are derived
        # from, so prove the travelling blocks actually carry the residue
        # before substituting resident bytes for them.
        expected = grid.operand_residue(x, y, z)
        if ops.u.inner_residue != expected or ops.l.inner_residue != expected:
            raise AssertionError(
                f"{who} step {z}: operands carry residues "
                f"(U={ops.u.inner_residue}, L={ops.l.inner_residue}), "
                f"expected {expected}"
            )
        operands = None
        if resident:
            operands = (
                task_ref,
                Resident(key("U", x, expected)),
                Resident(key("L", y, expected)),
            )
        elif offloading:
            # as_blob: exchanged blocks retain their wire buffer, so the
            # transient path re-ships but never re-packs.
            operands = (task_ref, ops.u.as_blob(), ops.l.as_blob())
        t0 = ctx.clock.now
        bname, st = count_blocks(
            ctx, cfg, ops.task, ops.u, ops.l, tally, operands, shift_base + z
        )
        local_sum += st.triangles
        if ctx.tracer.enabled:
            ctx.tracer.span_point(
                t0, ctx.clock.now, ctx.rank, "compute",
                f"kernel:{bname}", shift=shift_base + z, tasks=st.tasks,
            )
        tally.shifts.append((shift_base + z, ctx.clock.now - t0, st.tasks))

        if z < q - 1:
            ctx.fault_point(f"{site}:{z}:exchange")
            exchange_operands(ctx, grid, cfg, ops, tags)
            # Validate the incoming operands *before* any checkpoint
            # snapshot: a stale block (e.g. from an injected duplicate
            # delivery) must abort the step, not poison the on-disk
            # state a restart would restore from.
            nxt = grid.operand_residue(x, y, z + 1)
            if ops.u.inner_residue != nxt or ops.l.inner_residue != nxt:
                raise AssertionError(
                    f"{who} step {z}: exchange delivered blocks with residues "
                    f"(U={ops.u.inner_residue}, L={ops.l.inner_residue}), "
                    f"expected {nxt} (stale or misrouted delivery)"
                )
        if resilience is not None:
            resilience.save(ctx, z + 1, local_sum, *ops.blocks())

    # Cannon's memory property per pass: exactly one U and one L block
    # live; release this pass's working set before the next begins.
    for blk in ops.blocks():
        ctx.free_mem(blk.nbytes_estimate())
    return local_sum


def rank_record(
    ctx: RankContext,
    counters_ppt: dict[str, float],
    total: int,
    local: int,
    tally: KernelTally,
    **extra: Any,
) -> dict[str, Any]:
    """The record a rank program returns to :func:`assemble_result`:
    reduced and local counts, the ppt/tct split of the rank's logical
    counters (``counters_ppt`` is the snapshot taken when preprocessing
    ended), the kernel tally, plus algorithm-specific ``extra`` keys."""
    from repro.instrument import counters_diff

    return {
        "total": int(total),
        "local": int(local),
        "counters_ppt": counters_ppt,
        "counters_tct": counters_diff(ctx.counters, counters_ppt),
        **vars(tally),
        **extra,
    }


def assemble_result(
    run: RunResult,
    p: int,
    cfg: TC2DConfig,
    algorithm: str,
    dataset: str = "",
    keep_run: bool = False,
) -> TriangleCountResult:
    """Build the :class:`TriangleCountResult` record from a finished run
    whose ranks returned :func:`rank_record` records."""
    from repro.instrument import merge_counters

    rets = run.returns
    count = rets[0]["total"]
    if any(r["total"] != count for r in rets):
        raise AssertionError("ranks disagree on the reduced triangle count")
    if sum(r["local"] for r in rets) != count:
        raise AssertionError("local counts do not sum to the global count")

    result = TriangleCountResult(
        count=count,
        p=p,
        dataset=dataset,
        algorithm=algorithm,
        ppt_time=run.phase_time("ppt"),
        tct_time=run.phase_time("tct"),
        counters_ppt=merge_counters([r["counters_ppt"] for r in rets]),
        counters_tct=merge_counters([r["counters_tct"] for r in rets]),
        comm_fraction_ppt=run.phase_comm_fraction("ppt"),
        comm_fraction_tct=run.phase_comm_fraction("tct"),
        shift_records=[
            ShiftRecord(shift=z, rank=rank, compute_seconds=dt, tasks=nt)
            for rank, r in enumerate(rets)
            for (z, dt, nt) in r["shifts"]
        ],
        hash_builds=sum(r["hash_builds"] for r in rets),
        hash_fast_builds=sum(r["hash_fast_builds"] for r in rets),
    )
    result.extras["makespan"] = run.makespan
    result.extras["mem_peak_bytes"] = max(run.mem_peaks) if run.mem_peaks else 0
    result.extras["kernel_backend"] = cfg.kernel_backend
    uses: Counter[str] = Counter()
    for r in rets:
        uses.update(r["backend_uses"])
    result.extras["kernel_backend_uses"] = dict(uses)
    if keep_run:
        result.extras["run"] = run
    return result


def _open_caches(
    cache: Any,
    graph: Graph,
    p: int,
    cfg: TC2DConfig,
    model: MachineModel | None,
    dataset: str,
    passes: Sequence[str],
) -> list:
    """Coerce ``cache=`` into the run's list of ``RunCache`` handles: one
    per name in ``passes`` (keyed by a ``{"pass": name}`` digest
    component), or the single un-keyed artifact when ``passes`` is empty.

    Accepts ``None``, ``True`` (default store root), a path, a
    ``GraphStore`` or — for single-artifact runs — an already-opened
    ``RunCache``.  Imported lazily so :mod:`repro.core` never depends on
    the store at import time.
    """
    if cache is None:
        return []
    from repro.graph.store import RunCache, resolve_store

    if isinstance(cache, RunCache):
        if passes:
            raise TypeError(
                f"this run stores {len(passes)} artifacts; pass a GraphStore "
                "(or path / True) instead of an opened RunCache"
            )
        return [cache]
    store = resolve_store(cache)
    return [
        store.open_run(
            graph, p, cfg, model=model, source=dataset,
            key_extra={"pass": name} if name else None,
        )
        for name in (passes or ("",))
    ]


def _finish_caches(
    caches: list, passes: Sequence[str], result: TriangleCountResult,
    pooled: bool,
) -> None:
    """Finalize a cold cached run / replay a warm one.

    Cold + writable: writes the entry manifests, recording the measured ppt
    statistics under the machine-model fingerprint.  Warm (every entry
    hit): replays the recorded ppt statistics (valid because the
    simulation is deterministic — they are exactly what a fresh run would
    measure) into the result so benchmark tables built off a warm store
    keep honest preprocessing columns.  Either way
    ``result.extras["cache"]`` records what happened; later passes'
    digests appear as ``"<pass>_digest"``, and ``file_serving`` is
    ``pooled``: whether workers read the blobs from the store files.
    """
    if not caches:
        return
    info: dict[str, Any] = {"digest": caches[0].digest}
    for name, cache in zip(passes[1:], caches[1:]):
        info[f"{name}_digest"] = cache.digest
    if all(c.hit for c in caches):
        recorded = caches[0].recorded_ppt()
        if recorded is not None:
            result.ppt_time = float(recorded["ppt_time"])
            result.comm_fraction_ppt = float(recorded["comm_fraction_ppt"])
            result.counters_ppt = dict(recorded["counters_ppt"])
        else:
            # No recording for this machine model: report the honest truth
            # — preprocessing did not run.  (The live ``ppt`` phase is
            # empty; the cross-rank phase_time would otherwise show only
            # barrier clock skew, not work.)
            result.ppt_time = 0.0
            result.comm_fraction_ppt = 0.0
        info.update(
            hit=True,
            nbytes=sum(c.loaded_nbytes for c in caches),
            replayed_ppt=recorded is not None,
            mapped_ranks=sum(c.mapped_ranks for c in caches),
            file_serving=pooled,
        )
    else:
        ppt_stats = {
            "ppt_time": result.ppt_time,
            "comm_fraction_ppt": result.comm_fraction_ppt,
            "counters_ppt": result.counters_ppt,
        }
        stored = [
            c.finalize(ppt_stats=ppt_stats)
            for c in caches
            if c.writable and not c.hit
        ]
        info.update(hit=False, stored=bool(stored) and all(stored))
    result.extras["cache"] = info


class GridJob:
    """The run driver every grid algorithm shares (a context manager).

    Entering pins ``cfg.algorithm`` to ``algorithm`` (it is a store-key
    component, and each driver runs exactly one preprocessing pipeline),
    opens the run's store entries (one per name in ``passes``, or one
    un-keyed entry), lays out the 1D input partition unless every entry
    hit, and creates — or borrows, when ``superstep`` is given — the
    worker pool ``cfg.executor == "parallel"`` asks for.  :meth:`run`
    executes one rank program on a fresh engine; :meth:`finish` turns the
    run into the result record.  Leaving releases the store writer locks
    and shuts an owned pool down, whether or not the run succeeded.

    The remaining parameters are the drivers' own (see
    :func:`~repro.core.tc2d.count_triangles_2d`); ``fault_injector`` is
    installed on every engine and disables store writes — an injected
    fault can corrupt preprocessing traffic, and a poisoned artifact
    would outlive the run.
    """

    def __init__(
        self,
        graph: Graph,
        p: int,
        cfg: TC2DConfig | None,
        algorithm: str,
        *,
        model: MachineModel | None = None,
        trace: Any = False,
        dataset: str = "",
        superstep: SuperstepPool | None = None,
        cache: Any = None,
        telemetry: Any = None,
        passes: Sequence[str] = (),
        fault_injector: Any = None,
    ):
        cfg = cfg if cfg is not None else TC2DConfig()
        if cfg.algorithm != algorithm:
            cfg = cfg.replace(algorithm=algorithm)
        self.graph = graph
        self.p = p
        self.cfg = cfg
        self.model = model
        self.trace = trace
        self.dataset = dataset
        self.telemetry = telemetry
        self.passes = passes
        self.faults = fault_injector
        self.pool = superstep
        self._cache_arg = cache
        self._owns_pool = False
        self.caches: list = []
        self.engine: Engine | None = None

    def __enter__(self) -> "GridJob":
        try:
            self._open()
        except BaseException:
            self.close()
            raise
        return self

    def _open(self) -> None:
        cfg, p = self.cfg, self.p
        # Before a pool exists or a rank runs: the compiled kernel is
        # built here or not at all, and an explicit "c" that cannot be
        # had fails typed on the driver, not inside a rank.
        prepare_backend(cfg.kernel_backend)
        self.caches = _open_caches(
            self._cache_arg, self.graph, p, cfg, self.model, self.dataset,
            self.passes,
        )
        if self.faults is not None:
            for cache in self.caches:
                cache.writable = False
        # Every store entry hit: ranks load blocks instead of preprocessing,
        # and the 1D input partition only feeds preprocessing.
        warm = bool(self.caches) and all(c.hit for c in self.caches)
        self.chunks = [None] * p if warm else partition_1d(self.graph, p)
        if self.pool is None and cfg.executor == "parallel":
            self.pool = SuperstepPool(
                workers=cfg.workers, timeout=cfg.real_timeout
            )
            self._owns_pool = True
        if self.pool is not None and self.telemetry is not None:
            self.telemetry.attach_pool(self.pool)

    def run(
        self, program: Callable[..., Any], *args: Any, label_suffix: str = ""
    ) -> RunResult:
        """Run ``program(ctx, chunks, *args)`` on a fresh engine.

        Begins a telemetry window labelled ``<dataset>-p<p><suffix>``.  A
        failing run dumps the flight recorder before the exception
        propagates — unless faults are being injected, when failures are
        the expected case and the caller's restart loop decides.
        """
        tele = self.telemetry
        if tele is not None:
            tele.begin_run(
                label=f"{self.dataset or 'graph'}-p{self.p}{label_suffix}"
            )
        self.engine = Engine(
            self.p,
            model=self.model,
            trace=self.trace,
            real_timeout=self.cfg.real_timeout,
            fault_injector=self.faults,
            superstep=self.pool,
            telemetry=tele,
        )
        try:
            return self.engine.run(program, self.chunks, *args)
        except BaseException as exc:
            if tele is not None and self.faults is None:
                tele.crash_dump(reason=type(exc).__name__)
            raise

    def finish(
        self, run: RunResult, algorithm: str, keep_run: bool = False
    ) -> TriangleCountResult:
        """Assemble the result of a successful :meth:`run`: the record
        itself (labelled ``algorithm``), the store finalize/replay, the
        executor extras and the telemetry summary."""
        result = assemble_result(
            run, self.p, self.cfg, algorithm,
            dataset=self.dataset,
            keep_run=keep_run or self.engine.tracer.enabled,
        )
        _finish_caches(
            self.caches, self.passes, result, pooled=self.pool is not None
        )
        if self.pool is not None:
            result.extras["executor"] = "parallel"
            result.extras["workers"] = self.pool.workers
            result.extras["worker_spans"] = self.pool.drain_spans()
        if self.telemetry is not None:
            result.extras["telemetry"] = self.telemetry.summarize(
                result=result, run=run, model=self.engine.model, cfg=self.cfg
            )
        return result

    def close(self) -> None:
        """Release the store writer locks (so a crashed cold run cannot
        wedge other writers of the same artifact until process exit) and
        shut down the pool if this job created it."""
        for cache in self.caches:
            cache.close()
        if self._owns_pool:
            self.pool.shutdown()
            self._owns_pool = False

    def __exit__(self, *exc: Any) -> None:
        self.close()
