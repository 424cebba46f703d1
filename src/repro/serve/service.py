"""The multi-tenant triangle-counting service core (no I/O here).

:class:`TriangleService` is the transport-agnostic heart of
``repro serve``: it validates and canonicalizes job requests, answers
warm requests instantly from a digest-keyed result cache, and schedules
cold runs onto a small dispatcher thread pool with **admission control**
— a bounded queue, a per-tenant quota and typed
:class:`AdmissionError` rejections instead of unbounded buffering.

Design points (see ``docs/serve.md`` for the full story):

* **Canonicalization.**  Every request normalizes to a sorted-JSON
  canonical form; count/census/ktruss runs are keyed by the *same*
  content digest the preprocessing store uses
  (:func:`repro.graph.store.artifact_digest`), so a served result's
  provenance names exactly the artifact ``repro count --cache`` would
  hit, and two textually different but semantically equal requests share
  one cache line.
* **Warm fast path.**  A repeated request returns the cached result
  without touching the engine, the queue or the quotas — the only cost
  is a dict lookup, which is what makes warm p50 latency orders of
  magnitude below cold p50.
* **Shared pool.**  With ``executor="parallel"`` one long-lived
  :class:`~repro.simmpi.parallel.SuperstepPool` is shared by every cold
  run (worker spawn cost amortizes across requests); the engine resets
  it per run and the resident-arena generation bump isolates tenants.
* **Progress.**  Cold runs execute under a disabled
  :class:`~repro.simmpi.tracing.Tracer` subclass whose progress hooks
  forward top-level phase closures and store loads into the job's event
  log while the run is still executing, so clients can stream progress
  without the run being traced.
* **Honest results.**  Every result carries provenance: the artifact
  digest, the machine-model fingerprint, cold/warm, measured wall time
  and the simulated virtual times — and a served count is bit-identical
  to ``repro count`` for the same request (same config path, same
  model).
"""

from __future__ import annotations

import json
import queue
import threading
import time
from collections import OrderedDict, deque
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from repro.simmpi.tracing import Tracer

#: Request kinds the service accepts.
JOB_KINDS = ("count", "census", "ktruss")

#: Serve-layer API schema (stamped into every job/result payload).
SERVE_SCHEMA = 1

#: Finished jobs the service keeps addressable by id.  Queued and running
#: jobs are always kept; past this many terminal ones the oldest-finished
#: is forgotten and ``/v1/jobs/<id>`` answers 404 for it, so a long-lived
#: server's job table is bounded by its admission limits plus this.
MAX_TERMINAL_JOBS = 1024


class AdmissionError(RuntimeError):
    """A request was rejected by admission control (typed, counted).

    ``reason`` is one of ``"queue_full"`` (the bounded cold-job queue is
    at capacity), ``"tenant_quota"`` (this tenant already has its quota
    of admitted jobs in flight) or ``"shutting_down"`` (the service is
    draining).  The HTTP layer maps it to a 429-style response; the
    caller is expected to back off and retry.

    ``retry_after`` is the service's backoff hint in seconds — derived
    from the current queue depth and observed cold latency, it estimates
    when capacity will next free up.  The HTTP layer turns it into a
    ``Retry-After`` header.
    """

    def __init__(
        self, reason: str, detail: str = "", retry_after: float | None = None
    ):
        super().__init__(detail or reason)
        self.reason = reason
        self.detail = detail or reason
        self.retry_after = retry_after


@dataclass
class ServeConfig:
    """Everything that shapes one service instance.

    Attributes
    ----------
    max_inflight:
        Dispatcher threads — cold jobs executing concurrently.
    max_queue:
        Bound on *admitted but not yet running* cold jobs; submissions
        beyond it are rejected with ``reason="queue_full"``.
    tenant_quota:
        Max admitted (queued + running) cold jobs per tenant; beyond it
        submissions reject with ``reason="tenant_quota"``.
    store:
        Preprocessing-store root (``None`` disables the on-disk cache;
        warm *result* caching works regardless).
    executor / workers:
        Superstep-executor knobs for cold runs; ``"parallel"`` creates
        one shared :class:`~repro.simmpi.parallel.SuperstepPool` for the
        service's lifetime.
    result_cache_size:
        LRU capacity of the in-memory digest-keyed result cache.
    default_ranks:
        Rank count when a request omits ``ranks``.
    """

    max_inflight: int = 2
    max_queue: int = 8
    tenant_quota: int = 4
    store: str | Path | None = None
    executor: str = "sequential"
    workers: int = 0
    result_cache_size: int = 256
    default_ranks: int = 16
    real_timeout: float = 600.0

    def __post_init__(self) -> None:
        if self.max_inflight < 1:
            raise ValueError("max_inflight must be >= 1")
        if self.max_queue < 0:
            raise ValueError("max_queue must be >= 0")
        if self.tenant_quota < 1:
            raise ValueError("tenant_quota must be >= 1")
        if self.executor not in ("sequential", "parallel"):
            raise ValueError(f"unknown executor {self.executor!r}")


class Job:
    """One submitted request's lifecycle record (thread-safe).

    States move ``queued -> running -> done | failed``; warm hits are
    born ``done``.  ``events`` is an append-only log with monotonically
    increasing ``seq`` numbers; :meth:`wait_events` long-polls it.
    """

    def __init__(self, job_id: str, tenant: str, request: dict[str, Any]):
        self.id = job_id
        self.tenant = tenant
        self.request = request
        self.state = "queued"
        self.warm = False
        self.result: dict[str, Any] | None = None
        self.error: str | None = None
        self.t_submit = time.perf_counter()
        self.t_started: float | None = None
        self.t_finished: float | None = None
        self.events: list[dict[str, Any]] = []
        self._cond = threading.Condition()

    # -- event log ----------------------------------------------------------

    def add_event(self, kind: str, **detail: Any) -> None:
        """Append one progress event and wake any long-pollers."""
        with self._cond:
            self.events.append(
                {
                    "seq": len(self.events),
                    "t_s": round(time.perf_counter() - self.t_submit, 6),
                    "kind": kind,
                    **detail,
                }
            )
            self._cond.notify_all()

    def wait_events(
        self, since: int = 0, timeout: float = 0.0
    ) -> list[dict[str, Any]]:
        """Events with ``seq >= since``; blocks up to ``timeout`` seconds
        for news when none are ready and the job is still moving."""
        deadline = time.perf_counter() + max(0.0, timeout)
        with self._cond:
            while (
                len(self.events) <= since
                and self.state in ("queued", "running")
                and time.perf_counter() < deadline
            ):
                self._cond.wait(timeout=min(0.25, timeout or 0.25))
            return list(self.events[since:])

    # -- state transitions (service-internal) -------------------------------

    def _finish(self, state: str, result: dict | None, error: str | None) -> None:
        with self._cond:
            self.state = state
            self.result = result
            self.error = error
            self.t_finished = time.perf_counter()
            self._cond.notify_all()

    def wait(self, timeout: float | None = None) -> bool:
        """Block until the job reaches a terminal state; True if it did."""
        deadline = None if timeout is None else time.perf_counter() + timeout
        with self._cond:
            while self.state in ("queued", "running"):
                rem = None if deadline is None else deadline - time.perf_counter()
                if rem is not None and rem <= 0:
                    return False
                self._cond.wait(timeout=rem if rem is not None else 0.5)
            return True

    @property
    def latency_s(self) -> float | None:
        """Submit-to-terminal wall latency (includes queue wait)."""
        if self.t_finished is None:
            return None
        return self.t_finished - self.t_submit

    def to_dict(self, events_since: int | None = None) -> dict[str, Any]:
        """JSON view of the job (optionally with its event tail)."""
        doc: dict[str, Any] = {
            "schema": SERVE_SCHEMA,
            "id": self.id,
            "tenant": self.tenant,
            "request": self.request,
            "state": self.state,
            "warm": self.warm,
            "latency_s": self.latency_s,
            "num_events": len(self.events),
        }
        if self.result is not None:
            doc["result"] = self.result
        if self.error is not None:
            doc["error"] = self.error
        if events_since is not None:
            doc["events"] = list(self.events[events_since:])
        return doc


class _JobTracer(Tracer):
    """A disabled tracer that streams a cold run's progress into a job's
    event log: every top-level phase closure and every warm-store load.

    It records nothing, so the run executes exactly as an untraced one
    (all-to-alls included).  The engine serializes rank execution, so the
    hooks run on one rank thread at a time; the job's condition lock makes
    the append safe regardless.
    """

    def __init__(self, job: Job):
        super().__init__(enabled=False)
        self._job = job

    def phase_closed(self, rank: int, name: str, virtual_s: float) -> None:
        self._job.add_event(
            "phase", rank=rank, name=name, virtual_s=round(virtual_s, 9)
        )

    def cache_loaded(self, rank: int, nbytes: int) -> None:
        self._job.add_event("cache_load", rank=rank, nbytes=int(nbytes))


class ServeMetrics:
    """Serve-level counters, gauges and latency quantiles (thread-safe).

    Rendered by :meth:`render` in a Prometheus-style text format for the
    ``/metrics`` scrape endpoint, and by :meth:`snapshot` as JSON for
    ``/v1/stats`` and the bench harness.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.submitted = 0
        self.completed = {"warm": 0, "cold": 0}
        self.failed = 0
        self.rejected: dict[str, int] = {}
        self.queue_depth = 0
        self.inflight = 0
        self.queue_depth_max = 0
        self._latency: dict[str, deque] = {
            "warm": deque(maxlen=8192),
            "cold": deque(maxlen=2048),
        }
        #: Aggregate simulated seconds per engine phase across cold runs
        #: (the RunMetrics view of everything this service executed).
        self.phase_virtual_s: dict[str, float] = {}
        #: Aggregate operation counters across cold runs.
        self.ops_total: dict[str, float] = {}
        self.last_imbalance: dict[str, float] = {}

    # -- updates ------------------------------------------------------------

    def note_submit(self) -> None:
        with self._lock:
            self.submitted += 1

    def note_reject(self, reason: str) -> None:
        with self._lock:
            self.rejected[reason] = self.rejected.get(reason, 0) + 1

    def note_queue(self, depth: int, inflight: int) -> None:
        with self._lock:
            self.queue_depth = depth
            self.inflight = inflight
            self.queue_depth_max = max(self.queue_depth_max, depth)

    def note_done(self, klass: str, latency_s: float) -> None:
        with self._lock:
            self.completed[klass] = self.completed.get(klass, 0) + 1
            self._latency.setdefault(klass, deque(maxlen=2048)).append(latency_s)

    def note_failed(self) -> None:
        with self._lock:
            self.failed += 1

    def note_run(self, result: Any) -> None:
        """Fold one cold run's phase/counter registry into the totals."""
        with self._lock:
            for name, t in (("ppt", result.ppt_time), ("tct", result.tct_time)):
                self.phase_virtual_s[name] = (
                    self.phase_virtual_s.get(name, 0.0) + float(t)
                )
            for src in (result.counters_ppt, result.counters_tct):
                for k, v in src.items():
                    self.ops_total[k] = self.ops_total.get(k, 0.0) + float(v)
            run = result.extras.get("run")
            if run is not None:
                from repro.instrument.metrics import RunMetrics

                rm = RunMetrics.from_run(run)
                for pm in rm.phases:
                    if pm.name in ("ppt", "tct", "cache"):
                        self.last_imbalance[pm.name] = float(pm.imbalance)

    # -- views --------------------------------------------------------------

    def percentile(self, klass: str, q: float) -> float | None:
        """Latency quantile ``q`` in [0, 1] for class ``"warm"``/``"cold"``."""
        with self._lock:
            data = sorted(self._latency.get(klass, ()))
        if not data:
            return None
        idx = min(len(data) - 1, max(0, int(round(q * (len(data) - 1)))))
        return data[idx]

    def hit_ratio(self) -> float | None:
        """Warm completions over all completions (None before traffic)."""
        with self._lock:
            warm = self.completed.get("warm", 0)
            total = warm + self.completed.get("cold", 0)
        return (warm / total) if total else None

    def snapshot(self) -> dict[str, Any]:
        """JSON-serializable state for ``/v1/stats`` and the bench."""
        with self._lock:
            snap = {
                "submitted": self.submitted,
                "completed": dict(self.completed),
                "failed": self.failed,
                "rejected": dict(self.rejected),
                "queue_depth": self.queue_depth,
                "queue_depth_max": self.queue_depth_max,
                "inflight": self.inflight,
                "phase_virtual_s": dict(self.phase_virtual_s),
                "last_imbalance": dict(self.last_imbalance),
            }
        snap["hit_ratio"] = self.hit_ratio()
        for klass in ("warm", "cold"):
            snap[f"{klass}_p50_s"] = self.percentile(klass, 0.50)
            snap[f"{klass}_p99_s"] = self.percentile(klass, 0.99)
        return snap

    def render(self) -> str:
        """Prometheus-style text exposition of every metric."""
        lines: list[str] = []

        def emit(name: str, value: Any, **labels: str) -> None:
            if value is None:
                return
            lab = ",".join(f'{k}="{v}"' for k, v in sorted(labels.items()))
            lines.append(f"repro_serve_{name}{{{lab}}} {value}" if lab
                         else f"repro_serve_{name} {value}")

        with self._lock:
            emit("jobs_submitted_total", self.submitted)
            for klass, n in sorted(self.completed.items()):
                emit("jobs_completed_total", n, **{"class": klass})
            emit("jobs_failed_total", self.failed)
            for reason, n in sorted(self.rejected.items()):
                emit("jobs_rejected_total", n, reason=reason)
            emit("queue_depth", self.queue_depth)
            emit("queue_depth_max", self.queue_depth_max)
            emit("inflight", self.inflight)
            for phase, t in sorted(self.phase_virtual_s.items()):
                emit("phase_virtual_seconds_total", f"{t:.9f}", phase=phase)
            for kind, v in sorted(self.ops_total.items()):
                emit("ops_total", int(v), kind=kind)
            for phase, f in sorted(self.last_imbalance.items()):
                emit("last_run_imbalance", f"{f:.6f}", phase=phase)
        for klass in ("warm", "cold"):
            for q in (0.5, 0.9, 0.99):
                v = self.percentile(klass, q)
                if v is not None:
                    lines.append(
                        f'repro_serve_latency_seconds{{class="{klass}",'
                        f'quantile="{q}"}} {v:.9f}'
                    )
        hr = self.hit_ratio()
        if hr is not None:
            lines.append(f"repro_serve_hit_ratio {hr:.6f}")
        return "\n".join(lines) + "\n"


def normalize_request(doc: dict[str, Any], default_ranks: int = 16) -> dict:
    """Validate a raw request and return its canonical form.

    Raises :class:`ValueError` on anything malformed — unknown kind,
    unknown field, non-square rank count, missing dataset.  The
    canonical form is what gets digested, so field order and defaults
    can never split the cache.
    """
    if not isinstance(doc, dict):
        raise ValueError("request body must be a JSON object")
    allowed = {"kind", "dataset", "ranks", "seed", "k", "enumeration",
               "tenant", "wait", "progress"}
    unknown = set(doc) - allowed
    if unknown:
        raise ValueError(f"unknown request fields: {sorted(unknown)}")
    kind = str(doc.get("kind", "count"))
    if kind not in JOB_KINDS:
        raise ValueError(f"kind must be one of {JOB_KINDS}, got {kind!r}")
    dataset = doc.get("dataset")
    if not dataset or not isinstance(dataset, str):
        raise ValueError("request needs a dataset (registry name or path)")
    try:
        ranks, seed, k = (
            int(doc.get(name, default))
            for name, default in (("ranks", default_ranks), ("seed", 0), ("k", 3))
        )
    except (TypeError, ValueError):  # null, list, "abc"
        raise ValueError("ranks, seed and k must be integers") from None
    enumeration = str(doc.get("enumeration", "jik"))
    if enumeration not in ("jik", "ijk"):
        raise ValueError("enumeration must be 'jik' or 'ijk'")
    from repro.core.grid import ProcessorGrid

    ProcessorGrid.for_ranks(ranks)  # raises on non-square
    out: dict[str, Any] = {
        "kind": kind,
        "dataset": dataset,
        "ranks": ranks,
        "seed": seed,
        "enumeration": enumeration,
    }
    if kind == "ktruss":
        if k < 2:
            raise ValueError("ktruss needs k >= 2")
        out["k"] = k
    elif "k" in doc:
        raise ValueError("field 'k' is only valid for kind='ktruss'")
    from repro.graph.datasets import REGISTRY

    if dataset not in REGISTRY:
        path = Path(dataset)
        if not path.exists():
            raise ValueError(
                f"unknown dataset {dataset!r} (not in the registry and not "
                "a file)"
            )
        # File-backed graphs fold content identity (size, mtime) into the
        # canonical form so an edited file can never serve a stale result.
        st = path.stat()
        out["file"] = {"size": st.st_size, "mtime_ns": st.st_mtime_ns}
    return out


def request_key(spec: dict[str, Any]) -> str:
    """Canonical cache key of a normalized request."""
    return json.dumps(spec, sort_keys=True, separators=(",", ":"))


class TriangleService:
    """Admission-controlled, warm-cached triangle-counting service.

    Transport-agnostic: the asyncio HTTP front end
    (:mod:`repro.serve.server`) and in-process users (tests, the bench
    harness) both drive this API:

    >>> svc = TriangleService(ServeConfig(max_inflight=1))
    >>> job = svc.submit({"kind": "count", "dataset": "g500-s12",
    ...                   "ranks": 9}, tenant="alice")
    >>> job.wait(); job.result["count"]          # doctest: +SKIP

    Call :meth:`close` (or use as a context manager) to drain in-flight
    jobs and release the worker pool.
    """

    def __init__(self, config: ServeConfig | None = None):
        self.config = config if config is not None else ServeConfig()
        self.metrics = ServeMetrics()
        self._lock = threading.Lock()
        self._jobs: dict[str, Job] = {}
        #: Ids of terminal jobs still in ``_jobs``, oldest-finished first.
        self._terminal: deque[str] = deque()
        self._queued = 0
        self._inflight = 0
        self._tenant_admitted: dict[str, int] = {}
        self._results: OrderedDict[str, dict] = OrderedDict()
        self._graphs: OrderedDict[Any, tuple[Any, str]] = OrderedDict()
        self._closing = False
        self._seq = 0
        self._queue: queue.Queue = queue.Queue()
        from repro.bench.calibration import paper_model

        self._model = paper_model()
        self._model_fp = self._model.fingerprint()
        from repro.graph.store import store_from_env

        self._store = store_from_env(self.config.store)
        # Build/load the compiled kernel before any job is taken, so no
        # request's latency contains a compiler run.
        from repro.core.kernels import prepare_backend

        prepare_backend("auto")
        self._pool = None
        self._pool_lock = threading.Lock()
        if self.config.executor == "parallel":
            from repro.simmpi.parallel import SuperstepPool

            self._pool = SuperstepPool(
                workers=self.config.workers, timeout=self.config.real_timeout
            )
        self._workers = [
            threading.Thread(
                target=self._worker_loop, name=f"serve-worker-{i}", daemon=True
            )
            for i in range(self.config.max_inflight)
        ]
        for t in self._workers:
            t.start()

    # -- public API ---------------------------------------------------------

    def submit(self, request: dict[str, Any], tenant: str = "default") -> Job:
        """Canonicalize, admission-check and enqueue (or instantly answer)
        one request.

        Returns the :class:`Job` — terminal already on a warm hit.
        Raises :class:`ValueError` for malformed requests and
        :class:`AdmissionError` for typed capacity rejections.
        """
        self.metrics.note_submit()
        spec = normalize_request(request, self.config.default_ranks)
        key = request_key(spec)
        with self._lock:
            if self._closing:
                self.metrics.note_reject("shutting_down")
                raise AdmissionError(
                    "shutting_down",
                    "service is draining",
                    retry_after=self._retry_after_locked(),
                )
            cached = self._results.get(key)
            if cached is not None:
                self._results.move_to_end(key)  # LRU touch
                job = self._new_job_locked(tenant, spec)
                job.warm = True
                result = dict(cached)
                result["served"] = "warm"
                job.add_event("warm_hit", digest=result.get("digest"))
                job._finish("done", result, None)
                self._note_terminal_locked(job)
                self.metrics.note_done("warm", job.latency_s or 0.0)
                return job
            # Cold: admission control.  Total admitted work (running +
            # queued) is bounded by max_inflight + max_queue, so a
            # max_queue of 0 still lets the dispatchers run jobs.
            capacity = self.config.max_inflight + self.config.max_queue
            if self._queued + self._inflight >= capacity:
                self.metrics.note_reject("queue_full")
                raise AdmissionError(
                    "queue_full",
                    f"cold-job capacity reached ({capacity} admitted)",
                    retry_after=self._retry_after_locked(),
                )
            admitted = self._tenant_admitted.get(tenant, 0)
            if admitted >= self.config.tenant_quota:
                self.metrics.note_reject("tenant_quota")
                raise AdmissionError(
                    "tenant_quota",
                    f"tenant {tenant!r} already has {admitted} jobs admitted "
                    f"(quota {self.config.tenant_quota})",
                    retry_after=self._retry_after_locked(),
                )
            job = self._new_job_locked(tenant, spec)
            self._queued += 1
            self._tenant_admitted[tenant] = admitted + 1
            self.metrics.note_queue(self._queued, self._inflight)
        job.add_event("queued", key_digest=None)
        self._queue.put(job)
        return job

    def job(self, job_id: str) -> Job | None:
        """Look up a submitted job by id (``None`` for an unknown id or a
        finished job older than the last :data:`MAX_TERMINAL_JOBS`)."""
        with self._lock:
            return self._jobs.get(job_id)

    def stats(self) -> dict[str, Any]:
        """Service status snapshot (config, metrics, store, pool)."""
        snap = self.metrics.snapshot()
        snap.update(
            schema=SERVE_SCHEMA,
            closing=self._closing,
            jobs=len(self._jobs),
            result_cache_entries=len(self._results),
            max_inflight=self.config.max_inflight,
            max_queue=self.config.max_queue,
            tenant_quota=self.config.tenant_quota,
            executor=self.config.executor,
            store=str(self._store.root) if self._store is not None else None,
            machine_fingerprint=self._model_fp,
        )
        if self._pool is not None:
            snap["pool"] = self._pool.stats_snapshot()
        return snap

    def close(self, drain: bool = True, timeout: float | None = None) -> None:
        """Stop accepting work and shut down.

        ``drain=True`` lets queued and in-flight jobs finish first (the
        graceful path); ``drain=False`` fails queued jobs with
        ``"cancelled"`` and only waits for in-flight ones.  Idempotent.
        """
        with self._lock:
            if self._closing:
                return
            self._closing = True
        if not drain:
            while True:
                try:
                    job = self._queue.get_nowait()
                except queue.Empty:
                    break
                if isinstance(job, Job):
                    self._retire(job, "failed", None, "cancelled")
        for _ in self._workers:
            self._queue.put(None)  # one sentinel per worker
        for t in self._workers:
            t.join(timeout=timeout)
        if self._pool is not None:
            self._pool.shutdown()

    def __enter__(self) -> "TriangleService":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()

    # -- internals ----------------------------------------------------------

    def _retry_after_locked(self) -> float:
        """Backoff hint (seconds) from queue depth and cold latency.

        Admitted work drains in waves of ``max_inflight`` jobs, each
        wave taking roughly one cold-p50 latency; the hint is how long
        the *currently admitted* backlog needs to clear.  Before any
        cold run has completed there is no latency sample, so the hint
        degrades to one second per wave — small, but still shaped by
        depth so a saturated cold-start herd spreads out.  Caller holds
        ``self._lock`` (the metrics lock nests safely inside it).
        """
        waves = (self._queued + self._inflight) / max(1, self.config.max_inflight)
        per_wave = self.metrics.percentile("cold", 0.5) or 1.0
        return round(max(1.0, waves * per_wave), 3)

    def _new_job_locked(self, tenant: str, spec: dict[str, Any]) -> Job:
        self._seq += 1
        job = Job(f"job-{self._seq:06d}", tenant, spec)
        self._jobs[job.id] = job
        return job

    def _note_terminal_locked(self, job: Job) -> None:
        """``job`` is finishing: it may now be forgotten, oldest first."""
        self._terminal.append(job.id)
        while len(self._terminal) > MAX_TERMINAL_JOBS:
            del self._jobs[self._terminal.popleft()]

    def _worker_loop(self) -> None:
        while True:
            job = self._queue.get()
            if job is None:
                return
            with self._lock:
                self._queued -= 1
                self._inflight += 1
                self.metrics.note_queue(self._queued, self._inflight)
            job.state = "running"
            job.t_started = time.perf_counter()
            job.add_event("started")
            try:
                result = self._execute(job)
            except Exception as exc:  # noqa: BLE001 - job isolation boundary
                self._retire(job, "failed", None, f"{type(exc).__name__}: {exc}")
            else:
                self._retire(job, "done", result, None)

    def _retire(
        self, job: Job, state: str, result: dict | None, error: str | None
    ) -> None:
        with self._lock:
            self._inflight = max(0, self._inflight - (job.state == "running"))
            n = self._tenant_admitted.get(job.tenant, 1) - 1
            if n <= 0:
                self._tenant_admitted.pop(job.tenant, None)
            else:
                self._tenant_admitted[job.tenant] = n
            self.metrics.note_queue(self._queued, self._inflight)
            self._note_terminal_locked(job)
            if state == "done" and result is not None:
                key = request_key(job.request)
                self._results[key] = {
                    k: v for k, v in result.items() if k != "served"
                }
                self._results.move_to_end(key)
                while len(self._results) > self.config.result_cache_size:
                    self._results.popitem(last=False)
        if state == "done":
            job.add_event("finished", count=(result or {}).get("count"))
            job._finish("done", result, None)
            self.metrics.note_done("cold", job.latency_s or 0.0)
        else:
            job.add_event("failed", error=error)
            job._finish("failed", None, error)
            self.metrics.note_failed()

    # -- graph + digest resolution ------------------------------------------

    def _graph_for(self, spec: dict[str, Any]) -> tuple[Any, str]:
        """Load (and LRU-cache) the request's graph plus its content sha."""
        from repro.graph.datasets import REGISTRY, load_dataset
        from repro.graph.io import read_edge_list
        from repro.graph.store import graph_digest

        file_id = tuple(sorted(spec.get("file", {}).items())) or None
        key = (spec["dataset"], spec["seed"], file_id)
        with self._lock:
            hit = self._graphs.get(key)
            if hit is not None:
                self._graphs.move_to_end(key)
                return hit
        if spec["dataset"] in REGISTRY:
            g = load_dataset(spec["dataset"], seed=spec["seed"])
        else:
            g = read_edge_list(Path(spec["dataset"]))
        sha = graph_digest(g)
        with self._lock:
            self._graphs[key] = (g, sha)
            while len(self._graphs) > 8:
                self._graphs.popitem(last=False)
        return g, sha

    def _cfg_for(self, spec: dict[str, Any]) -> Any:
        from repro.core.config import TC2DConfig

        kwargs: dict[str, Any] = {
            "enumeration": spec["enumeration"],
            "seed": spec["seed"],
            "real_timeout": self.config.real_timeout,
        }
        if self._pool is not None:
            kwargs.update(executor="parallel", workers=self._pool.workers)
        return TC2DConfig(**kwargs)

    def _execute(self, job: Job) -> dict[str, Any]:
        """Run one cold job end to end and build its result payload."""
        from repro.core.grid import ProcessorGrid
        from repro.graph.store import artifact_digest

        spec = job.request
        graph, graph_sha = self._graph_for(spec)
        cfg = self._cfg_for(spec)
        p = spec["ranks"]
        digest = artifact_digest(graph_sha, p, ProcessorGrid.for_ranks(p).q, cfg)
        job.add_event("resolved", digest=digest, n=int(graph.n),
                      m=int(graph.num_edges))
        t0 = time.perf_counter()
        result: dict[str, Any] = {
            "schema": SERVE_SCHEMA,
            "kind": spec["kind"],
            "request": spec,
            "digest": digest,
            "machine_fingerprint": self._model_fp,
            "served": "cold",
        }
        if spec["kind"] == "count":
            result.update(self._run_count(job, graph, p, cfg, spec))
        elif spec["kind"] == "census":
            result.update(self._run_census(graph, p, cfg))
        else:
            result.update(self._run_ktruss(graph, p, cfg, spec["k"]))
        result["wall_s"] = round(time.perf_counter() - t0, 6)
        return result

    def _run_count(
        self, job: Job, graph: Any, p: int, cfg: Any, spec: dict[str, Any]
    ) -> dict[str, Any]:
        from repro.core.tc2d import count_triangles_2d

        tracer = _JobTracer(job)
        kwargs: dict[str, Any] = {}
        if self._pool is not None:
            kwargs["superstep"] = self._pool
        # The shared pool serves one engine run at a time (the engine
        # resets it per run); sequential cold runs may overlap freely.
        lock = self._pool_lock if self._pool is not None else _NULL_LOCK
        with lock:
            res = count_triangles_2d(
                graph,
                p,
                cfg=cfg,
                model=self._model,
                trace=tracer,
                dataset=spec["dataset"],
                keep_run=True,  # for note_run's imbalance gauges
                cache=self._store,
                **kwargs,
            )
        self.metrics.note_run(res)
        out = {
            "count": int(res.count),
            "algorithm": res.algorithm,
            "virtual": {
                "ppt_s": res.ppt_time,
                "tct_s": res.tct_time,
                "overall_s": res.overall_time,
            },
            "counters": {
                "ppt": dict(res.counters_ppt),
                "tct": dict(res.counters_tct),
            },
            "comm_fraction_tct": res.comm_fraction_tct,
        }
        info = res.extras.get("cache")
        if info is not None:
            out["store"] = info  # preprocessing-store hit/miss provenance
        return out

    def _run_census(self, graph: Any, p: int, cfg: Any) -> dict[str, Any]:
        import numpy as np

        from repro.core.listing import triangle_census_2d

        census = triangle_census_2d(graph, p, cfg=cfg, model=self._model)
        top = np.argsort(census.vertex_triangles)[-5:][::-1]
        return {
            "count": int(census.count),
            "top_vertices": [
                {"vertex": int(v), "triangles": int(census.vertex_triangles[v])}
                for v in top
            ],
            "max_edge_support": int(census.edge_support.max(initial=0)),
        }

    def _run_ktruss(
        self, graph: Any, p: int, cfg: Any, k: int
    ) -> dict[str, Any]:
        from repro.apps.ktruss import ktruss_decomposition

        truss = ktruss_decomposition(graph, k, p=p, cfg=cfg, model=self._model)
        return {
            "k": k,
            "truss_vertices": int(truss.n),
            "truss_edges": int(truss.num_edges),
        }


class _NullLock:
    def __enter__(self) -> "_NullLock":
        return self

    def __exit__(self, *exc: Any) -> None:
        return None


_NULL_LOCK = _NullLock()
