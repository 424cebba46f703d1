"""Runtime telemetry: wall-clock event bus, samplers, flight recorder.

The PR 1 observability layer sees *virtual* time — phases, messages,
counters on the simulated clock — but none of the real costs that decide
whether the parallel executor actually helps: dispatch latency, IPC
serialization, queue depth, memory pressure, GC pauses.  This module is
the wall-clock counterpart:

* :class:`FlightRecorder` — a bounded, thread-safe ring buffer of
  timestamped :class:`TelemetryEvent` records.  Old events are evicted
  (and counted) instead of growing without bound, so it can stay attached
  to long sweeps; on a crash the *recent* history is exactly what you
  want dumped.
* :class:`Telemetry` — a recording session.  While started it watches GC
  pauses (via ``gc.callbacks``), samples RSS on a background thread, and
  accepts structured events from the engine (per-phase executing
  wall-clock, see ``RankContext.phase``) and the superstep pool
  (dispatch/serialize/execute/collect buckets, queue depth, arena
  occupancy — see :class:`~repro.simmpi.parallel.PoolStats`).
  :meth:`Telemetry.summarize` folds a finished run into a
  JSON-serializable **telemetry record** (schema
  :data:`TELEMETRY_RECORD_SCHEMA`) keyed by the preprocessing-store
  digest and :meth:`MachineModel.fingerprint`, which is what
  ``repro diff`` and ``repro history`` consume.
* :func:`telemetry_report` — text rendering of a record (what ``repro
  count --telemetry`` prints), including the pool-bucket split that
  attributes parallel-executor wall time.
* :func:`counter_samples` — converts recorded events into the counter
  samples the Perfetto exporter renders as ``"C"`` counter tracks.

Telemetry is strictly opt-in and additive: with no session attached the
engine and pool pay one ``is None`` check per instrumented site, and
counts, virtual clocks, counters and traces are bit-identical with or
without a session (telemetry only ever *observes* wall time).
"""

from __future__ import annotations

import gc
import json
import os
import platform
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

#: Schema of the flight-recorder dump artifact.
FLIGHT_SCHEMA = 1

#: Schema of the per-run telemetry record (``repro diff`` / ``repro
#: history`` input).
TELEMETRY_RECORD_SCHEMA = 1


# ---------------------------------------------------------------------------
# host / memory probes
# ---------------------------------------------------------------------------


def host_metadata() -> dict[str, Any]:
    """Where wall-clock numbers came from: CPU budget, interpreter, platform.

    ``usable_cpus`` is the scheduling-affinity count when the OS exposes
    one (containers often pin fewer cores than ``os.cpu_count()``
    reports) — it is the honest parallelism budget for this process.
    """
    try:
        usable = len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        usable = os.cpu_count() or 1
    return {
        "cpu_count": os.cpu_count(),
        "usable_cpus": usable,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "machine": platform.machine(),
        "system": platform.system(),
    }


def rss_bytes() -> int:
    """Current resident-set size of this process in bytes (0 if unknown)."""
    try:
        with open("/proc/self/statm") as f:
            pages = int(f.read().split()[1])
        return pages * os.sysconf("SC_PAGE_SIZE")
    except (OSError, ValueError, IndexError):  # pragma: no cover - non-Linux
        return 0


def peak_rss_bytes() -> int:
    """Lifetime peak resident-set size of this process in bytes.

    Monotone (the kernel high-water mark never resets), so per-run deltas
    need a baseline taken at run begin.  Returns 0 when unavailable.
    """
    try:
        import resource

        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    except (ImportError, OSError):  # pragma: no cover - non-POSIX
        return 0
    # Linux reports KiB; macOS reports bytes.
    if platform.system() == "Darwin":  # pragma: no cover - mac only
        return int(peak)
    return int(peak) * 1024


# ---------------------------------------------------------------------------
# flight recorder
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TelemetryEvent:
    """One wall-clock telemetry event.

    Attributes
    ----------
    t:
        ``time.perf_counter`` seconds since the recorder was created.
    kind:
        Dotted event type, e.g. ``"phase"``, ``"pool.dispatch"``,
        ``"pool.queue"``, ``"sample.rss"``, ``"gc"``, ``"run.begin"``,
        ``"crash"``.
    detail:
        JSON-serializable payload.
    """

    t: float
    kind: str
    detail: dict[str, Any] = field(default_factory=dict)


class FlightRecorder:
    """Bounded, thread-safe ring buffer of :class:`TelemetryEvent`.

    When full, the oldest event is evicted and ``dropped`` incremented —
    the recorder keeps the *tail* of history, which is what a post-mortem
    wants.  :meth:`dump` writes the buffer as a JSON artifact (schema
    :data:`FLIGHT_SCHEMA`).
    """

    def __init__(self, capacity: int = 4096):
        if capacity < 1:
            raise ValueError("recorder capacity must be >= 1")
        self.capacity = capacity
        self.dropped = 0
        self.recorded = 0
        self._events: deque[TelemetryEvent] = deque(maxlen=capacity)
        # Reentrant on purpose: allocations made while the lock is held
        # (deque block growth, list copies in events()/snapshot()) can
        # trigger a GC collection, and the _GCWatch gc.callbacks hook
        # calls record() on whatever thread triggered it — with a plain
        # Lock that thread deadlocks on itself.
        self._lock = threading.RLock()
        self._t0 = time.perf_counter()

    def record(self, kind: str, **detail: Any) -> None:
        """Append one event (evicting the oldest when full)."""
        t = time.perf_counter() - self._t0
        evt = TelemetryEvent(t=t, kind=kind, detail=detail)
        with self._lock:
            if len(self._events) == self.capacity:
                self.dropped += 1
            self.recorded += 1
            self._events.append(evt)

    def events(self) -> list[TelemetryEvent]:
        """A stable copy of the buffered events, oldest first."""
        with self._lock:
            return list(self._events)

    def clear(self) -> None:
        """Forget the buffered events and reset the drop/record counts."""
        with self._lock:
            self._events.clear()
            self.dropped = 0
            self.recorded = 0

    def stats(self) -> dict[str, int]:
        """Buffer occupancy counters (for the telemetry record)."""
        with self._lock:
            return {
                "capacity": self.capacity,
                "recorded": self.recorded,
                "dropped": self.dropped,
                "buffered": len(self._events),
            }

    def snapshot(self, reason: str = "") -> dict[str, Any]:
        """The dump-artifact dictionary (JSON-serializable)."""
        with self._lock:
            events = list(self._events)
            doc = {
                "schema": FLIGHT_SCHEMA,
                "kind": "repro-flight-recorder",
                "reason": reason,
                "capacity": self.capacity,
                "recorded": self.recorded,
                "dropped": self.dropped,
                "events": [
                    {"t": e.t, "kind": e.kind, "detail": e.detail}
                    for e in events
                ],
            }
        return doc

    def dump(self, path: Any, reason: str = "") -> Path:
        """Write :meth:`snapshot` to ``path`` (parents created) and
        return the path."""
        p = Path(path)
        p.parent.mkdir(parents=True, exist_ok=True)
        p.write_text(
            json.dumps(self.snapshot(reason), indent=2, sort_keys=True,
                       default=str)
            + "\n"
        )
        return p


# ---------------------------------------------------------------------------
# samplers
# ---------------------------------------------------------------------------


class _GCWatch:
    """Measures garbage-collection pauses via ``gc.callbacks``."""

    def __init__(self, recorder: FlightRecorder):
        self._recorder = recorder
        self._begin = 0.0
        self.collections = 0
        self.total_pause_s = 0.0
        self.max_pause_s = 0.0

    def _cb(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._begin = time.perf_counter()
            return
        pause = time.perf_counter() - self._begin
        self.collections += 1
        self.total_pause_s += pause
        if pause > self.max_pause_s:
            self.max_pause_s = pause
        self._recorder.record(
            "gc",
            generation=info.get("generation"),
            collected=info.get("collected"),
            pause_s=pause,
        )

    def start(self) -> None:
        if self._cb not in gc.callbacks:
            gc.callbacks.append(self._cb)

    def stop(self) -> None:
        try:
            gc.callbacks.remove(self._cb)
        except ValueError:
            pass

    def stats(self) -> dict[str, Any]:
        return {
            "collections": self.collections,
            "total_pause_s": self.total_pause_s,
            "max_pause_s": self.max_pause_s,
        }


class _Sampler(threading.Thread):
    """Daemon thread sampling RSS (and pool queue depth) periodically."""

    def __init__(self, telemetry: "Telemetry", interval: float):
        super().__init__(name="repro-telemetry-sampler", daemon=True)
        self._telemetry = telemetry
        self._interval = interval
        # NB: not named _stop — that would shadow threading.Thread._stop,
        # which Thread.join() calls internally.
        self._halt = threading.Event()

    def run(self) -> None:
        while not self._halt.wait(self._interval):
            self._telemetry._sample()

    def stop(self) -> None:
        self._halt.set()
        self.join(timeout=5.0)


# ---------------------------------------------------------------------------
# the telemetry session
# ---------------------------------------------------------------------------


class Telemetry:
    """One wall-clock recording session (usable across several runs).

    Parameters
    ----------
    recorder_capacity:
        Flight-recorder ring size (events).
    sample_interval:
        Seconds between background RSS samples; ``0`` disables the
        sampler thread (phase/pool events still record).
    crash_dir:
        Directory for :meth:`crash_dump` artifacts; ``None`` disables
        automatic dumps (callers can still use ``recorder.dump``).
    tracemalloc:
        Opt-in Python-allocation tracking (meaningful overhead; off by
        default).  When on, the telemetry record carries the per-run
        traced-memory delta and peak.

    Use as a context manager, or call :meth:`start` / :meth:`stop`
    (re-entrant: nested starts are depth-counted).
    """

    def __init__(
        self,
        recorder_capacity: int = 4096,
        sample_interval: float = 0.05,
        crash_dir: Any = None,
        tracemalloc: bool = False,
    ):
        self.recorder = FlightRecorder(recorder_capacity)
        self.sample_interval = sample_interval
        self.crash_dir = Path(crash_dir) if crash_dir is not None else None
        self.tracemalloc = tracemalloc
        self._gc = _GCWatch(self.recorder)
        self._sampler: _Sampler | None = None
        self._depth = 0
        self._dumps = 0
        self._pool: Any = None
        self._lock = threading.Lock()
        # per-run accumulators (reset by begin_run)
        self._run_label = ""
        self._run_t0 = time.perf_counter()
        self._phase_wall: dict[str, float] = {}
        self._phase_ranks: dict[str, int] = {}
        self._phase_rss: dict[str, int] = {}
        self._rss_begin = 0
        self._rss_sample_peak = 0
        self._pool_before: dict[str, Any] | None = None
        self._gc_before = self._gc.stats()
        self._tm_before: tuple[int, int] | None = None

    # -- lifecycle ----------------------------------------------------------

    def start(self) -> "Telemetry":
        """Begin recording (GC watch, sampler thread, tracemalloc)."""
        self._depth += 1
        if self._depth > 1:
            return self
        self._gc.start()
        if self.tracemalloc:
            import tracemalloc as tm

            if not tm.is_tracing():
                tm.start()
        if self.sample_interval > 0:
            self._sampler = _Sampler(self, self.sample_interval)
            self._sampler.start()
        self.recorder.record("telemetry.start", host=host_metadata())
        return self

    def stop(self) -> None:
        """Stop recording (idempotent at depth 0)."""
        if self._depth == 0:
            return
        self._depth -= 1
        if self._depth > 0:
            return
        if self._sampler is not None:
            self._sampler.stop()
            self._sampler = None
        self._gc.stop()
        if self.tracemalloc:
            import tracemalloc as tm

            if tm.is_tracing():
                tm.stop()
        self.recorder.record("telemetry.stop")

    def __enter__(self) -> "Telemetry":
        return self.start()

    def __exit__(self, *exc_info: Any) -> None:
        self.stop()

    # -- wiring -------------------------------------------------------------

    def attach_pool(self, pool: Any) -> None:
        """Attach a :class:`~repro.simmpi.parallel.SuperstepPool` so its
        dispatch buckets, queue depth and arena occupancy record here."""
        self._pool = pool
        pool.attach_telemetry(self)

    def note(self, kind: str, **detail: Any) -> None:
        """Record one free-form event into the flight recorder."""
        self.recorder.record(kind, **detail)

    # -- engine hooks -------------------------------------------------------

    def phase_exit(self, rank: int, name: str, wall_s: float) -> None:
        """One rank left phase ``name`` after ``wall_s`` seconds of
        *executing* wall time (parked/scheduler time already subtracted —
        see ``Engine._yield_token``)."""
        rss = rss_bytes()
        with self._lock:
            self._phase_wall[name] = self._phase_wall.get(name, 0.0) + wall_s
            self._phase_ranks[name] = self._phase_ranks.get(name, 0) + 1
            if rss > self._phase_rss.get(name, 0):
                self._phase_rss[name] = rss
        self.recorder.record(
            "phase", rank=rank, name=name, wall_s=wall_s, rss_bytes=rss
        )

    # -- sampling -----------------------------------------------------------

    def _sample(self) -> None:
        rss = rss_bytes()
        if rss > self._rss_sample_peak:
            self._rss_sample_peak = rss
        detail: dict[str, Any] = {"rss_bytes": rss}
        pool = self._pool
        if pool is not None:
            try:
                detail["queue_depth"] = len(pool._pending)
            except Exception:
                pass
        self.recorder.record("sample.rss", **detail)

    # -- per-run record -----------------------------------------------------

    def begin_run(self, label: str = "") -> None:
        """Reset the per-run accumulators (call right before the engine
        runs; one session can record many runs back to back)."""
        with self._lock:
            self._phase_wall.clear()
            self._phase_ranks.clear()
            self._phase_rss.clear()
        self._run_label = label
        self._run_t0 = time.perf_counter()
        self._rss_begin = rss_bytes()
        self._rss_sample_peak = self._rss_begin
        self._gc_before = self._gc.stats()
        self._pool_before = (
            self._pool.stats_snapshot() if self._pool is not None else None
        )
        if self.tracemalloc:
            import tracemalloc as tm

            if tm.is_tracing():
                self._tm_before = tm.get_traced_memory()
        self.recorder.record("run.begin", label=label)

    def summarize(
        self,
        result: Any = None,
        run: Any = None,
        model: Any = None,
        cfg: Any = None,
    ) -> dict[str, Any]:
        """Fold the current run into a telemetry record (schema
        :data:`TELEMETRY_RECORD_SCHEMA`).

        ``result`` is a ``TriangleCountResult`` (count/dataset/store
        digest), ``run`` the engine's ``RunResult`` (virtual phase times),
        ``model`` the :class:`~repro.simmpi.costmodel.MachineModel`
        (fingerprint key), ``cfg`` the ``TC2DConfig`` (executor/workers).
        All are optional — missing inputs leave their fields ``None``.
        """
        wall_s = time.perf_counter() - self._run_t0
        rss_end = rss_bytes()
        with self._lock:
            phase_wall = dict(self._phase_wall)
            phase_ranks = dict(self._phase_ranks)
            phase_rss = dict(self._phase_rss)

        phases: dict[str, Any] = {}
        for name in sorted(phase_wall):
            entry: dict[str, Any] = {
                "wall_s": phase_wall[name],
                "ranks": phase_ranks.get(name, 0),
                "rss_max_bytes": phase_rss.get(name, 0),
                "virtual_s": None,
                "comm_fraction": None,
            }
            if run is not None:
                try:
                    entry["virtual_s"] = run.phase_time(name)
                    entry["comm_fraction"] = run.phase_comm_fraction(name)
                except KeyError:
                    pass
            phases[name] = entry

        gc_now = self._gc.stats()
        gc_delta = {
            k: gc_now[k] - self._gc_before.get(k, 0)
            for k in ("collections", "total_pause_s")
        }
        gc_delta["max_pause_s"] = gc_now["max_pause_s"]

        memory: dict[str, Any] = {
            "rss_begin_bytes": self._rss_begin,
            "rss_end_bytes": rss_end,
            "rss_sampled_peak_bytes": max(self._rss_sample_peak, rss_end),
            "peak_rss_bytes": peak_rss_bytes(),
            "tracemalloc": None,
        }
        if self.tracemalloc and self._tm_before is not None:
            import tracemalloc as tm

            if tm.is_tracing():
                cur, peak = tm.get_traced_memory()
                memory["tracemalloc"] = {
                    "delta_bytes": cur - self._tm_before[0],
                    "peak_bytes": peak,
                }

        pool_stats = None
        if self._pool is not None:
            pool_stats = self._pool.stats_snapshot()
            if self._pool_before is not None:
                pool_stats = _stats_delta(pool_stats, self._pool_before)

        cache = (result.extras.get("cache") if result is not None else None) or {}
        record = {
            "schema": TELEMETRY_RECORD_SCHEMA,
            "kind": "repro-telemetry",
            "label": self._run_label,
            "dataset": getattr(result, "dataset", None),
            "algorithm": getattr(result, "algorithm", None),
            "p": getattr(result, "p", None),
            "count": getattr(result, "count", None),
            "digest": cache.get("digest"),
            "cache_hit": cache.get("hit"),
            "model_fingerprint": (
                model.fingerprint() if model is not None else None
            ),
            "executor": getattr(cfg, "executor", None),
            "workers": getattr(cfg, "workers", None),
            "host": host_metadata(),
            "wall_s": wall_s,
            "virtual_makespan_s": (
                run.makespan if run is not None else None
            ),
            "phases": phases,
            "memory": memory,
            "gc": gc_delta,
            "pool": pool_stats,
            "flight_recorder": self.recorder.stats(),
        }
        self.recorder.record("run.end", label=self._run_label, wall_s=wall_s)
        return record

    # -- post-mortem --------------------------------------------------------

    def crash_dump(self, reason: str, path: Any = None) -> Path | None:
        """Dump the flight recorder on a failure.

        ``path`` overrides the target file; otherwise one is generated
        under ``crash_dir`` (``None`` when no ``crash_dir`` either).
        """
        self.recorder.record("crash", reason=reason)
        if path is None:
            if self.crash_dir is None:
                return None
            self._dumps += 1
            slug = "".join(
                ch if (ch.isalnum() or ch in "-_") else "-" for ch in reason
            )[:48] or "crash"
            path = self.crash_dir / f"flightrec-{self._dumps:03d}-{slug}.json"
        return self.recorder.dump(path, reason=reason)


def _stats_delta(
    now: dict[str, Any], before: dict[str, Any]
) -> dict[str, Any]:
    """Per-run pool-stat delta (cumulative counters minus the run-begin
    snapshot; non-numeric / high-water fields pass through)."""
    out: dict[str, Any] = {}
    for k, v in now.items():
        if isinstance(v, dict):
            prev = before.get(k, {})
            out[k] = {
                wk: wv - prev.get(wk, 0.0) for wk, wv in v.items()
            }
        elif isinstance(v, (int, float)) and not k.endswith("_peak"):
            out[k] = v - before.get(k, 0)
        else:
            out[k] = v
    return out


# ---------------------------------------------------------------------------
# renderers
# ---------------------------------------------------------------------------


def _fmt_bytes(n: Any) -> str:
    if not n:
        return "-"
    n = float(n)
    for unit in ("B", "KiB", "MiB", "GiB"):
        if n < 1024 or unit == "GiB":
            return f"{n:,.1f} {unit}"
        n /= 1024
    return f"{n:,.1f} GiB"  # pragma: no cover - loop always returns


def telemetry_report(record: dict[str, Any]) -> str:
    """Render a telemetry record as the text report ``repro count
    --telemetry`` prints (phases, memory, GC, pool buckets)."""
    lines: list[str] = []
    head = (
        f"telemetry: {record.get('dataset') or record.get('label') or 'run'} "
        f"p={record.get('p')} executor={record.get('executor') or '?'}"
    )
    if record.get("workers"):
        head += f" workers={record['workers']}"
    lines.append(head)
    lines.append(
        f"  wall {record.get('wall_s', 0.0):.3f}s"
        + (
            f"  virtual makespan {record['virtual_makespan_s']:.3f}s"
            if record.get("virtual_makespan_s") is not None
            else ""
        )
    )
    phases = record.get("phases") or {}
    if phases:
        lines.append("  phase       exec-wall   virtual    comm%   max-rss")
        for name, ph in phases.items():
            virt = ph.get("virtual_s")
            comm = ph.get("comm_fraction")
            row = f"  {name:<10} {ph.get('wall_s', 0.0):>9.3f}s"
            row += f" {virt:>8.3f}s" if virt is not None else "        -"
            row += f" {100 * comm:>7.1f}%" if comm is not None else "       -"
            row += f"  {_fmt_bytes(ph.get('rss_max_bytes'))}"
            lines.append(row)
    mem = record.get("memory") or {}
    lines.append(
        "  memory: rss "
        f"{_fmt_bytes(mem.get('rss_begin_bytes'))} -> "
        f"{_fmt_bytes(mem.get('rss_end_bytes'))}, "
        f"process peak {_fmt_bytes(mem.get('peak_rss_bytes'))}"
    )
    tm = mem.get("tracemalloc")
    if tm:
        lines.append(
            f"  tracemalloc: delta {_fmt_bytes(tm.get('delta_bytes'))}, "
            f"peak {_fmt_bytes(tm.get('peak_bytes'))}"
        )
    gc_d = record.get("gc") or {}
    lines.append(
        f"  gc: {gc_d.get('collections', 0)} collections, "
        f"{1e3 * gc_d.get('total_pause_s', 0.0):.1f} ms total, "
        f"{1e3 * gc_d.get('max_pause_s', 0.0):.1f} ms max pause"
    )
    pool = record.get("pool")
    if pool and pool.get("dispatches"):
        lines.append(
            f"  pool: {pool['dispatches']} dispatches, "
            f"{pool.get('batches', 0)} batches, {pool.get('jobs', 0)} "
            f"jobs, wall {pool.get('wall_s', 0.0):.3f}s  "
            f"(serialize {pool.get('serialize_s', 0.0):.3f}s + dispatch "
            f"{pool.get('dispatch_s', 0.0):.3f}s + execute "
            f"{pool.get('execute_s', 0.0):.3f}s + collect "
            f"{pool.get('collect_s', 0.0):.3f}s)"
        )
        lines.append(
            f"  pool: payload {_fmt_bytes(pool.get('payload_bytes'))}, "
            f"arena {_fmt_bytes(pool.get('arena_capacity_bytes'))} "
            f"capacity, queue peak {pool.get('queue_peak', 0)}"
        )
        if pool.get("resident_puts") or pool.get("resident_hits"):
            lines.append(
                f"  pool residents: {pool.get('resident_puts', 0)} puts "
                f"({_fmt_bytes(pool.get('resident_bytes'))}), "
                f"{pool.get('resident_hits', 0)} zero-copy hits"
            )
        busy = pool.get("worker_busy_s") or {}
        if busy:
            per = ", ".join(
                f"pid {pid}: {s:.3f}s" for pid, s in sorted(busy.items())
            )
            lines.append(f"  pool workers: {per}")
    fr = record.get("flight_recorder") or {}
    lines.append(
        f"  flight recorder: {fr.get('recorded', 0)} events "
        f"({fr.get('dropped', 0)} dropped, capacity {fr.get('capacity', 0)})"
    )
    return "\n".join(lines)


def counter_samples(
    events: list[TelemetryEvent],
) -> list[dict[str, Any]]:
    """Convert recorded events into Perfetto counter samples.

    Returns ``{"t", "name", "value"}`` dicts (seconds, counter name,
    numeric value) for the RSS and pool-queue-depth timelines, time
    ordered — feed them to
    :func:`~repro.instrument.chrometrace.chrome_trace` via ``counters=``.
    """
    samples: list[dict[str, Any]] = []
    for e in events:
        if e.kind == "sample.rss" or e.kind == "phase":
            rss = e.detail.get("rss_bytes")
            if rss:
                samples.append({"t": e.t, "name": "rss_bytes", "value": rss})
        if e.kind == "pool.queue":
            samples.append(
                {
                    "t": e.t,
                    "name": "pool_queue_depth",
                    "value": e.detail.get("depth", 0),
                }
            )
        if e.kind == "sample.rss" and "queue_depth" in e.detail:
            samples.append(
                {
                    "t": e.t,
                    "name": "pool_queue_depth",
                    "value": e.detail["queue_depth"],
                }
            )
    samples.sort(key=lambda s: (s["t"], s["name"]))
    return samples
