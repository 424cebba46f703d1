"""Load generator + regression gate for the serve front end.

Drives a real in-process :class:`~repro.serve.server.ServeServer`
(ephemeral port, actual HTTP round trips) with concurrent client
threads and measures the serve-level contract:

* **cold** — distinct seeds, every request a fresh digest; p50/p99
  includes graph load, preprocessing and the counting run.
* **warm** — one canonical request repeated across clients; p50/p99 is
  the result-cache fast path, the headline of the serve layer.
* **mixed** — configurable hit/miss mix with Zipf-skewed tenants;
  reports sustained throughput and the served hit ratio.
* **overload** — a second, deliberately tiny service (capacity
  ``max_inflight + max_queue``) hit with a 4x burst; admission control
  must *reject* (typed, counted) rather than queue unboundedly.

Writes ``BENCH_serve.json`` and with ``--check`` gates (exit 1 on
violation):

* warm p50 at least ``WARM_SPEEDUP_GATE`` (10x) below cold p50;
* served counts bit-identical between the cold and warm paths;
* every overload rejection typed, accepted <= capacity, queue depth
  bounded by ``max_queue``.

Run it as ``python -m repro.bench.servebench``: the common front of
:func:`repro.bench.core.bench_main` plus the traffic-shape flags below.
"""

from __future__ import annotations

import argparse
import random
import sys
import threading
import time
from typing import Any

from repro.bench.core import Suite, bench_main, envelope, named_cases, row
from repro.serve import ServeClient, ServeConfig, ServeRejected
from repro.serve.server import run_server

#: Per-mode defaults: (dataset, ranks, cold_n, warm_n, mixed_n, clients).
MODES = {
    "smoke": ("g500-s12", 16, 3, 40, 30, 4),
    "full": ("g500-s13", 16, 5, 200, 120, 8),
}

#: ``--check``: the warm path's p50 must beat the cold path's by this
#: factor (also the ``min`` rule in ``BENCH_serve_baseline.json``).
WARM_SPEEDUP_GATE = 10.0

#: Burst multiple over the tiny service's capacity in the overload phase.
OVERLOAD_FACTOR = 4


def _pctl(data: list[float], q: float) -> float | None:
    if not data:
        return None
    data = sorted(data)
    return data[min(len(data) - 1, max(0, int(round(q * (len(data) - 1)))))]


class _Server:
    """An in-process serve endpoint on an ephemeral port."""

    def __init__(self, config: ServeConfig):
        self.port: int | None = None
        self._ready = threading.Event()

        def announce(server: Any) -> None:
            self.port = server.port
            self._ready.set()

        self._thread = threading.Thread(
            target=run_server,
            args=(config,),
            kwargs={"port": 0, "announce": announce},
            daemon=True,
        )
        self._thread.start()
        if not self._ready.wait(30):
            raise RuntimeError("serve endpoint did not start")

    def client(self, timeout: float = 600.0) -> ServeClient:
        return ServeClient("127.0.0.1", self.port, timeout=timeout)

    def stop(self) -> None:
        self.client().shutdown()
        self._thread.join(timeout=60)


def _fanout(n: int, clients: int, fn: Any) -> list[Any]:
    """Run ``fn(i)`` for i in range(n) across ``clients`` threads; returns
    results in submission order (exceptions propagate)."""
    results: list[Any] = [None] * n
    errors: list[BaseException] = []
    it = iter(range(n))
    lock = threading.Lock()

    def worker() -> None:
        while True:
            with lock:
                i = next(it, None)
            if i is None:
                return
            try:
                results[i] = fn(i)
            except BaseException as exc:  # noqa: BLE001 - collected below
                errors.append(exc)
                return

    threads = [threading.Thread(target=worker) for _ in range(clients)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    if errors:
        raise errors[0]
    return results


def run_bench(args: argparse.Namespace) -> dict[str, Any]:
    """Execute every phase and assemble the report."""
    head = envelope(SUITE.name, args.smoke, kind="repro-serve-bench")
    dataset, ranks, cold_n, warm_n, mixed_n, clients = MODES[head["mode"]]
    if args.dataset:
        dataset = args.dataset
    if args.ranks:
        ranks = args.ranks
    if args.requests:
        cold_n = max(1, args.requests // 10)
        warm_n = args.requests
        mixed_n = args.requests
    if args.clients:
        clients = args.clients
    base = {"kind": "count", "dataset": dataset, "ranks": ranks}
    rng = random.Random(args.seed)

    server = _Server(
        ServeConfig(
            max_inflight=args.max_inflight,
            max_queue=max(64, mixed_n),
            tenant_quota=max(32, mixed_n),
            executor=args.executor,
            workers=args.workers,
        )
    )
    try:
        c = server.client()

        # -- cold: fresh digest per request --------------------------------
        cold_lat: list[float] = []
        for i in range(cold_n):
            t0 = time.perf_counter()
            doc = c.submit({**base, "seed": 1000 + i}, tenant="bench-cold")
            cold_lat.append(time.perf_counter() - t0)
            assert doc["result"]["served"] == "cold", doc["result"]["served"]

        # -- canonical request: one cold, then the warm sweep --------------
        t0 = time.perf_counter()
        first = c.submit(base, tenant="bench-warm")
        cold_lat.append(time.perf_counter() - t0)
        canonical = first["result"]
        assert canonical["served"] == "cold"

        def warm_once(_i: int) -> float:
            t0 = time.perf_counter()
            doc = c.submit(base, tenant="bench-warm")
            lat = time.perf_counter() - t0
            assert doc["result"]["served"] == "warm"
            assert doc["result"]["count"] == canonical["count"]
            assert doc["result"]["digest"] == canonical["digest"]
            return lat

        warm_lat = _fanout(warm_n, clients, warm_once)

        # -- mixed traffic with tenant skew --------------------------------
        tenants = [f"tenant-{i}" for i in range(args.tenants)]
        weights = [1.0 / (i + 1) ** args.skew for i in range(args.tenants)]
        plan = []
        for i in range(mixed_n):
            hit = rng.random() < args.hit_ratio
            spec = dict(base) if hit else {**base, "seed": 5000 + i}
            plan.append((spec, rng.choices(tenants, weights)[0]))

        served = {"warm": 0, "cold": 0}
        tenant_counts: dict[str, int] = {}
        count_lock = threading.Lock()

        def mixed_once(i: int) -> float:
            spec, tenant = plan[i]
            t0 = time.perf_counter()
            doc = c.submit(spec, tenant=tenant)
            lat = time.perf_counter() - t0
            with count_lock:
                served[doc["result"]["served"]] += 1
                tenant_counts[tenant] = tenant_counts.get(tenant, 0) + 1
            return lat

        t_mix = time.perf_counter()
        mixed_lat = _fanout(mixed_n, clients, mixed_once)
        mixed_wall = time.perf_counter() - t_mix
        stats = c.stats()
        metrics_text = c.metrics()
    finally:
        server.stop()

    # -- overload burst against a deliberately tiny service ----------------
    tiny = ServeConfig(max_inflight=1, max_queue=2, tenant_quota=64)
    capacity = tiny.max_inflight + tiny.max_queue
    burst = OVERLOAD_FACTOR * capacity
    over = _Server(tiny)
    try:
        oc = over.client()
        rejected: dict[str, int] = {}
        accepted = 0
        acc_lock = threading.Lock()

        def flood(i: int) -> None:
            nonlocal accepted
            try:
                oc.submit(
                    {**base, "seed": 9000 + i},
                    tenant=f"flood-{i % 4}",
                    wait=False,
                )
            except ServeRejected as exc:
                with acc_lock:
                    rejected[exc.reason] = rejected.get(exc.reason, 0) + 1
            else:
                with acc_lock:
                    accepted += 1

        _fanout(burst, burst, flood)
        over_stats = oc.stats()
    finally:
        over.stop()

    warm_p50, cold_p50 = _pctl(warm_lat, 0.5), _pctl(cold_lat, 0.5)
    name = f"{dataset}-p{ranks}"
    report = {
        **head,
        "config": {
            "clients": clients,
            "max_inflight": args.max_inflight,
            "executor": args.executor,
            "hit_ratio_target": args.hit_ratio,
            "tenants": args.tenants,
            "skew": args.skew,
            "overload": {"capacity": capacity, "burst": burst},
        },
        "cases": [
            {
                "name": name,
                "triangles": canonical["count"],
                "digest": canonical["digest"],
                "machine_fingerprint": canonical["machine_fingerprint"],
                "cold": {
                    "n": len(cold_lat),
                    "p50_s": cold_p50,
                    "p99_s": _pctl(cold_lat, 0.99),
                },
                "warm": {
                    "n": len(warm_lat),
                    "p50_s": warm_p50,
                    "p99_s": _pctl(warm_lat, 0.99),
                },
                "warm_speedup_p50": (
                    cold_p50 / warm_p50 if warm_p50 and cold_p50 else None
                ),
                "mixed": {
                    "n": mixed_n,
                    "wall_s": mixed_wall,
                    "throughput_rps": (
                        mixed_n / mixed_wall if mixed_wall > 0 else None
                    ),
                    "p50_s": _pctl(mixed_lat, 0.5),
                    "p99_s": _pctl(mixed_lat, 0.99),
                    "served": served,
                    "hit_ratio": served["warm"] / max(1, sum(served.values())),
                    "tenants": dict(sorted(tenant_counts.items())),
                },
            }
        ],
        "server_stats": {
            k: stats.get(k)
            for k in (
                "completed", "rejected", "queue_depth_max", "hit_ratio",
                "warm_p50_s", "cold_p50_s",
            )
        },
        "metrics_scrape_lines": len(metrics_text.splitlines()),
        "overload": {
            "burst": burst,
            "capacity": capacity,
            "accepted": accepted,
            "rejected": dict(sorted(rejected.items())),
            "rejected_total": sum(rejected.values()),
            "queue_depth_max": over_stats.get("queue_depth_max"),
        },
    }
    case = report["cases"][0]
    print(
        f"servebench [{head['mode']}] {name}: "
        f"cold p50 {cold_p50 * 1e3:.1f}ms, "
        f"warm p50 {warm_p50 * 1e3:.2f}ms "
        f"({case['warm_speedup_p50']:.0f}x), "
        f"mixed {case['mixed']['throughput_rps']:.0f} req/s "
        f"hit {case['mixed']['hit_ratio']:.0%}; "
        f"overload {report['overload']['rejected_total']}/{burst} rejected",
        file=sys.stderr,
    )
    return report


def history_rows(report: dict[str, Any]) -> list[dict[str, Any]]:
    """``<case>-cold`` / ``-warm`` / ``-mixed`` per case plus one
    ``overload`` row — what ``BENCH_serve_baseline.json`` gates."""
    rows, lat = [], ("p50_s", "p99_s")
    for name, case in named_cases(report):
        rows += [
            {
                **row(SUITE.name, f"{name}-cold", case.get("cold"), lat,
                      count=case.get("triangles")),
                "digest": case.get("digest"),
            },
            row(SUITE.name, f"{name}-warm", case.get("warm"), lat,
                warm_speedup_p50=case.get("warm_speedup_p50")),
            row(SUITE.name, f"{name}-mixed", case.get("mixed"),
                ("throughput_rps", "hit_ratio", "p99_s")),
        ]
    if report.get("overload"):
        rows.append(
            row(SUITE.name, "overload", report["overload"],
                ("rejected_total", "accepted", "capacity", "queue_depth_max"))
        )
    return rows


def check(
    report: dict[str, Any],
    notes: list[str],
    warm_speedup_gate: float = WARM_SPEEDUP_GATE,
) -> list[str]:
    """Gate a servebench report; returns human-readable failures."""
    failures: list[str] = []
    for name, case in named_cases(report):
        speedup = case.get("warm_speedup_p50")
        if speedup is None or speedup < warm_speedup_gate:
            failures.append(
                f"{name}: warm p50 speedup {speedup} < gate "
                f"{warm_speedup_gate}x over cold p50"
            )
        mixed = case.get("mixed") or {}
        if not mixed.get("served", {}).get("warm"):
            failures.append(f"{name}: mixed phase produced no warm hits")
    over = report.get("overload") or {}
    if not over.get("rejected_total"):
        failures.append("overload: no typed rejections under 4x burst")
    unknown = set(over.get("rejected") or {}) - {
        "queue_full", "tenant_quota", "shutting_down"
    }
    if unknown:
        failures.append(f"overload: unknown rejection reasons {unknown}")
    if over.get("accepted", 0) > over.get("capacity", 0):
        failures.append(
            f"overload: accepted {over.get('accepted')} jobs > capacity "
            f"{over.get('capacity')} (queue not bounded)"
        )
    qmax = over.get("queue_depth_max")
    if qmax is not None and qmax > over.get("capacity", 0):
        failures.append(f"overload: queue depth {qmax} exceeded capacity")
    return failures


SUITE = Suite(
    name="serve",
    out="BENCH_serve.json",
    flags={
        "--clients": dict(type=int, default=0,
                          help="override the mode's concurrent client count"),
        "--dataset": dict(help="override the mode's dataset (registry name "
                          "or edge-list path)"),
        "--ranks": dict(type=int, default=0,
                        help="override the mode's rank count"),
        "--requests": dict(type=int, default=0,
                           help="override the warm/mixed request counts "
                           "(cold gets 1/10th)"),
        "--max-inflight": dict(type=int, default=2),
        "--executor": dict(choices=["sequential", "parallel"],
                           default="sequential"),
        "--workers": dict(type=int, default=0),
        "--hit-ratio": dict(type=float, default=0.7,
                            help="target fraction of warm requests in mixed "
                            "traffic"),
        "--tenants": dict(type=int, default=4),
        "--skew": dict(type=float, default=1.0,
                       help="Zipf exponent of the tenant popularity skew"),
        "--seed": dict(type=int, default=0),
    },
    run=run_bench,
    rows=history_rows,
    check=check,
)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(bench_main(SUITE))
