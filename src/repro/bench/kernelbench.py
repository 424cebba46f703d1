"""Wall-clock microbenchmark harness for the intersection-kernel backends.

Times every kernel backend on realistic (task, U, L) block triples cut
from RMAT graphs — the same construction the pytest-benchmark suite in
``benchmarks/test_kernel_micro.py`` uses — and writes a machine-readable
regression artifact (``BENCH_kernels.json`` by default).

Timing methodology: the backends of a case are measured *interleaved*
(round-robin, best-of-N) rather than back to back, so CPU frequency
drift and scheduler noise hit every backend equally; the best-of
repetitions make the numbers approach the noise floor from above.  The
harness also cross-checks that every backend returns the same triangle
count and :class:`KernelStats` before trusting any timing.

Run it as ``python -m repro.bench.kernelbench``: the common front of
:func:`repro.bench.core.bench_main` plus this suite's own ``--reps``.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
import time
from typing import Any

from repro.bench.core import Suite, bench_main, envelope, named_cases, row
from repro.core.blocks import Block, build_block
from repro.core.config import TC2DConfig
from repro.core.kernels import available_backends, compiled, get_backend
from repro.graph import rmat_graph
from repro.instrument.telemetry import peak_rss_bytes

#: Artifact schema.  2 added ``host`` metadata and the
#: ``registered_backends`` registry snapshot so numbers from different
#: machines (or different backend sets) are never compared blindly.
#: 3 adds per-backend total ``wall_s`` and per-case ``peak_rss_bytes``
#: (process high-water mark after the case ran).  4 adds per-case
#: ``task_rows`` / ``hash_builds`` / ``hash_fast_builds``, so an artifact
#: shows which cases put every build on the probed path.  5 adds the
#: compiled backend's column (``backends.c``) and ``speedup_c_vs_batch``
#: where the host could build it, and ``compiled`` (true, or the reason
#: the column is missing).
SCHEMA = 5

#: Backends timed on every host ("auto" adds only dispatch overhead on
#: top of whichever concrete backend it picks, so it is not timed
#: separately); :func:`backends` adds ``"c"`` where it loaded.
BACKENDS = ("row", "batch")

#: The regression gate: ``--check`` fails when batch is slower than
#: ``row * CHECK_TOLERANCE`` or c slower than ``batch * CHECK_TOLERANCE``
#: on any case (tolerance absorbs timer noise on tiny smoke cases).
CHECK_TOLERANCE = 1.10


def backends() -> tuple[str, ...]:
    """The backends this host can time."""
    return BACKENDS + (("c",) if compiled.available() else ())


def _bench_graph(scale: int, seed: int):
    """The RMAT input graph, via the on-disk graph cache when
    ``REPRO_STORE_DIR`` is set (generation dominates small-case setup)."""
    from repro.graph.store import store_from_env

    store = store_from_env()
    if store is None:
        return rmat_graph(scale, seed=seed)
    key = store.graph_key("kernelbench-rmat", scale, 16, seed)
    g = store.load_graph(key)
    if g is None:
        g = rmat_graph(scale, seed=seed)
        store.save_graph(key, g)
    return g


def make_block_triple(
    scale: int, q: int, seed: int = 2, residue: tuple[int, int] = (0, 0)
) -> tuple[Block, Block, Block]:
    """A realistic (task, U, L) triple: block ``residue`` of the 2D cyclic
    split of an RMAT graph's upper triangle over a ``q x q`` grid."""
    g = _bench_graph(scale, seed)
    U = g.upper_csr()
    rows, cols = U.to_coo()
    rx, ry = residue
    sel = (rows % q == rx) & (cols % q == ry)
    nb = (g.n + q - 1) // q
    u_blk = build_block("U-row", rx, ry, nb, nb, rows[sel] // q, cols[sel] // q)
    l_blk = build_block("L-col", rx, ry, nb, nb, rows[sel] // q, cols[sel] // q)
    t_blk = build_block("task", rx, ry, nb, nb, cols[sel] // q, rows[sel] // q)
    return t_blk, u_blk, l_blk


@dataclasses.dataclass(frozen=True)
class BenchCase:
    """One (graph, grid, toggles) point of the sweep."""

    name: str
    scale: int
    q: int
    cfg: TC2DConfig = TC2DConfig()

    def blocks(self) -> tuple[Block, Block, Block]:
        return make_block_triple(self.scale, self.q)


#: The collision-heavy case, in both sweeps so the ``bench-smoke`` CI
#: job's ``--check`` gates the bulk probed layout: 1396 task rows, every
#: build probed (modified hashing off), long rows at high load factor —
#: the configuration ``auto`` kept on ``row`` until batch stopped
#: replaying probed rows one at a time.
PROBED_CASE = BenchCase(
    "rmat13-q3-probed", 13, 3, TC2DConfig(modified_hashing=False)
)

#: The standard sweep.  "rmat11-q3" is *the* acceptance case (the same
#: triple as the pytest-benchmark fixture); the others probe scaling and
#: the toggles' interaction with the vectorized path.
CASES = (
    BenchCase("rmat11-q3", 11, 3),
    BenchCase("rmat12-q3", 12, 3),
    BenchCase("rmat13-q4", 13, 4),
    BenchCase(
        "rmat11-q3-probed",
        11,
        3,
        TC2DConfig(modified_hashing=False),
    ),
    BenchCase(
        "rmat11-q3-noearlystop",
        11,
        3,
        TC2DConfig(early_stop=False),
    ),
    PROBED_CASE,
)

SMOKE_CASES = (
    BenchCase("rmat9-q3-smoke", 9, 3),
    BenchCase("rmat10-q3-smoke", 10, 3),
    PROBED_CASE,
)


def _time_case(
    case: BenchCase, backends: tuple[str, ...], reps: int
) -> dict[str, Any]:
    t_blk, u_blk, l_blk = case.blocks()
    fns = {b: get_backend(b) for b in backends}

    # Contract check before any timing: identical stats across backends.
    stats = {
        b: dataclasses.asdict(fn(t_blk, u_blk, l_blk, case.cfg))
        for b, fn in fns.items()
    }
    ref = stats[backends[0]]
    for b, st in stats.items():
        if st != ref:
            raise AssertionError(
                f"{case.name}: backend {b!r} diverges from "
                f"{backends[0]!r}: {st} != {ref}"
            )

    best = {b: float("inf") for b in backends}
    total = {b: 0.0 for b in backends}
    for _rep in range(reps):
        for b in backends:  # interleaved so noise hits all backends alike
            fn = fns[b]
            t0 = time.perf_counter()
            fn(t_blk, u_blk, l_blk, case.cfg)
            dt = time.perf_counter() - t0
            best[b] = min(best[b], dt)
            total[b] += dt

    timings = {
        b: {"best_ms": best[b] * 1e3, "reps": reps, "wall_s": total[b]}
        for b in backends
    }
    out: dict[str, Any] = {
        "name": case.name,
        "scale": case.scale,
        "q": case.q,
        "toggles": {
            "modified_hashing": case.cfg.modified_hashing,
            "early_stop": case.cfg.early_stop,
            "doubly_sparse": case.cfg.doubly_sparse,
        },
        "task_nnz": int(t_blk.nnz),
        "task_rows": len(t_blk.dcsr.nonempty_rows),
        "u_nnz": int(u_blk.nnz),
        "triangles": int(ref["triangles"]),
        "tasks": int(ref["tasks"]),
        "hash_builds": int(ref["hash_builds"]),
        "hash_fast_builds": int(ref["hash_fast_builds"]),
        "backends": timings,
        # Process high-water mark after the case ran; monotone across
        # cases, so per-case deltas only attribute growth, not reuse.
        "peak_rss_bytes": peak_rss_bytes(),
    }
    if "row" in best and "batch" in best and best["batch"] > 0:
        out["speedup_batch_vs_row"] = best["row"] / best["batch"]
    if "batch" in best and best.get("c", 0) > 0:
        out["speedup_c_vs_batch"] = best["batch"] / best["c"]
    return out


def run_bench(args: argparse.Namespace) -> dict[str, Any]:
    """Run the sweep and return the JSON-serializable report."""
    results = []
    timed = backends()
    for case in SMOKE_CASES if args.smoke else CASES:
        res = _time_case(case, timed, args.reps)
        results.append(res)
        spd_txt = "".join(
            f"  {label} {res[key]:.2f}x"
            for key, label in (("speedup_batch_vs_row", "batch/row"),
                               ("speedup_c_vs_batch", "c/batch"))
            if key in res
        )
        timing_txt = "  ".join(
            f"{b}={res['backends'][b]['best_ms']:.3f}ms" for b in timed
        )
        print(f"{case.name:<24} {timing_txt}{spd_txt}", file=sys.stderr)
    return {
        **envelope(SUITE.name, args.smoke, schema=SCHEMA),
        "reps": args.reps,
        "registered_backends": list(available_backends()),
        "compiled": compiled.unavailable_reason() or True,
        "cases": results,
    }


def history_rows(report: dict[str, Any]) -> list[dict[str, Any]]:
    """One ``<case>-<backend>`` history row per timed backend."""
    return [
        row(
            SUITE.name, f"{name}-{backend}", timing,
            count=case.get("triangles"),
            peak_rss_bytes=case.get("peak_rss_bytes"),
        )
        for name, case in named_cases(report)
        for backend, timing in sorted((case.get("backends") or {}).items())
    ]


def check(report: dict[str, Any], notes: list[str]) -> list[str]:
    """Regression gate: on every case batch must not be slower than row,
    and c — where the report has the column — not slower than batch."""
    failures = []
    for name, case in named_cases(report):
        t = case.get("backends") or {}
        for fast, slow in (("batch", "row"), ("c", "batch")):
            if fast not in t or slow not in t:
                continue
            fast_ms, slow_ms = t[fast]["best_ms"], t[slow]["best_ms"]
            if fast_ms > slow_ms * CHECK_TOLERANCE:
                failures.append(
                    f"{name}: {fast} {fast_ms:.3f}ms > "
                    f"{slow} {slow_ms:.3f}ms * {CHECK_TOLERANCE}"
                )
    if report.get("compiled") not in (True, None):
        notes.append(f"c column SKIPPED: {report['compiled']}")
    return failures


SUITE = Suite(
    name="kernel-backends",
    out="BENCH_kernels.json",
    flags={
        "--reps": dict(
            type=int, default=15, help="best-of repetitions per case"
        ),
    },
    run=run_bench,
    rows=history_rows,
    check=check,
)


if __name__ == "__main__":  # pragma: no cover - exercised via CI
    sys.exit(bench_main(SUITE))
