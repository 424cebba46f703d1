"""Cost-model auto-tuner: pick algorithm × grid × kernel × executor.

The decision space of this repository has grown to the point where a
user faces five independent knobs before the first run: algorithm
(``tc2d`` vs ``coveredge``), rank count, kernel backend, executor and
worker count.  :func:`plan_run` collapses that into one call: it
collects **cheap graph signals** (degree shape, wedge count, cover-edge
statistics — everything strictly cheaper than counting triangles),
combines them with the :class:`~repro.simmpi.costmodel.MachineModel`'s
rates into a predicted virtual makespan per (algorithm, p) candidate.
The wall-clock-only knobs (kernel backend, executor, workers) never
change the virtual clock, so they cannot participate in the virtual-time
argmin; they take the values the committed wall-clock artifacts show
winning — ``auto`` and ``sequential`` — unless pinned.

Three properties the tests pin down:

* **deterministic** — same signals fingerprint + same model fingerprint
  (+ same ``cores``/``max_p`` inputs) produce the identical
  :class:`Plan`, bit for bit; ties break lexicographically.
* **pinned flags win** — any field the user set explicitly is adopted
  verbatim and removed from the search space; the plan records which
  fields were pinned.
* **provenance** — :meth:`Plan.to_dict` serializes the whole decision
  (chosen fields, per-candidate predictions, fingerprints) into
  ``result.extras["autotune"]``, so a recorded run explains itself.

Prediction quality: the per-candidate formulas were calibrated against
measured runs of the registry graphs (see ``docs/autotune.md``); they
are deliberately coarse — the goal is *ranking* candidates, not
forecasting seconds.  When a :class:`~repro.bench.history.RunHistory`
is supplied, measured virtual makespans recorded under
``{dataset}-{algorithm}-p{p}`` override the model's guess for those
candidates, so the tuner sharpens as the history accumulates.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import asdict, dataclass, field
from typing import Any

from repro.core.config import ALGORITHMS, TC2DConfig
from repro.graph.csr import Graph
from repro.simmpi.costmodel import MachineModel

#: Perfect-square rank counts the planner considers (before ``max_p`` /
#: pinning filters).  Matches the paper's sweep range.
CANDIDATE_RANKS = (1, 4, 9, 16, 25, 36, 49, 64, 100, 121, 144, 169)

#: Fields of a :class:`Plan` a user may pin via explicit CLI flags.
PLANNABLE_FIELDS = ("algorithm", "p", "kernel_backend", "executor", "workers")


@dataclass(frozen=True)
class GraphSignals:
    """Cheap structural statistics driving the plan (all O(m)-ish;
    nothing here counts a triangle exactly).

    ``horizontal_fraction`` / ``horizontal_wedges`` / ``bfs_depth`` come
    from the sequential BFS-level computation
    (:func:`repro.graph.stats.cover_edge_stats`) — the very structure
    the cover-edge algorithm exploits, so they are *the* discriminating
    signals between the two algorithms.  ``clustering_est`` is a seeded
    sampled estimate (:func:`repro.graph.stats.clustering_estimate`).
    """

    n: int
    m: int
    d_avg: float
    d_max: int
    skew: float
    wedges: int
    clustering_est: float
    horizontal_fraction: float
    horizontal_wedges: int
    bfs_depth: int

    def fingerprint(self) -> str:
        """Stable short digest of the signal values (plan provenance)."""
        blob = json.dumps(asdict(self), sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()[:16]


def collect_signals(graph: Graph, seed: int = 0) -> GraphSignals:
    """Measure :class:`GraphSignals` for ``graph`` (deterministic for a
    given ``(graph, seed)``)."""
    from repro.graph.stats import (
        bfs_levels,
        clustering_estimate,
        cover_edge_stats,
        wedge_count,
    )

    n, m = graph.n, graph.num_edges
    d = graph.degrees
    d_avg = float(d.mean()) if n else 0.0
    d_max = int(d.max()) if n else 0
    level = bfs_levels(graph)
    ce = cover_edge_stats(graph, level=level)
    return GraphSignals(
        n=n,
        m=m,
        d_avg=d_avg,
        d_max=d_max,
        skew=(d_max / d_avg) if d_avg > 0 else 1.0,
        wedges=wedge_count(graph),
        clustering_est=clustering_estimate(graph, seed=seed),
        horizontal_fraction=ce["horizontal_fraction"],
        horizontal_wedges=ce["horizontal_wedges"],
        bfs_depth=ce["bfs_depth"],
    )


@dataclass(frozen=True)
class Plan:
    """An auto-tuner decision, self-describing for provenance.

    ``predicted`` maps every considered ``"{algorithm}-p{p}"`` candidate
    to its predicted (or history-measured) virtual makespan in seconds;
    ``predicted_s`` is the winner's entry.  ``pinned`` lists the fields
    the user fixed (the tuner never overrode them); ``source`` is
    ``"history"`` when the winning candidate's time came from a recorded
    measurement rather than the model formulas.
    """

    algorithm: str
    p: int
    kernel_backend: str
    executor: str
    workers: int
    predicted_s: float
    predicted: dict[str, float] = field(default_factory=dict)
    signals_fingerprint: str = ""
    model_fingerprint: str = ""
    pinned: tuple[str, ...] = ()
    source: str = "model"
    cores: int = 1

    def to_dict(self) -> dict[str, Any]:
        """JSON-serializable provenance record (lands in
        ``result.extras["autotune"]`` and the telemetry summary)."""
        d = asdict(self)
        d["pinned"] = list(self.pinned)
        d["predicted"] = {k: float(v) for k, v in self.predicted.items()}
        return d

    def to_config(self, base: TC2DConfig | None = None) -> TC2DConfig:
        """Fold the plan's config-shaped fields into a
        :class:`TC2DConfig` (``base`` supplies everything else)."""
        base = base if base is not None else TC2DConfig()
        return base.replace(
            algorithm=self.algorithm,
            kernel_backend=self.kernel_backend,
            executor=self.executor,
            workers=self.workers,
        )


# ---------------------------------------------------------------------------
# virtual-makespan prediction
# ---------------------------------------------------------------------------

#: Collectives each preprocessing pipeline performs (each costs roughly
#: one message per peer per rank under the alpha term).
_PPT_COLLECTIVES_TC2D = 8
#: Extra collectives per BFS propagation round (translate request +
#: reply all-to-alls).
_BFS_COLLECTIVES_PER_ROUND = 4
#: Safety factor on the cover-edge kernel-op estimates: its probe
#: volume depends on which endpoint of each cover edge lands on the
#: probing side, which cheap signals cannot resolve; over-estimating
#: keeps the tuner from switching algorithms on marginal calls.
_COVEREDGE_FUDGE = 1.5


def predict_virtual_seconds(
    signals: GraphSignals, algorithm: str, p: int, model: MachineModel
) -> float:
    """Predicted virtual makespan (ppt + tct) of one candidate.

    The formulas mirror the operation charges the rank programs make —
    counts estimated from signals, converted through the model's rates —
    plus the latency/bandwidth terms of the collectives and the Cannon
    shifts.  Calibrated to land within ~2x of measured makespans on the
    registry graphs, which is enough to rank candidates.
    """
    q = math.isqrt(p)
    if q * q != p:
        raise ValueError(f"p must be a perfect square, got {p}")
    n, m, w = signals.n, signals.m, signals.wedges
    alpha = model.alpha
    beta = model.beta
    ct = model.compute_time

    def per_rank(kind: str, count: float) -> float:
        return ct(kind, max(0.0, count) / p)

    # Shared preprocessing: relabel/ship/sort/build, all O(m/p) with a
    # handful of alltoallvs (p messages each under the alpha model).
    ppt = (
        per_rank("relabel", 4 * m)
        + per_rank("scan", 6 * m)
        + per_rank("sort", n + m)
        + per_rank("csr_build", 4 * m)
        + _PPT_COLLECTIVES_TC2D * p * alpha
    )
    if algorithm == "tc2d":
        tct_ops = (
            per_rank("task", q * m)
            + per_rank("row_visit", q * min(n, 2 * m))
            + per_rank("hash_insert", 2 * m)
            + per_rank("hash_probe", w / 2 + m)
        )
        shift_bytes = 2 * (2 * m / max(1, p)) * 24
    elif algorithm == "coveredge":
        m_s = signals.horizontal_fraction * m
        w_h = signals.horizontal_wedges
        rounds = 2 * (signals.bfs_depth + 2)
        ppt += rounds * (
            per_rank("scan", 2 * m + n)
            + _BFS_COLLECTIVES_PER_ROUND * p * alpha
        )
        # Pass A ships the full adjacency (twice the U/L volume).
        ppt += per_rank("relabel", 4 * m) + per_rank("csr_build", 4 * m)
        tct_ops = _COVEREDGE_FUDGE * (
            per_rank("task", q * 2 * m_s)
            + per_rank("row_visit", q * min(n, 2 * m))
            + per_rank("hash_insert", 2 * m + m_s)
            + per_rank("hash_probe", 1.5 * w * signals.horizontal_fraction + w_h)
        )
        # Two Cannon rotations; pass A blocks are ~2x tc2d's.
        shift_bytes = 3 * (2 * m / max(1, p)) * 24
    else:
        raise ValueError(f"unknown algorithm {algorithm!r}")
    tct = tct_ops + q * (4 * alpha + shift_bytes * beta) * (
        1 if algorithm == "tc2d" else 2
    )
    return ppt + tct


def _history_makespans(history: Any, dataset: str) -> dict[str, float]:
    """Measured virtual makespans recorded under ``{dataset}-{alg}-p{p}``
    cases (see :mod:`repro.bench.autotunebench`)."""
    if history is None or not dataset:
        return {}
    from repro.bench.history import RunHistory

    if not isinstance(history, RunHistory):
        history = RunHistory(history)
    out: dict[str, float] = {}
    prefix = f"{dataset}-"
    for row in history.rows():
        case = row.get("case", "")
        val = row.get("metrics", {}).get("virtual_makespan_s")
        if not case.startswith(prefix) or val is None:
            continue
        out[case[len(prefix):]] = float(val)
    return out


# ---------------------------------------------------------------------------
# the planner
# ---------------------------------------------------------------------------


def plan_run(
    graph: Graph | None = None,
    *,
    signals: GraphSignals | None = None,
    model: MachineModel | None = None,
    pinned: dict[str, Any] | None = None,
    history: Any = None,
    dataset: str = "",
    cores: int = 1,
    max_p: int = 64,
    seed: int = 0,
) -> Plan:
    """Choose algorithm × p × kernel backend × executor for one run.

    Parameters
    ----------
    graph / signals:
        Either the graph itself (signals are collected with ``seed``) or
        precomputed :class:`GraphSignals`.  Exactly one is required.
    model:
        Machine model whose rates price the candidates; defaults to
        :class:`MachineModel()`.  Its fingerprint is recorded in the
        plan.
    pinned:
        Fields the user fixed explicitly (subset of
        :data:`PLANNABLE_FIELDS`); adopted verbatim and excluded from
        the search.
    history:
        Optional :class:`~repro.bench.history.RunHistory` (or its path):
        measured makespans under ``{dataset}-{alg}-p{p}`` cases override
        the model's predictions for those candidates.
    cores:
        Physical cores available for the parallel executor.  Passed
        explicitly (rather than sampled from the machine) so plans are
        reproducible; the CLI passes ``os.cpu_count()``.
    max_p:
        Largest rank count to consider.

    Returns
    -------
    Plan
        Deterministic for identical inputs; ties in predicted time break
        toward (lexicographically smaller algorithm, smaller p).
    """
    if (graph is None) == (signals is None):
        raise ValueError("provide exactly one of graph= or signals=")
    if signals is None:
        signals = collect_signals(graph, seed=seed)
    model = model if model is not None else MachineModel()
    pinned = dict(pinned or {})
    unknown = set(pinned) - set(PLANNABLE_FIELDS)
    if unknown:
        raise ValueError(f"cannot pin unknown fields: {sorted(unknown)}")

    algorithms = (
        [pinned["algorithm"]] if "algorithm" in pinned else list(ALGORITHMS)
    )
    if "p" in pinned:
        ranks = [int(pinned["p"])]
    else:
        ranks = [r for r in CANDIDATE_RANKS if r <= max_p]
    measured = _history_makespans(history, dataset)

    predicted: dict[str, float] = {}
    sources: dict[str, str] = {}
    for alg in algorithms:
        for p in ranks:
            key = f"{alg}-p{p}"
            if key in measured:
                predicted[key] = measured[key]
                sources[key] = "history"
            else:
                predicted[key] = predict_virtual_seconds(signals, alg, p, model)
                sources[key] = "model"
    best_key = min(predicted, key=lambda k: (predicted[k], k))
    best_alg, best_p = best_key.rsplit("-p", 1)
    best_p = int(best_p)

    # Wall-clock-only knobs never move the virtual clock, so the argmin
    # above cannot choose them, and no committed wall-clock artifact shows
    # a graph size or core count where forcing a backend or starting a
    # pool beats these two (docs/autotune.md has the tables).
    kernel = pinned.get("kernel_backend", "auto")
    executor = pinned.get("executor", "sequential")
    if "workers" in pinned:
        workers = int(pinned["workers"])
    elif executor == "parallel":
        workers = max(1, min(cores, best_p))
    else:
        workers = 0

    return Plan(
        algorithm=best_alg,
        p=best_p,
        kernel_backend=kernel,
        executor=executor,
        workers=workers,
        predicted_s=predicted[best_key],
        predicted=predicted,
        signals_fingerprint=signals.fingerprint(),
        model_fingerprint=model.fingerprint(),
        pinned=tuple(sorted(pinned)),
        source=sources[best_key],
        cores=cores,
    )


def format_plan_table(plan: Plan, measured: dict[str, float] | None = None) -> str:
    """Human-readable candidate table: predicted (and, when available,
    measured) virtual makespan per candidate, winner marked."""
    measured = measured or {}
    lines = [f"{'candidate':<18} {'predicted':>12} {'measured':>12}"]
    best_key = f"{plan.algorithm}-p{plan.p}"
    for key in sorted(plan.predicted, key=lambda k: (plan.predicted[k], k)):
        mark = " <- chosen" if key == best_key else ""
        meas = f"{measured[key]:>10.6f}s" if key in measured else f"{'-':>11}"
        lines.append(
            f"{key:<18} {plan.predicted[key]:>10.6f}s {meas}{mark}"
        )
    lines.append(
        f"plan: -a {plan.algorithm} -p {plan.p} --kernel {plan.kernel_backend}"
        f" --executor {plan.executor}"
        + (f" --workers {plan.workers}" if plan.executor == "parallel" else "")
        + (f"  [pinned: {', '.join(plan.pinned)}]" if plan.pinned else "")
    )
    return "\n".join(lines)
