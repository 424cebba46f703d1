"""Configuration of the 2D triangle-counting pipeline.

Every Section 5.2 optimization and the jik/ijk enumeration choice is a
toggle here so the Section 7.3 ablation benchmarks can switch one off and
measure the modeled-runtime delta.  The Section 5.3 preprocessing (cyclic
redistribution, then degree reordering) is one fixed sequence, not a toggle.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any

#: Valid enumeration schemes (Section 3.1): "jik" hashes the higher-degree
#: endpoint's list once per task row (the paper's winning choice); "ijk"
#: hashes the lower-degree endpoint and probes with the long lists.
ENUMERATIONS = ("jik", "ijk")

#: Valid grid algorithms sharing this config: "tc2d" is the paper's
#: U/L-split Cannon pipeline (:func:`~repro.core.tc2d.count_triangles_2d`);
#: "coveredge" is the cover-edge two-pass variant of Bader et al.
#: (:func:`~repro.core.coveredge.count_triangles_coveredge`).  Both emit
#: identical counts; they trade preprocessing (BFS levels) against
#: counting work differently, which is what the auto-tuner exploits.
ALGORITHMS = ("tc2d", "coveredge")

#: Valid intersection-kernel backends (see :mod:`repro.core.kernels`):
#: "row" is the reference per-row loop, "batch" the fully vectorized
#: implementation, "c" the same loop compiled with ``cc`` on first use
#: (an error where that cannot be done), "auto" takes "c" where it loaded
#: and otherwise picks per block pair from cheap shape stats.
KERNEL_BACKENDS = ("auto", "row", "batch", "c")

#: Valid superstep executors (see :mod:`repro.simmpi.parallel`):
#: "sequential" runs kernels inline on the deterministic scheduler;
#: "parallel" fans each Cannon epoch's kernels out to a shared-memory
#: worker pool.  Both produce bit-identical results, clocks and traces.
EXECUTORS = ("sequential", "parallel")


@dataclass(frozen=True)
class TC2DConfig:
    """Feature toggles and tuning knobs for :func:`count_triangles_2d`.

    Attributes
    ----------
    algorithm:
        Which grid algorithm consumes this config: ``"tc2d"`` (the
        paper's U/L-split pipeline) or ``"coveredge"`` (the cover-edge
        two-pass variant).  Part of :meth:`store_key` because the two
        pipelines emit entirely different preprocessed blocks.  The
        drivers pin it to their own pipeline (``count_triangles_2d``
        forces ``"tc2d"``, ``count_triangles_coveredge`` forces
        ``"coveredge"``), so it is primarily CLI/auto-tuner plumbing.
    enumeration:
        ``"jik"`` (tasks = non-zeros of L, hash U's rows) or ``"ijk"``
        (tasks = non-zeros of U).  Section 7.3 reports jik cutting the
        counting time by 72.8%.
    doubly_sparse:
        Iterate only non-empty task rows via the DCSR auxiliary list
        (Section 5.2 "doubly sparse traversal"); off = visit every local
        row each shift.
    modified_hashing:
        Allow the direct-bitmask fast path for fragments that fit the map
        without collisions (Section 5.2 "modifying the hashing routine").
    early_stop:
        Skip probe candidates below the hashed fragment's minimum id
        (Section 5.2 "eliminating unnecessary intersection operations").
    blob_serialization:
        Pack each block into one contiguous byte buffer before shifting so
        a shift is one message instead of one per array (Section 5.2
        "reducing overheads associated with communication").
    kernel_backend:
        Intersection-kernel implementation: ``"row"`` (reference per-row
        loop), ``"batch"`` (vectorized), ``"c"`` (the compiled loop) or
        ``"auto"`` (``"c"`` where the host could build it, else a
        per-block-pair choice from shape statistics).  All backends
        produce identical counts, counters and virtual time — only wall
        time differs.
    executor:
        Superstep executor for the counting phase: ``"sequential"``
        (kernels run inline under the deterministic scheduler) or
        ``"parallel"`` (each Cannon epoch's per-rank kernels fan out to a
        persistent shared-memory worker pool; preprocessing stays on the
        scheduler; see :mod:`repro.simmpi.parallel`).
        Results, virtual clocks, traces and profile reports are
        bit-identical either way — only wall time changes.
    workers:
        Worker-process count for the parallel executor; ``0`` means the
        CPUs this process may run on.  Ignored under
        ``executor="sequential"``.
    real_timeout:
        Real (wall-clock) seconds the engine waits for a rank thread or
        a pool worker before declaring the run wedged.  A safety net for
        engine/worker bugs, not part of the simulation; chaos runs and
        CI tighten it so a wedged run fails fast.
    seed:
        Master random seed for the run.  The CLI threads its single
        ``--seed`` flag here; graph generators, any randomized kernel
        choices and the resilience layer's fault plans all derive their
        streams from it, so one integer reproduces an entire chaos run.
    """

    algorithm: str = "tc2d"
    enumeration: str = "jik"
    doubly_sparse: bool = True
    modified_hashing: bool = True
    early_stop: bool = True
    blob_serialization: bool = True
    kernel_backend: str = "auto"
    executor: str = "sequential"
    workers: int = 0
    real_timeout: float = 600.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.algorithm not in ALGORITHMS:
            raise ValueError(
                f"algorithm must be one of {ALGORITHMS}, "
                f"got {self.algorithm!r}"
            )
        if self.enumeration not in ENUMERATIONS:
            raise ValueError(
                f"enumeration must be one of {ENUMERATIONS}, "
                f"got {self.enumeration!r}"
            )
        if self.kernel_backend not in KERNEL_BACKENDS:
            raise ValueError(
                f"kernel_backend must be one of {KERNEL_BACKENDS}, "
                f"got {self.kernel_backend!r}"
            )
        if self.executor not in EXECUTORS:
            raise ValueError(
                f"executor must be one of {EXECUTORS}, got {self.executor!r}"
            )
        if self.workers < 0:
            raise ValueError("workers must be >= 0 (0 = usable CPUs)")
        if self.real_timeout <= 0:
            raise ValueError("real_timeout must be > 0 seconds")

    def replace(self, **kwargs: Any) -> "TC2DConfig":
        """Copy with some fields replaced (ablation helper)."""
        return replace(self, **kwargs)

    def store_key(self) -> dict[str, Any]:
        """The toggles that change the *preprocessing output* (and hence
        the artifact digest of :mod:`repro.graph.store`).

        ``algorithm`` selects which preprocessing pipeline ran (tc2d's
        U/L split vs. cover-edge's BFS-level construction — entirely
        different block contents); ``enumeration`` (which side becomes
        the task block) alters the blocks that pipeline emits.  Kernel,
        executor and serialization toggles only change how the same
        blocks are consumed, so they deliberately share one cached
        artifact.
        """
        return {
            "algorithm": self.algorithm,
            "enumeration": self.enumeration,
            # Always on; kept so existing store entries keep their digests.
            "initial_cyclic": True,
            "degree_reorder": True,
        }

    #: Configurations used by the Section 7.3 ablation bench.
    @classmethod
    def ablations(cls) -> dict[str, "TC2DConfig"]:
        """Named variants: baseline plus one-feature-off configurations."""
        base = cls()
        return {
            "baseline (all optimizations)": base,
            "no doubly-sparse traversal": base.replace(doubly_sparse=False),
            "no modified hashing": base.replace(modified_hashing=False),
            "no early-stop": base.replace(early_stop=False),
            "no blob serialization": base.replace(blob_serialization=False),
            "ijk enumeration": base.replace(enumeration="ijk"),
        }
