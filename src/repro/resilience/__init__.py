"""Resilience subsystem: fault injection, checkpoint/restart, chaos tests.

Production distributed analytics treats failure handling as first-class;
this package grows the reproduction the same way, in three cooperating
layers built on the simulated-MPI runtime:

* :mod:`repro.resilience.faults` — deterministic, seeded fault plans
  (message drop/delay/duplication, blob corruption, rank stall/crash at
  named phases or shift steps) and the injector the
  :class:`~repro.simmpi.engine.Engine` consults;
* :mod:`repro.resilience.checkpoint` — phase-level snapshots of each
  rank's state (the travelling U/L blocks and resident task block via the
  crc-protected blob wire format, the partial count, the shift index) in
  an on-disk checkpoint directory with a JSON manifest;
* :mod:`repro.resilience.recovery` — a restarting driver that reruns
  :func:`~repro.core.tc2d.count_triangles_2d` from the latest complete
  checkpoint after a fault-induced failure, with bounded retry/backoff;
* :mod:`repro.resilience.chaos` — the differential sweep
  (``python -m repro chaos``): seeded cells over every algorithm, input
  path, kernel, toggle and fault plan, each held to the serial count,
  with exact-count recovery as its fault-plan axis.

Every injected fault is emitted through the PR-1 tracer as a ``"fault"``
event plus a ``cat="fault"`` span, so faults are visible in exported
Perfetto traces and attributable next to the comm matrix.

See ``docs/resilience.md`` for the fault taxonomy, the checkpoint
manifest format and the sweep's axes and oracle.
"""

from repro.resilience.checkpoint import CheckpointStore, RankSnapshot
from repro.resilience.faults import (
    FaultAction,
    FaultInjector,
    FaultPlan,
    FaultSpec,
    MESSAGE_FAULT_KINDS,
    POINT_FAULT_KINDS,
)
from repro.resilience.recovery import (
    AttemptRecord,
    RecoveryPolicy,
    count_triangles_2d_resilient,
)

__all__ = [
    "AttemptRecord",
    "CheckpointStore",
    "FaultAction",
    "FaultInjector",
    "FaultPlan",
    "FaultSpec",
    "MESSAGE_FAULT_KINDS",
    "POINT_FAULT_KINDS",
    "RankSnapshot",
    "RecoveryPolicy",
    "count_triangles_2d_resilient",
]
