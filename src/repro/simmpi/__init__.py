"""Deterministic simulated-MPI runtime for SPMD rank programs.

This package substitutes for a real MPI installation: it runs ``p`` virtual
ranks inside a single process, each executing an unmodified SPMD rank
program against a :class:`~repro.simmpi.comm.Comm` whose API mirrors the
lowercase (generic-object) mpi4py interface.  Communication and computation
are accounted against per-rank *virtual clocks* using a pluggable
:class:`~repro.simmpi.costmodel.MachineModel`, so experiments report
simulated seconds that reflect the message/operation profile of the
algorithm rather than single-core wall time.

Typical usage::

    from repro.simmpi import Engine, MachineModel

    def program(ctx):
        if ctx.rank == 0:
            ctx.comm.send({"hello": 1}, dest=1)
        elif ctx.rank == 1:
            print(ctx.comm.recv(source=0))
        return ctx.rank

    result = Engine(num_ranks=4).run(program)
    assert result.returns == [0, 1, 2, 3]

Determinism: the engine sequentializes rank execution (one runnable rank at
a time, scheduled in a fixed order), so given seeded inputs two runs produce
bit-identical results, counters and clocks.
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports
from repro.simmpi.costmodel import CacheModel, MachineModel
from repro.simmpi.clock import PhaseStats, RankClock
from repro.simmpi.comm import ANY_SOURCE, ANY_TAG, Comm
from repro.simmpi.engine import Engine, RankContext, RunResult
from repro.simmpi.errors import (
    BlobChecksumError,
    CollectiveMismatchError,
    DeadlockError,
    RankCrashError,
    RankFailedError,
    ResilienceExhaustedError,
    SimMPIError,
    WorkerCrashError,
)
from repro.simmpi.reduceops import BAND, BOR, MAX, MIN, PROD, SUM, ReduceOp
from repro.simmpi.tracing import Span, Tracer

if TYPE_CHECKING:
    from repro.simmpi.parallel import SuperstepPool

__all__ = [
    "ANY_SOURCE",
    "ANY_TAG",
    "BAND",
    "BlobChecksumError",
    "BOR",
    "CacheModel",
    "CollectiveMismatchError",
    "Comm",
    "DeadlockError",
    "Engine",
    "MachineModel",
    "MAX",
    "MIN",
    "PhaseStats",
    "PROD",
    "RankClock",
    "RankContext",
    "RankCrashError",
    "RankFailedError",
    "ReduceOp",
    "ResilienceExhaustedError",
    "RunResult",
    "SimMPIError",
    "Span",
    "SUM",
    "SuperstepPool",
    "Tracer",
    "WorkerCrashError",
]


# ``SuperstepPool`` loads on first use: the pool module pulls in
# multiprocessing and concurrent.futures, which a run that never starts a
# pool should not pay for at import.
__getattr__, __dir__ = lazy_exports(
    __name__, {"repro.simmpi.parallel": "SuperstepPool"}
)
