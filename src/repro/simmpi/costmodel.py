"""Machine cost model mapping messages and operation counts to seconds.

The model is a LogGP-style postal model for communication plus per-kind
operation rates for computation:

* a point-to-point message of ``b`` bytes delivered from a sender at virtual
  time ``t_s`` to a receiver posting its receive at ``t_r`` completes at
  ``max(t_r, t_s + alpha + beta * b)``;
* a compute section that reports ``n`` operations of ``kind`` advances the
  local clock by ``n / rate(kind) * cache_factor(working_set)``.

The optional :class:`CacheModel` charges a penalty once a rank's working set
exceeds its cache share.  In the paper's experiments this is what produces
the super-linear speedup region at small rank counts (Section 7.1): with
more ranks, per-rank blocks shrink until they fit in aggregate cache.

Rates below are calibrated so that a single simulated Haswell-era core
counts triangles at the same order of magnitude as the paper's per-core
throughput; absolute values only set the unit of the reported seconds, the
scaling *shape* is independent of them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Mapping

import numpy as np

#: Default per-kind operation rates, in operations per second.  Kinds are
#: free-form strings; kernels pick names from this table (unknown kinds fall
#: back to ``default_rate``).
DEFAULT_RATES: dict[str, float] = {
    # triangle counting phase
    "hash_insert": 150e6,  # probed (multiplicative-hash) map inserts
    "hash_insert_fast": 210e6,  # direct-bitmask inserts (no probing)
    "hash_probe": 130e6,  # probed lookups (incl. collision hops)
    "hash_probe_fast": 160e6,  # single-compare lookups in fast-mode maps
    "task": 220e6,  # per (j, i) task dispatch overhead
    "row_visit": 150e6,  # row iteration step (indptr touch, likely cold)
    # preprocessing phase
    "scan": 450e6,  # linear passes over adjacency data
    "sort": 160e6,  # comparison/count-sort steps
    "csr_build": 300e6,  # writing CSR/DCSR entries
    "relabel": 350e6,  # applying a permutation to adjacency entries
    # wedge-based baselines (HavoqGT-style)
    "wedge_gen": 250e6,  # emitting one directed wedge
    "edge_check": 120e6,  # one remote-edge closure lookup
    # resilience: checkpoint serialization to local storage, bytes/second
    "checkpoint_io": 1.5e9,
    # graph store: reading a preprocessed artifact back from local storage
    # (page-cache-warm reads, hence faster than checkpoint writes), bytes/s
    "cache_io": 4.0e9,
    # generic
    "op": 200e6,
}


@dataclass(frozen=True)
class CacheModel:
    """Multiplicative penalty applied to compute once the working set no
    longer fits in the modelled last-level cache.

    The factor ramps linearly from 1.0 (working set fits) up to
    ``max_penalty`` (working set at or beyond ``saturate_ratio`` times the
    cache size), mirroring the smooth DRAM-bound degradation real kernels
    show.
    """

    cache_bytes: float = 8 * 2**20
    max_penalty: float = 2.2
    saturate_ratio: float = 16.0

    def factor(self, working_set_bytes: float | None) -> float:
        """Return the compute multiplier for a given working-set size."""
        if working_set_bytes is None or working_set_bytes <= self.cache_bytes:
            return 1.0
        ratio = working_set_bytes / self.cache_bytes
        if ratio >= self.saturate_ratio:
            return self.max_penalty
        # Linear interpolation in log-space between fit (1x) and saturated.
        t = np.log(ratio) / np.log(self.saturate_ratio)
        return float(1.0 + t * (self.max_penalty - 1.0))


@dataclass(frozen=True)
class MachineModel:
    """Cost model for a homogeneous distributed-memory machine.

    Parameters
    ----------
    alpha:
        Per-message latency in seconds (MPI eager-path latency).
    beta:
        Per-byte transfer time in seconds (inverse bandwidth).
    rates:
        Mapping from operation-kind name to operations/second.
    default_rate:
        Rate used for kinds absent from ``rates``.
    cache:
        Optional cache penalty model; ``None`` disables cache effects.
    send_overhead:
        CPU time the *sender* spends injecting one message (the ``o`` of
        LogP); charged to the sender's clock on every send.
    """

    alpha: float = 2.0e-6
    beta: float = 1.0 / 6.0e9
    rates: Mapping[str, float] = field(default_factory=lambda: dict(DEFAULT_RATES))
    default_rate: float = 200e6
    cache: CacheModel | None = field(default_factory=CacheModel)
    send_overhead: float = 0.5e-6

    def rate(self, kind: str) -> float:
        """Operations per second for ``kind``."""
        return float(self.rates.get(kind, self.default_rate))

    def compute_time(
        self, kind: str, count: float, working_set_bytes: float | None = None
    ) -> float:
        """Seconds of compute for ``count`` operations of ``kind``."""
        if count < 0:
            raise ValueError(f"negative operation count: {count}")
        t = count / self.rate(kind)
        if self.cache is not None:
            t *= self.cache.factor(working_set_bytes)
        return t

    def transfer_time(self, nbytes: float) -> float:
        """Wire time (latency + serialization) for one message."""
        return self.alpha + self.beta * max(0.0, nbytes)

    def replace(self, **kwargs: Any) -> "MachineModel":
        """Return a copy with some fields replaced."""
        from dataclasses import replace as _replace

        return _replace(self, **kwargs)

    def fingerprint(self) -> str:
        """Short stable hash of every constant that affects reported times.

        The graph store keys its recorded phase statistics by this value:
        the simulation is deterministic, so two runs under models with the
        same fingerprint measure identical phase times, and a warm-cache
        run may replay the recorded ppt cost of the cold run that wrote
        the entry.
        """
        import hashlib
        import json

        cache = (
            None
            if self.cache is None
            else [
                self.cache.cache_bytes,
                self.cache.max_penalty,
                self.cache.saturate_ratio,
            ]
        )
        payload = json.dumps(
            [
                self.alpha,
                self.beta,
                self.send_overhead,
                self.default_rate,
                sorted(self.rates.items()),
                cache,
            ],
            separators=(",", ":"),
        )
        return hashlib.sha256(payload.encode()).hexdigest()[:16]


#: What a tuple or list costs before its items.
_SEQUENCE_HEADER = 56


def payload_nbytes(obj: Any) -> int:
    """Estimate the serialized size of a message payload in bytes.

    numpy arrays and ``bytes`` report their exact buffer size; containers
    are traversed recursively with a small per-element envelope, mirroring
    what pickling small Python objects costs.  The estimate only feeds the
    cost model; it never affects correctness.

    The engine calls this once per message, nearly always on a collective's
    ``(envelope, seq, op, data)`` tuple, so flat tuples and lists are their
    header plus :func:`item_sizes`; anything else (subclasses, numpy
    scalars, other containers) takes the generic rules of
    :func:`_generic_nbytes`, which define the numbers.
    """
    t = type(obj)
    if t is np.ndarray:
        return obj.nbytes + 96
    if t is not tuple and t is not list:
        return _generic_nbytes(obj)
    return _SEQUENCE_HEADER + sum(item_sizes(obj))


def item_sizes(objs: Any) -> list[int]:
    """:func:`payload_nbytes` of every item of ``objs``, in one loop.

    Exact builtin types and plain arrays — what nearly every message is
    made of — are sized inline.  A sequence's size is its header plus
    these, so a collective that ships one ``(envelope, seq, op, item)``
    tuple per item can size the three-item prefix once and add each
    entry of this list (the engine's all-to-all rendezvous does).
    """
    sizes = []
    for x in objs:
        t = type(x)
        if t is np.ndarray:
            sizes.append(x.nbytes + 96)
        elif t is int or t is float or t is bool:
            sizes.append(32)
        elif t is str and x.isascii():
            sizes.append(len(x) + 49)
        elif x is None:
            sizes.append(8)
        else:
            sizes.append(payload_nbytes(x))
    return sizes


def _generic_nbytes(obj: Any) -> int:
    """The sizing rules, one ``isinstance`` ladder (containers recurse
    through :func:`payload_nbytes`)."""
    if obj is None:
        return 8
    if isinstance(obj, np.ndarray):
        return int(obj.nbytes) + 96
    if isinstance(obj, (bytes, bytearray, memoryview)):
        return len(obj) + 33
    if isinstance(obj, (bool, int, float, complex, np.integer, np.floating)):
        return 32
    if isinstance(obj, str):
        return len(obj.encode("utf-8", errors="replace")) + 49
    if isinstance(obj, (list, tuple, set, frozenset)):
        return _SEQUENCE_HEADER + sum(payload_nbytes(x) for x in obj)
    if isinstance(obj, dict):
        return 64 + sum(
            payload_nbytes(k) + payload_nbytes(v) for k, v in obj.items()
        )
    # Dataclass-like objects with __dict__ or __slots__.
    if hasattr(obj, "nbytes_estimate"):
        return int(obj.nbytes_estimate())
    if hasattr(obj, "__dict__"):
        return 64 + sum(payload_nbytes(v) for v in vars(obj).values())
    return 64
