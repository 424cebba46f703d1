"""Span tracing for simulated-MPI runs.

A :class:`Tracer` keeps **one list** of :class:`Span` records, one record
per traced occurrence, appended in engine-deterministic order.  The
category says what happened, ``detail`` carries what an observer needs:

* ``"phase"`` — a :meth:`RankContext.phase` scope (nested per rank);
* ``"compute"`` — one :meth:`RankContext.charge` (``count``) or one
  kernel call (``shift``, ``tasks``);
* ``"comm"`` — the two records of a message envelope.  The *send* record
  (named ``"send"``, or after the collective the envelope belongs to)
  covers the sender's injection overhead and carries ``dst``, ``nbytes``,
  ``tag``, ``arrival`` and ``seq`` (unique; ``n * p + src`` for the
  sender's ``n``-th message, so independent of the schedule); the *wait*
  record (named ``"wait"``) ends when the receive completes and carries
  ``src``, ``nbytes``, ``tag``, ``waited`` and the same ``seq`` — a
  receive that found its message already there is a zero-length wait,
  not a missing record;
* ``"fault"`` — an injected fault, named ``fault:<kind>`` (``site``, plus
  ``delay`` for a stall or ``dst``/``nbytes``/``tag`` for a message fault);
* ``"ckpt"`` / ``"cache"`` — a checkpoint write (``checkpoint:<epoch>``)
  or a warm-store load.

Tracing is off by default.  When disabled every recording method returns
immediately without allocating anything; call sites additionally guard on
:attr:`Tracer.enabled` to skip building the detail dict.

Two hooks are called whether or not recording is enabled:
:meth:`Tracer.phase_closed` at every top-level phase exit and
:meth:`Tracer.cache_loaded` at every warm-store load.  Both are no-ops
here; a subclass overrides them to follow a run's progress without
recording it (the serve layer streams them into a job's event log).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any


@dataclass
class Span:
    """One traced interval on one rank's timeline.

    Attributes
    ----------
    rank:
        Rank whose timeline the span belongs to.
    cat:
        Record category (see the module docstring).
    name:
        Display label (phase name, op kind, ``"send"``/``"wait"``, the
        collective's name, ``fault:<kind>``, ...).
    begin, end:
        Virtual-time extent.  ``end`` is filled by :meth:`Tracer.span_end`
        (it equals ``begin`` while the span is still open).
    depth:
        Nesting depth on the rank's span stack at open time (0 = top level).
    detail:
        Free-form payload (peer rank, byte count, op counts, ...).
    """

    rank: int
    cat: str
    name: str
    begin: float
    end: float
    depth: int
    detail: dict[str, Any] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        """Virtual seconds covered by the span."""
        return self.end - self.begin


class Tracer:
    """Accumulates the :class:`Span` records of a run."""

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        #: Every record, in close order (deterministic given the engine's
        #: deterministic scheduling).
        self.spans: list[Span] = []
        self._stacks: dict[int, list[Span]] = {}

    @property
    def events(self) -> list[Span]:
        """Read-only alias of :attr:`spans`, kept because the fixed
        benchmark gauge (``benchmarks/e2e/layers.py``) counts a run's
        records as ``len(run.tracer.events)``."""
        return self.spans

    # -- recording ----------------------------------------------------------

    def span_begin(
        self, t: float, rank: int, cat: str, name: str, **detail: Any
    ) -> Span | None:
        """Open a nested span on ``rank``'s timeline.

        Returns the open :class:`Span` (pass it to :meth:`span_end`), or
        ``None`` when tracing is disabled — :meth:`span_end` accepts
        ``None``, so call sites need no extra branch.
        """
        if not self.enabled:
            return None
        stack = self._stacks.setdefault(rank, [])
        span = Span(
            rank=rank, cat=cat, name=name, begin=t, end=t,
            depth=len(stack), detail=detail,
        )
        stack.append(span)
        return span

    def span_end(self, t: float, span: Span | None) -> None:
        """Close ``span`` (must be the innermost open span of its rank)."""
        if span is None:
            return
        stack = self._stacks.get(span.rank)
        if not stack or stack[-1] is not span:
            raise RuntimeError(
                f"span_end({span.name!r}) does not match the innermost open "
                f"span of rank {span.rank}"
            )
        stack.pop()
        span.end = t
        self.spans.append(span)

    def span_point(
        self, begin: float, end: float, rank: int, cat: str, name: str,
        **detail: Any,
    ) -> None:
        """Record an already-closed span covering ``[begin, end]``.

        Used by call sites that know the extent up front (a compute charge,
        a send overhead, a receive wait) and need no nesting bookkeeping.
        """
        if self.enabled:
            depth = len(self._stacks.get(rank, ()))
            self.spans.append(
                Span(rank=rank, cat=cat, name=name, begin=begin, end=end,
                     depth=depth, detail=detail)
            )

    # -- progress hooks (called even when disabled) --------------------------

    def phase_closed(self, rank: int, name: str, virtual_s: float) -> None:
        """A top-level phase of ``rank`` closed after ``virtual_s`` virtual
        seconds.  No-op."""

    def cache_loaded(self, rank: int, nbytes: int) -> None:
        """``rank`` loaded ``nbytes`` of blocks from a warm store entry.
        No-op."""

    def clear(self) -> None:
        """Drop all recorded spans."""
        self.spans.clear()
        self._stacks.clear()

    # -- views of the one list ----------------------------------------------

    def spans_for_rank(self, rank: int) -> list[Span]:
        """All closed spans of ``rank`` in close order."""
        return [s for s in self.spans if s.rank == rank]

    def open_spans(self) -> list[Span]:
        """Spans begun but not yet ended (should be empty after a run)."""
        return [s for stack in self._stacks.values() for s in stack]

    def sends(self) -> list[Span]:
        """The send record of every wire message (point-to-point sends
        *and* the messages collectives are built from), in record order."""
        return [s for s in self.spans if s.cat == "comm" and s.name != "wait"]

    def waits(self) -> list[Span]:
        """The wait record of every completed receive, in record order."""
        return [s for s in self.spans if s.cat == "comm" and s.name == "wait"]

    def faults(self) -> list[Span]:
        """All injected-fault records (empty for clean runs)."""
        return [s for s in self.spans if s.cat == "fault"]

    def collective_bytes(self) -> dict[str, int]:
        """Bytes sent inside each collective op, keyed by op name."""
        out: dict[str, int] = {}
        for s in self.sends():
            if s.name != "send":
                out[s.name] = out.get(s.name, 0) + s.detail["nbytes"]
        return out
