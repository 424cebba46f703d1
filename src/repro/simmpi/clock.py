"""Per-rank virtual clocks with phase-scoped compute/communication split.

Every rank owns a :class:`RankClock`.  Kernels advance it through
``advance_compute``; the communication layer advances it through
``advance_comm`` (send overheads) and ``wait_until`` (receive completion,
whose waiting time is what the paper's Figure 3 calls communication time).

Phases ("ppt", "tct", per-shift spans, ...) are tracked with a stack so the
triangle-counting phase can nest per-shift sub-phases; each phase records
how much of its span was compute vs communication.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class PhaseStats:
    """Aggregated timing for one named phase on one rank.

    Attributes
    ----------
    name:
        Phase label, e.g. ``"tct"`` or ``"tct/shift3"``.
    compute:
        Seconds the rank spent computing inside the phase.
    comm:
        Seconds spent in communication (send overhead + waiting on
        receives/collectives) inside the phase.
    start, end:
        Virtual-time span of the phase.
    """

    name: str
    compute: float = 0.0
    comm: float = 0.0
    start: float = 0.0
    end: float = 0.0

    @property
    def elapsed(self) -> float:
        """Total virtual seconds from phase start to end."""
        return self.end - self.start

    @property
    def comm_fraction(self) -> float:
        """Fraction of accounted time spent communicating (0 if idle)."""
        total = self.compute + self.comm
        return self.comm / total if total > 0 else 0.0


class RankClock:
    """Virtual clock for one rank.

    The clock only moves forward.  All mutation goes through the three
    ``advance_*``/``wait_until`` methods — or :meth:`settle`, which adopts
    the outcome of a whole sequence of them — so that phase accounting can
    never drift from the clock itself.
    """

    def __init__(self, rank: int):
        self.rank = rank
        self._now = 0.0
        self._phase_stack: list[PhaseStats] = []
        self.phases: dict[str, PhaseStats] = {}

    @property
    def now(self) -> float:
        """Current virtual time in seconds."""
        return self._now

    # -- mutation ---------------------------------------------------------

    def advance_compute(self, dt: float) -> None:
        """Advance by ``dt`` seconds of computation."""
        if dt < 0:
            raise ValueError(f"negative compute time {dt}")
        self._now += dt
        for ph in self._phase_stack:
            ph.compute += dt

    def advance_comm(self, dt: float) -> None:
        """Advance by ``dt`` seconds of communication overhead."""
        if dt < 0:
            raise ValueError(f"negative comm time {dt}")
        self._now += dt
        for ph in self._phase_stack:
            ph.comm += dt

    def wait_until(self, t: float) -> float:
        """Block (virtually) until time ``t``; waiting counts as comm.

        Returns the waiting time actually charged (0 when ``t`` is in the
        past, which is the common case for an eagerly delivered message).
        """
        dt = t - self._now
        if dt <= 0:
            return 0.0
        self._now = t
        for ph in self._phase_stack:
            ph.comm += dt
        return dt

    def open_comm(self) -> list[float]:
        """``comm`` of every open phase, outermost first."""
        return [ph.comm for ph in self._phase_stack]

    def settle(self, now: float, comm: list[float]) -> None:
        """Adopt the outcome of a sequence of ``advance_comm``/``wait_until``
        calls that was evaluated elsewhere (the engine's all-to-all
        rendezvous): the clock reads ``now`` and the open phases' ``comm``
        totals are ``comm``, in :meth:`open_comm` order."""
        if now < self._now:
            raise ValueError(f"clock cannot move back from {self._now} to {now}")
        self._now = now
        for ph, total in zip(self._phase_stack, comm):
            ph.comm = total

    # -- phases -----------------------------------------------------------

    def phase_begin(self, name: str) -> PhaseStats:
        """Open a (possibly nested) phase; returns its stats record."""
        full = name
        if self._phase_stack:
            full = f"{self._phase_stack[-1].name}/{name}"
        ph = PhaseStats(name=full, start=self._now, end=self._now)
        self._phase_stack.append(ph)
        return ph

    def phase_end(self, ph: PhaseStats) -> PhaseStats:
        """Close ``ph`` (must be the innermost open phase)."""
        if not self._phase_stack or self._phase_stack[-1] is not ph:
            raise RuntimeError(
                f"phase_end({ph.name!r}) does not match the innermost open phase"
            )
        self._phase_stack.pop()
        ph.end = self._now
        prior = self.phases.get(ph.name)
        if prior is None:
            self.phases[ph.name] = ph
        else:
            # Same-named phase re-entered (e.g. repeated shifts): accumulate.
            prior.compute += ph.compute
            prior.comm += ph.comm
            prior.end = ph.end
        return ph
