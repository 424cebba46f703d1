"""Rank-to-rank communication matrix built from a run's trace.

Every wire message (point-to-point sends *and* the messages collectives
are built from) appears as one send record in the tracer, so the
matrix is exact: entry ``(i, j)`` holds how many messages and bytes rank
``i`` pushed toward rank ``j``.  Requires the run to have been executed
with tracing enabled.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.instrument.report import format_table

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.simmpi.engine import RunResult
    from repro.simmpi.tracing import Tracer


@dataclass
class CommMatrix:
    """Dense ``p x p`` message/byte matrix, indexed ``[src][dst]``."""

    num_ranks: int
    messages: list[list[int]]
    nbytes: list[list[int]]

    @classmethod
    def from_tracer(cls, tracer: "Tracer", num_ranks: int) -> "CommMatrix":
        """Accumulate all send records of ``tracer``."""
        msgs = [[0] * num_ranks for _ in range(num_ranks)]
        byts = [[0] * num_ranks for _ in range(num_ranks)]
        for s in tracer.sends():
            dst = s.detail["dst"]
            msgs[s.rank][dst] += 1
            byts[s.rank][dst] += s.detail["nbytes"]
        return cls(num_ranks=num_ranks, messages=msgs, nbytes=byts)

    @classmethod
    def from_run(cls, run: "RunResult") -> "CommMatrix":
        """Accumulate the trace of a finished :class:`RunResult`."""
        return cls.from_tracer(run.tracer, run.num_ranks)

    # -- aggregates ---------------------------------------------------------

    @property
    def total_messages(self) -> int:
        """All messages sent during the run."""
        return sum(sum(row) for row in self.messages)

    @property
    def total_bytes(self) -> int:
        """All bytes pushed onto the wire during the run."""
        return sum(sum(row) for row in self.nbytes)

    def sent_by(self, rank: int) -> tuple[int, int]:
        """``(messages, bytes)`` rank ``rank`` sent."""
        return sum(self.messages[rank]), sum(self.nbytes[rank])

    def received_by(self, rank: int) -> tuple[int, int]:
        """``(messages, bytes)`` addressed to rank ``rank``."""
        return (
            sum(row[rank] for row in self.messages),
            sum(row[rank] for row in self.nbytes),
        )

    def hottest_pairs(self, top: int = 5) -> list[tuple[int, int, int, int]]:
        """The ``top`` (src, dst, messages, bytes) pairs by byte volume."""
        pairs = [
            (s, d, self.messages[s][d], self.nbytes[s][d])
            for s in range(self.num_ranks)
            for d in range(self.num_ranks)
            if self.messages[s][d]
        ]
        pairs.sort(key=lambda x: (-x[3], -x[2], x[0], x[1]))
        return pairs[:top]

    def is_symmetric(self) -> bool:
        """True when every pair exchanged equal message counts both ways
        (e.g. a pure ``sendrecv``/pairwise-exchange pattern)."""
        return all(
            self.messages[i][j] == self.messages[j][i]
            for i in range(self.num_ranks)
            for j in range(i + 1, self.num_ranks)
        )

    # -- rendering ----------------------------------------------------------

    def render(self, what: str = "messages") -> str:
        """The matrix as an aligned text table (``what``: ``"messages"``
        or ``"bytes"``)."""
        if what not in ("messages", "bytes"):
            raise ValueError("what must be 'messages' or 'bytes'")
        grid = self.messages if what == "messages" else self.nbytes
        headers = ["src\\dst"] + [str(d) for d in range(self.num_ranks)]
        rows = [
            [str(s)] + [grid[s][d] for d in range(self.num_ranks)]
            for s in range(self.num_ranks)
        ]
        return format_table(
            headers,
            rows,
            title=(
                f"Communication matrix ({what}): {self.total_messages} msgs, "
                f"{self.total_bytes:,} bytes total"
            ),
        )
