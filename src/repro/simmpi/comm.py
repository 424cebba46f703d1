"""Communicator API for simulated-MPI rank programs.

Mirrors the lowercase (generic Python object) mpi4py interface: ``send`` /
``recv`` / ``sendrecv`` plus the collectives the triangle-counting code
needs (``barrier``, ``bcast``, ``allreduce``, ``allgather``,
``alltoall`` and its counts form ``alltoallv``, ``exscan``, with
``reduce``, ``gather`` and ``scan`` as their building blocks), Cannon's
skew/shift ``exchange``, and ``split`` for building row/column
communicators on the processor grid.  That is the whole surface — what
the rank programs call, nothing kept in stock
(``tests/test_public_api.py`` pins it): the next method arrives with its
caller.

Collectives are defined *as* point-to-point messages (binomial trees,
dissemination barrier, pairwise exchange, recursive-doubling scan), so
their simulated cost emerges from the same alpha-beta model as everything
else instead of being a separate formula.  Each one is written once, as a
generator of this member's sends and receives.  Under a fault injector
the member steps it message by message, and every internal message
carries a small envelope ``(op-name, sequence-number)`` that is verified
on receipt, turning mismatched collective calls into a
:class:`CollectiveMismatchError` instead of silent corruption.  Otherwise
the engine completes the collective as one rendezvous that steps every
member's generator (:meth:`Engine.collective`), to the same clocks and
trace records, and a mismatch is caught when the members meet.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Sequence

import numpy as np

from repro.simmpi.errors import CollectiveMismatchError, InvalidRankError
from repro.simmpi.reduceops import ReduceOp

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.simmpi.engine import Engine

#: Wildcard ``source`` for :meth:`Comm.recv`.
ANY_SOURCE = -1
#: Wildcard ``tag`` for :meth:`Comm.recv`.
ANY_TAG = -1

#: Tag reserved for collective-internal messages (user tags must be >= 0).
_COLL_TAG = -2
_ENVELOPE = "__simmpi_coll__"
_MISMATCH_HINT = "(did every member call the same collective in the same order?)"


@dataclass(frozen=True)
class Status:
    """Receive status: who sent the message and with which tag."""

    source: int
    tag: int


def _send_array(a: Any) -> np.ndarray:
    """One ``alltoallv`` send array as a plain ndarray of rows."""
    if not isinstance(a, np.ndarray) or a.ndim == 0:
        raise TypeError(f"alltoallv sends arrays of rows, not {type(a).__name__}")
    if a.dtype.hasobject:
        raise TypeError("alltoallv cannot send an object-dtype array (use alltoall)")
    return a if type(a) is np.ndarray else np.asarray(a)


def _count_table(
    vectors: Any, arrays: tuple[np.ndarray, ...], size: int
) -> np.ndarray:
    """The ``(len(arrays), size)`` int64 table of per-destination counts,
    checked against the arrays' rows."""
    if not isinstance(vectors, (tuple, list)) or len(vectors) != len(arrays):
        raise ValueError("alltoallv needs one count vector per send array")
    try:
        table = np.array(vectors)
    except ValueError:  # ragged
        table = np.empty(0)
    if table.shape != (len(arrays), size):
        raise ValueError(f"alltoallv needs {size} counts per send array")
    if table.dtype.kind not in "iu":
        raise TypeError(f"alltoallv counts must be integers, not {table.dtype}")
    table = table.astype(np.int64, copy=False)
    if table.min() < 0:
        raise ValueError("alltoallv counts must not be negative")
    sums = table.sum(axis=1).tolist()
    if sums != [len(a) for a in arrays]:
        raise ValueError(
            f"alltoallv counts sum to {sums}, the arrays have "
            f"{[len(a) for a in arrays]} rows"
        )
    return table


def _same_layout(item: Any, arrays: tuple[np.ndarray, ...]) -> bool:
    """Whether a received item is a tuple of rows shaped like ``arrays``."""
    return (
        type(item) is tuple
        and len(item) == len(arrays)
        and all(
            type(x) is np.ndarray and x.dtype == a.dtype and x.shape[1:] == a.shape[1:]
            for x, a in zip(item, arrays)
        )
    )


def _next_pow2(x: int) -> int:
    p = 1
    while p < x:
        p <<= 1
    return p


class Comm:
    """A communicator over an ordered group of world ranks.

    Attributes
    ----------
    rank:
        This process's rank *within the communicator*.
    size:
        Number of members.
    comm_id:
        Hashable identity used to isolate this communicator's message
        matching from every other communicator's.
    """

    def __init__(
        self,
        engine: "Engine",
        world_rank: int,
        members: list[int],
        comm_id: Any,
    ):
        self.engine = engine
        self._world_rank = world_rank
        self.members = list(members)
        self.comm_id = comm_id
        self.rank = self.members.index(world_rank)
        self.size = len(self.members)
        self._coll_seq = 0
        self._split_seq = 0

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"Comm(id={self.comm_id!r}, rank={self.rank}/{self.size}, "
            f"world={self._world_rank})"
        )

    # ------------------------------------------------------------------
    # point-to-point
    # ------------------------------------------------------------------

    def _check_rank(self, what: str, r: int) -> None:
        if not (0 <= r < self.size):
            raise InvalidRankError(what, r, self.size)

    def send(self, obj: Any, dest: int, tag: int = 0) -> None:
        """Send ``obj`` to communicator rank ``dest`` (eager/buffered)."""
        self._check_rank("dest", dest)
        if tag < 0:
            raise ValueError("user message tags must be >= 0")
        self.engine.post_send(
            self._world_rank, self.members[dest], tag, self.comm_id, obj
        )

    def recv(
        self,
        source: int = ANY_SOURCE,
        tag: int = ANY_TAG,
        return_status: bool = False,
    ) -> Any:
        """Blocking receive; returns the payload (and a :class:`Status` when
        ``return_status`` is true)."""
        if source != ANY_SOURCE:
            self._check_rank("source", source)
            world_src = self.members[source]
        else:
            world_src = ANY_SOURCE
        payload, src_world, got_tag = self.engine.wait_recv(
            self._world_rank, world_src, tag, self.comm_id
        )
        if return_status:
            return payload, Status(source=self.members.index(src_world), tag=got_tag)
        return payload

    def sendrecv(
        self,
        sendobj: Any,
        dest: int,
        source: int,
        sendtag: int = 0,
        recvtag: int = ANY_TAG,
    ) -> Any:
        """Combined send+receive (safe here because sends are eager)."""
        self.send(sendobj, dest, tag=sendtag)
        return self.recv(source=source, tag=recvtag)

    # ------------------------------------------------------------------
    # collective plumbing
    # ------------------------------------------------------------------
    #
    # Every collective is written once, as a generator of its messages in
    # this member's program order: it yields ``(dest, tag, payload, name)``
    # to send ``payload`` to communicator rank ``dest`` and ``(source,
    # tag)`` to receive, and is resumed with the received payload.
    # ``name`` is the collective a send record is attributed to (``None``
    # for a plain send).  Tree-collective payloads are envelopes
    # (:meth:`_env`, checked by :meth:`_open`).  Two drivers execute a
    # generator, to the same virtual outcome and the same trace records:
    # :meth:`_step` here, message by message (what a fault injector must
    # see), or the engine's rendezvous (:meth:`Engine.collective`), which
    # steps every member's generator at once.

    def _next_seq(self) -> int:
        self._coll_seq += 1
        return self._coll_seq

    def _collective(self, form: str, body: Any, *args: Any) -> Any:
        """Run ``body(seq, *args)``, a collective's message generator,
        under the driver this engine calls for."""
        seq = self._next_seq()
        gen = body(seq, *args)
        if self.engine.observes_envelopes:
            return self._step(gen)
        return self.engine.collective(self, seq, form, gen)

    def _step(self, gen: Any) -> Any:
        """Drive a message generator from this member's own thread: one
        engine send or blocking receive per yielded message."""
        engine, me, members = self.engine, self._world_rank, self.members
        got = None
        try:
            while True:
                msg = gen.send(got)
                if len(msg) == 4:
                    dest, tag, payload, name = msg
                    engine.post_send(
                        me, members[dest], tag, self.comm_id, payload, coll_op=name
                    )
                    got = None
                else:
                    source, tag = msg
                    got = engine.wait_recv(me, members[source], tag, self.comm_id)[0]
        except StopIteration as stop:
            return stop.value

    @staticmethod
    def _env(dest: int, seq: int, op: str, data: Any) -> tuple:
        """The send of ``data`` to ``dest`` inside collective ``op`` number
        ``seq``, wrapped in its checked envelope.  Scans suffix ``op`` with
        the round distance (``"scan1"``, ``"scan2"``, ...) for matching;
        send records drop the digits, so accounting groups by the
        user-facing collective name."""
        return dest, _COLL_TAG, (_ENVELOPE, seq, op, data), op

    def _open(self, payload: Any, source: int, seq: int, op: str) -> Any:
        """Unwrap ``source``'s envelope of collective ``op`` number ``seq``,
        received by yielding ``(source, _COLL_TAG)``."""
        if (
            not isinstance(payload, tuple)
            or len(payload) != 4
            or payload[0] != _ENVELOPE
        ):
            raise CollectiveMismatchError(
                f"rank {self.rank} received a non-collective message from rank "
                f"{source} inside collective {op!r}"
            )
        _, got_seq, got_op, data = payload
        if got_op != op or got_seq != seq:
            raise CollectiveMismatchError(
                f"collective mismatch on rank {self.rank}: expected "
                f"{op!r}#{seq}, got {got_op!r}#{got_seq} from rank "
                f"{source} {_MISMATCH_HINT}"
            )
        return data

    # ------------------------------------------------------------------
    # the message generators
    # ------------------------------------------------------------------

    def _barrier(self, seq: int) -> Any:
        k = 1
        while k < self.size:
            yield self._env((self.rank + k) % self.size, seq, "barrier", None)
            src = (self.rank - k) % self.size
            self._open((yield (src, _COLL_TAG)), src, seq, "barrier")
            k <<= 1

    def _bcast(self, seq: int, obj: Any, root: int) -> Any:
        vr = (self.rank - root) % self.size
        if vr != 0:
            lsb = vr & (-vr)
            parent = ((vr - lsb) + root) % self.size
            obj = self._open((yield (parent, _COLL_TAG)), parent, seq, "bcast")
        else:
            lsb = _next_pow2(self.size)
        k = lsb >> 1
        while k >= 1:
            if vr + k < self.size:
                yield self._env((vr + k + root) % self.size, seq, "bcast", obj)
            k >>= 1
        return obj

    def _reduce(self, seq: int, value: Any, op: ReduceOp, root: int) -> Any:
        vr = (self.rank - root) % self.size
        lsb = (vr & (-vr)) if vr != 0 else _next_pow2(self.size)
        acc = value
        k = 1
        while k < lsb and vr + k < self.size:
            child = (vr + k + root) % self.size
            acc = op(acc, self._open((yield (child, _COLL_TAG)), child, seq, "reduce"))
            k <<= 1
        if vr != 0:
            yield self._env(((vr - lsb) + root) % self.size, seq, "reduce", acc)
            return None
        return acc

    def _allreduce(self, seq: int, value: Any, op: ReduceOp) -> Any:
        acc = yield from self._reduce(seq, value, op, 0)
        return (yield from self._bcast(seq, acc, 0))

    def _gather(self, seq: int, obj: Any, root: int) -> Any:
        if self.rank != root:
            yield self._env(root, seq, "gather", obj)
            return None
        out: list[Any] = [None] * self.size
        out[root] = obj
        for r in range(self.size):
            if r != root:
                out[r] = self._open((yield (r, _COLL_TAG)), r, seq, "gather")
        return out

    def _allgather(self, seq: int, obj: Any) -> Any:
        gathered = yield from self._gather(seq, obj, 0)
        return (yield from self._bcast(seq, gathered, 0))

    def _alltoall(self, seq: int, objs: Sequence[Any]) -> Any:
        out: list[Any] = [None] * self.size
        out[self.rank] = objs[self.rank]
        for k in range(1, self.size):
            dst = (self.rank + k) % self.size
            src = (self.rank - k) % self.size
            yield self._env(dst, seq, "alltoall", objs[dst])
            out[src] = self._open((yield (src, _COLL_TAG)), src, seq, "alltoall")
        return out

    def _scan(self, seq: int, value: Any, op: ReduceOp) -> Any:
        partial = value
        k = 1
        while k < self.size:
            if self.rank + k < self.size:
                yield self._env(self.rank + k, seq, f"scan{k}", partial)
            if self.rank - k >= 0:
                src = self.rank - k
                incoming = self._open((yield (src, _COLL_TAG)), src, seq, f"scan{k}")
                partial = op(incoming, partial)
            k <<= 1
        return partial

    def _exscan(self, seq: int, value: Any, op: ReduceOp) -> Any:
        partial = yield from self._scan(seq, value, op)
        if self.rank < self.size - 1:
            yield self._env(self.rank + 1, seq, "exscan-shift", partial)
        if self.rank > 0:
            src = self.rank - 1
            return self._open((yield (src, _COLL_TAG)), src, seq, "exscan-shift")
        return None

    def _exchange(self, seq: int, rounds: Any, decode: Any) -> Any:
        out = []
        for sends, sources in rounds:
            for obj, dest, tag in sends:
                yield dest, tag, obj, None
            got = []
            for source, tag in sources:
                got.append((yield source, tag))
            out.append(tuple(got) if decode is None else decode(tuple(got)))
        return out

    # ------------------------------------------------------------------
    # collectives
    # ------------------------------------------------------------------

    def barrier(self) -> None:
        """Dissemination barrier: log2(size) rounds of pairwise tokens."""
        if self.size > 1:
            self._collective("barrier", self._barrier)

    def bcast(self, obj: Any, root: int = 0) -> Any:
        """Binomial-tree broadcast from ``root``; returns the object on
        every rank."""
        self._check_rank("root", root)
        if self.size == 1:
            return obj
        return self._collective("bcast", self._bcast, obj, root)

    def reduce(self, value: Any, op: ReduceOp, root: int = 0) -> Any:
        """Binomial-tree reduction to ``root``; non-roots return ``None``."""
        self._check_rank("root", root)
        return self._collective("reduce", self._reduce, value, op, root)

    def allreduce(self, value: Any, op: ReduceOp) -> Any:
        """Reduce to rank 0, then broadcast the result to everyone."""
        return self._collective("allreduce", self._allreduce, value, op)

    def gather(self, obj: Any, root: int = 0) -> list[Any] | None:
        """Gather one object per rank into a rank-ordered list at ``root``."""
        self._check_rank("root", root)
        return self._collective("gather", self._gather, obj, root)

    def allgather(self, obj: Any) -> list[Any]:
        """Gather at rank 0 then broadcast the full list."""
        return self._collective("allgather", self._allgather, obj)

    def alltoall(self, objs: Sequence[Any]) -> list[Any]:
        """Personalized all-to-all: rank ``i`` sends ``objs[j]`` to rank
        ``j`` and receives a list indexed by source rank.

        Defined as ``size - 1`` pairwise exchange steps, matching the
        paper's description of the preprocessing all-to-all as point-to-point
        send/receive pairs (its ``p + m/p`` term in the cost analysis).
        A fault injector sees those messages; otherwise the engine
        evaluates the same exchange as one vectorised recurrence
        (:meth:`Engine.alltoall`), to the same virtual outcome and, when
        traced, the same trace records.
        """
        if len(objs) != self.size:
            raise ValueError(f"alltoall needs exactly {self.size} send items")
        if self.engine.observes_envelopes:
            return self._collective("alltoall", self._alltoall, objs)
        return self.engine.alltoall(self, self._next_seq(), objs)

    def alltoallv(self, buf: Any, counts: Any) -> tuple[Any, Any]:
        """Personalized all-to-all in counts form, as ``MPI_Alltoallv``.

        ``buf`` is an array whose rows (axis 0) are grouped by destination,
        ``counts[d]`` rows for rank ``d`` — or a tuple of such arrays with a
        tuple of one count vector per array.  Returns ``(recv,
        recvcounts)`` of the same shape: the rows received, in source-rank
        order, and how many came from each source.

        Message ``r -> d`` is by definition the item :meth:`alltoall` would
        carry: the slice of ``buf`` for ``d`` (a tuple of slices for a
        tuple).  A fault injector sees exactly those messages, sent by the
        envelope loop; otherwise the engine sizes them from the counts and
        runs the exchange as one rendezvous (:meth:`Engine.alltoallv`), to
        the same virtual outcome and trace records.  As with the slices
        the object form ships, a sent buffer must not be written in place
        until every member has returned.

        Raises ``TypeError`` for a non-array or object-dtype buffer,
        ``ValueError`` for counts that do not fit it, and
        :class:`CollectiveMismatchError` when members disagree on dtypes,
        row shapes or tuple arity, or one calls :meth:`alltoall` instead.
        """
        single = not isinstance(buf, tuple)
        arrays = (buf,) if single else buf
        vectors = (counts,) if single else counts
        if not arrays:
            raise ValueError("alltoallv needs at least one send array")
        arrays = tuple(_send_array(a) for a in arrays)
        table = _count_table(vectors, arrays, self.size)
        if not self.engine.observes_envelopes:
            seq = self._next_seq()
            return self.engine.alltoallv(self, seq, arrays, table, single)
        # The definition: cut the messages and run the envelope loop.
        bounds = np.zeros((len(arrays), self.size + 1), dtype=np.int64)
        np.cumsum(table, axis=1, out=bounds[:, 1:])
        offsets = bounds.tolist()
        cuts = [
            tuple(a[o[d] : o[d + 1]] for a, o in zip(arrays, offsets))
            for d in range(self.size)
        ]
        got = self.alltoall([c[0] for c in cuts] if single else cuts)
        parts = [(item,) if single else item for item in got]
        for src, item in enumerate(parts):
            if not _same_layout(item, arrays):
                raise CollectiveMismatchError(
                    f"alltoallv mismatch on rank {self.rank}: rank {src} sent "
                    f"rows of another dtype, row shape or arity {_MISMATCH_HINT}"
                )
        recv = tuple(np.concatenate(col) for col in zip(*parts))
        recvcounts = tuple(
            np.array([len(x) for x in col], dtype=np.int64) for col in zip(*parts)
        )
        return (recv[0], recvcounts[0]) if single else (recv, recvcounts)

    def scan(self, value: Any, op: ReduceOp) -> Any:
        """Inclusive prefix reduction: rank r gets op-fold of ranks <= r.

        Hillis-Steele recursive doubling: log2(size) rounds, so a
        counting-sort offset computation costs ``dmax * log p`` — the term
        the paper's preprocessing analysis (Section 5.4) assumes.
        """
        return self._collective("scan", self._scan, value, op)

    def exscan(self, value: Any, op: ReduceOp) -> Any:
        """Exclusive prefix reduction: rank r gets op-fold of ranks < r.

        Rank 0 receives ``None`` (as in MPI, where its result is
        undefined).  Implemented as an inclusive scan followed by a
        single-hop shift, keeping the log-depth of :meth:`scan`.
        """
        return self._collective("exscan", self._exscan, value, op)

    def exchange(
        self,
        rounds: Sequence[
            tuple[Sequence[tuple[Any, int, int]], Sequence[tuple[int, int]]]
        ],
        decode: Callable[[tuple], Any] | None = None,
    ) -> list[Any]:
        """Point-to-point exchanges that every member makes at once, as
        one collective: Cannon's skew and shifts.

        ``rounds`` is a sequence of ``(sends, sources)``: each round sends
        every ``(obj, dest, tag)`` of ``sends``, in order, then receives
        one message per ``(source, tag)`` of ``sources``.  The messages
        are plain sends with user tags (``>= 0``), exactly what the same
        ``send``/``recv`` calls would put on the wire.  Returns one entry
        per round: the tuple of payloads it received, or ``decode`` of
        that tuple.  ``decode`` runs in this member's own thread, right
        after the round's last receive when a fault injector watches the
        messages, after the collective otherwise; it must not communicate.
        """
        for sends, sources in rounds:
            for _obj, dest, tag in sends:
                self._check_rank("dest", dest)
                if tag < 0:
                    raise ValueError("user message tags must be >= 0")
            for source, tag in sources:
                self._check_rank("source", source)
                if tag < 0:
                    raise ValueError("user message tags must be >= 0")
        if self.engine.observes_envelopes:
            return self._collective("exchange", self._exchange, rounds, decode)
        got = self._collective("exchange", self._exchange, rounds, None)
        return got if decode is None else [decode(r) for r in got]

    # ------------------------------------------------------------------
    # communicator management
    # ------------------------------------------------------------------

    def split(self, color: int, key: int | None = None) -> "Comm":
        """Partition the communicator by ``color``; order groups by
        ``(key, rank)`` as MPI_Comm_split does."""
        if key is None:
            key = self.rank
        self._split_seq += 1
        triples = self.allgather((color, key, self.rank))
        mine = sorted(
            (k, r) for (c, k, r) in triples if c == color
        )
        members = [self.members[r] for (_k, r) in mine]
        child_id = ("split", self.comm_id, self._split_seq, color)
        return Comm(self.engine, self._world_rank, members, child_id)
