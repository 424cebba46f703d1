"""Communicator API for simulated-MPI rank programs.

Mirrors the lowercase (generic Python object) mpi4py interface: ``send`` /
``recv`` / ``sendrecv`` plus the collectives the triangle-counting code
needs (``barrier``, ``bcast``, ``allreduce``, ``allgather``,
``alltoall[v]``, ``exscan``, with ``reduce``, ``gather`` and ``scan`` as
their building blocks) and ``split`` for building row/column communicators
on the processor grid.  That is the whole surface — what the rank programs
call, nothing kept in stock (``tests/test_public_api.py`` pins it): the
next method arrives with its caller.

Collectives are implemented *on top of* point-to-point messages (binomial
trees, dissemination barrier, pairwise exchange), so their simulated cost
emerges from the same alpha-beta model as everything else instead of being
a separate formula.  Every internal message carries a small envelope
``(op-name, sequence-number)`` that is verified on receipt, turning
mismatched collective calls into a :class:`CollectiveMismatchError` instead
of silent corruption.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Sequence

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

    def _coll_send(self, dest: int, seq: int, op: str, data: Any) -> None:
        # Scans suffix the op with the round distance ("scan1", "scan2", ...)
        # for matching; strip digits so accounting groups by the user-facing
        # collective name.  Only the tracer reads that name.
        base_op = op.rstrip("0123456789") if self.engine.tracer.enabled else None
        self.engine.post_send(
            self._world_rank,
            self.members[dest],
            _COLL_TAG,
            self.comm_id,
            (_ENVELOPE, seq, op, data),
            coll_op=base_op,
        )

    def _coll_recv(self, source: int, seq: int, op: str) -> Any:
        payload, src_world, _tag = self.engine.wait_recv(
            self._world_rank, self.members[source], _COLL_TAG, self.comm_id
        )
        if (
            not isinstance(payload, tuple)
            or len(payload) != 4
            or payload[0] != _ENVELOPE
        ):
            raise CollectiveMismatchError(
                f"rank {self.rank} received a non-collective message from rank "
                f"{self.members.index(src_world)} inside collective {op!r}"
            )
        _, got_seq, got_op, data = payload
        if got_op != op or got_seq != seq:
            raise CollectiveMismatchError(
                f"collective mismatch on rank {self.rank}: expected "
                f"{op!r}#{seq}, got {got_op!r}#{got_seq} from rank "
                f"{self.members.index(src_world)} {_MISMATCH_HINT}"
            )
        return data

    def _next_seq(self) -> int:
        self._coll_seq += 1
        return self._coll_seq

    # ------------------------------------------------------------------
    # collectives
    # ------------------------------------------------------------------

    def barrier(self) -> None:
        """Dissemination barrier: log2(size) rounds of pairwise tokens."""
        if self.size == 1:
            return
        seq = self._next_seq()
        k = 1
        while k < self.size:
            dst = (self.rank + k) % self.size
            src = (self.rank - k) % self.size
            self._coll_send(dst, seq, "barrier", None)
            self._coll_recv(src, seq, "barrier")
            k <<= 1

    def bcast(self, obj: Any, root: int = 0) -> Any:
        """Binomial-tree broadcast from ``root``; returns the object on
        every rank."""
        self._check_rank("root", root)
        if self.size == 1:
            return obj
        seq = self._next_seq()
        vr = (self.rank - root) % self.size
        if vr != 0:
            lsb = vr & (-vr)
            parent = ((vr - lsb) + root) % self.size
            obj = self._coll_recv(parent, seq, "bcast")
        else:
            lsb = _next_pow2(self.size)
        k = lsb >> 1
        while k >= 1:
            child = vr + k
            if child < self.size:
                self._coll_send((child + root) % self.size, seq, "bcast", obj)
            k >>= 1
        return obj

    def reduce(self, value: Any, op: ReduceOp, root: int = 0) -> Any:
        """Binomial-tree reduction to ``root``; non-roots return ``None``."""
        self._check_rank("root", root)
        seq = self._next_seq()
        vr = (self.rank - root) % self.size
        lsb = (vr & (-vr)) if vr != 0 else _next_pow2(self.size)
        acc = value
        k = 1
        while k < lsb and vr + k < self.size:
            child_acc = self._coll_recv((vr + k + root) % self.size, seq, "reduce")
            acc = op(acc, child_acc)
            k <<= 1
        if vr != 0:
            parent = ((vr - lsb) + root) % self.size
            self._coll_send(parent, seq, "reduce", acc)
            return None
        return acc

    def allreduce(self, value: Any, op: ReduceOp) -> Any:
        """Reduce to rank 0, then broadcast the result to everyone."""
        acc = self.reduce(value, op, root=0)
        return self.bcast(acc, root=0)

    def gather(self, obj: Any, root: int = 0) -> list[Any] | None:
        """Gather one object per rank into a rank-ordered list at ``root``."""
        self._check_rank("root", root)
        seq = self._next_seq()
        if self.rank != root:
            self._coll_send(root, seq, "gather", obj)
            return None
        out: list[Any] = [None] * self.size
        out[root] = obj
        for r in range(self.size):
            if r != root:
                out[r] = self._coll_recv(r, seq, "gather")
        return out

    def allgather(self, obj: Any) -> list[Any]:
        """Gather at rank 0 then broadcast the full list."""
        gathered = self.gather(obj, root=0)
        return self.bcast(gathered, root=0)

    def alltoall(self, objs: Sequence[Any]) -> list[Any]:
        """Personalized all-to-all: rank ``i`` sends ``objs[j]`` to rank
        ``j`` and receives a list indexed by source rank.

        Defined as ``size - 1`` pairwise exchange steps, matching the
        paper's description of the preprocessing all-to-all as point-to-point
        send/receive pairs (its ``p + m/p`` term in the cost analysis).
        The loop below runs only when a fault injector acts on the
        individual envelopes; otherwise the engine evaluates the same
        exchange in one rendezvous (:meth:`Engine.alltoall`), to the same
        virtual outcome and, when traced, the same trace records.
        """
        if len(objs) != self.size:
            raise ValueError(f"alltoall needs exactly {self.size} send items")
        seq = self._next_seq()
        if not self.engine.observes_envelopes:
            return self.engine.alltoall(self, seq, objs)
        out: list[Any] = [None] * self.size
        out[self.rank] = objs[self.rank]
        for k in range(1, self.size):
            dst = (self.rank + k) % self.size
            src = (self.rank - k) % self.size
            self._coll_send(dst, seq, "alltoall", objs[dst])
            out[src] = self._coll_recv(src, seq, "alltoall")
        return out

    # mpi4py spells the object-interface version of alltoallv the same way.
    alltoallv = alltoall

    def scan(self, value: Any, op: ReduceOp) -> Any:
        """Inclusive prefix reduction: rank r gets op-fold of ranks <= r.

        Hillis-Steele recursive doubling: log2(size) rounds, so a
        counting-sort offset computation costs ``dmax * log p`` — the term
        the paper's preprocessing analysis (Section 5.4) assumes.
        """
        seq = self._next_seq()
        partial = value
        k = 1
        while k < self.size:
            if self.rank + k < self.size:
                self._coll_send(self.rank + k, seq, f"scan{k}", partial)
            if self.rank - k >= 0:
                incoming = self._coll_recv(self.rank - k, seq, f"scan{k}")
                partial = op(incoming, partial)
            k <<= 1
        return partial

    def exscan(self, value: Any, op: ReduceOp) -> Any:
        """Exclusive prefix reduction: rank r gets op-fold of ranks < r.

        Rank 0 receives ``None`` (as in MPI, where its result is
        undefined).  Implemented as an inclusive scan followed by a
        single-hop shift, keeping the log-depth of :meth:`scan`.
        """
        partial = self.scan(value, op)
        seq = self._next_seq()
        if self.rank < self.size - 1:
            self._coll_send(self.rank + 1, seq, "exscan-shift", partial)
        if self.rank > 0:
            return self._coll_recv(self.rank - 1, seq, "exscan-shift")
        return None

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
