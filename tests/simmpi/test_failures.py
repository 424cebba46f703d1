"""Failure injection and virtual-time semantics of the engine."""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.simmpi import (
    DeadlockError,
    Engine,
    MachineModel,
    RankFailedError,
    SUM,
)
from repro.simmpi.engine import _RANK_THREADS


class TestFailureInjection:
    def test_failure_mid_collective_unwinds_all_threads(self):
        entered, unwound = set(), set()

        def program(ctx):
            entered.add(ctx.rank)
            try:
                if ctx.rank == 1:
                    raise RuntimeError("injected")
                ctx.comm.allreduce(1, SUM)
                ctx.comm.barrier()
            finally:
                unwound.add(ctx.rank)

        def carrier(ctx):
            return threading.current_thread()

        eng = Engine(6)
        carriers = eng.run(carrier).returns
        before = threading.active_count()
        idle_before = len(_RANK_THREADS._idle)
        with pytest.raises(RankFailedError):
            eng.run(program)
        # Every rank that started unwound, and every thread is idle again.
        assert entered and unwound == entered
        assert len(_RANK_THREADS._idle) == idle_before
        assert threading.active_count() <= before
        # The next run is correct, on the same threads.
        assert eng.run(carrier).returns == carriers
        res = eng.run(lambda ctx: ctx.comm.allreduce(1, SUM))
        assert res.returns == [6] * 6

    def test_failure_after_partial_sends_reports_first_failure(self):
        def program(ctx):
            if ctx.rank == 0:
                ctx.comm.send("x", dest=1)
                raise ValueError("late failure")
            ctx.comm.recv(source=0)
            ctx.comm.recv(source=0)  # second recv never satisfied

        with pytest.raises(RankFailedError) as ei:
            Engine(2).run(program)
        assert ei.value.rank == 0

    def test_deadlock_after_failure_cleanup_reusable(self):
        eng = Engine(3)

        def deadlocked(ctx):
            ctx.comm.recv(source=(ctx.rank + 1) % 3, tag=1)

        with pytest.raises(DeadlockError):
            eng.run(deadlocked)
        res = eng.run(lambda ctx: ctx.comm.allreduce(1, SUM))
        assert res.returns == [3, 3, 3]

    def test_exception_in_rank_zero_before_any_comm(self):
        def program(ctx):
            if ctx.rank == 0:
                raise KeyError("early")
            return ctx.rank

        with pytest.raises(RankFailedError) as ei:
            Engine(4).run(program)
        assert isinstance(ei.value.original, KeyError)

    def test_base_exception_subclasses_propagate(self):
        class Custom(Exception):
            pass

        def program(ctx):
            raise Custom("x")

        with pytest.raises(RankFailedError) as ei:
            Engine(2).run(program)
        assert isinstance(ei.value.original, Custom)

    def test_all_ranks_fail_reports_one(self):
        def program(ctx):
            raise ValueError(f"rank {ctx.rank}")

        with pytest.raises(RankFailedError):
            Engine(4).run(program)


class TestVirtualTimeSemantics:
    def test_sender_pays_byte_serialization(self):
        model = MachineModel(
            alpha=0.0, beta=1e-6, send_overhead=0.0, cache=None
        )

        def program(ctx):
            if ctx.rank == 0:
                ctx.comm.send(np.zeros(1000, dtype=np.int8), dest=1)
                return ctx.clock.now
            ctx.comm.recv(source=0)
            return ctx.clock.now

        res = Engine(2, model=model).run(program)
        # payload = 1000 bytes + 96 envelope at beta=1us/byte.
        assert res.returns[0] == pytest.approx(1096e-6)
        assert res.returns[1] >= res.returns[0]

    def test_back_to_back_sends_serialize(self):
        model = MachineModel(alpha=0.0, beta=1e-6, send_overhead=0.0, cache=None)

        def program(ctx):
            if ctx.rank == 0:
                for _ in range(3):
                    ctx.comm.send(np.zeros(1000, dtype=np.int8), dest=1)
                return ctx.clock.now
            for _ in range(3):
                ctx.comm.recv(source=0)
            return ctx.clock.now

        res = Engine(2, model=model).run(program)
        assert res.returns[0] == pytest.approx(3 * 1096e-6)

    def test_alpha_delays_arrival(self):
        model = MachineModel(alpha=1.0, beta=0.0, send_overhead=0.0, cache=None)

        def program(ctx):
            if ctx.rank == 0:
                ctx.comm.send("x", dest=1)
            else:
                ctx.comm.recv(source=0)
            return ctx.clock.now

        res = Engine(2, model=model).run(program)
        assert res.returns[0] == pytest.approx(0.0)
        assert res.returns[1] == pytest.approx(1.0)

    def test_receiver_not_delayed_when_message_already_arrived(self):
        model = MachineModel(alpha=1e-3, beta=0.0, send_overhead=0.0, cache=None)

        def program(ctx):
            if ctx.rank == 0:
                ctx.comm.send("x", dest=1)
            else:
                ctx.charge("op", int(0.5 * model.rate("op")))  # 0.5 s >> alpha
                t0 = ctx.clock.now
                ctx.comm.recv(source=0)
                return ctx.clock.now - t0
            return 0.0

        res = Engine(2, model=model).run(program)
        assert res.returns[1] == pytest.approx(0.0)  # no waiting charged

    def test_compute_and_comm_compose_in_phase(self):
        model = MachineModel(
            alpha=0.0, beta=1e-6, send_overhead=0.0, cache=None, rates={"op": 1e6}
        )

        def program(ctx):
            with ctx.phase("ph"):
                ctx.charge("op", 1000)  # 1 ms compute
                if ctx.rank == 0:
                    ctx.comm.send(np.zeros(904, dtype=np.int8), dest=1)  # 1 ms
                else:
                    ctx.comm.recv(source=0)
            ph = ctx.clock.phases["ph"]
            return (ph.compute, ph.comm)

        res = Engine(2, model=model).run(program)
        compute0, comm0 = res.returns[0]
        assert compute0 == pytest.approx(1e-3)
        assert comm0 == pytest.approx(1e-3)  # sender-side serialization

    def test_barrier_synchronizes_clocks(self):
        def program(ctx):
            ctx.charge("op", 10_000_000 * (ctx.rank + 1))
            ctx.comm.barrier()
            return ctx.clock.now

        res = Engine(4).run(program)
        slowest_work = max(res.returns)
        # After the barrier every rank's clock is at least the slowest
        # rank's pre-barrier time.
        assert min(res.returns) >= 10_000_000 * 4 / MachineModel().rate("op")
        assert slowest_work == max(res.returns)
