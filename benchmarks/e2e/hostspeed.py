"""How fast the host is right now: a fixed calibration task, timed.

The benchmark runs on a few cores of a shared host whose speed drifts by
tens of percent over minutes — in CPU seconds as much as in wall seconds,
so it is the neighbours (shared core, cache, clock), not this machine's
scheduler.  No run length the driver allows averages that out.  So every
timed op is bracketed by one pass of the task below, and the timing metrics
are reported *at reference speed*: measured seconds x ``REF_S`` / seconds
the bracketing passes took.  The raw seconds stay in the report.

The task uses nothing from ``repro`` — a change to the program cannot move
it — and mixes the three things the program spends its time on: interpreter
work, numpy work on arrays larger than L2, and thread hand-offs through
``threading.Event`` (how the engine switches ranks).
"""

from __future__ import annotations

import statistics
import threading
import time

import numpy as np

#: Seconds one pass takes on the reference host when its neighbours are quiet.
REF_S = 0.0850

_rng = np.random.default_rng(12345)
_keys = _rng.integers(0, 1 << 40, 150_000)
_big = _rng.integers(0, 1 << 40, 1 << 20)  # 8 MiB, twice the reference host's L2
_idx = _rng.integers(0, 1 << 20, 300_000)
_HANDOFFS = 2500


def _interpreter() -> None:
    seen: dict[int, int] = {}
    for i in range(180_000):
        k = (i * 2654435761) & 0xFFFF
        seen[k] = seen.get(k, 0) + i
    sorted(seen.values())


def _numpy() -> None:
    order = np.sort(_keys)
    np.unique(_keys & 0xFFFF)
    _big[_idx].sum()
    np.searchsorted(order, _keys[:50_000])
    np.cumsum(_big[: 1 << 19])


def _handoffs() -> None:
    ping, pong = threading.Event(), threading.Event()

    def other() -> None:
        for _ in range(_HANDOFFS):
            ping.wait()
            ping.clear()
            pong.set()

    thread = threading.Thread(target=other)
    thread.start()
    for _ in range(_HANDOFFS):
        ping.set()
        pong.wait()
        pong.clear()
    thread.join()


def calibrate() -> float:
    """Wall seconds of one pass of the task, on the CPU the caller runs on."""
    t0 = time.perf_counter()
    _interpreter()
    _numpy()
    _handoffs()
    return time.perf_counter() - t0


def slowdown(passes: int) -> float:
    """Median of ``passes`` passes over ``REF_S``: 1.0 on the quiet reference
    host, 1.3 when the host runs 30 % slower.  The first pass after a pause
    reads high, so take several."""
    return statistics.median(calibrate() for _ in range(passes)) / REF_S
