"""Checkpoint/restart recovery: exact counts under every fault kind."""

from __future__ import annotations

import pytest

from repro.core import count_triangles_2d
from repro.resilience import (
    FaultPlan,
    FaultSpec,
    RecoveryPolicy,
    count_triangles_2d_resilient,
)
from repro.resilience.checkpoint import CheckpointStore
from repro.simmpi.errors import RankFailedError, ResilienceExhaustedError


@pytest.fixture(scope="module")
def baseline9(er_graph):
    return count_triangles_2d(er_graph, 9).count


def test_clean_run_matches_baseline(er_graph, baseline9):
    res = count_triangles_2d_resilient(er_graph, 9)
    assert res.count == baseline9
    assert res.extras["restarts"] == 0
    assert res.algorithm == "tc2d-resilient"


@pytest.mark.parametrize(
    "spec",
    [
        FaultSpec(kind="crash", rank=4, site="shift:1"),
        FaultSpec(kind="crash", rank=0, site="phase:ppt"),
        FaultSpec(kind="crash", rank=2, site="shift:0:exchange"),
        FaultSpec(kind="drop", rank=2, tag=120),
        FaultSpec(kind="drop", rank=5, tag=110),
        FaultSpec(kind="corrupt", rank=1, tag=130),
        FaultSpec(kind="dup", rank=3, tag=120),
    ],
    ids=lambda s: s.describe(),
)
def test_recovers_exactly_from_each_fault(er_graph, baseline9, spec):
    res = count_triangles_2d_resilient(
        er_graph, 9, fault_plan=FaultPlan([spec], seed=0)
    )
    assert res.count == baseline9
    assert res.extras["restarts"] == 1
    assert res.extras["faults_fired"] == [spec.describe()]


def test_benign_faults_do_not_restart(er_graph, baseline9):
    plan = FaultPlan(
        [
            FaultSpec(kind="delay", rank=0, tag=120, delay=0.002),
            FaultSpec(kind="stall", rank=5, site="shift:0", delay=0.005),
        ]
    )
    res = count_triangles_2d_resilient(er_graph, 9, fault_plan=plan)
    assert res.count == baseline9
    assert res.extras["restarts"] == 0
    assert len(res.extras["faults_fired"]) == 2


def test_random_schedules_recover(er_graph, baseline9):
    for seed in range(4):
        plan = FaultPlan.random(seed, p=9, q=3, n_faults=4)
        res = count_triangles_2d_resilient(er_graph, 9, fault_plan=plan)
        assert res.count == baseline9, f"seed {seed}"


def test_restart_resumes_from_checkpoint(er_graph, baseline9, tmp_path):
    """The retry must restore a mid-rotation epoch, not start over."""
    plan = FaultPlan([FaultSpec(kind="crash", rank=4, site="shift:1")])
    res = count_triangles_2d_resilient(
        er_graph, 9, fault_plan=plan, checkpoint_dir=tmp_path
    )
    assert res.count == baseline9
    attempts = res.extras["attempts"]
    assert [a.outcome for a in attempts] == ["RankFailedError", "ok"]
    assert attempts[0].restored_epoch is None
    # The retry resumed from a checkpoint (epoch 0 at minimum — the
    # crashed rank saved epoch 1, but lagging neighbors may not have),
    # skipping preprocessing and the skew entirely.
    assert attempts[1].restored_epoch is not None
    store = CheckpointStore(tmp_path)
    assert store.latest_complete_epoch(9) == 3  # q = 3: final epoch saved
    assert store.read_manifest()["epochs"]["3"]["complete"] is True


def test_exhausted_budget_raises(er_graph):
    # More crashes at distinct sites than the policy allows restarts.
    plan = FaultPlan(
        [
            FaultSpec(kind="crash", rank=0, site="shift:0"),
            FaultSpec(kind="crash", rank=1, site="shift:1"),
            FaultSpec(kind="crash", rank=2, site="shift:2"),
        ]
    )
    with pytest.raises(ResilienceExhaustedError) as ei:
        count_triangles_2d_resilient(
            er_graph, 9, fault_plan=plan,
            policy=RecoveryPolicy(max_restarts=1),
        )
    assert ei.value.attempts == 2


def test_clean_run_never_masks_real_failures(er_graph, monkeypatch):
    """Without a fault plan, failures re-raise instead of retrying."""

    def broken(ctx, chunks, cfg, resilience=None):
        raise ValueError("genuine bug")

    monkeypatch.setattr(
        "repro.resilience.recovery.tc2d_rank_program", broken
    )
    with pytest.raises(RankFailedError):
        count_triangles_2d_resilient(er_graph, 4)


def test_backoff_policy():
    pol = RecoveryPolicy(
        max_restarts=8, backoff_base=0.01, backoff_factor=2.0, backoff_cap=0.05
    )
    assert pol.backoff(0) == pytest.approx(0.01)
    assert pol.backoff(1) == pytest.approx(0.02)
    assert pol.backoff(10) == pytest.approx(0.05)  # capped


def test_backoffs_recorded_and_bounded(er_graph):
    plan = FaultPlan(
        [
            FaultSpec(kind="crash", rank=0, site="shift:0"),
            FaultSpec(kind="crash", rank=1, site="shift:1"),
        ]
    )
    pol = RecoveryPolicy(max_restarts=4, backoff_cap=0.5)
    res = count_triangles_2d_resilient(
        er_graph, 9, fault_plan=plan, policy=pol
    )
    failed = [a for a in res.extras["attempts"] if a.outcome != "ok"]
    assert len(failed) == 2
    assert all(0 < a.backoff <= pol.backoff_cap for a in failed)


def test_checkpoint_interval(er_graph, baseline9, tmp_path):
    """interval=2 skips odd epochs but always saves the final one."""
    res = count_triangles_2d_resilient(
        er_graph, 9, checkpoint_dir=tmp_path, checkpoint_interval=2
    )
    assert res.count == baseline9
    store = CheckpointStore(tmp_path)
    assert store.epochs() == [0, 2, 3]  # q=3: epochs 0,2 + final 3


def test_bad_checkpoint_interval(er_graph):
    with pytest.raises(ValueError):
        count_triangles_2d_resilient(er_graph, 4, checkpoint_interval=0)


def test_manifest_written_on_success(er_graph, tmp_path):
    plan = FaultPlan([FaultSpec(kind="crash", rank=0, site="shift:0")])
    res = count_triangles_2d_resilient(
        er_graph, 9, fault_plan=plan, checkpoint_dir=tmp_path
    )
    store = CheckpointStore(tmp_path)
    doc = store.read_manifest()
    assert doc["attempts"] == 2
    assert FaultPlan.from_json(doc["fault_plan"]).faults == plan.faults
    assert res.extras["checkpoint_manifest"] == str(store.manifest_path)


def test_traced_attempts_exported(er_graph, baseline9):
    plan = FaultPlan([FaultSpec(kind="crash", rank=4, site="shift:1")])
    res = count_triangles_2d_resilient(
        er_graph, 9, fault_plan=plan, trace=True
    )
    assert res.count == baseline9
    # failed attempt's trace carries the injected fault...
    traces = res.extras["attempt_traces"]
    assert len(traces) == 1
    (crash,) = traces[0].tracer.faults()
    assert (crash.name, crash.rank, crash.detail["site"]) == (
        "fault:crash", 4, "shift:1",
    )
    assert traces[0].makespan > 0
    # ...and the successful run's trace carries the checkpoint records.
    run = res.extras["run"]
    ckpts = [s for s in run.tracer.spans if s.cat == "ckpt"]
    assert ckpts and all(s.name.startswith("checkpoint:") for s in ckpts)
    assert all(s.detail["nbytes"] > 0 and s.end > s.begin for s in ckpts)
    assert run.tracer.faults() == []
