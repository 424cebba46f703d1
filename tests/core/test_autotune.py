"""Auto-tuner: determinism, pinning, provenance, history feedback.

These pin the three contracts the module docstring promises — identical
inputs yield an identical :class:`Plan`, pinned fields are adopted
verbatim, and ``Plan.to_dict`` is a complete, JSON-serializable record
of the decision — plus the history-override path that lets measured
makespans sharpen the model's ranking.
"""

from __future__ import annotations

import json

import pytest

from repro.core import (
    TC2DConfig,
    collect_signals,
    count_triangles_2d,
    plan_run,
)
from repro.core.autotune import (
    CANDIDATE_RANKS,
    PLANNABLE_FIELDS,
    predict_virtual_seconds,
)
from repro.simmpi import MachineModel


@pytest.fixture(scope="module")
def signals(request):
    g = request.getfixturevalue("er_graph")
    return collect_signals(g)


def test_requires_exactly_one_input(er_graph):
    with pytest.raises(ValueError):
        plan_run()
    with pytest.raises(ValueError):
        plan_run(er_graph, signals=collect_signals(er_graph))


def test_signals_deterministic(er_graph):
    s1 = collect_signals(er_graph, seed=7)
    s2 = collect_signals(er_graph, seed=7)
    assert s1 == s2
    assert s1.fingerprint() == s2.fingerprint()


def test_plan_deterministic(er_graph):
    p1 = plan_run(er_graph, max_p=16)
    p2 = plan_run(er_graph, max_p=16)
    assert p1 == p2
    # graph= and precomputed signals= are the same entry point
    p3 = plan_run(signals=collect_signals(er_graph), max_p=16)
    assert p1 == p3


def test_candidate_space_respects_max_p(signals):
    plan = plan_run(signals=signals, max_p=16)
    keys = set(plan.predicted)
    want = {
        f"{alg}-p{p}"
        for alg in ("tc2d", "coveredge")
        for p in CANDIDATE_RANKS
        if p <= 16
    }
    assert keys == want
    assert plan.p <= 16


def test_winner_is_argmin(signals):
    plan = plan_run(signals=signals, max_p=25)
    best = f"{plan.algorithm}-p{plan.p}"
    assert plan.predicted[best] == plan.predicted_s
    assert plan.predicted_s == min(plan.predicted.values())


def test_pinned_fields_win(signals):
    plan = plan_run(
        signals=signals,
        pinned={"algorithm": "coveredge", "p": 4, "kernel_backend": "row"},
        max_p=64,
    )
    assert plan.algorithm == "coveredge"
    assert plan.p == 4
    assert plan.kernel_backend == "row"
    assert plan.pinned == ("algorithm", "kernel_backend", "p")
    # the search space collapsed to the pinned candidate
    assert set(plan.predicted) == {"coveredge-p4"}


def test_pinned_unknown_field_rejected(signals):
    with pytest.raises(ValueError, match="unknown"):
        plan_run(signals=signals, pinned={"chunk_bytes": 1})


def test_every_plannable_field_is_pinnable(signals):
    pins = {
        "algorithm": "tc2d",
        "p": 9,
        "kernel_backend": "batch",
    }
    assert set(pins) == set(PLANNABLE_FIELDS)
    plan = plan_run(signals=signals, pinned=pins)
    for name, value in pins.items():
        assert getattr(plan, name) == value
    assert plan.pinned == tuple(sorted(pins))


def test_provenance_record(er_graph):
    model = MachineModel()
    plan = plan_run(er_graph, model=model, max_p=16)
    d = plan.to_dict()
    json.dumps(d)  # must be serializable as-is
    assert d["signals_fingerprint"] and d["model_fingerprint"]
    assert d["model_fingerprint"] == model.fingerprint()
    assert f"{d['algorithm']}-p{d['p']}" in d["predicted"]
    assert d["source"] in ("model", "history")
    assert not {"executor", "workers", "cores"} & set(d)


def test_plan_lands_in_result_extras(er_graph):
    plan = plan_run(er_graph, max_p=9)
    cfg = plan.to_config()
    res = count_triangles_2d(er_graph, plan.p, cfg=cfg)
    res.extras["autotune"] = plan.to_dict()  # what the CLI records
    assert res.extras["autotune"]["p"] == plan.p


def test_to_config_round_trip(signals):
    base = TC2DConfig(early_stop=False)
    plan = plan_run(signals=signals, max_p=9)
    cfg = plan.to_config(base)
    assert cfg.algorithm == plan.algorithm
    assert cfg.kernel_backend == plan.kernel_backend
    # non-plannable fields pass through from base untouched
    assert cfg.early_stop is False


def test_sequential_executor_on_tiny_inputs(signals):
    assert plan_run(signals=signals, max_p=9).to_config().executor == "sequential"


def test_wall_clock_knobs_follow_the_artifacts(signals):
    """No graph size makes the tuner force ``row``: it wins nowhere
    (``test_kernels_registry.py::test_backends_keep_their_speed_order``)."""
    import dataclasses

    heavy = dataclasses.replace(signals, m=10**7, wedges=10**10)
    tiny = dataclasses.replace(signals, m=500, wedges=2000)
    for sig in (tiny, signals, heavy):
        assert plan_run(signals=sig, max_p=16).kernel_backend == "auto"


def test_history_overrides_model(er_graph, tmp_path):
    """A recorded measurement that contradicts the model must win: give
    coveredge-p4 an implausibly small measured makespan and the planner
    has to pick it, flagged as history-sourced."""
    from repro.bench.history import RunHistory

    db = RunHistory(tmp_path / "hist.jsonl")
    db.append(
        [
            {
                "suite": "autotune",
                "case": "er-fixture-coveredge-p4",
                "metrics": {"virtual_makespan_s": 1e-12},
            }
        ]
    )
    plan = plan_run(
        er_graph, history=db, dataset="er-fixture", max_p=16
    )
    assert (plan.algorithm, plan.p) == ("coveredge", 4)
    assert plan.source == "history"
    assert plan.predicted["coveredge-p4"] == 1e-12
    # rows for other datasets must not leak in
    other = plan_run(er_graph, history=db, dataset="different", max_p=16)
    assert other.predicted["coveredge-p4"] != 1e-12


def test_history_accepts_bare_path(er_graph, tmp_path):
    path = tmp_path / "hist.jsonl"
    path.write_text(
        json.dumps(
            {
                "suite": "autotune",
                "case": "d-tc2d-p9",
                "metrics": {"virtual_makespan_s": 1e-12},
            }
        )
        + "\n"
    )
    plan = plan_run(er_graph, history=path, dataset="d", max_p=16)
    assert (plan.algorithm, plan.p) == ("tc2d", 9)
    assert plan.source == "history"


def test_prediction_rejects_bad_candidates(signals):
    model = MachineModel()
    with pytest.raises(ValueError):
        predict_virtual_seconds(signals, "tc2d", 10, model)
    with pytest.raises(ValueError):
        predict_virtual_seconds(signals, "summa", 9, model)


def test_predictions_scale_sanely(signals):
    """Not a calibration test — just that predictions are positive,
    finite, and distinct enough to rank."""
    model = MachineModel()
    times = {
        p: predict_virtual_seconds(signals, "tc2d", p, model)
        for p in (1, 4, 9, 16)
    }
    assert all(t > 0 for t in times.values())
    assert len(set(times.values())) == len(times)
