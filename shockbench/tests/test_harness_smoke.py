"""Smoke test of the benchmark harness: one tiny point per workload.

    python -m pytest shockbench/tests -q
"""

import json
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import harness  # noqa: E402
import pipeline  # noqa: E402
import speed  # noqa: E402
from workloads import WORKLOADS, Point, Workload  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

TINY = {
    "steady-weno": Workload("steady-weno", "verdict", (Point("roe", 5, "primitive", 0.1, ny=2),)),
    "carbuncle-wide": Workload("carbuncle-wide", "verdict", (Point("roe", 1, "primitive", 0.1, ny=2),)),
    "growth-march": Workload("growth-march", "growth", (Point("roe", 1, "primitive", 0.1, ny=4, end_time=60.0),)),
}
TOLERANCE = pipeline.load_reference()["tolerance"]


def reference(points=None):
    return {"tolerance": TOLERANCE, "points": points or {}}


def test_tiny_workloads_cover_every_workload():
    assert set(TINY) == set(WORKLOADS)
    assert {w["name"] for w in SPEC["workloads"]} == set(WORKLOADS)


def test_reference_covers_every_point():
    ref = pipeline.load_reference()["points"]
    for workload in WORKLOADS.values():
        assert {p.key for p in workload.points} == set(ref[workload.name])


def _units(section):
    return {m["name"]: m["unit"] for m in SPEC[section]}


@pytest.mark.parametrize("name", sorted(TINY))
def test_untraced_run_emits_every_end_to_end_metric(name):
    result, record = harness.run_untraced(TINY[name], seed=1, seconds=0, reference=reference())
    assert result["correct"] and result["attempted"] == 1 and result["failed"] == 0
    assert {k: u for k, (_, u) in result["metrics"].items()} == _units("end_to_end")
    assert all(v > 0 for v, _ in result["metrics"].values())
    assert record["failures"] == []


@pytest.mark.parametrize("name", sorted(TINY))
def test_traced_run_emits_every_per_layer_metric(name):
    result, record, tracer = harness.run_traced(TINY[name], seed=1, reference=reference())
    metrics = result["metrics"]
    assert {k: u for k, (_, u) in metrics.items()} == _units("per_layer")
    assert metrics["marching.rhs.calls.1d"][0] + metrics["marching.rhs.calls.2d"][0] > 0
    assert metrics["riemann.compute_flux.faces"][0] > 0
    assert tracer.spans and all(s.end >= s.start for s in tracer.spans)
    if name == "growth-march":
        assert metrics["marching.step_ssprk3.calls"][0] > 0
        assert metrics["marching.fit_growth_rate.xval_gap.p50"][0] > 0
    else:
        assert metrics["stability.eigensolve.n"][0] >= 4 * 11 * 2
        assert metrics["shock_problem.converge_1d.lm_iterations"][0] > 0


@pytest.mark.parametrize("name", ["carbuncle-wide", "growth-march"])
def test_corrupted_reference_lambda_is_a_failure(name):
    point = TINY[name].points[0]
    _, lam, residual, _ = pipeline.steady_lambda(point)
    good = {name: {point.key: {"status": "ok", "lambda_max": lam, "residual": residual}}}
    result, _ = harness.run_untraced(TINY[name], seed=1, seconds=0, reference=reference(good))
    assert result["correct"] and result["failed"] == 0

    bad = {name: {point.key: {"status": "ok", "lambda_max": lam + 1.0, "residual": residual}}}
    result, record = harness.run_untraced(TINY[name], seed=1, seconds=0, reference=reference(bad))
    assert not result["correct"]
    assert result["failed"] == result["attempted"] == 1
    assert record["failures"] == [(point.key, pipeline.MISMATCH)]


def test_tail_needs_ten_samples_beyond_it():
    assert harness.tail([3.0, 1.0, 2.0]) == 3.0
    assert harness.tail([6.0, 1.0, 2.0, 3.0, 4.0, 5.0]) == 5.5
    assert harness.tail(range(21)) == 10
    assert harness.tail(range(100)) == 89


def test_speed_probe_scales_by_the_samples_near_an_interval():
    probe = speed.SpeedProbe()
    ref = speed.REFERENCE_S
    probe.samples = [(i / 100, 2 * ref) for i in range(100)]  # a machine at half speed
    assert probe.seconds(0.2, 0.4) == pytest.approx(0.1)
    # no sample inside, as in a long eigensolve: the ones just outside count
    probe.samples = [(0.0, 2 * ref), (10.0, ref / 2)]
    assert probe.seconds(0.5, 2.5) == pytest.approx(1.0)
    assert probe.seconds(9.5, 9.6) == pytest.approx(0.2)
    # none within the window: the nearest one stands in
    assert probe.seconds(5.0, 6.0) == pytest.approx(0.5)


def test_speed_probe_samples_while_active():
    with speed.SpeedProbe() as probe:
        end = time.perf_counter() + 0.2
        while time.perf_counter() < end:
            pass
    assert len(probe.samples) >= 4
