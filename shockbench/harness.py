"""Closed-loop measurement of one workload: set-up, whole passes over its
points in a seeded order, statistics, and the traced variant."""

import resource
import statistics
import time

import numpy as np

import pipeline
import spans
from speed import SpeedProbe
from workloads import WARMUP, Workload

# set-up is repeated at least this many times and for at least this long
SETUP_REPEATS = 3
SETUP_MIN_S = 1.0


def tail(values) -> float:
    """Highest order statistic with at least ten samples above it.  A run with
    fewer than 21 samples has no such statistic above the median, so the mean
    of its slowest third is reported instead."""
    ordered = sorted(values)
    if len(ordered) >= 21:
        return ordered[-11]
    slowest = ordered[-max(1, round(len(ordered) / 3)):]
    return sum(slowest) / len(slowest)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Run:
    """One workload measured with one seed; times are taken at the reference
    speed of ``probe``."""

    def __init__(self, workload: Workload, seed: int, reference: dict, probe: SpeedProbe):
        self.workload = workload
        self.rng = np.random.default_rng(seed)
        self.probe = probe
        self.tol = reference["tolerance"]
        self.refs = reference["points"].get(workload.name, {})
        self.bases: dict[str, pipeline.BaseFlow] = {}
        self.outcomes: list[pipeline.Outcome] = []

    def setup(self) -> tuple[float, float]:
        """Prepare the workload; returns its perf_counter bounds."""
        start = time.perf_counter()
        if self.workload.kind == "growth":
            self.bases = {
                p.key: pipeline.prepare_growth(p, self.refs.get(p.key), self.tol)
                for p in self.workload.points
            }
        else:
            pipeline.steady_lambda(WARMUP)
        return start, time.perf_counter()

    def plan_pass(self) -> list:
        """A seeded order of the points, each with its perturbation seed."""
        order = self.rng.permutation(len(self.workload.points))
        seeds = self.rng.integers(0, 2**31, size=len(order))
        return [(self.workload.points[i], int(s)) for i, s in zip(order, seeds)]

    def run_pass(self, plan, tracer=None):
        for point, pseed in plan:
            if tracer is not None:
                tracer.point = point.key
            start = time.perf_counter()
            if self.workload.kind == "growth":
                outcome = pipeline.run_growth(point, self.bases[point.key], pseed)
            else:
                outcome = pipeline.run_verdict(point, self.refs.get(point.key), self.tol)
            outcome.start, outcome.end = start, time.perf_counter()
            self.outcomes.append(outcome)

    def measure(self, seconds: float) -> int:
        """Whole passes until ``seconds`` of wall time have elapsed; returns
        the pass count."""
        passes = 0
        start = time.perf_counter()
        while not passes or time.perf_counter() - start < seconds:
            self.run_pass(self.plan_pass())
            passes += 1
        return passes

    def scale(self):
        """Set each outcome's time at the reference speed, once the probe has
        sampled around it."""
        for o in self.outcomes:
            o.seconds = self.probe.seconds(o.start, o.end)

    def summary(self) -> dict:
        """Fields of the result line shared by both modes."""
        failed = [o for o in self.outcomes if o.reason is not None]
        mismatched = any(o.reason == pipeline.MISMATCH for o in self.outcomes) or any(
            b.reason == pipeline.MISMATCH for b in self.bases.values())
        return {"correct": not mismatched, "attempted": len(self.outcomes),
                "failed": len(failed)}

    def record(self) -> dict:
        """Per-point outcomes and the derived figures that are not bounded metrics."""
        unstable = [o for o in self.outcomes
                    if o.lam_fit is not None and o.lam is not None and o.lam > self.tol["abs"]]
        gaps = [abs(o.lam_fit - o.lam) / abs(o.lam) for o in unstable]
        failed = [o for o in self.outcomes if o.reason is not None]
        return {
            "samples": len(self.outcomes),
            "fail_frac": len(failed) / len(self.outcomes),
            "failures": sorted({(o.key, o.reason) for o in failed}),
            "xval_gap.p50": statistics.median(gaps) if gaps else None,
            "probe_median_s": statistics.median(d for _, d in self.probe.samples),
            "points": [vars(o) for o in self.outcomes],
        }


def run_untraced(workload: Workload, seed: int, seconds: float, reference: dict):
    """End-to-end metrics; returns (result, record)."""
    with SpeedProbe() as probe:
        run = Run(workload, seed, reference, probe)
        setups = []
        while len(setups) < SETUP_REPEATS or sum(e - s for s, e in setups) < SETUP_MIN_S:
            setups.append(run.setup())
        passes = run.measure(seconds)
    run.scale()
    setup_s = [probe.seconds(*bounds) for bounds in setups]
    times = [o.seconds for o in run.outcomes]
    ok = sum(o.reason is None for o in run.outcomes)
    metrics = {
        "setup_s": (statistics.median(setup_s), "s"),
        "verdict_s.p50": (statistics.median(times), "s"),
        "verdict_s.tail": (tail(times), "s"),
        "verdicts_per_min": (60.0 * ok / sum(times), "1/min"),
        "ok_frac": (ok / len(run.outcomes), "frac"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    record = run.record() | {"setups": setup_s, "passes": passes,
                             "wall_s": sum(o.end - o.start for o in run.outcomes)}
    return run.summary() | {"metrics": metrics}, record


def run_traced(workload: Workload, seed: int, reference: dict):
    """Per-layer metrics from a traced set-up and a traced pass.  The first
    point of the pass also runs untraced just before, so that the tracing
    overhead compares two runs that see the machine in the same state;
    returns (result, record, tracer)."""
    tracer = spans.Tracer()
    with SpeedProbe() as probe:
        run = Run(workload, seed, reference, probe)
        tracer.point = "setup"
        with tracer.active():
            run.setup()
        plan = run.plan_pass()
        run.run_pass(plan[:1])
        with tracer.active():
            run.run_pass(plan, tracer)
    run.scale()
    plain, traced = run.outcomes[:2]
    metrics = spans.layer_metrics(tracer.spans)
    record = run.record() | {"spans": len(tracer.spans)}
    metrics["marching.fit_growth_rate.xval_gap.p50"] = (record["xval_gap.p50"] or 0.0, "frac")
    metrics["trace.overhead_frac"] = (traced.seconds / plain.seconds - 1.0, "frac")
    return run.summary() | {"metrics": metrics}, record, tracer
