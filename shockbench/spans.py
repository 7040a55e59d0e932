"""In-memory spans around the package's layer functions.

The package calls its layers through module attributes or module globals
(``marching.rhs``, ``reconstruction.reconstruct_pair``, ``riemann.compute_flux``,
...), so replacing those attributes from here records the package's internal
calls as well as the benchmark's own, without editing the package.
"""

import contextlib
import functools
import time
from dataclasses import dataclass, field

import numpy as np

from shockstab import fields, marching, reconstruction, riemann, shock_problem, stability


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    point: str | None
    start: float
    end: float = 0.0
    child_s: float = 0.0  # time covered by direct children
    counts: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.seconds - self.child_s


def _converge_counts(args, result):
    _, info = result
    return {"lm_iterations": info["lm_iterations"], "march_steps": info["steps"]}


def _rhs_counts(args, result):
    return {"dim": 1 if args[0].ny == 1 else 2}


def _recon_counts(args, result):
    return {"faces": np.asarray(args[0]).size // 20, "fallback_faces": int(result.fallback.sum())}


def _flux_counts(args, result):
    return {"faces": np.asarray(args[1]).size // 4}


def _assemble_counts(args, result):
    # reads 0 once S no longer keeps a dict of its nonzero 4x4 blocks
    return {"blocks": len(getattr(result, "blocks", ()))}


def _eigensolve_counts(args, result):
    return {"n": 4 * args[0].nx * args[0].ny}


# (span name, modules whose attribute is replaced, attribute, counter)
LAYERS = (
    ("shock_problem.converge_1d", (shock_problem,), "converge_1d", _converge_counts),
    ("marching.march", (marching,), "march", None),
    ("marching.fit_growth_rate", (marching,), "fit_growth_rate", None),
    ("marching.step_ssprk3", (marching,), "step_ssprk3", None),
    ("marching.rhs", (marching,), "rhs", _rhs_counts),
    ("reconstruction.reconstruct_pair", (reconstruction,), "reconstruct_pair", _recon_counts),
    ("riemann.compute_flux", (riemann,), "compute_flux", _flux_counts),
    ("stability.assemble", (stability,), "assemble", _assemble_counts),
    ("stability.eigensolve", (stability,), "eigensolve", _eigensolve_counts),
    # bound by name in each module that imported it
    ("fields.apply_boundaries", (fields, marching, stability), "apply_boundaries", None),
)


class Tracer:
    """Collects spans; ``point`` tags every span with the point being run."""

    def __init__(self):
        self.spans: list[Span] = []
        self.point: str | None = None
        self._stack: list[Span] = []

    def _wrap(self, name, original, counter):
        @functools.wraps(original)
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            span = Span(len(self.spans), name, parent and parent.id, self.point, time.perf_counter())
            self.spans.append(span)
            self._stack.append(span)
            try:
                result = original(*args, **kwargs)
            finally:
                self._stack.pop()
                span.end = time.perf_counter()
                if parent is not None:
                    parent.child_s += span.seconds
            if counter is not None:
                span.counts = counter(args, result)
            return result

        return traced

    @contextlib.contextmanager
    def active(self):
        """Replace the layer attributes with traced wrappers for the block's duration."""
        saved = []
        try:
            for name, modules, attr, counter in LAYERS:
                original = getattr(modules[0], attr)
                traced = self._wrap(name, original, counter)
                for module in modules:
                    saved.append((module, attr, getattr(module, attr)))
                    setattr(module, attr, traced)
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def dump(self) -> list:
        return [
            [s.id, s.name, s.parent, s.point, round(s.start, 7), round(s.end, 7), s.counts]
            for s in self.spans
        ]


def _sum(spans, attr):
    return float(sum(getattr(s, attr) for s in spans))


def layer_metrics(spans: list[Span]) -> dict:
    """Per-layer totals over the given spans, as {name: (value, unit)}."""
    by_name: dict[str, list[Span]] = {}
    children: dict[int, list[Span]] = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    index = {s.id: s for s in spans}

    def named(name):
        return by_name.get(name, [])

    def under(span, name):
        while span.parent is not None:
            span = index[span.parent]
            if span.name == name:
                return True
        return False

    def count(name, key):
        return int(sum(s.counts.get(key, 0) for s in named(name)))

    def fell_back(conv):
        # the march-and-average fallback steps after the LM solve has started
        kids = children.get(conv.id, [])
        first_rhs = next((k.start for k in kids if k.name == "marching.rhs"), None)
        return first_rhs is not None and any(
            k.name == "marching.step_ssprk3" and k.start > first_rhs for k in kids
        )

    conv = named("shock_problem.converge_1d")
    rhs = named("marching.rhs")
    rhs1 = [s for s in rhs if s.counts.get("dim") == 1]
    rhs2 = [s for s in rhs if s.counts.get("dim") == 2]
    steps = named("marching.step_ssprk3")
    marches = named("marching.march")
    march_steps = sum(1 for s in steps if s.parent is not None and index[s.parent].name == "marching.march")
    march_s = _sum(marches, "seconds")

    def per_call(group, scale):
        return scale * _sum(group, "seconds") / len(group) if group else 0.0

    m = {
        "shock_problem.converge_1d.s": (_sum(conv, "seconds"), "s"),
        "shock_problem.converge_1d.self_s": (_sum(conv, "self_s"), "s"),
        "shock_problem.converge_1d.lm_iterations": (count("shock_problem.converge_1d", "lm_iterations"), "count"),
        "shock_problem.converge_1d.march_steps": (count("shock_problem.converge_1d", "march_steps"), "count"),
        "shock_problem.converge_1d.fallback_points": (sum(1 for c in conv if fell_back(c)), "count"),
        "shock_problem.converge_1d.rhs_calls": (
            sum(1 for s in rhs if under(s, "shock_problem.converge_1d")), "count"),
        "marching.rhs.calls.1d": (len(rhs1), "count"),
        "marching.rhs.us_per_call.1d": (per_call(rhs1, 1e6), "us"),
        "marching.rhs.calls.2d": (len(rhs2), "count"),
        "marching.rhs.us_per_call.2d": (per_call(rhs2, 1e6), "us"),
        "marching.rhs.self_s": (_sum(rhs, "self_s"), "s"),
        "marching.step_ssprk3.calls": (len(steps), "count"),
        "marching.step_ssprk3.ms_per_call": (per_call(steps, 1e3), "ms"),
        "marching.march.s": (march_s, "s"),
        "marching.march.rk_steps_per_s": (march_steps / march_s if march_s else 0.0, "1/s"),
        "marching.fit_growth_rate.s": (_sum(named("marching.fit_growth_rate"), "seconds"), "s"),
    }
    for name in ("reconstruction.reconstruct_pair", "riemann.compute_flux"):
        m[f"{name}.calls"] = (len(named(name)), "count")
        m[f"{name}.self_s"] = (_sum(named(name), "self_s"), "s")
        m[f"{name}.faces"] = (count(name, "faces"), "count")
    m["reconstruction.reconstruct_pair.fallback_faces"] = (
        count("reconstruction.reconstruct_pair", "fallback_faces"), "count")
    asm = named("stability.assemble")
    m["stability.assemble.s"] = (_sum(asm, "seconds"), "s")
    m["stability.assemble.self_s"] = (_sum(asm, "self_s"), "s")
    m["stability.assemble.blocks"] = (count("stability.assemble", "blocks"), "count")
    eig = named("stability.eigensolve")
    m["stability.eigensolve.s"] = (_sum(eig, "seconds"), "s")
    m["stability.eigensolve.n"] = (max((s.counts.get("n", 0) for s in eig), default=0), "count")
    m["fields.apply_boundaries.calls"] = (len(named("fields.apply_boundaries")), "count")
    m["fields.apply_boundaries.self_s"] = (_sum(named("fields.apply_boundaries"), "self_s"), "s")
    return m
