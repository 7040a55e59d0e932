"""The benchmark's workloads: which scheme x shock-position points run, on which grid.

A verdict point answers "is the captured shock stable?" with lambda_max of the
stability matrix (steady 1D solve -> 2D projection -> assemble -> eigensolve).
A growth point answers it with the growth rate fitted to a perturbed march of a
base flow that is computed once, in set-up.
"""

from dataclasses import dataclass

# Perturbed-march settings shared by every growth point.
GROWTH_CFL = 0.1
GROWTH_AMPLITUDE = 1e-7


@dataclass(frozen=True)
class Point:
    solver: str
    order: int
    space: str
    epsilon: float
    nx: int = 11
    ny: int = 11
    end_time: float | None = None  # set on growth points only

    @property
    def key(self) -> str:
        """Reference-file key, e.g. ``roe-o5/primitive eps=0.1 11x11``."""
        scheme = self.solver if self.solver.startswith("hybrid") else f"{self.solver}-o{self.order}"
        return f"{scheme}/{self.space} eps={self.epsilon:g} {self.nx}x{self.ny}"


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "verdict" or "growth"
    points: tuple[Point, ...]


def _verdict(solver, order, space, eps, ny=11):
    return Point(solver, order, space, eps, ny=ny)


# The 1D steady solve dominates: WENO5 points, two of which fall through to the
# march-and-average path and one of which (roe-o5/conservative) raises.
STEADY_WENO = Workload("steady-weno", "verdict", (
    _verdict("roe", 5, "primitive", 0.1),
    _verdict("roe", 5, "primitive", 0.0),
    _verdict("hllc", 5, "primitive", 0.1),
    _verdict("van_leer", 5, "primitive", 0.3),
    _verdict("roe", 5, "characteristic", 0.5),
    _verdict("roe", 5, "conservative", 0.1),
))

# Even ny admits the odd-even carbuncle mode; the dense eigensolve of the
# 1408 x 1408 matrix dominates.  hll-o1 at eps=0.1 is the known steady-solve stall.
CARBUNCLE_WIDE = Workload("carbuncle-wide", "verdict", tuple(
    [_verdict(s, o, "primitive", eps, ny=32)
     for s, o in (("roe", 1), ("hllc", 1), ("hybrid-1", 5), ("hybrid-2", 5))
     for eps in (0.1, 0.5)]
    + [_verdict("hll", 1, "primitive", 0.1, ny=32)]
))

# 2D SSP-RK3 stages dominate.  The unstable points stop at the march's
# stop level; the stable van_leer-o1 point runs to t = 5.
GROWTH_MARCH = Workload("growth-march", "growth", (
    Point("roe", 1, "primitive", 0.1, end_time=60.0),
    Point("hllc", 1, "primitive", 0.1, end_time=60.0),
    Point("hybrid-2", 5, "primitive", 0.1, end_time=60.0),
    Point("roe", 5, "primitive", 0.1, end_time=60.0),
    Point("van_leer", 1, "primitive", 0.1, end_time=5.0),
))

WORKLOADS = {w.name: w for w in (STEADY_WENO, CARBUNCLE_WIDE, GROWTH_MARCH)}

# Run once per set-up of a verdict workload, so that lazy imports and first-call
# costs land in set-up instead of the first measured point.
WARMUP = Point("roe", 1, "primitive", 0.1, ny=4)
