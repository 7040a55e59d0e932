"""Scheme selection: solver + order + variable space + near-shock order cap.

A plain scheme uses one (solver, order) everywhere; the hybrid schemes pick
a different pair for normal faces (x-oriented, along the shock normal) and
transverse faces (y-oriented).
"""

import functools
import math
from dataclasses import dataclass

from .reconstruction import ReconConfig, config_for_cap, config_for_order
from .riemann import HYBRID_PARTS, ROE_DELTA0, SOLVER_KINDS

CAP_KINDS = ("none", "first", "second", "smoothest-third")


@dataclass(frozen=True)
class Scheme:
    solver: str = "roe"
    order: int = 5
    weno_variant: str = "z"
    space: str = "primitive"
    cap: str = "none"
    roe_delta0: float = ROE_DELTA0

    def __post_init__(self):
        if self.solver not in SOLVER_KINDS:
            raise ValueError(f"unknown solver {self.solver!r}")
        if self.order not in (1, 2, 5):
            raise ValueError(f"order must be 1, 2 or 5, got {self.order}")
        if self.cap not in CAP_KINDS:
            raise ValueError(f"unknown near-shock cap {self.cap!r}")
        if not 0 < self.roe_delta0 < math.inf:
            raise ValueError("roe_delta0 must be positive and finite")
        # ReconConfig rejects an unknown space or WENO variant
        self.recon_config("x")

    @property
    def is_hybrid(self) -> bool:
        return self.solver in HYBRID_PARTS

    def per_direction(self, axis: str) -> tuple[str, int]:
        """(solver, order) used on faces whose normal is along ``axis``."""
        if self.is_hybrid:
            orientation = "normal" if axis == "x" else "transverse"
            return HYBRID_PARTS[self.solver][orientation]
        return self.solver, self.order

    @functools.cached_property
    def _configs(self) -> dict[str, tuple[ReconConfig, ReconConfig | None]]:
        """(reconstruction config, cap config or None) per face axis, built
        once per scheme: ``rhs`` asks for them on every call."""
        configs = {}
        for axis in ("x", "y"):
            _, order = self.per_direction(axis)
            recon = config_for_order(order, weno_variant=self.weno_variant, space=self.space)
            configs[axis] = (recon, None if self.cap == "none" else config_for_cap(self.cap, recon))
        return configs

    def recon_config(self, axis: str) -> ReconConfig:
        return self._configs[axis][0]

    def cap_config(self, axis: str) -> ReconConfig | None:
        return self._configs[axis][1]

    def label(self) -> str:
        """e.g. ``roe-o5-z/primitive``; the WENO variant only at fifth order,
        the near-shock cap whenever one is set."""
        name = self.solver
        if not self.is_hybrid:
            name += f"-o{self.order}"
            if self.order == 5:
                name += f"-{self.weno_variant}"
        if self.cap != "none":
            name += f"-cap-{self.cap}"
        return f"{name}/{self.space}"
