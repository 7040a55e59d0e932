"""Scheme selection: solver + order + variable space + near-shock order cap.

A plain scheme uses one (solver, order) on every face; a direction hybrid
uses one pair on the normal faces (x-oriented, along the shock normal) and
another on the transverse faces (y-oriented), both fixed by ``HYBRID_PARTS``,
so a hybrid refuses any order but the default 5.  ``Scheme.parts`` resolves
that choice and the near-shock cap, which only ever lowers a part's order,
once per scheme into the face batches that ``rhs`` and ``assemble`` run.
"""

import functools
import numbers
from dataclasses import dataclass, replace

from .reconstruction import ReconConfig
from .riemann import FLUXES

# the reconstruction kind of each order, and the kind and order of each near-shock cap
ORDER_TO_KIND = {1: "first", 2: "muscl", 5: "weno5"}
CAP_TO_KIND = {"first": "first", "second": "muscl", "smoothest-third": "eno3"}
CAP_ORDER = {"first": 1, "second": 2, "smoothest-third": 3}

# direction hybrids: (solver, order) per face orientation
HYBRID_PARTS = {
    "hybrid-1": {"x": ("van_leer", 1), "y": ("roe", 5)},
    "hybrid-2": {"x": ("roe", 5), "y": ("van_leer", 1)},
}

SOLVER_KINDS = (*FLUXES, *HYBRID_PARTS)
CAP_KINDS = ("none", *CAP_TO_KIND)


def is_int(value) -> bool:
    """True for an int or a NumPy integer; False for a bool and any other number."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def is_real(value) -> bool:
    """True for a real number, NumPy's included; False for a bool (Python's or NumPy's)."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


@dataclass(frozen=True)
class Scheme:
    solver: str = "roe"
    order: int = 5
    weno_variant: str = "z"
    space: str = "primitive"
    cap: str = "none"

    def __post_init__(self):
        if self.solver not in SOLVER_KINDS:
            raise ValueError(f"unknown solver {self.solver!r}")
        if not is_int(self.order) or self.order not in ORDER_TO_KIND:
            raise ValueError(f"order must be the integer 1, 2 or 5, got {self.order!r}")
        if self.solver in HYBRID_PARTS and self.order != 5:
            raise ValueError(f"{self.solver} takes its orders from HYBRID_PARTS; "
                             f"leave order at 5, got {self.order}")
        if self.cap not in CAP_KINDS:
            raise ValueError(f"unknown near-shock cap {self.cap!r}")
        self.parts  # ReconConfig rejects an unknown space or WENO variant

    @functools.cached_property
    def parts(self) -> tuple[tuple[tuple[str, ...], str, ReconConfig, ReconConfig | None], ...]:
        """The scheme's face batches, x faces first, each (face orientations,
        solver, reconstruction config, cap config or None): one part of both
        orientations for a plain scheme, an x part and a y part for a direction
        hybrid.  A cap only lowers the order: a part carries it only below its
        own order.  Built once per scheme: ``rhs`` runs them on every call."""
        if self.solver in HYBRID_PARTS:
            pairs = [((o,), *HYBRID_PARTS[self.solver][o]) for o in ("x", "y")]
        else:
            pairs = [(("x", "y"), self.solver, self.order)]
        parts = []
        for orientations, solver, order in pairs:
            recon = ReconConfig(ORDER_TO_KIND[order], self.weno_variant, self.space)
            lowers = CAP_ORDER.get(self.cap, order) < order  # "none" lowers nothing
            cap = replace(recon, kind=CAP_TO_KIND[self.cap]) if lowers else None
            parts.append((orientations, solver, recon, cap))
        return tuple(parts)

    def label(self) -> str:
        """e.g. ``roe-o5-z/primitive`` or ``hybrid-1-js-cap-first/primitive``:
        the order of a plain scheme, the WENO variant whenever a part is fifth
        order, the near-shock cap whenever one is set."""
        name = self.solver
        if self.solver not in HYBRID_PARTS:
            name += f"-o{self.order}"
        if any(recon.kind == "weno5" for _, _, recon, _ in self.parts):
            name += f"-{self.weno_variant}"
        if self.cap != "none":
            name += f"-cap-{self.cap}"
        return f"{name}/{self.space}"
