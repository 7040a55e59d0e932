"""Structured fields: interior cell averages plus the boundary conditions
that derive their ghost layers.

A field is its (..., nx, ny, 4) array of conservative cell averages: the
grid axes are the last three, and any leading axes form a batch of fields
that share the grid, the boundaries and the shock column.  A single field
has batch shape ().  Ghost cells are not state: ``apply_boundaries``
derives the (..., nx+6, ny+6, 4) padded array, three ghost layers on every
side and the interior at [..., 3:3+nx, 3:3+ny, :], from the cell averages
and the ``BoundarySpec``, and returns it without touching the field.
Interior indices are 0-based; problem metadata (shock column) uses the
1-based cell numbering of the test problem.  States convert with the gas
constant ``euler.GAMMA``; an ``InvalidStateError`` names cells by their
full index, so in a batch the tuple leads with the batch index.
"""

from dataclasses import dataclass, replace

import numpy as np

from . import euler

NG = 3  # ghost depth


@dataclass(frozen=True)
class BoundarySpec:
    """Left inflow / right outflow (pressure pinned) / periodic in y.

    ``periodic_x = True`` wraps the x direction instead (synthetic test
    fields only).
    """

    inflow_W: np.ndarray | None = None  # primitive (4,)
    outflow_pressure: float | None = None
    periodic_x: bool = False


@dataclass
class MeanField:
    U: np.ndarray  # (..., nx, ny, 4) conservative cell averages, batch axes first
    h: float
    bc: BoundarySpec
    shock_column: int | None = None  # 1-based problem column

    @property
    def nx(self) -> int:
        return self.U.shape[-3]

    @property
    def ny(self) -> int:
        return self.U.shape[-2]

    def copy(self) -> "MeanField":
        return replace(self, U=self.U.copy())

    def interior_primitive(self) -> np.ndarray:
        return euler.cons_to_prim(self.U, "interior")


def apply_boundaries(field: MeanField) -> np.ndarray:
    """The cell averages padded with NG ghost layers on every side, shape
    (..., nx+6, ny+6, 4); a new array, the field is left as it is."""
    U, bc = field.U, field.bc
    if bc.periodic_x:
        padded = U[..., np.arange(-NG, field.nx + NG) % field.nx, :, :]
    else:
        if bc.inflow_W is None or bc.outflow_pressure is None:
            raise ValueError("non-periodic boundaries need inflow state and outflow pressure")
        last = euler.cons_to_prim(U[..., -1, :, :], "outflow column")
        last[..., 3] = bc.outflow_pressure
        ghosts = U.shape[:-3] + (NG,) + U.shape[-2:]
        padded = np.concatenate([
            np.broadcast_to(euler.prim_to_cons(bc.inflow_W), ghosts),
            U,
            np.broadcast_to(euler.prim_to_cons(last)[..., None, :, :], ghosts),
        ], axis=-3)
    # periodic in y, wrapped last so the x-ghost corners wrap too; modular
    # indexing keeps single-row fields valid
    return padded[..., np.arange(-NG, field.ny + NG) % field.ny, :]


def shock_face_masks(field: MeanField):
    """Boolean masks of faces touching the shock column: x faces of shape
    (nx+1, ny), y faces of shape (nx, ny+1), shared by every batch member.
    Empty masks without a column."""
    nx, ny = field.nx, field.ny
    mask_x = np.zeros((nx + 1, ny), dtype=bool)
    mask_y = np.zeros((nx, ny + 1), dtype=bool)
    if field.shock_column is not None:
        col = field.shock_column - 1  # to 0-based
        mask_x[col] = True  # left face of the shock column
        mask_x[col + 1] = True  # right face
        mask_y[col] = True  # all transverse faces of the column
    return mask_x, mask_y
