"""Ghost-padded structured fields and boundary handling.

A field stores cell-averaged conservative states on an (nx+6, ny+6, 4)
array: three ghost layers on every side, interior cells at [3:3+nx, 3:3+ny].
Interior indices are 0-based internally; problem metadata (shock column)
uses the 1-based cell numbering of the test problem.  States convert with
the gas constant ``euler.GAMMA``.
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
    U: np.ndarray  # (nx+6, ny+6, 4) conservative, ghosts included
    h: float
    bc: BoundarySpec
    shock_column: int | None = None  # 1-based problem column
    upstream: np.ndarray | None = None  # analytic primitive states
    downstream: np.ndarray | None = None

    @property
    def nx(self) -> int:
        return self.U.shape[0] - 2 * NG

    @property
    def ny(self) -> int:
        return self.U.shape[1] - 2 * NG

    def interior(self) -> np.ndarray:
        return self.U[NG : NG + self.nx, NG : NG + self.ny]

    def copy(self) -> "MeanField":
        return replace(self, U=self.U.copy())

    def interior_primitive(self) -> np.ndarray:
        return euler.cons_to_prim(self.interior(), "interior")


def apply_boundaries(field: MeanField) -> MeanField:
    """Fill all ghost layers in place; idempotent."""
    U = field.U
    nx, ny = field.nx, field.ny
    bc = field.bc
    if bc.periodic_x:
        U[:NG] = U[(np.arange(-NG, 0) % nx) + NG]
        U[NG + nx :] = U[(np.arange(nx, nx + NG) % nx) + NG]
    else:
        if bc.inflow_W is None or bc.outflow_pressure is None:
            raise ValueError("non-periodic boundaries need inflow state and outflow pressure")
        iy = slice(NG, NG + ny)
        U[:NG, iy] = euler.prim_to_cons(bc.inflow_W)
        last = euler.cons_to_prim(U[NG + nx - 1, iy], "outflow column")
        last[..., 3] = bc.outflow_pressure
        U[NG + nx :, iy] = euler.prim_to_cons(last)[None]
    # periodic in y, filled last so x-ghost corners wrap too; modular indexing
    # keeps single-row fields valid
    U[:, :NG] = U[:, (np.arange(-NG, 0) % ny) + NG]
    U[:, NG + ny :] = U[:, (np.arange(ny, ny + NG) % ny) + NG]
    return field


def make_field(interior_U, h, bc, **meta) -> MeanField:
    interior_U = np.asarray(interior_U, dtype=float)
    nx, ny = interior_U.shape[:2]
    U = np.zeros((nx + 2 * NG, ny + 2 * NG, 4))
    U[NG : NG + nx, NG : NG + ny] = interior_U
    return apply_boundaries(MeanField(U=U, h=h, bc=bc, **meta))


def shock_face_masks(field: MeanField):
    """Boolean masks of faces touching the shock column: x faces of shape
    (nx+1, ny), y faces of shape (nx, ny+1).  Empty masks without a column."""
    nx, ny = field.nx, field.ny
    mask_x = np.zeros((nx + 1, ny), dtype=bool)
    mask_y = np.zeros((nx, ny + 1), dtype=bool)
    if field.shock_column is not None:
        col = field.shock_column - 1  # to 0-based
        mask_x[col] = True  # left face of the shock column
        mask_x[col + 1] = True  # right face
        mask_y[col] = True  # all transverse faces of the column
    return mask_x, mask_y

