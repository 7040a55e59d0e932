"""Structured fields: interior cell averages plus the boundary conditions
that derive their ghost states.

A field is its (..., nx, ny, 4) array of conservative cell averages: the
grid axes are the last three, and any leading axes form a batch of fields
that share the grid, the boundaries and the shock column.  A single field
has batch shape ().  Ghost cells are not state: ``apply_boundaries`` lays
the cells out on one state axis (..., S, 4), cell (i, j) at i*ny + j, and
unless x is periodic appends the inflow ghost state at nx*ny and the
pressure-pinned outflow ghost state of row j at nx*ny + 1 + j.  Interior
indices are 0-based; problem metadata (shock column) uses the 1-based cell
numbering of the test problem.  States convert with the gas constant
``euler.GAMMA``; an ``InvalidStateError`` names cells by their full index,
so in a batch the tuple leads with the batch index.

``face_table`` lays the faces of a grid on one flat face axis: x faces,
then y faces, each with the state indices of its two five-cell
reconstruction windows and its unit normal, so that the scheme gathers
every face of a field with one ``np.take`` per window side.
"""

import functools
from dataclasses import dataclass, replace

import numpy as np

from . import euler


@dataclass(frozen=True)
class BoundarySpec:
    """Left inflow / right outflow (pressure pinned) / periodic in y.

    ``periodic_x = True`` wraps the x direction instead (synthetic test
    fields only); otherwise ``inflow_W`` and ``outflow_pressure`` are required.
    """

    inflow_W: np.ndarray | None = None  # primitive (4,)
    outflow_pressure: float | None = None
    periodic_x: bool = False

    def __post_init__(self):
        if not self.periodic_x and (self.inflow_W is None or self.outflow_pressure is None):
            raise ValueError("non-periodic boundaries need inflow state and outflow pressure")


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
    """The state axis (..., S, 4) that the module docstring lays out; a new
    C-contiguous array, the field is left as it is."""
    U, bc = field.U, field.bc
    cells = U.reshape(U.shape[:-3] + (-1, 4))
    if bc.periodic_x:
        return cells.copy()
    last = euler.cons_to_prim(U[..., -1, :, :], "outflow column")
    last[..., 3] = bc.outflow_pressure
    inflow = np.broadcast_to(euler.prim_to_cons(bc.inflow_W), U.shape[:-3] + (1, 4))
    return np.concatenate([cells, inflow, euler.prim_to_cons(last)], axis=-2)


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


@dataclass(frozen=True)
class FaceTable:
    """The faces of one or both orientations of an (nx, ny) grid on one flat
    face axis.

    ``grids`` lists each orientation with its face grid in table order: the
    x faces form an (nx+1, ny) grid whose face k lies between interior
    columns k-1 and k, the y faces an (nx, ny+1) grid likewise along y, and
    each grid is flattened in C order.  Row f of ``left``/``right`` indexes
    into the state axis of ``apply_boundaries`` the five cells of the window
    of face f's left/right state, ordered along the normal; the right window
    is the left one shifted by one cell.  ``frame`` carries each face's unit
    normal as (F,) arrays, or as the one scalar normal of a table of a
    single orientation.
    """

    grids: tuple[tuple[str, tuple[int, int]], ...]
    left: np.ndarray  # (F, 5) state indices
    right: np.ndarray  # (F, 5)
    frame: euler.FaceFrame

    def split(self, values: np.ndarray, axis: int):
        """Yield (orientation, part): the flat face axis ``axis`` of
        ``values``, counted from the front, reshaped into each face grid."""
        start = 0
        for orientation, grid in self.grids:
            n = grid[0] * grid[1]
            part = values[(slice(None),) * axis + (slice(start, start + n),)]
            yield orientation, part.reshape(values.shape[:axis] + grid + values.shape[axis + 1:])
            start += n


@functools.lru_cache(maxsize=None)
def face_table(nx: int, ny: int, orientations: tuple[str, ...], periodic_x: bool) -> FaceTable:
    """The ``FaceTable`` of the listed orientations ("x", "y"), built once
    per grid, orientations and x boundary; its arrays are read-only.  Windows
    wrap along a periodic direction; along a non-periodic x they read the
    inflow state left of the grid and the row's outflow state right of it."""
    slot = np.arange(6) - 3  # face k's left and right windows span cells k-3 .. k+2
    grids, windows, normal = [], [], []
    for orientation in orientations:
        if orientation == "x":
            grid = (nx + 1, ny)
            k, j = (a.reshape(-1, 1) for a in np.indices(grid))
            i = k + slot
            if periodic_x:
                windows.append(i % nx * ny + j)
            else:
                outside = np.where(i < 0, nx * ny, nx * ny + 1 + j)
                windows.append(np.where((i >= 0) & (i < nx), i * ny + j, outside))
            normal.append(euler.X_FACE)
        else:
            grid = (nx, ny + 1)
            i, l = (a.reshape(-1, 1) for a in np.indices(grid))
            windows.append(i * ny + (l + slot) % ny)
            normal.append(euler.Y_FACE)
        grids.append((orientation, grid))
    sizes = [len(w) for w in windows]
    windows = np.concatenate(windows)
    left, right = np.ascontiguousarray(windows[:, :5]), np.ascontiguousarray(windows[:, 1:])
    if len(normal) == 1:
        frame = normal[0]  # a single orientation: one normal for every face
    else:
        frame = euler.FaceFrame(np.repeat([f.nx for f in normal], sizes),
                                np.repeat([f.ny for f in normal], sizes))
        frame.nx.flags.writeable = frame.ny.flags.writeable = False
    left.flags.writeable = right.flags.writeable = False
    return FaceTable(tuple(grids), left, right, frame)
