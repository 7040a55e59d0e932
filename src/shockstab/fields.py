"""Structured fields: interior cell averages, the boundary conditions that
derive their ghost states, and the one map from faces to the states they read.

A field is its (..., nx, ny, 4) array of conservative averages over unit
square cells: the grid axes are the last three, and any leading axes form a
batch of fields that share the grid, the boundaries and the shock column.
A single field has batch shape ().  Ghost cells are not state:
``apply_boundaries`` lays the cells out on one state axis (..., S, 4), cell
(i, j) at i*ny + j, then appends the inflow ghost state at nx*ny and the
pressure-pinned outflow ghost state of row j at nx*ny + 1 + j, whose
derivative is ``outflow_jacobian``.  The axis holds the variables the face
windows read, primitive in the primitive space and conservative otherwise,
so a primitive residual converts its cells once.
Interior indices are 0-based; problem metadata (shock column) uses the
1-based cell numbering of the test problem.  An ``InvalidStateError`` names
cells by their full index, so in a batch the tuple leads with the batch
index.

``face_table`` lays the faces of a grid on one flat face axis, x faces then
y faces, each with the state indices of its six-cell stencil, and both
windows of every face on one side axis: ``rhs`` gathers its windows from
the side axis and ``assemble`` scatters its blocks by the stencils.
"""

import functools
from dataclasses import dataclass, replace

import numpy as np

from . import euler


@dataclass(frozen=True)
class BoundarySpec:
    """Left inflow / right outflow (pressure pinned) / periodic in y."""

    inflow_W: np.ndarray  # primitive (4,)
    outflow_pressure: float

    @functools.cached_property
    def inflow_U(self) -> np.ndarray:  # converted once per spec
        return euler.prim_to_cons(self.inflow_W)


@dataclass
class MeanField:
    U: np.ndarray  # (..., nx, ny, 4) conservative cell averages, batch axes first
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


def apply_boundaries(field: MeanField, primitive: bool) -> np.ndarray:
    """The state axis (..., S, 4) that the module docstring lays out, in
    primitive variables if ``primitive``, else conservative; a new
    C-contiguous array, the field is left as it is.  The primitive axis is
    one ``interior_primitive`` conversion, its inflow state ``bc.inflow_W``
    and its outflow states the last column's with the pressure pinned."""
    U, bc = field.U, field.bc
    batch, n = U.shape[:-3], field.nx * field.ny
    X = field.interior_primitive() if primitive else U
    states = np.empty(batch + (n + 1 + field.ny, 4))
    states[..., :n, :] = X.reshape(batch + (n, 4))
    if primitive:
        last = X[..., -1, :, :].copy()
    else:
        last = euler.cons_to_prim(U[..., -1, :, :], "outflow column")
    last[..., 3] = bc.outflow_pressure
    states[..., n, :] = bc.inflow_W if primitive else bc.inflow_U
    states[..., n + 1:, :] = last if primitive else euler.prim_to_cons(last)
    return states


def outflow_jacobian(W_last: np.ndarray, primitive: bool) -> np.ndarray:
    """(..., 4, 4) derivative of a row's outflow ghost state with respect to
    the row's last cell, whose primitive state is ``W_last`` (..., 4), both
    in primitive variables if ``primitive``, else both conservative: the
    ghost copies rho, u and v and pins the pressure.  The inflow ghost state
    moves with no cell."""
    T = np.zeros(W_last.shape + (4,))
    T[..., 0, 0] = T[..., 1, 1] = T[..., 2, 2] = 1.0
    if not primitive:
        T[..., 3, 0] = -0.5 * (W_last[..., 1] ** 2 + W_last[..., 2] ** 2)
        T[..., 3, 1] = W_last[..., 1]
        T[..., 3, 2] = W_last[..., 2]
    return T


@dataclass(frozen=True, eq=False)
class FaceTable:
    """The faces of one or both orientations of an (nx, ny) grid on one flat
    face axis.

    ``grids`` lists each orientation with its face grid in table order: the
    x faces form an (nx+1, ny) grid whose face k lies between interior
    columns k-1 and k, the y faces an (nx, ny+1) grid likewise along y, and
    each grid is flattened in C order.  A single row has an (nx, 1) y grid:
    its face above is its face below.  Row f of ``window`` indexes into the
    state axis of ``apply_boundaries`` the six cells of face f's stencil
    along the normal: slots 2 and 3 hold the cells before and after the
    face, slots 0..4 the window of its left state, slots 1..5 that of its
    right state.  ``sides`` holds both windows on one side axis: row f is
    face f's left window (slots 0..4), row F+f its right window mirrored
    (slots 5..1).  ``shock`` flags the faces of the shock column.  ``frame``
    carries each face's unit normal as (F,) arrays, or as the one scalar
    normal of a table of a single orientation.  Tables compare and hash by
    identity; ``face_table`` builds one per grid.
    """

    grids: tuple[tuple[str, tuple[int, int]], ...]
    window: np.ndarray  # (F, 6) state indices
    sides: np.ndarray  # (2F, 5) state indices, left windows then mirrored right ones
    shock: np.ndarray  # (F,) bool
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
def face_table(nx: int, ny: int, orientations: tuple[str, ...],
               shock_column: int | None) -> FaceTable:
    """The ``FaceTable`` of the listed orientations ("x", "y"), built once
    per grid, orientations and 1-based shock column (None for none); its
    arrays are read-only.  Stencils wrap along y; along x they read the
    inflow state left of the grid and the row's outflow state right of it."""
    slot = np.arange(6) - 3  # face k's stencil spans cells k-3 .. k+2
    grids, windows, shock, normal = [], [], [], []
    for orientation in orientations:
        if orientation == "x":
            grid = (nx + 1, ny)
            k, j = (a.reshape(-1, 1) for a in np.indices(grid))
            i = k + slot
            outside = np.where(i < 0, nx * ny, nx * ny + 1 + j)
            windows.append(np.where((i >= 0) & (i < nx), i * ny + j, outside))
            normal.append(euler.X_FACE)
        else:
            grid = (nx, ny + 1 if ny > 1 else 1)
            i, l = (a.reshape(-1, 1) for a in np.indices(grid))
            windows.append(i * ny + (l + slot) % ny)
            normal.append(euler.Y_FACE)
        flag = np.zeros(grid, dtype=bool)
        if shock_column is not None:
            col = shock_column - 1  # to 0-based
            flag[col : col + 2 if orientation == "x" else col + 1] = True
        shock.append(flag.ravel())
        grids.append((orientation, grid))
    sizes = [len(w) for w in windows]
    window, shock = np.concatenate(windows), np.concatenate(shock)
    if len(normal) == 1:
        frame = normal[0]  # a single orientation: one normal for every face
    else:
        frame = euler.FaceFrame(np.repeat([f.nx for f in normal], sizes),
                                np.repeat([f.ny for f in normal], sizes))
    if np.ndim(frame.nx):
        frame.nx.flags.writeable = frame.ny.flags.writeable = False
    sides = np.concatenate([window[:, :5], window[:, :0:-1]])
    for a in (window, sides, shock):
        a.flags.writeable = False
    return FaceTable(tuple(grids), window, sides, shock, frame)
