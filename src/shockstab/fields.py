"""Structured fields: interior cell averages, the boundary conditions that
derive their ghost states, and the one map from faces to the states they read.

A field is its (..., nx, ny, 4) array of conservative averages over unit
square cells: the grid axes are the last three, and any leading axes form a
batch of fields that share the grid, the boundaries and the shock column.
A single field has batch shape ().  Ghost cells are not state:
``apply_boundaries`` lays the cells out on a state axis (..., S, 4), cell
(i, j) at i*ny + j, then appends the inflow ghost state at nx*ny and the
pressure-pinned outflow ghost state of row j at nx*ny + 1 + j, whose
derivative is ``outflow_jacobian``.  This module is the one place that
says so: the faces and the steady solve's probes ask ``FaceTable.source``,
the cell that each state is or copies, and the three other readers slice
the interior cells that lead the axis, ``marching.step_ssprk3`` for its time
step (``states.W[..., :nx*ny, :]``), ``stability.assemble`` for its row
(``states.W[:nx]``, ny = 1) and ``shock_problem._lm_refine_1d`` for the
residual scales and trial floors of its start row (``W[:nx]``, ny = 1).
``apply_boundaries`` returns the axis in two forms, ``StateAxes``: ``X``
in the variables the face windows read, conservative outside the primitive
space, and ``W`` primitive, one array with ``X`` in the primitive space.
``apply_boundaries`` is the one place that converts a field's cells, once
per call and checked, in every space.
Interior indices are 0-based; problem metadata (shock column) uses the
1-based cell numbering of the test problem.  An ``InvalidStateError`` names
cells by their full index (i, j), so in a batch the tuple leads with the
batch index.

``face_table`` lays the faces of a grid on one flat face axis, x faces then
y faces, each with the state indices of its six-cell stencil, and both
windows of every face on one side axis: ``rhs`` gathers its windows and
cells from the side axis, ``assemble`` scatters its blocks by the stencils
and folds the ghost copies by ``source``, and the steady solve's probes
find the states that a cell moves by ``source``.
"""

import functools
from dataclasses import dataclass, replace
from typing import NamedTuple

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


class StateAxes(NamedTuple):
    """The state axis of a field in the two forms its faces read: ``X`` in
    the window variables of the scheme's space, ``W`` primitive.  In the
    primitive space they are one array."""

    X: np.ndarray
    W: np.ndarray


def apply_boundaries(field: MeanField, primitive: bool) -> StateAxes:
    """The state axes (..., S, 4) that the module docstring lays out, ``X``
    primitive if ``primitive``, else conservative; new C-contiguous arrays,
    the field is left as it is.  The interior is one ``euler.cons_to_prim``
    conversion, which names a bad cell by its (i, j), and the outflow states
    are the last column's with the pressure pinned.  Outside the primitive
    space the ghosts of ``X`` are conservative, and those of ``W`` are
    converted back from them."""
    batch, n, bc = field.U.shape[:-3], field.nx * field.ny, field.bc
    W_int = euler.cons_to_prim(field.U, "interior")
    last = W_int[..., -1, :, :].copy()
    last[..., 3] = bc.outflow_pressure
    W = np.empty(batch + (n + 1 + field.ny, 4))
    W[..., :n, :] = W_int.reshape(batch + (n, 4))
    if primitive:
        W[..., n, :] = bc.inflow_W
        W[..., n + 1:, :] = last
        return StateAxes(W, W)
    X = np.empty_like(W)
    X[..., :n, :] = field.U.reshape(batch + (n, 4))
    X[..., n, :] = bc.inflow_U
    X[..., n + 1:, :] = euler.prim_to_cons(last)
    W[..., n:, :] = euler.cons_to_prim(X[..., n:, :], "boundary ghost")
    return StateAxes(X, W)


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
    (slots 5..1).  ``source`` maps the state axis to the grid: entry s is
    the cell that state s is or copies, the cell itself, the row's last
    cell for its outflow ghost, and -1 for the inflow state, which moves
    with no cell.  ``shock`` flags the faces of the near-shock zone, those
    with a cell (slot 2 or 3) in the shock column.  ``frame``
    carries each face's unit normal as (F,) arrays, or as the one scalar
    normal of a table of a single orientation.  Tables compare and hash by
    identity; ``face_table`` builds one per grid.
    """

    grids: tuple[tuple[str, tuple[int, int]], ...]
    window: np.ndarray  # (F, 6) state indices
    sides: np.ndarray  # (2F, 5) state indices, left windows then mirrored right ones
    source: np.ndarray  # (S,) the cell each state is or copies, -1 for the inflow state
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
    per grid, orientations and 1-based shock column (None for no near-shock
    zone); its arrays are read-only.  Stencils wrap along y; along x they
    read the inflow state left of the grid and the row's outflow state
    right of it, the two places where ``source`` differs from the state."""
    n = nx * ny
    source = np.concatenate([np.arange(n), [-1], np.arange(n - ny, n)])
    slot = np.arange(6) - 3  # face k's stencil spans cells k-3 .. k+2
    grids, windows, normal = [], [], []
    for orientation in orientations:
        if orientation == "x":
            grid = (nx + 1, ny)
            k, j = (a.reshape(-1, 1) for a in np.indices(grid))
            i = k + slot
            windows.append(np.where(i < 0, n, np.where(i < nx, i * ny + j, n + 1 + j)))
            normal.append(euler.X_FACE)
        else:
            grid = (nx, ny + 1 if ny > 1 else 1)
            i, l = (a.reshape(-1, 1) for a in np.indices(grid))
            windows.append(i * ny + (l + slot) % ny)
            normal.append(euler.Y_FACE)
        grids.append((orientation, grid))
    sizes = [len(w) for w in windows]
    window = np.concatenate(windows)
    shock = np.zeros(len(window), dtype=bool)
    if shock_column is not None:
        # the faces with a cell, slot 2 or 3, in the shock column; the
        # inflow state's -1 lies in no column
        shock = (source[window[:, 2:4]] // ny == shock_column - 1).any(axis=1)
    if len(normal) == 1:
        frame = normal[0]  # a single orientation: one normal for every face
    else:
        frame = euler.FaceFrame(np.repeat([f.nx for f in normal], sizes),
                                np.repeat([f.ny for f in normal], sizes))
    if np.ndim(frame.nx):
        frame.nx.flags.writeable = frame.ny.flags.writeable = False
    sides = np.concatenate([window[:, :5], window[:, :0:-1]])
    for a in (window, sides, source, shock):
        a.flags.writeable = False
    return FaceTable(tuple(grids), window, sides, source, shock, frame)
