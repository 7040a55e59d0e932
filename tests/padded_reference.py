"""The padded ghost layout that ``fields.apply_boundaries`` built before the
compact state axis, kept as the reference for the face windows: the cell
states with NG ghost layers on every side, shape (..., nx+6, ny+6, 4), the
interior at [..., 3:3+nx, 3:3+ny, :]."""

import numpy as np

from shockstab import euler

NG = 3  # ghost depth


def padded(field, primitive: bool) -> np.ndarray:
    """The cell states of ``field`` padded with NG ghost layers on every
    side, in primitive variables if ``primitive``, else conservative.  The
    primitive inflow ghosts are ``inflow_W`` and the outflow ghosts the last
    column's primitive states with the pressure pinned, neither passed
    through conservative variables."""
    U, bc = field.U, field.bc
    X = euler.cons_to_prim(U) if primitive else U
    last = euler.cons_to_prim(U[..., -1, :, :], "outflow column")
    last[..., 3] = bc.outflow_pressure
    inflow, outflow = bc.inflow_W, last
    if not primitive:
        inflow, outflow = euler.prim_to_cons(inflow), euler.prim_to_cons(outflow)
    ghosts = U.shape[:-3] + (NG,) + U.shape[-2:]
    Xpad = np.concatenate([
        np.broadcast_to(inflow, ghosts),
        X,
        np.broadcast_to(outflow[..., None, :, :], ghosts),
    ], axis=-3)
    # periodic in y, wrapped last so the x-ghost corners wrap too
    return np.take(Xpad, np.arange(-NG, field.ny + NG) % field.ny, axis=-2)
