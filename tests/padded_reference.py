"""The padded ghost layout that ``fields.apply_boundaries`` built before the
compact state axis, kept as the reference for the face windows: the cell
averages with NG ghost layers on every side, shape (..., nx+6, ny+6, 4), the
interior at [..., 3:3+nx, 3:3+ny, :]."""

import numpy as np

from shockstab import euler

NG = 3  # ghost depth


def padded(field) -> np.ndarray:
    """The cell averages of ``field`` padded with NG ghost layers on every side."""
    U, bc = field.U, field.bc
    if bc.periodic_x:
        Upad = U[..., np.arange(-NG, field.nx + NG) % field.nx, :, :]
    else:
        last = euler.cons_to_prim(U[..., -1, :, :], "outflow column")
        last[..., 3] = bc.outflow_pressure
        ghosts = U.shape[:-3] + (NG,) + U.shape[-2:]
        Upad = np.concatenate([
            np.broadcast_to(euler.prim_to_cons(bc.inflow_W), ghosts),
            U,
            np.broadcast_to(euler.prim_to_cons(last)[..., None, :, :], ghosts),
        ], axis=-3)
    # periodic in y, wrapped last so the x-ghost corners wrap too
    return np.take(Upad, np.arange(-NG, field.ny + NG) % field.ny, axis=-2)
