"""Side-stacking for tests that hold the left and the right states, or
windows, of F faces apart: the package takes both on one side axis of 2F
rows, the left ones first and the right windows mirrored."""

import numpy as np

from shockstab import euler


def side_states(WL, WR) -> np.ndarray:
    """(..., 2F, 4) from (..., F, 4) left and right states; one face's (4,)
    states give (2, 4)."""
    return np.concatenate([np.atleast_2d(WL), np.atleast_2d(WR)], axis=-2)


def side_windows(winL, winR) -> np.ndarray:
    """(..., 2F, 5, 4) from (..., F, 5, 4) left and right windows, both in
    cell order."""
    return np.concatenate([winL, winR[..., ::-1, :]], axis=-3)


def window_cells(win, space: str) -> np.ndarray:
    """The primitive states (..., 2F, 4) of slot 2, each row's own cell, of
    side-stacked windows (..., 2F, 5, 4) in the window variables of
    ``space``: the cells that ``reconstruct_pair`` takes beside them."""
    cells = np.asarray(win, dtype=float)[..., 2, :]
    return cells if space == "primitive" else euler.cons_to_prim(cells)


def halves(a, axis: int):
    """The left and the right half of the side axis ``axis`` of ``a``."""
    n = a.shape[axis] // 2
    lead = (slice(None),) * (axis % a.ndim)
    return a[lead + (slice(None, n),)], a[lead + (slice(n, None),)]


def face_flux(fn, WL, WR, *args) -> np.ndarray:
    """``fn`` of the side-stacked WL and WR; one face's (4,) states give
    its (4,) flux."""
    flux = fn(side_states(WL, WR), *args)
    return flux[0] if np.ndim(WL) == 1 else flux
