"""The stability matrix S as a dense array, for tests that need S itself.

A ``StabilityMatrix`` holds only the signed block row C(d), d = -3..3, of a
field uniform along y; its S is circ(C) with C(d) added onto slot d mod ny.
"""

import numpy as np

from shockstab.stability import OFFSETS


def wrapped_blocks(S) -> np.ndarray:
    """(ny, 4nx, 4nx): slot s holds the sum of the C(d) with d = s mod ny."""
    C = np.zeros((S.ny,) + S.block_row.shape[1:])
    for d in range(-(OFFSETS // 2), OFFSETS // 2 + 1):
        C[d % S.ny] += S.block_row[d]
    return C


def dense(S) -> np.ndarray:
    """(4N, 4N) S: block (i, j; i', j + d mod ny) is slot d of ``wrapped_blocks``
    at (i, i')."""
    nx, ny = S.nx, S.ny
    C = wrapped_blocks(S).reshape(ny, nx, 4, nx, 4)
    A = np.zeros((nx, ny, 4, nx, ny, 4))
    for j in range(ny):
        for d in range(ny):
            A[:, j, :, :, (j + d) % ny] = C[d]
    return A.reshape(4 * nx * ny, 4 * nx * ny)
