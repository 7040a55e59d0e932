"""The stability matrix S as a dense array, for tests that need S itself.

A y-uniform field's ``StabilityMatrix`` holds only its signed block row
C(d), d = -3..3; its S is circ(C) with C(d) added onto slot d mod ny.  Any
other field's holds S as a CSR ``matrix``.
"""

import numpy as np


def wrapped_blocks(S) -> np.ndarray:
    """(ny, 4nx, 4nx): slot s holds the sum of the C(d) with d = s mod ny."""
    C = np.zeros((S.ny,) + S.block_row.shape[1:])
    for d in range(-3, 4):
        C[d % S.ny] += S.block_row[d]
    return C


def dense(S) -> np.ndarray:
    """(4N, 4N) S: block (i, j; i', j + d mod ny) is slot d of ``wrapped_blocks``
    at (i, i') for a y-uniform field, else ``S.matrix`` densified."""
    if S.block_row is None:
        return S.matrix.toarray()
    nx, ny = S.nx, S.ny
    C = wrapped_blocks(S).reshape(ny, nx, 4, nx, 4)
    A = np.zeros((nx, ny, 4, nx, ny, 4))
    for j in range(ny):
        for d in range(ny):
            A[:, j, :, :, (j + d) % ny] = C[d]
    return A.reshape(4 * nx * ny, 4 * nx * ny)
