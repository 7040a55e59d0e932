"""Closed-form Euler formulas that the tests check the package against: the
physical normal flux alone, its exact Jacobian, its eigenvalues and the
specific entropy.  The package differentiates its fluxes numerically and
uses none of them; its solvers read the flux with its terms (``flux_terms``).
``stacked_eigen_matrices`` is the stacked form of ``euler.eigen_matrices``,
which writes the same entries in place."""

import numpy as np

from shockstab.euler import (GAMMA, P_, RHO, U_, V_, FaceFrame, cons_to_prim, flux_terms,
                             sound_speed)


def exact_flux_w(W, frame: FaceFrame) -> np.ndarray:
    """Physical flux normal to the face, from a primitive state."""
    return flux_terms(W, frame)[0]


def characteristic_eigenvalues(W, frame: FaceFrame) -> np.ndarray:
    """Eigenvalues (q-c, q, q+c, q) matching the row order of the eigen-matrices."""
    W = np.asarray(W, dtype=float)
    c = sound_speed(W)
    q = W[..., U_] * frame.nx + W[..., V_] * frame.ny
    return np.stack([q - c, q, q + c, q], axis=-1)


def analytic_flux_jacobian(U, frame: FaceFrame) -> np.ndarray:
    """Closed-form dF/dU of the exact normal flux, shape (..., 4, 4)."""
    W = cons_to_prim(U)
    rho, u, v, p = W[..., RHO], W[..., U_], W[..., V_], W[..., P_]
    nx, ny = frame.nx, frame.ny
    g1 = GAMMA - 1.0
    q = u * nx + v * ny
    v2 = u * u + v * v
    phi = 0.5 * g1 * v2
    en = p / g1 + 0.5 * rho * v2
    h = (en + p) / rho
    z = np.zeros_like(rho)
    one = np.ones_like(rho)
    rows = [
        [z, nx * one, ny * one, z],
        [
            phi * nx - u * q,
            q + u * nx - g1 * u * nx,
            u * ny - g1 * v * nx,
            g1 * nx * one,
        ],
        [
            phi * ny - v * q,
            v * nx - g1 * u * ny,
            q + v * ny - g1 * v * ny,
            g1 * ny * one,
        ],
        [(phi - h) * q, h * nx - g1 * u * q, h * ny - g1 * v * q, GAMMA * q],
    ]
    return np.stack([np.stack(r, axis=-1) for r in rows], axis=-2)


def stacked_eigen_matrices(W, frame: FaceFrame) -> tuple[np.ndarray, np.ndarray]:
    """``eigen_matrices`` as nested ``np.stack`` of its entry lists: L by
    rows, R by columns, every entry broadcast to the states' shape."""
    W = np.asarray(W, dtype=float)
    rho, u, v = W[..., RHO], W[..., U_], W[..., V_]
    c = sound_speed(W)
    g1 = GAMMA - 1.0
    nx, ny, lx, ly = frame.nx, frame.ny, frame.lx, frame.ly
    q = u * nx + v * ny
    ql = u * lx + v * ly
    v2 = u * u + v * v
    one = np.ones_like(rho)
    z = np.zeros_like(rho)
    k = g1 / (c * c)
    rows = [
        [
            0.5 * (0.5 * k * v2 + q / c),
            -0.5 * (k * u + nx / c),
            -0.5 * (k * v + ny / c),
            0.5 * k * one,
        ],
        [1.0 - 0.5 * k * v2, k * u, k * v, -k * one],
        [
            0.5 * (0.5 * k * v2 - q / c),
            -0.5 * (k * u - nx / c),
            -0.5 * (k * v - ny / c),
            0.5 * k * one,
        ],
        [-ql, lx * one, ly * one, z],
    ]
    L = np.stack([np.stack(r, axis=-1) for r in rows], axis=-2)
    h = c * c / g1 + 0.5 * v2  # total specific enthalpy
    cols = [
        [one, u - c * nx, v - c * ny, h - c * q],
        [one, u, v, 0.5 * v2],
        [one, u + c * nx, v + c * ny, h + c * q],
        [z, lx * one, ly * one, ql],
    ]
    R = np.stack([np.stack(col, axis=-1) for col in cols], axis=-1)
    return L, R


def entropy(W) -> np.ndarray:
    """Specific entropy surrogate s = ln(p / rho^gamma)."""
    W = np.asarray(W, dtype=float)
    return np.log(W[..., P_]) - GAMMA * np.log(W[..., RHO])
