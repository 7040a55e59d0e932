"""Variable transforms, fluxes and eigen-matrices for the 2D Euler equations.

The gas is calorically perfect with the fixed ratio of specific heats
``GAMMA`` = 1.4, closed by p = (GAMMA-1) rho [e - (u^2+v^2)/2].

Array conventions used throughout the package:

* conservative state ``U``  : (..., 4) array ``[rho, rho*u, rho*v, rho*e]``
* primitive state    ``W``  : (..., 4) array ``[rho, u, v, p]``
* characteristic state ``V``: (..., 4) array, ``V = L @ U`` for a face-frozen ``L``
* side-stacked states: (..., 2F, 4), the left states of F faces on rows
  0..F-1 of one side axis and their right states on rows F..2F-1

All functions broadcast over leading axes, so a single state is a plain
shape-(4,) array.

A check that raises when any entry of a mask is bad counts the good entries
with ``np.count_nonzero``: on the few hundred faces of a residual call that
is about half the cost of ``ndarray.any()`` or ``.all()``, and each SSP-RK3
step of an 11x11 march runs 11 (first order, primitive) to 29 (characteristic
hybrid) of them, the step's finiteness check of its end state included.
Every space checks each stage's cells in the one conversion of
``fields.apply_boundaries``, and a first-order step runs as many in the
characteristic space as in the conservative one.
"""

import functools
from dataclasses import dataclass

import numpy as np

from .errors import InvalidStateError

RHO, MX, MY, EN = 0, 1, 2, 3  # conservative component indices
U_, V_, P_ = 1, 2, 3  # primitive component indices (rho shares index 0)

GAMMA = 1.4  # ratio of specific heats


@dataclass(frozen=True, eq=False)
class FaceFrame:
    """Unit face normal plus the derived tangent (-ny, nx).

    The components are scalars, one normal for every face, or (F,) arrays
    that give each face of a flat face axis its own normal; either way they
    broadcast against per-face values of shape (..., F, 4), and ``sides``
    against side-stacked states (..., 2F, 4).  Frames compare and hash by
    identity, which array components allow.
    """

    nx: float | np.ndarray
    ny: float | np.ndarray

    def __post_init__(self):
        if not np.all(np.abs(self.nx**2 + self.ny**2 - 1.0) <= 1e-12):
            raise ValueError("face normal must be a unit vector")

    def at(self, faces) -> "FaceFrame":
        """The frame of the faces that ``faces`` selects from a flat face
        axis; a scalar normal serves any subset as it is."""
        if np.ndim(self.nx) == 0:
            return self
        return FaceFrame(self.nx[faces], self.ny[faces])

    @functools.cached_property
    def sides(self) -> "FaceFrame":
        """The frame of a side axis: every normal twice, built once."""
        if np.ndim(self.nx) == 0:
            return self
        sides = FaceFrame(np.tile(self.nx, 2), np.tile(self.ny, 2))
        sides.nx.flags.writeable = sides.ny.flags.writeable = False  # shared by every call
        return sides

    @functools.cached_property
    def lx(self) -> float | np.ndarray:
        """The tangent's x component, built once."""
        lx = -self.ny
        if np.ndim(lx):
            lx.flags.writeable = False  # shared by every call
        return lx

    @property
    def ly(self) -> float | np.ndarray:
        return self.nx


X_FACE = FaceFrame(1.0, 0.0)
Y_FACE = FaceFrame(0.0, 1.0)


def _describe_bad(mask, where, what="cell"):
    idx = np.argwhere(mask)
    head = ", ".join(str(tuple(i.tolist())) for i in idx[:4])
    more = "" if len(idx) <= 4 else f" (+{len(idx) - 4} more)"
    return f"{where} at {what}(s) {head}{more}" if idx.size else where


def on_sides(fn, X, *args):
    """``fn(X, *args)`` of side-stacked states X (..., 2F, 4).  Only should it
    raise ``InvalidStateError``, it runs again on the (..., 2, F, 4) view to
    name the bad state by (side, face) behind the leading axes."""
    try:
        return fn(X, *args)
    except InvalidStateError:
        fn(X.reshape(X.shape[:-2] + (2, -1, 4)), *args)
        raise


def _primitive(U, rho) -> np.ndarray:
    """Unchecked primitive states of U, the velocities and pressure formed with density rho."""
    W = np.empty_like(U)
    u = U[..., MX] / rho
    v = U[..., MY] / rho
    W[..., RHO] = U[..., RHO]
    W[..., U_] = u
    W[..., V_] = v
    W[..., P_] = (GAMMA - 1.0) * (U[..., EN] - 0.5 * rho * (u * u + v * v))
    return W


def cons_to_prim(U, where: str = "state") -> np.ndarray:
    """Convert conservative to primitive variables, validating positivity."""
    U = np.asarray(U, dtype=float)
    rho = U[..., RHO]
    ok = rho > 0.0
    if np.count_nonzero(ok) < ok.size:
        raise InvalidStateError(_describe_bad(~ok, f"non-positive density in {where}"))
    W = _primitive(U, rho)
    ok = W[..., P_] > 0.0
    if np.count_nonzero(ok) < ok.size:
        raise InvalidStateError(_describe_bad(~ok, f"non-positive pressure in {where}"))
    return W


def _total_energy(rho, v2, p):
    """Total energy per volume p/(GAMMA-1) + rho (u^2+v^2)/2, from v2 = u^2 + v^2."""
    return p / (GAMMA - 1.0) + 0.5 * rho * v2


def cons_with_energy(W, en) -> np.ndarray:
    """Conservative states of primitive states W whose total energy per
    volume ``en`` is already formed, as ``flux_terms`` forms it."""
    rho = W[..., RHO]
    U = np.empty_like(W)
    U[..., RHO] = rho
    U[..., MX] = rho * W[..., U_]
    U[..., MY] = rho * W[..., V_]
    U[..., EN] = en
    return U


def prim_to_cons(W) -> np.ndarray:
    W = np.asarray(W, dtype=float)
    rho, u, v, p = W[..., RHO], W[..., U_], W[..., V_], W[..., P_]
    return cons_with_energy(W, _total_energy(rho, u * u + v * v, p))


def sound_speed(W) -> np.ndarray:
    W = np.asarray(W, dtype=float)
    c2 = GAMMA * W[..., P_] / W[..., RHO]
    ok = c2 > 0.0
    if np.count_nonzero(ok) < ok.size:
        raise InvalidStateError(_describe_bad(~ok, "non-positive sound speed"))
    return np.sqrt(c2)


def flux_terms(W, frame: FaceFrame):
    """The physical flux F normal to the face, from a primitive state, with
    the two per-state terms it forms on the way, (F, v2, en): v2 = u^2 + v^2
    and the total energy per volume en, which is ``prim_to_cons``'s energy
    bit for bit.  The flux solvers read them instead of forming them again."""
    W = np.asarray(W, dtype=float)
    rho, u, v, p = W[..., RHO], W[..., U_], W[..., V_], W[..., P_]
    q = u * frame.nx + v * frame.ny
    v2 = u * u + v * v
    en = _total_energy(rho, v2, p)
    F = np.empty_like(W)
    rq = rho * q
    F[..., 0] = rq
    F[..., 1] = rq * u + p * frame.nx
    F[..., 2] = rq * v + p * frame.ny
    F[..., 3] = (en + p) * q
    return F, v2, en


def du_dw(W) -> np.ndarray:
    """Jacobian dU/dW of the conservative-from-primitive map, shape (..., 4, 4)."""
    W = np.asarray(W, dtype=float)
    rho, u, v = W[..., RHO], W[..., U_], W[..., V_]
    z = np.zeros_like(rho)
    one = np.ones_like(rho)
    rows = [
        [one, z, z, z],
        [u, rho, z, z],
        [v, z, rho, z],
        [0.5 * (u * u + v * v), rho * u, rho * v, one / (GAMMA - 1.0)],
    ]
    return np.stack([np.stack(r, axis=-1) for r in rows], axis=-2)


def dw_du(W) -> np.ndarray:
    """Closed-form inverse of :func:`du_dw`."""
    W = np.asarray(W, dtype=float)
    rho, u, v = W[..., RHO], W[..., U_], W[..., V_]
    g1 = GAMMA - 1.0
    z = np.zeros_like(rho)
    one = np.ones_like(rho)
    rows = [
        [one, z, z, z],
        [-u / rho, one / rho, z, z],
        [-v / rho, z, one / rho, z],
        [0.5 * g1 * (u * u + v * v), -g1 * u, -g1 * v, g1 * one],
    ]
    return np.stack([np.stack(r, axis=-1) for r in rows], axis=-2)


def eigen_matrices(W, frame: FaceFrame) -> tuple[np.ndarray, np.ndarray]:
    """Left and right eigenvector matrices (L, R) of the normal flux
    Jacobian, R the exact inverse of L: L's rows and R's columns are ordered
    (q-c, q, q+c, shear), and L acts on conservative perturbations, dV = L dU."""
    W = np.asarray(W, dtype=float)
    rho, u, v = W[..., RHO], W[..., U_], W[..., V_]
    c = sound_speed(W)
    g1 = GAMMA - 1.0
    nx, ny, lx, ly = frame.nx, frame.ny, frame.lx, frame.ly
    q = u * nx + v * ny
    ql = u * lx + v * ly
    v2 = u * u + v * v
    k = g1 / (c * c)
    h = c * c / g1 + 0.5 * v2  # total specific enthalpy
    # every entry is written once into its slot; a scalar entry fills its
    # slot across the broadcast shape of the states and the frame
    shape = np.broadcast_shapes(rho.shape, np.shape(nx)) + (4, 4)
    L = np.empty(shape)
    L[..., 0, 0] = 0.5 * (0.5 * k * v2 + q / c)
    L[..., 0, 1] = -0.5 * (k * u + nx / c)
    L[..., 0, 2] = -0.5 * (k * v + ny / c)
    L[..., 0, 3] = 0.5 * k
    L[..., 1, 0] = 1.0 - 0.5 * k * v2
    L[..., 1, 1] = k * u
    L[..., 1, 2] = k * v
    L[..., 1, 3] = -k
    L[..., 2, 0] = 0.5 * (0.5 * k * v2 - q / c)
    L[..., 2, 1] = -0.5 * (k * u - nx / c)
    L[..., 2, 2] = -0.5 * (k * v - ny / c)
    L[..., 2, 3] = 0.5 * k
    L[..., 3, 0] = -ql
    L[..., 3, 1] = lx
    L[..., 3, 2] = ly
    L[..., 3, 3] = 0.0
    R = np.empty(shape)  # columns in L's row order
    R[..., 0, :3] = 1.0
    R[..., 0, 3] = 0.0
    R[..., 1, 0] = u - c * nx
    R[..., 2, 0] = v - c * ny
    R[..., 3, 0] = h - c * q
    R[..., 1, 1] = u
    R[..., 2, 1] = v
    R[..., 3, 1] = 0.5 * v2
    R[..., 1, 2] = u + c * nx
    R[..., 2, 2] = v + c * ny
    R[..., 3, 2] = h + c * q
    R[..., 1, 3] = lx
    R[..., 2, 3] = ly
    R[..., 3, 3] = ql
    finite = np.isfinite(R)
    if np.count_nonzero(finite) < finite.size:
        bad = ~finite.all(axis=(-2, -1))
        raise InvalidStateError(_describe_bad(bad, "degenerate eigen-matrix"))
    return L, R
