"""Face-state reconstruction: first order, MUSCL/van Albada, WENO5 (JS/Z), ENO3.

A face between cells i and i+1 owns two reconstructed states.  The left state
uses the window (i-2 .. i+2), the right state the window (i+3 .. i-1): the
right state is the left state of the mirrored window.  Windows are always
five cell states of shape (..., 5, 4) even for the compact schemes, which
only read the middle slots.  A batch of F faces of any orientation comes on
one side axis, windows (..., 2F, 5, 4) behind the field's batch axes: the
left windows, then the right windows mirrored, gathered along each face's
normal by ``fields.face_table``, so that one left-state formula
reconstructs every row.  The ``FaceFrame`` holds one normal per face.

WENO5 and ENO3 work on the substencil axis -2 of length 3: substencil m of a
window covers slots m..m+2, so its three overlapping slices (slots 0..2, 1..3
and 2..4) carry all three substencils at once.  The smoothness measures and
the candidate values are each one array expression over those slices with a
column of coefficients per substencil, and the weights, the face value and
the frozen-weight coefficients are formed along the same axis.

Besides face values, every reconstruction exposes the coefficients of its
linearization with frozen nonlinear weights, ``lin`` (..., 2F, 5, 4): row r
contributes ``lin[..., r, m, :]`` on slot m of its own window, so a left
state acts on the cell at offset m-2 from the face's left cell and a right
state on the cell at offset 3-m.  The stability matrix is assembled from
exactly these coefficients.
"""

from dataclasses import dataclass

import numpy as np

from . import euler
from .euler import FaceFrame

LINEAR_WEIGHTS = np.array([0.1, 0.6, 0.3])
# the eps of the nonlinear weights: keeps them finite on flat windows (beta = 0)
WENO_EPS = 1e-15

VALID_KINDS = ("first", "muscl", "weno5", "eno3")
VALID_SPACES = ("conservative", "primitive", "characteristic")


@dataclass(frozen=True)
class ReconConfig:
    kind: str = "weno5"
    weno_variant: str = "z"  # js | z
    space: str = "primitive"

    def __post_init__(self):
        if self.kind not in VALID_KINDS:
            raise ValueError(f"unknown reconstruction kind {self.kind!r}")
        if self.space not in VALID_SPACES:
            raise ValueError(f"unknown variable space {self.space!r}")
        if self.weno_variant not in ("js", "z"):
            raise ValueError(f"unknown weno variant {self.weno_variant!r}")


def _substencils(w):
    """The three overlapping 3-point slices (a, b, c) of 5-point windows: row m
    of each, on axis -2, holds cells m, m+1 and m+2 of substencil m."""
    return w[..., 0:3, :], w[..., 1:4, :], w[..., 2:5, :]


# Coefficient columns of the substencil formulas.  A unit or negated
# coefficient repeats the plain add or subtract bit for bit, and the 0 of
# beta_1 adds a signed zero that its square removes.
_BETA_A, _BETA_B, _BETA_C = (np.array(c, dtype=float)[:, None] for c in
                             ((1, 1, 3), (-4, 0, -4), (3, -1, 1)))
_CAND_A, _CAND_B, _CAND_C = (np.array(c, dtype=float)[:, None] for c in
                             ((2, -1, 2), (-7, 5, 5), (11, 2, -1)))


def smoothness_indicators(w) -> np.ndarray:
    """The three quadratic smoothness measures of 5-point windows.

    ``w`` has shape (..., 5, comps); returns the betas on the substencil
    axis -2, shape (..., 3, comps), each formula one array expression over
    the slices of ``_substencils``:
    beta_m = 13/12 (a - 2b + c)^2 + 1/4 (A_m a + B_m b + C_m c)^2.
    """
    a, b, c = _substencils(w)
    return (13.0 / 12.0 * (a - 2 * b + c) ** 2
            + 0.25 * (_BETA_A * a + _BETA_B * b + _BETA_C * c) ** 2)


def weights_js(beta) -> np.ndarray:
    """Classic nonlinear weights alpha_m = d_m / (beta_m + eps)^2, normalized
    over the substencil axis -2."""
    alpha = LINEAR_WEIGHTS[:, None] / (beta + WENO_EPS) ** 2
    return alpha / alpha.sum(axis=-2, keepdims=True)


def weights_z(beta) -> np.ndarray:
    """WENO-Z weights alpha_m = d_m (1 + tau5/(beta_m + eps)), tau5 = |b0 - b2|."""
    tau5 = np.abs(beta[..., 0, :] - beta[..., 2, :])[..., None, :]
    alpha = LINEAR_WEIGHTS[:, None] * (1.0 + tau5 / (beta + WENO_EPS))
    return alpha / alpha.sum(axis=-2, keepdims=True)


def weno5_candidates(w) -> np.ndarray:
    """Left-state values of the three substencil polynomials on the
    substencil axis -2, (A_m a + B_m b + C_m c)/6 over the slices of
    ``_substencils``."""
    a, b, c = _substencils(w)
    return (_CAND_A * a + _CAND_B * b + _CAND_C * c) / 6.0


def _weno_lin_coeffs(om) -> np.ndarray:
    """Window coefficients of the frozen-weight left state, shape (..., 5, c)."""
    om0, om1, om2 = om[..., 0, :], om[..., 1, :], om[..., 2, :]
    lin = np.empty(om.shape[:-2] + (5,) + om.shape[-1:])
    lin[..., 0, :] = om0 / 3.0
    lin[..., 1, :] = -(7.0 * om0 + om1) / 6.0
    lin[..., 2, :] = (11.0 * om0 + 5.0 * om1 + 2.0 * om2) / 6.0
    lin[..., 3, :] = (2.0 * om1 + 5.0 * om2) / 6.0
    lin[..., 4, :] = -om2 / 6.0
    return lin


def _muscl_left(win, linearise: bool):
    """MUSCL/van Albada left state on the middle three window slots.

    The limited slope phi(r)*dm with r = dp/dm is evaluated in the symmetric
    form c*(dp + dm), c = dp*dm/(dp^2 + dm^2); the guard makes c approach
    the smooth-data value 1/2 on uniform windows, which is also the frozen
    coefficient the stability linearization uses.
    """
    dm = win[..., 2, :] - win[..., 1, :]
    dp = win[..., 3, :] - win[..., 2, :]
    eta = (1e-12 * (1.0 + np.abs(win[..., 2, :]))) ** 2
    c = (dp * dm + eta) / (dp * dp + dm * dm + 2.0 * eta)
    value = win[..., 2, :] + 0.5 * c * (dp + dm)
    if not linearise:
        return value, None
    lin = np.zeros(win.shape)
    lin[..., 1, :] = -0.5 * c
    lin[..., 2, :] = 1.0
    lin[..., 3, :] = 0.5 * c
    return value, lin


def _left_state(win, cfg: ReconConfig, linearise: bool = True):
    """Reconstructed left state and its linearization coefficients (None
    unless ``linearise``)."""
    win = np.asarray(win, dtype=float)
    if cfg.kind == "first":
        lin = None
        if linearise:
            lin = np.zeros(win.shape)
            lin[..., 2, :] = 1.0
        return win[..., 2, :].copy(), lin
    if cfg.kind == "muscl":
        return _muscl_left(win, linearise)
    beta = smoothness_indicators(win)
    if cfg.kind == "eno3":
        # single smoothest substencil per component
        om = np.zeros_like(beta)
        pick = np.argmin(beta, axis=-2)
        np.put_along_axis(om, pick[..., None, :], 1.0, axis=-2)
    elif cfg.weno_variant == "js":
        om = weights_js(beta)
    else:
        om = weights_z(beta)
    value = (om * weno5_candidates(win)).sum(axis=-2)
    return value, _weno_lin_coeffs(om) if linearise else None


def _admissible(W):
    """Primitive states W with positive density and pressure, every component finite."""
    f = np.isfinite(W)
    return (W[..., 0] > 0.0) & (W[..., 3] > 0.0) & (f[..., 0] & f[..., 1] & f[..., 2] & f[..., 3])


def _prim_soft(U):
    """Primitive states of U, never raising: 1 stands in for a density that is not positive."""
    rho = U[..., 0]
    return euler._primitive(U, np.where(rho > 0.0, rho, 1.0))


@dataclass
class FaceRecon:
    """Reconstructed states of a batch of faces plus the frozen linearization.

    ``W`` holds both states of every face on the side axis (..., 2F, 4),
    always primitive (ready for flux evaluation); ``lin`` acts on each row's
    window in the configured reconstruction space, which for the
    characteristic space is the projection by the face's ``Lmat`` (inverse
    ``Rmat``).  It is None when the reconstruction was asked for face states
    only.  ``fallback`` (..., F) flags the faces dropped to first order.
    """

    W: np.ndarray
    lin: np.ndarray | None
    Lmat: np.ndarray | None
    Rmat: np.ndarray | None
    space: str
    fallback: np.ndarray


def reconstruct_pair(
    win,
    cfg: ReconConfig,
    frame: FaceFrame,
    cap_cfg: ReconConfig | None = None,
    cap_mask=None,
    linearise: bool = True,
) -> FaceRecon:
    """Reconstruct both states of every face from its side-stacked windows
    (..., 2F, 5, 4): primitive states in the primitive space, else
    conservative ones.

    ``cap_mask`` (F,) selects faces whose order is capped (near-shock
    treatment); both rows of those faces are re-reconstructed with
    ``cap_cfg``, in the frame of the selected faces, and spliced in.  One
    mask serves every member of a batch.  ``linearise=False`` skips the
    frozen-weight coefficients, which only the stability assembly reads; the
    face states and the fallback mask are the same either way.
    """
    win = np.asarray(win, dtype=float)
    recon = _reconstruct_sides(win, cfg, frame, linearise)
    if cap_mask is not None and np.count_nonzero(cap_mask):
        batch = (slice(None),) * (win.ndim - 3)
        rows = batch + (np.tile(cap_mask, 2),)
        sub = _reconstruct_sides(win[rows], cap_cfg, frame.at(cap_mask), linearise)
        recon.W[rows] = sub.W
        if linearise:
            recon.lin[rows] = sub.lin
        recon.fallback[batch + (cap_mask,)] = sub.fallback
    return recon


def _reconstruct_sides(win, cfg, frame, linearise):
    n = win.shape[-3] // 2
    Lmat = Rmat = None
    X = win
    if cfg.space == "characteristic":
        W_c = euler.on_sides(euler.cons_to_prim, win[..., 2, :], "face cell")
        W_eval = 0.5 * (W_c[..., :n, :] + W_c[..., n:, :])
        Lmat, Rmat = euler.eigen_matrices(W_eval, frame)
        # one projection per face, broadcast over its two rows
        by_side = win.reshape(win.shape[:-3] + (2, n, 5, 4))
        X = np.einsum("...ab,...wb->...wa", Lmat[..., None, :, :, :], by_side)
        X = X.reshape(win.shape)

    Xs, lin = _left_state(X, cfg, linearise)

    if cfg.space == "conservative":
        W = _prim_soft(Xs)
    elif cfg.space == "primitive":
        W = Xs
    else:
        by_side = Xs.reshape(Xs.shape[:-2] + (2, n, 4))
        U = np.einsum("...ab,...b->...a", Rmat[..., None, :, :, :], by_side)
        W = _prim_soft(U.reshape(Xs.shape))
    ok = _admissible(W)

    fallback = ~(ok[..., :n] & ok[..., n:])
    if np.count_nonzero(fallback):
        # drop to first order at the offending faces: both states are the
        # adjacent cell means, the middle slot of either window
        rows = np.concatenate([fallback, fallback], axis=-1)
        if linearise:
            first = np.zeros(lin.shape[-2:])
            first[2] = 1.0
            lin[rows] = first
        cells = win[..., 2, :][rows]
        W[rows] = cells if cfg.space == "primitive" else euler.cons_to_prim(cells, "fallback")

    return FaceRecon(W=W, lin=lin, Lmat=Lmat, Rmat=Rmat, space=cfg.space, fallback=fallback)
