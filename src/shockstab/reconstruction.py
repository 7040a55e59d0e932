"""Face-state reconstruction: first order, MUSCL/van Albada, WENO5 (JS/Z), ENO3.

A face between cells i and i+1 owns two reconstructed states.  The left state
uses the window (i-2 .. i+2), the right state the window (i+3 .. i-1): the
right state is the left state of the mirrored window.  Windows are five cell
states of shape (..., 5, 4).  A batch of F faces of any orientation comes on
one side axis, windows (..., 2F, 5, 4) behind the field's batch axes: the
left windows, then the right windows mirrored, gathered along each face's
normal by ``fields.face_table``, so that one left-state formula
reconstructs every row.  Beside the windows come the cells (..., 2F, 4),
the primitive state of each row's own cell, slot 2 of its window, as
``fields.apply_boundaries`` converted and checked it: this module converts
no cell.  A first-order face state is that cell in every space (R L = I):
a first-order part (``reads_cells``) takes only the cells, and it, a
first-order cap and the positivity fallback take their states through
``_cell_states``; the characteristic frame of a face is evaluated at the
mean of its two cells.  The ``FaceFrame`` holds one normal per face.

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
_BETA = tuple(np.array(c, dtype=float)[:, None] for c in ((1, 1, 3), (-4, 0, -4), (3, -1, 1)))
_CAND = tuple(np.array(c, dtype=float)[:, None] for c in ((2, -1, 2), (-7, 5, 5), (11, 2, -1)))


def _combine(coeffs, slices) -> np.ndarray:
    """A a + B b + C c of the coefficient columns (A, B, C) and the
    substencil slices (a, b, c), added in that order in two buffers."""
    (A, B, C), (a, b, c) = coeffs, slices
    out = A * a
    tmp = B * b
    out += tmp
    np.multiply(C, c, out=tmp)
    out += tmp
    return out


def smoothness_indicators(w) -> np.ndarray:
    """The three quadratic smoothness measures of 5-point windows.

    ``w`` has shape (..., 5, comps); returns the betas on the substencil
    axis -2, shape (..., 3, comps), each formula formed over the slices of
    ``_substencils`` in place, in the order of
    beta_m = 13/12 (a - 2b + c)^2 + 1/4 (A_m a + B_m b + C_m c)^2.
    """
    slices = a, b, c = _substencils(w)
    beta = 2 * b
    np.subtract(a, beta, out=beta)
    beta += c
    np.square(beta, out=beta)
    beta *= 13.0 / 12.0
    slope = _combine(_BETA, slices)
    np.square(slope, out=slope)
    slope *= 0.25
    beta += slope
    return beta


def weights_js(beta) -> np.ndarray:
    """Classic nonlinear weights alpha_m = d_m / (beta_m + eps)^2, normalized
    over the substencil axis -2."""
    alpha = beta + WENO_EPS
    np.square(alpha, out=alpha)
    np.divide(LINEAR_WEIGHTS[:, None], alpha, out=alpha)
    alpha /= alpha.sum(axis=-2, keepdims=True)
    return alpha


def weights_z(beta) -> np.ndarray:
    """WENO-Z weights alpha_m = d_m (1 + tau5/(beta_m + eps)), tau5 = |b0 - b2|."""
    tau5 = np.abs(beta[..., 0, :] - beta[..., 2, :])[..., None, :]
    alpha = beta + WENO_EPS
    np.divide(tau5, alpha, out=alpha)
    alpha += 1.0
    alpha *= LINEAR_WEIGHTS[:, None]
    alpha /= alpha.sum(axis=-2, keepdims=True)
    return alpha


def weno5_candidates(w) -> np.ndarray:
    """Left-state values of the three substencil polynomials on the
    substencil axis -2, (A_m a + B_m b + C_m c)/6 over the slices of
    ``_substencils``."""
    cand = _combine(_CAND, _substencils(w))
    cand /= 6.0
    return cand


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


def _left_state(win, cfg: ReconConfig, *, linearise: bool):
    """Reconstructed left state of MUSCL, WENO5 or ENO3 windows and its
    linearization coefficients (None unless ``linearise``)."""
    win = np.asarray(win, dtype=float)
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
    cand = weno5_candidates(win)
    cand *= om
    return cand.sum(axis=-2), _weno_lin_coeffs(om) if linearise else None


@dataclass
class FaceRecon:
    """Reconstructed states of a batch of faces plus the frozen linearization.

    ``W`` holds both states of every face on the side axis (..., 2F, 4),
    always primitive (ready for flux evaluation); ``lin`` acts on each row's
    window in the variables of ``space`` (a first-order part reports the
    conservative space outside the primitive one), for the characteristic
    space the projection by the face's ``Lmat`` (inverse ``Rmat``), and is
    None when only face states were asked for.  ``fallback`` (..., F) flags
    the faces dropped to first order.
    """

    W: np.ndarray
    lin: np.ndarray | None
    Lmat: np.ndarray | None
    Rmat: np.ndarray | None
    space: str
    fallback: np.ndarray


def reads_cells(cfg: ReconConfig) -> bool:
    """True when a part's face states are the cells next to its faces,
    window slot 2: at first order, in every space.  A first-order part
    carries no cap (``Scheme.parts``)."""
    return cfg.kind == "first"


def reconstruct_pair(
    win,
    cells,
    cfg: ReconConfig,
    frame: FaceFrame,
    cap_cfg: ReconConfig | None,
    cap_mask,
    *,
    linearise: bool,
) -> FaceRecon:
    """Reconstruct both states of every face from its side-stacked slots:
    ``cells`` (..., 2F, 4), the primitive state of each row's own cell
    (window slot 2), and ``win``, what the part reads, the windows
    (..., 2F, 5, 4) in the window variables of its space, or its ``cells``
    where ``reads_cells``.  The window variables are primitive in the
    primitive space, else conservative.

    ``cap_mask`` (F,), the near-shock zone, selects the faces whose order
    the ``cap_cfg`` of a part that has a cap lowers; without a cap (None)
    the mask is not read.  Both rows of those faces are reconstructed with
    ``cap_cfg`` (at first order from their cells), in the frame of the
    selected faces, and spliced in.  One mask serves every member of a
    batch.  ``linearise=False`` skips the frozen-weight coefficients, which
    only the stability assembly reads; the face states and the fallback
    mask are the same either way.
    """
    win = np.asarray(win, dtype=float)
    recon = _reconstruct_sides(win, cells, cfg, frame, linearise)
    if cap_cfg is not None and np.count_nonzero(cap_mask):
        batch = (slice(None),) * (cells.ndim - 2)
        rows = batch + (np.tile(cap_mask, 2),)
        sub = _reconstruct_sides(win[rows], cells[rows], cap_cfg, frame.at(cap_mask), linearise)
        recon.W[rows] = sub.W
        if linearise:
            recon.lin[rows] = sub.lin
        recon.fallback[batch + (cap_mask,)] = sub.fallback
    return recon


def _cell_states(cells, space, linearise):
    """First-order states of the face rows whose own cells have the primitive
    states ``cells`` (..., R, 4): the cells themselves, with the coefficient
    1 on slot 2 in every space.  No face falls back."""
    lin = np.zeros(cells.shape[:-1] + (5, 4)) if linearise else None
    if linearise:
        lin[..., 2, :] = 1.0
    fallback = np.zeros(cells.shape[:-2] + (cells.shape[-2] // 2,), dtype=bool)
    space = "primitive" if space == "primitive" else "conservative"
    return FaceRecon(W=cells, lin=lin, Lmat=None, Rmat=None, space=space, fallback=fallback)


def _project(M, X):
    """The products M x of matrices M (..., 4, 4) and states X (..., 4) that
    broadcast against them, as four column products summed (0 + 2) + (1 + 3).
    That is the order in which ``np.einsum`` summed them on NumPy 2.4, with
    which the recorded characteristic-space results were computed; written
    out, the bits no longer depend on einsum's choice of kernel."""
    t0, t1, t2, t3 = (M[..., b] * X[..., b, None] for b in range(4))
    t0 += t2
    t1 += t3
    t0 += t1
    return t0


def _reconstruct_sides(win, cells, cfg, frame, linearise):
    if reads_cells(cfg):
        return _cell_states(cells, cfg.space, linearise)
    n = win.shape[-3] // 2
    Lmat = Rmat = None
    X = win
    if cfg.space == "characteristic":
        W_eval = 0.5 * (cells[..., :n, :] + cells[..., n:, :])
        Lmat, Rmat = euler.eigen_matrices(W_eval, frame)
        # one projection per face, broadcast over its two rows and five slots
        by_side = win.reshape(win.shape[:-3] + (2, n, 5, 4))
        X = _project(Lmat[..., None, :, None, :, :], by_side).reshape(win.shape)

    Xs, lin = _left_state(X, cfg, linearise=linearise)

    if cfg.space == "conservative":
        W = euler.soft_primitive(Xs)
    elif cfg.space == "primitive":
        W = Xs
    else:
        by_side = Xs.reshape(Xs.shape[:-2] + (2, n, 4))
        U = _project(Rmat[..., None, :, :, :], by_side)
        W = euler.soft_primitive(U.reshape(Xs.shape))
    ok = euler.admissible(W, 0.0, 0.0)

    fallback = ~(ok[..., :n] & ok[..., n:])
    if np.count_nonzero(fallback):
        # drop to first order at the offending faces: both states are the
        # adjacent cells, the middle slot of either window
        rows = np.concatenate([fallback, fallback], axis=-1)
        first = _cell_states(cells[rows], cfg.space, linearise)
        W[rows] = first.W
        if linearise:
            lin[rows] = first.lin

    return FaceRecon(W=W, lin=lin, Lmat=Lmat, Rmat=Rmat, space=cfg.space, fallback=fallback)
