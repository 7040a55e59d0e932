"""Interface flux functions: Roe (with eigenvalue smoothing), HLL, HLLC and
van Leer flux-vector splitting, looked up by name in ``FLUXES``.

All solvers take the primitive left and right states of F faces
side-stacked, (..., 2F, 4), and return the numerical flux normal to each
face, (..., F, 4).  Per-side quantities (exact flux, sound speed, normal
velocity; Roe's sqrt(rho) and enthalpy; van Leer's split with a +1/-1 side
sign) are computed once over the whole side axis, a bad state named by its
(side, face); face-level work reads the two halves.  HLLC picks each face's
side of the wave fan first and builds that side's star state only.
"""

import functools

import numpy as np

from . import euler
from .errors import DegenerateFanError, InvalidStateError
from .euler import GAMMA, FaceFrame

# quadratic floor applied to |eigenvalue| inside the Roe dissipation
ROE_DELTA0 = 1e-4


def smooth_abs(lam, delta0: float) -> np.ndarray:
    """|lam| with the C1 floor (lam^2 + delta0^2) / (2 delta0) below delta0."""
    a = np.abs(lam)
    return np.where(a >= delta0, a, (lam * lam + delta0 * delta0) / (2.0 * delta0))


def _normal_velocity(W, frame):
    return W[..., 1] * frame.nx + W[..., 2] * frame.ny


def roe_flux(W, frame: FaceFrame) -> np.ndarray:
    """Roe flux with the wave-strength dissipation form; |eigenvalues| pass
    through the quadratic smoothing floor ``ROE_DELTA0``."""
    W = np.asarray(W, dtype=float)
    n = W.shape[-2] // 2
    F = euler.exact_flux_w(W, frame.sides)
    g1 = GAMMA - 1.0
    s = np.sqrt(W[..., 0])
    h_side = GAMMA * W[..., 3] / (g1 * W[..., 0]) + 0.5 * (W[..., 1] ** 2 + W[..., 2] ** 2)

    WL, WR = W[..., :n, :], W[..., n:, :]
    sl, sr = s[..., :n], s[..., n:]
    wgt = sl / (sl + sr)
    rest = 1 - wgt
    u = wgt * WL[..., 1] + rest * WR[..., 1]
    v = wgt * WL[..., 2] + rest * WR[..., 2]
    h = wgt * h_side[..., :n] + rest * h_side[..., n:]
    v2 = u * u + v * v
    c2 = g1 * (h - 0.5 * v2)
    ok = c2 > 0.0
    if np.count_nonzero(ok) < ok.size:
        raise InvalidStateError(
            euler._describe_bad(~ok, "Roe average breakdown: non-positive c^2", "face"))
    c = np.sqrt(c2)
    rho = sl * sr
    nx, ny, lx, ly = frame.nx, frame.ny, frame.lx, frame.ly
    q = u * nx + v * ny
    ql = u * lx + v * ly

    # primitive-difference wave strengths are exact for the Roe average
    d_rho = WR[..., 0] - WL[..., 0]
    d_u = WR[..., 1] - WL[..., 1]
    d_v = WR[..., 2] - WL[..., 2]
    d_p = WR[..., 3] - WL[..., 3]
    d_q = d_u * nx + d_v * ny
    d_ql = d_u * lx + d_v * ly
    rcd_q = rho * c * d_q
    two_c2 = 2.0 * c2
    a1 = (d_p - rcd_q) / two_c2
    a2 = d_rho - d_p / c2
    a3 = (d_p + rcd_q) / two_c2
    a4 = rho * d_ql

    abs_q = smooth_abs(q, ROE_DELTA0)
    l1 = smooth_abs(q - c, ROE_DELTA0) * a1
    l2 = abs_q * a2
    l3 = smooth_abs(q + c, ROE_DELTA0) * a3
    l4 = abs_q * a4

    c_nx, c_ny, c_q = c * nx, c * ny, c * q
    diss = np.empty(q.shape + (4,))
    diss[..., 0] = l1 + l2 + l3
    diss[..., 1] = l1 * (u - c_nx) + l2 * u + l3 * (u + c_nx) + l4 * lx
    diss[..., 2] = l1 * (v - c_ny) + l2 * v + l3 * (v + c_ny) + l4 * ly
    diss[..., 3] = (
        l1 * (h - c_q) + l2 * 0.5 * v2 + l3 * (h + c_q) + l4 * ql
    )
    return 0.5 * (F[..., :n, :] + F[..., n:, :]) - 0.5 * diss


def davis_speeds(qL, cL, qR, cR):
    """Davis estimates (S_L, S_R) of the outer waves from the normal
    velocities and sound speeds of both sides."""
    s_l = np.minimum(qL - cL, qR - cR)
    s_r = np.maximum(qL + cL, qR + cR)
    collapsed = s_r - s_l < 1e-12
    if np.count_nonzero(collapsed):
        raise DegenerateFanError(
            euler._describe_bad(collapsed, "wave fan collapsed: S_R - S_L below 1e-12", "face"))
    return s_l, s_r


def _side_speeds(W, frame):
    """Normal velocity of every side, then the Davis speeds of every face."""
    n = W.shape[-2] // 2
    q = _normal_velocity(W, frame.sides)
    c = euler.on_sides(euler.sound_speed, W)
    return q, *davis_speeds(q[..., :n], c[..., :n], q[..., n:], c[..., n:])


def hll_flux(W, frame: FaceFrame) -> np.ndarray:
    W = np.asarray(W, dtype=float)
    n = W.shape[-2] // 2
    _, s_l, s_r = _side_speeds(W, frame)
    F = euler.exact_flux_w(W, frame.sides)
    U = euler.prim_to_cons(W)
    FL, FR = F[..., :n, :], F[..., n:, :]
    sl = s_l[..., None]
    sr = s_r[..., None]
    mid = (sr * FL - sl * FR + sl * sr * (U[..., n:, :] - U[..., :n, :])) / (sr - sl)
    return np.where(sl >= 0.0, FL, np.where(sr <= 0.0, FR, mid))


def hllc_flux(W, frame: FaceFrame) -> np.ndarray:
    """HLLC flux: each face takes F_K or the star flux F*_K of one side K,
    the side of the wave fan that the face sits in."""
    W = np.asarray(W, dtype=float)
    n = W.shape[-2] // 2
    q_side, s_l, s_r = _side_speeds(W, frame)
    WL, WR = W[..., :n, :], W[..., n:, :]
    qL, qR = q_side[..., :n], q_side[..., n:]
    mL = WL[..., 0] * (s_l - qL)
    mR = WR[..., 0] * (s_r - qR)
    s_star = (WR[..., 3] - WL[..., 3] + qL * mL - qR * mR) / (mL - mR)

    # F_L if S_L >= 0, else F_R if S_R <= 0, else F*_L if S* >= 0, else F*_R
    left_out = s_l >= 0.0
    right_in = ~(s_r <= 0.0)
    fan = ~left_out & right_in
    left = left_out | (right_in & (s_star >= 0.0))
    W = np.where(left[..., None], WL, WR)
    q = np.where(left, qL, qR)
    s_k = np.where(left, s_l, s_r)
    m_k = np.where(left, mL, mR)
    F = euler.exact_flux_w(W, frame)
    U = euler.prim_to_cons(W)

    rho, p = W[..., 0], W[..., 3]
    factor = m_k / (s_k - s_star)
    d_q = s_star - q
    u_star = np.empty(s_star.shape + (4,))
    u_star[..., 0] = 1.0
    u_star[..., 1] = W[..., 1] + d_q * frame.nx
    u_star[..., 2] = W[..., 2] + d_q * frame.ny
    u_star[..., 3] = U[..., 3] / rho + d_q * (s_star + p / m_k)
    star = F + s_k[..., None] * (factor[..., None] * u_star - U)
    return np.where(fan[..., None], star, F)


@functools.lru_cache(maxsize=None)
def _side_signs(n):
    """The side arrays +-1, +-0.25 and +-2 of a side axis of n faces, + on
    the left states and - on the right, built once per face count."""
    sign = np.repeat([1.0, -1.0], n)
    arrays = sign, sign * 0.25, sign * 2.0
    for a in arrays:
        a.flags.writeable = False  # shared by every call
    return arrays


def van_leer_flux(W, frame: FaceFrame) -> np.ndarray:
    """Flux-vector splitting with the standard Mach polynomials, F+ of the
    left state plus F- of the right; fully one-sided for |M| >= 1."""
    W = np.asarray(W, dtype=float)
    n = W.shape[-2] // 2
    g = GAMMA
    sides = frame.sides
    sign, quarter, two = _side_signs(n)
    rho, u, v = W[..., 0], W[..., 1], W[..., 2]
    c = euler.on_sides(euler.sound_speed, W)
    q = _normal_velocity(W, sides)
    m = q / c
    fm = quarter * rho * c * (m + sign) ** 2
    two_c = two * c
    vel = (-q + two_c) / g
    sub = np.empty(fm.shape + (4,))
    sub[..., 0] = fm
    sub[..., 1] = fm * (u + sides.nx * vel)
    sub[..., 2] = fm * (v + sides.ny * vel)
    sub[..., 3] = fm * (
        ((g - 1.0) * q + two_c) ** 2 / (2.0 * (g * g - 1.0))
        + 0.5 * (u * u + v * v - q * q)
    )
    full = euler.exact_flux_w(W, sides)
    # the side's own Mach number: sign * m >= 1 flows wholly out of it
    sm = (sign * m)[..., None]
    split = np.where(sm >= 1.0, full, np.where(sm <= -1.0, 0.0, sub))
    return split[..., :n, :] + split[..., n:, :]


FLUXES = {"roe": roe_flux, "hll": hll_flux, "hllc": hllc_flux, "van_leer": van_leer_flux}


def compute_flux(kind: str, W, frame: FaceFrame) -> np.ndarray:
    try:
        flux = FLUXES[kind]
    except KeyError:
        raise ValueError(f"unknown solver kind {kind!r}") from None
    return flux(W, frame)
