"""Interface flux functions: Roe (with eigenvalue smoothing), HLL, HLLC,
van Leer flux-vector splitting, and the (solver, order) parts of the
direction hybrids.

All solvers take primitive left/right states of shape (..., 4), broadcast
over leading axes, and return the numerical flux normal to the face.
"""

import numpy as np

from . import euler
from .errors import DegenerateFanError, InvalidStateError
from .euler import GAMMA, FaceFrame

SOLVER_KINDS = ("roe", "hll", "hllc", "van_leer", "hybrid-1", "hybrid-2")

# direction-hybrid schemes: (solver, order) per face family, where "normal"
# faces have their normal along the shock normal (x) and "transverse" faces
# along y
HYBRID_PARTS = {
    "hybrid-1": {"transverse": ("roe", 5), "normal": ("van_leer", 1)},
    "hybrid-2": {"transverse": ("van_leer", 1), "normal": ("roe", 5)},
}

# default quadratic floor applied to |eigenvalue| inside the Roe dissipation
ROE_DELTA0 = 1e-4


def smooth_abs(lam, delta0: float) -> np.ndarray:
    """|lam| with the C1 floor (lam^2 + delta0^2) / (2 delta0) below delta0."""
    a = np.abs(lam)
    return np.where(a >= delta0, a, (lam * lam + delta0 * delta0) / (2.0 * delta0))


def _normal_velocity(W, frame):
    return W[..., 1] * frame.nx + W[..., 2] * frame.ny


def roe_flux(WL, WR, frame: FaceFrame, delta0: float = ROE_DELTA0) -> np.ndarray:
    """Roe flux with the wave-strength dissipation form; |eigenvalues| pass
    through the quadratic smoothing floor."""
    WL = np.asarray(WL, dtype=float)
    WR = np.asarray(WR, dtype=float)
    FL = euler.exact_flux_w(WL, frame)
    FR = euler.exact_flux_w(WR, frame)

    sl = np.sqrt(WL[..., 0])
    sr = np.sqrt(WR[..., 0])
    wgt = sl / (sl + sr)
    u = wgt * WL[..., 1] + (1 - wgt) * WR[..., 1]
    v = wgt * WL[..., 2] + (1 - wgt) * WR[..., 2]
    g1 = GAMMA - 1.0
    hL = GAMMA * WL[..., 3] / (g1 * WL[..., 0]) + 0.5 * (WL[..., 1] ** 2 + WL[..., 2] ** 2)
    hR = GAMMA * WR[..., 3] / (g1 * WR[..., 0]) + 0.5 * (WR[..., 1] ** 2 + WR[..., 2] ** 2)
    h = wgt * hL + (1 - wgt) * hR
    c2 = g1 * (h - 0.5 * (u * u + v * v))
    if np.any(~(c2 > 0.0)):
        raise InvalidStateError("Roe average breakdown: non-positive c^2")
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
    a1 = (d_p - rho * c * d_q) / (2.0 * c2)
    a2 = d_rho - d_p / c2
    a3 = (d_p + rho * c * d_q) / (2.0 * c2)
    a4 = rho * d_ql

    l1 = smooth_abs(q - c, delta0) * a1
    l2 = smooth_abs(q, delta0) * a2
    l3 = smooth_abs(q + c, delta0) * a3
    l4 = smooth_abs(q, delta0) * a4

    diss = np.empty_like(FL)
    diss[..., 0] = l1 + l2 + l3
    diss[..., 1] = l1 * (u - c * nx) + l2 * u + l3 * (u + c * nx) + l4 * lx
    diss[..., 2] = l1 * (v - c * ny) + l2 * v + l3 * (v + c * ny) + l4 * ly
    diss[..., 3] = (
        l1 * (h - c * q) + l2 * 0.5 * (u * u + v * v) + l3 * (h + c * q) + l4 * ql
    )
    return 0.5 * (FL + FR) - 0.5 * diss


def davis_speeds(WL, WR, frame: FaceFrame):
    qL = _normal_velocity(WL, frame)
    qR = _normal_velocity(WR, frame)
    cL = euler.sound_speed(WL)
    cR = euler.sound_speed(WR)
    s_l = np.minimum(qL - cL, qR - cR)
    s_r = np.maximum(qL + cL, qR + cR)
    if np.any(s_r - s_l < 1e-12):
        raise DegenerateFanError("wave fan collapsed: S_R - S_L below 1e-12")
    return s_l, s_r


def hll_flux(WL, WR, frame: FaceFrame) -> np.ndarray:
    WL = np.asarray(WL, dtype=float)
    WR = np.asarray(WR, dtype=float)
    s_l, s_r = davis_speeds(WL, WR, frame)
    FL = euler.exact_flux_w(WL, frame)
    FR = euler.exact_flux_w(WR, frame)
    UL = euler.prim_to_cons(WL)
    UR = euler.prim_to_cons(WR)
    sl = s_l[..., None]
    sr = s_r[..., None]
    mid = (sr * FL - sl * FR + sl * sr * (UR - UL)) / (sr - sl)
    return np.where(sl >= 0.0, FL, np.where(sr <= 0.0, FR, mid))


def hllc_flux(WL, WR, frame: FaceFrame) -> np.ndarray:
    WL = np.asarray(WL, dtype=float)
    WR = np.asarray(WR, dtype=float)
    s_l, s_r = davis_speeds(WL, WR, frame)
    qL = _normal_velocity(WL, frame)
    qR = _normal_velocity(WR, frame)
    rhoL, pL = WL[..., 0], WL[..., 3]
    rhoR, pR = WR[..., 0], WR[..., 3]
    mL = rhoL * (s_l - qL)
    mR = rhoR * (s_r - qR)
    s_star = (pR - pL + qL * mL - qR * mR) / (mL - mR)

    FL = euler.exact_flux_w(WL, frame)
    FR = euler.exact_flux_w(WR, frame)
    UL = euler.prim_to_cons(WL)
    UR = euler.prim_to_cons(WR)

    def star_flux(W, U, F, s_k, q_k, m_k):
        rho, p = W[..., 0], W[..., 3]
        factor = m_k / (s_k - s_star)
        e = U[..., 3] / rho
        u_star = np.stack(
            [
                np.ones_like(rho),
                W[..., 1] + (s_star - q_k) * frame.nx,
                W[..., 2] + (s_star - q_k) * frame.ny,
                e + (s_star - q_k) * (s_star + p / m_k),
            ],
            axis=-1,
        )
        return F + s_k[..., None] * (factor[..., None] * u_star - U)

    FsL = star_flux(WL, UL, FL, s_l, qL, mL)
    FsR = star_flux(WR, UR, FR, s_r, qR, mR)
    sl = s_l[..., None]
    sr = s_r[..., None]
    ss = s_star[..., None]
    return np.where(
        sl >= 0.0, FL, np.where(sr <= 0.0, FR, np.where(ss >= 0.0, FsL, FsR))
    )


def van_leer_flux(WL, WR, frame: FaceFrame) -> np.ndarray:
    """Flux-vector splitting with the standard Mach polynomials; the split
    is fully one-sided for |M| >= 1."""
    WL = np.asarray(WL, dtype=float)
    WR = np.asarray(WR, dtype=float)
    g = GAMMA

    def split(W, sign):
        rho, u, v, p = W[..., 0], W[..., 1], W[..., 2], W[..., 3]
        c = euler.sound_speed(W)
        q = u * frame.nx + v * frame.ny
        m = q / c
        fm = sign * 0.25 * rho * c * (m + sign) ** 2
        vel = (-q + sign * 2.0 * c) / g
        fu = fm * (u + frame.nx * vel)
        fv = fm * (v + frame.ny * vel)
        fe = fm * (
            ((g - 1.0) * q + sign * 2.0 * c) ** 2 / (2.0 * (g * g - 1.0))
            + 0.5 * (u * u + v * v - q * q)
        )
        sub = np.stack([fm, fu, fv, fe], axis=-1)
        full = euler.exact_flux_w(W, frame)
        zero = np.zeros_like(sub)
        m_ = m[..., None]
        if sign > 0:
            return np.where(m_ >= 1.0, full, np.where(m_ <= -1.0, zero, sub))
        return np.where(m_ <= -1.0, full, np.where(m_ >= 1.0, zero, sub))

    return split(WL, +1.0) + split(WR, -1.0)


def compute_flux(kind: str, WL, WR, frame: FaceFrame, delta0: float = ROE_DELTA0) -> np.ndarray:
    if kind == "roe":
        return roe_flux(WL, WR, frame, delta0)
    try:
        flux = {"hll": hll_flux, "hllc": hllc_flux, "van_leer": van_leer_flux}[kind]
    except KeyError:
        raise ValueError(f"unknown solver kind {kind!r}") from None
    return flux(WL, WR, frame)
