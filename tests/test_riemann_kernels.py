"""The flux kernels of ``riemann`` against the branch-per-side kernels they
replaced, kept here as the reference: every branch (both exact fluxes, both
HLLC star fluxes, both van Leer split fluxes) built at every face and one
kept with nested ``np.where``, with the left and the right states held
apart.  The rewritten kernels take both on one side axis, build one upwind
state per face and must give the same bits.  The reference names a bad
state by (side, face) as they do."""

import numpy as np
import pytest

from shockstab import euler, riemann
from shockstab.errors import DegenerateFanError, InvalidStateError
from shockstab.euler import GAMMA, FaceFrame, X_FACE
from shockstab.fields import face_table

from euler_reference import exact_flux_w
from side_axis import side_states
from test_euler import random_states


def _normal_velocity(W, frame):
    return W[..., 1] * frame.nx + W[..., 2] * frame.ny


def ref_sound_speeds(WL, WR):
    """Both sides' sound speeds; a bad state is named by its (side, face)."""
    c = euler.sound_speed(np.stack([WL, WR], axis=-3))
    return c[..., 0, :], c[..., 1, :]


def ref_roe_flux(WL, WR, frame):
    WL = np.asarray(WL, dtype=float)
    WR = np.asarray(WR, dtype=float)
    FL = exact_flux_w(WL, frame)
    FR = exact_flux_w(WR, frame)

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
        raise InvalidStateError(
            euler._describe_bad(~(c2 > 0.0), "Roe average breakdown: non-positive c^2", "face"))
    c = np.sqrt(c2)
    rho = sl * sr
    nx, ny, lx, ly = frame.nx, frame.ny, frame.lx, frame.ly
    q = u * nx + v * ny
    ql = u * lx + v * ly

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

    l1 = riemann.smooth_abs(q - c) * a1
    l2 = riemann.smooth_abs(q) * a2
    l3 = riemann.smooth_abs(q + c) * a3
    l4 = riemann.smooth_abs(q) * a4

    diss = np.empty_like(FL)
    diss[..., 0] = l1 + l2 + l3
    diss[..., 1] = l1 * (u - c * nx) + l2 * u + l3 * (u + c * nx) + l4 * lx
    diss[..., 2] = l1 * (v - c * ny) + l2 * v + l3 * (v + c * ny) + l4 * ly
    diss[..., 3] = (
        l1 * (h - c * q) + l2 * 0.5 * (u * u + v * v) + l3 * (h + c * q) + l4 * ql
    )
    return 0.5 * (FL + FR) - 0.5 * diss


def ref_davis_speeds(WL, WR, frame):
    cL, cR = ref_sound_speeds(WL, WR)
    qL = _normal_velocity(WL, frame)
    qR = _normal_velocity(WR, frame)
    s_l = np.minimum(qL - cL, qR - cR)
    s_r = np.maximum(qL + cL, qR + cR)
    if np.any(s_r - s_l < 1e-12):
        raise DegenerateFanError(
            euler._describe_bad(s_r - s_l < 1e-12, "wave fan collapsed: S_R - S_L below 1e-12", "face"))
    return s_l, s_r


def ref_hll_flux(WL, WR, frame):
    WL = np.asarray(WL, dtype=float)
    WR = np.asarray(WR, dtype=float)
    s_l, s_r = ref_davis_speeds(WL, WR, frame)
    FL = exact_flux_w(WL, frame)
    FR = exact_flux_w(WR, frame)
    UL = euler.prim_to_cons(WL)
    UR = euler.prim_to_cons(WR)
    sl = s_l[..., None]
    sr = s_r[..., None]
    mid = (sr * FL - sl * FR + sl * sr * (UR - UL)) / (sr - sl)
    return np.where(sl >= 0.0, FL, np.where(sr <= 0.0, FR, mid))


def ref_hllc_flux(WL, WR, frame):
    WL = np.asarray(WL, dtype=float)
    WR = np.asarray(WR, dtype=float)
    s_l, s_r = ref_davis_speeds(WL, WR, frame)
    qL = _normal_velocity(WL, frame)
    qR = _normal_velocity(WR, frame)
    rhoL, pL = WL[..., 0], WL[..., 3]
    rhoR, pR = WR[..., 0], WR[..., 3]
    mL = rhoL * (s_l - qL)
    mR = rhoR * (s_r - qR)
    s_star = (pR - pL + qL * mL - qR * mR) / (mL - mR)

    FL = exact_flux_w(WL, frame)
    FR = exact_flux_w(WR, frame)
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


def ref_van_leer_flux(WL, WR, frame):
    WL = np.asarray(WL, dtype=float)
    WR = np.asarray(WR, dtype=float)
    g = GAMMA

    def split(W, sign, c):
        rho, u, v, p = W[..., 0], W[..., 1], W[..., 2], W[..., 3]
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
        full = exact_flux_w(W, frame)
        zero = np.zeros_like(sub)
        m_ = m[..., None]
        if sign > 0:
            return np.where(m_ >= 1.0, full, np.where(m_ <= -1.0, zero, sub))
        return np.where(m_ <= -1.0, full, np.where(m_ >= 1.0, zero, sub))

    cL, cR = ref_sound_speeds(WL, WR)
    return split(WL, +1.0, cL) + split(WR, -1.0, cR)


KERNELS = {
    "roe": (riemann.roe_flux, ref_roe_flux),
    "hll": (riemann.hll_flux, ref_hll_flux),
    "hllc": (riemann.hllc_flux, ref_hllc_flux),
    "van_leer": (riemann.van_leer_flux, ref_van_leer_flux),
}

F = 96  # faces per case; a multiple of 6 so the pair families split evenly


def _bits(a):
    return np.ascontiguousarray(a, dtype=np.float64).view(np.int64)


def _pairs(rng, n):
    """(n, 4) left and right primitive states: subsonic and supersonic
    random pairs, pure contacts (equal u, v and p), identical states, and
    supersonic pairs running to the right and to the left."""
    m = n // 6
    sub = random_states(rng, 2 * m, (0.0, 0.9))
    sup = random_states(rng, 2 * m, (1.1, 3.0))
    contact = random_states(rng, m, (0.0, 2.0))
    contact_r = contact.copy()
    contact_r[:, 0] *= rng.uniform(0.2, 5.0, m)
    same = random_states(rng, m, (0.0, 2.5))

    def running(sign):
        W = random_states(rng, 2 * m, (0.0, 0.5))
        c = np.sqrt(GAMMA * W[:, 3] / W[:, 0])
        W[:, 1] = sign * rng.uniform(1.5, 4.0, 2 * m) * c
        return W[:m], W[m:]

    (rl, rr), (ll, lr) = running(+1.0), running(-1.0)
    WL = np.concatenate([sub[:m], sup[:m], contact, same, rl, ll])
    WR = np.concatenate([sub[m:], sup[m:], contact_r, same, rr, lr])
    return WL, WR


def _frames(rng):
    a = rng.uniform(0.0, 2 * np.pi, F)
    return {
        "x": X_FACE,
        "oblique": FaceFrame(np.cos(0.7), np.sin(0.7)),
        "per-face": FaceFrame(np.cos(a), np.sin(a)),
    }


@pytest.mark.parametrize("kind", list(KERNELS))
@pytest.mark.parametrize("frame_name", ["x", "oblique", "per-face"])
def test_kernel_matches_reference_bit_for_bit(kind, frame_name):
    rng = np.random.default_rng(100)
    frame = _frames(rng)[frame_name]
    new, ref = KERNELS[kind]
    WL, WR = _pairs(rng, F)
    WL2, WR2 = _pairs(rng, F)
    cases = [(WL, WR), (np.stack([WL, WL2]), np.stack([WR, WR2]))]
    if frame_name != "per-face":
        cases += [(WL[f : f + 1], WR[f : f + 1]) for f in range(0, F, 7)]  # single faces
    for a, b in cases:
        got, want = new(side_states(a, b), frame), ref(a, b, frame)
        assert got.shape == want.shape
        assert np.array_equal(_bits(got), _bits(want)), kind


def test_hllc_picks_every_branch():
    # the pair families reach all four HLLC branches: F_L, F*_L, F*_R, F_R
    WL, WR = _pairs(np.random.default_rng(101), F)
    qL, qR = WL[:, 1], WR[:, 1]
    cL = euler.sound_speed(WL)
    cR = euler.sound_speed(WR)
    s_l, s_r = riemann.davis_speeds(qL, cL, qR, cR)
    mL = WL[:, 0] * (s_l - qL)
    mR = WR[:, 0] * (s_r - qR)
    s_star = (WR[:, 3] - WL[:, 3] + qL * mL - qR * mR) / (mL - mR)
    fan = (s_l < 0.0) & (s_r > 0.0)
    assert (s_l >= 0.0).any() and (s_r <= 0.0).any()
    assert (fan & (s_star >= 0.0)).any() and (fan & (s_star < 0.0)).any()


def test_face_table_frame_matches_reference():
    # the mixed x/y normals of a real face batch
    table = face_table(4, 3, ("x", "y"), None)
    n = table.frame.nx.size
    rng = np.random.default_rng(102)
    WL, WR = _pairs(rng, 6 * (n // 6 + 1))
    for kind, (new, ref) in KERNELS.items():
        got = new(side_states(WL[:n], WR[:n]), table.frame)
        assert np.array_equal(_bits(got), _bits(ref(WL[:n], WR[:n], table.frame))), kind


def _raised(fn, *args):
    """The type and the text of the error ``fn(*args)`` raises."""
    with pytest.raises((InvalidStateError, DegenerateFanError)) as info:
        fn(*args)
    return info.type, str(info.value)


@pytest.mark.parametrize("kind", list(KERNELS))
def test_kernel_errors_match_reference(kind):
    new, ref = KERNELS[kind]
    good = random_states(np.random.default_rng(103), 8, (0.0, 2.0))
    bad = good.copy()
    bad[5, 0] = -1.0  # negative density at one face
    cases = [(bad, good), (good, bad)]
    if kind in ("hll", "hllc"):
        flat = np.tile([1.0, 1.0, 0.0, 1e-30], (8, 1))  # c ~ 1e-15: the fan collapses
        cases.append((flat, flat))
    with np.errstate(invalid="ignore"):  # Roe's sqrt of the negative density
        for side, (WL, WR) in enumerate(cases):
            raised = _raised(new, side_states(WL, WR), X_FACE)
            assert raised == _raised(ref, WL, WR, X_FACE)
            if kind != "roe" and side < 2:
                # a side's own state is named by (side, face), not by its row 8 + 5
                assert raised[1].endswith(f"({side}, 5)"), raised
