import numpy as np
import pytest

from shockstab import euler, riemann
from shockstab.errors import DegenerateFanError, InvalidStateError
from shockstab.euler import FaceFrame, X_FACE
from shockstab.scheme import Scheme

from euler_reference import exact_flux_w
from side_axis import face_flux
from test_euler import random_frames, random_states

ALL_SOLVERS = ["roe", "hll", "hllc", "van_leer"]


def flux(kind, WL, WR, frame=X_FACE):
    return face_flux(lambda W, f: riemann.compute_flux(kind, W, f), WL, WR, frame)


def rh_pair(m0=20.0):
    """Exact steady-shock pair: both-side fluxes agree."""
    from shockstab.shock_problem import jump_ratios

    f, g = jump_ratios(m0)
    WL = np.array([1.4, m0, 0.0, 1.0])
    WR = np.array([1.4 * f, m0 / f, 0.0, g])
    return WL, WR


@pytest.mark.parametrize("kind", ALL_SOLVERS)
def test_consistency_random_states(kind):
    rng = np.random.default_rng(10)
    W = random_states(rng, 1000)
    F = flux(kind, W, W)
    exact = exact_flux_w(W, X_FACE)
    scale = np.abs(exact).max(axis=-1, keepdims=True) + 1e-30
    assert np.max(np.abs(F - exact) / scale) < 1e-12


@pytest.mark.parametrize("kind", ALL_SOLVERS)
def test_full_upwind_supersonic(kind):
    rng = np.random.default_rng(11)
    rho = rng.uniform(0.5, 2.0, 50)
    p = rng.uniform(0.5, 2.0, 50)
    c = np.sqrt(euler.GAMMA * p / rho)
    u = rng.uniform(1.5, 4.0, 50) * c  # q - c > 0 strictly
    WL = np.stack([rho, u, 0.2 * c, p], axis=-1)
    WR = WL * rng.uniform(0.95, 1.05, (50, 4))
    WR[:, 1] = np.maximum(WR[:, 1], 1.2 * np.sqrt(euler.GAMMA * WR[:, 3] / WR[:, 0]))
    F = flux(kind, WL, WR)
    exact = exact_flux_w(WL, X_FACE)
    assert np.allclose(F, exact, rtol=1e-10, atol=1e-10)


@pytest.mark.parametrize("kind", ALL_SOLVERS)
def test_rotation_equivariance(kind):
    rng = np.random.default_rng(12)
    for _ in range(10):
        WL = random_states(rng, 1, (0.0, 2.0))[0]
        WR = random_states(rng, 1, (0.0, 2.0))[0]
        frame = random_frames(rng, 1)[0]
        a = rng.uniform(0, 2 * np.pi)
        ca, sa = np.cos(a), np.sin(a)

        def rot(W):
            return np.array([W[0], ca * W[1] - sa * W[2], sa * W[1] + ca * W[2], W[3]])

        frame2 = FaceFrame(ca * frame.nx - sa * frame.ny, sa * frame.nx + ca * frame.ny)
        F = flux(kind, WL, WR, frame)
        F2 = flux(kind, rot(WL), rot(WR), frame2)
        expect = np.array([F[0], ca * F[1] - sa * F[2], sa * F[1] + ca * F[2], F[3]])
        assert np.allclose(F2, expect, rtol=1e-10, atol=1e-10), kind


def test_roe_steady_shock_flux_equality(monkeypatch):
    # both exact fluxes agree across the jump; with the smoothing floor made
    # negligible, Roe must return that common value
    monkeypatch.setattr(riemann, "ROE_DELTA0", 1e-13)
    WL, WR = rh_pair()
    FL = exact_flux_w(WL, X_FACE)
    FR = exact_flux_w(WR, X_FACE)
    assert np.allclose(FL, FR, rtol=1e-12)
    F = face_flux(riemann.roe_flux, WL, WR, X_FACE)
    assert np.max(np.abs(F - FL)) < 1e-8 * np.abs(FL).max()


def test_roe_smoothing_perturbs_steady_shock_at_default_delta():
    # the quadratic floor at delta0=1e-4 intentionally adds dissipation at
    # the vanishing eigenvalue; the steady-shock flux is no longer exact
    assert riemann.ROE_DELTA0 == 1e-4
    WL, WR = rh_pair()
    FL = exact_flux_w(WL, X_FACE)
    F = face_flux(riemann.roe_flux, WL, WR, X_FACE)
    dev = np.max(np.abs(F - FL))
    assert 1e-8 < dev < 1.0


def test_hll_dissipates_steady_shock():
    # HLL with Davis speeds smears a steady shock: its flux differs from the
    # common exact flux by the S_L S_R (U_R-U_L)/(S_R-S_L) term
    WL, WR = rh_pair()
    s_l, s_r = riemann.davis_speeds(
        WL[1], euler.sound_speed(WL), WR[1], euler.sound_speed(WR),
    )
    UL = euler.prim_to_cons(WL)
    UR = euler.prim_to_cons(WR)
    expected = exact_flux_w(WL, X_FACE) + s_l * s_r * (UR - UL) / (s_r - s_l)
    F = face_flux(riemann.hll_flux, WL, WR, X_FACE)
    assert np.allclose(F, expected, rtol=1e-12)
    assert abs(F[0] - WL[0] * WL[1]) > 1.0  # mass flux visibly off the RH value


def test_hll_supersonic_branch():
    rng = np.random.default_rng(13)
    WL = np.array([1.0, 3.0, 0.1, 1.0])  # q - c > 0 on both sides
    WR = np.array([1.1, 3.2, 0.0, 1.1])
    for kind in ("hll", "hllc"):
        F = flux(kind, WL, WR)
        assert np.allclose(F, exact_flux_w(WL, X_FACE), atol=1e-12)


def test_hllc_resolves_contact():
    # pure contact discontinuity: HLLC is exact, HLL is not
    WL = np.array([1.0, 0.5, 0.3, 1.0])
    WR = np.array([2.0, 0.5, 0.3, 1.0])
    FL = exact_flux_w(WL, X_FACE)
    # moving contact: flux of the upwind side
    F = face_flux(riemann.hllc_flux, WL, WR, X_FACE)
    assert np.allclose(F, FL, atol=1e-12)
    F_hll = face_flux(riemann.hll_flux, WL, WR, X_FACE)
    assert not np.allclose(F_hll, FL, atol=1e-6)


def test_van_leer_splitting_consistency():
    rng = np.random.default_rng(14)
    W = random_states(rng, 100, (0.0, 0.95))
    F = face_flux(riemann.van_leer_flux, W, W, X_FACE)
    exact = exact_flux_w(W, X_FACE)
    scale = np.abs(exact).max() + 1.0
    assert np.max(np.abs(F - exact)) < 1e-12 * scale


def test_van_leer_supersonic_one_sided():
    WL = np.array([1.0, 3.0, 0.4, 1.0])
    WR = np.array([0.9, 3.5, -0.2, 1.2])
    F = face_flux(riemann.van_leer_flux, WL, WR, X_FACE)
    assert np.allclose(F, exact_flux_w(WL, X_FACE), atol=1e-13)


def test_unknown_solver_kind_raises():
    W = np.array([1.0, 1.0, 0.0, 1.0])
    with pytest.raises(ValueError, match="unknown solver kind 'bogus'"):
        flux("bogus", W, W)


def test_degenerate_fan_raises():
    # a near-vacuum pressure gives c ~ 1e-15 on both sides of identical
    # states: the Davis fan is narrower than the 1e-12 guard
    W = np.array([1.0, 1.0, 0.0, 1e-30])
    for kind in ("hll", "hllc"):
        with pytest.raises(DegenerateFanError):
            flux(kind, W, W)


def test_roe_breakdown_names_the_face():
    rng = np.random.default_rng(4)
    WL, WR = random_states(rng, 6), random_states(rng, 6)
    WL[3, 3] = -100.0  # a negative pressure drives the Roe-average c^2 below zero
    with pytest.raises(InvalidStateError, match=r"non-positive c\^2 at face\(s\) \(3,\)$"):
        face_flux(riemann.roe_flux, WL, WR, X_FACE)


def test_collapsed_fan_names_the_face():
    q, c = np.full(5, 0.5), np.ones(5)
    c[1] = 1e-15
    with pytest.raises(DegenerateFanError, match=r"below 1e-12 at face\(s\) \(1,\)$"):
        riemann.davis_speeds(q, c, q, c)


def test_smooth_abs_properties():
    d0 = riemann.ROE_DELTA0
    assert d0 == 1e-4
    lam = np.linspace(-3e-4, 3e-4, 10001)
    phi = riemann.smooth_abs(lam)
    assert np.all(phi >= d0 / 2 - 1e-18)
    # continuity and C1 match at |lam| = d0
    assert abs(riemann.smooth_abs(d0) - d0) < 1e-18
    h = 1e-9
    left = (riemann.smooth_abs(d0 - h) - riemann.smooth_abs(d0 - 2 * h)) / h
    right = (riemann.smooth_abs(d0 + 2 * h) - riemann.smooth_abs(d0 + h)) / h
    assert abs(left - right) < 1e-4
    assert np.allclose(riemann.smooth_abs(np.array([5.0, -5.0])), 5.0)


def test_hybrid_dispatch():
    # the program's dispatch: Scheme.parts picks (solver, order) per face
    # orientation, compute_flux evaluates it
    rng = np.random.default_rng(15)
    WL5, WR5 = random_states(rng, 1)[0], random_states(rng, 1)[0]
    WL1, WR1 = random_states(rng, 1)[0], random_states(rng, 1)[0]
    pairs = {"weno5": (WL5, WR5), "first": (WL1, WR1)}
    axis_of = {"normal": "x", "transverse": "y"}

    def hybrid(kind, orientation):
        axis = axis_of[orientation]
        _, solver, cfg, _ = next(p for p in Scheme(solver=kind).parts if axis in p[0])
        return flux(solver, *pairs[cfg.kind])

    F = hybrid("hybrid-1", "transverse")
    assert np.allclose(F, face_flux(riemann.roe_flux, WL5, WR5, X_FACE))
    F = hybrid("hybrid-1", "normal")
    assert np.allclose(F, face_flux(riemann.van_leer_flux, WL1, WR1, X_FACE))
    # hybrid-2 swaps the branches everywhere
    for orientation in ("normal", "transverse"):
        other = "transverse" if orientation == "normal" else "normal"
        F1 = hybrid("hybrid-1", orientation)
        F2 = hybrid("hybrid-2", other)
        assert np.allclose(F1, F2)
