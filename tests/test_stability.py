from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg
from scipy.optimize import linear_sum_assignment

from shockstab import (euler, fields, marching, reconstruction as rc, riemann,
                       shock_problem as sp, stability)
from shockstab.errors import DifferentiationError, InvalidStateError, UnsteadyFieldError
from shockstab.euler import X_FACE
from shockstab.fields import MeanField
from shockstab.scheme import Scheme
from shockstab.stability import assemble, eigensolve

from circulant import dense, wrapped_blocks
from euler_reference import analytic_flux_jacobian
from padded_reference import NG
from side_axis import face_flux, halves, side_states, side_windows, window_cells
from residual import residual
from test_euler import random_states
from test_face_batch import SOLVERS, SPACES, _schemes
from test_marching import uniform_field


def initial_shock_field(**kw):
    cfg = sp.ShockProblemConfig(**kw)
    return sp.build_initial_field(cfg), cfg


def block_cols(S):
    """(nx, ny) nested lists: the column cells, ascending, of the nonzero 4x4
    blocks in the row of interior cell (i, j)."""
    n = S.nx * S.ny
    nonzero = np.any(dense(S).reshape(n, 4, n, 4) != 0.0, axis=(1, 3))
    return [[np.flatnonzero(nonzero[i * S.ny + j]).tolist() for j in range(S.ny)]
            for i in range(S.nx)]


# ---------------------------------------------------------------- jacobians


def fd_jacobians(solver, UL, UR, frame=X_FACE):
    """(left, right) halves of ``_fd_jacobians_U`` of the side-stacked UL and
    UR; one face's (4,) states give (4, 4) Jacobians."""
    A = stability._fd_jacobians_U(solver, side_states(UL, UR), frame)
    AL, AR = halves(A, -3)
    return (AL[0], AR[0]) if np.ndim(UL) == 1 else (AL, AR)


def test_flux_jacobians_van_leer_supersonic():
    WL = np.array([1.0, 3.0, 0.2, 1.0])
    WR = np.array([0.9, 3.4, -0.1, 1.1])
    AL, AR = fd_jacobians("van_leer", euler.prim_to_cons(WL), euler.prim_to_cons(WR))
    A_exact = analytic_flux_jacobian(euler.prim_to_cons(WL), X_FACE)
    assert np.max(np.abs(AL - A_exact)) < 1e-5
    assert np.max(np.abs(AR)) < 1e-10


@pytest.mark.parametrize("solver", ["roe", "hll", "hllc", "van_leer"])
@pytest.mark.parametrize("mach", [1.2, 20.0])
def test_supersonic_face_jacobian_of_the_downstream_state(solver, mach):
    # HLL and HLLC with S_L >= 0, and van Leer with |M| >= 1, return the
    # upwind side's flux through np.where, so every probe of the right state
    # leaves the flux's bits as they are and its block is exactly 0: the
    # zeros that let eigensolve split off the cells upstream of a shock.
    # Roe's dissipation cancels the right state's terms only up to rounding
    W = sp.upstream_state(sp.ShockProblemConfig(mach=mach))
    U = euler.prim_to_cons(W)
    AL, AR = fd_jacobians(solver, U, U)
    assert AL.any()
    assert AR.any() == (solver == "roe")


@pytest.mark.parametrize("solver", ["roe", "hll", "hllc", "van_leer"])
def test_flux_jacobians_consistency_identity(solver):
    rng = np.random.default_rng(40)
    for W in random_states(rng, 3, (0.0, 1.8)):
        U = euler.prim_to_cons(W)
        AL, AR = fd_jacobians(solver, U, U)
        A_exact = analytic_flux_jacobian(U, X_FACE)
        scale = max(1.0, np.abs(A_exact).max())
        assert np.max(np.abs(AL + AR - A_exact)) < 1e-5 * scale, solver


def test_flux_jacobians_step_robustness(monkeypatch):
    # away from the smoothing kink the central difference is second order,
    # so halving the step barely moves the entries
    WL = np.array([1.0, 0.6, 0.2, 1.0])
    WR = np.array([1.3, 0.4, -0.1, 1.5])
    UL, UR = euler.prim_to_cons(WL), euler.prim_to_cons(WR)
    assert stability.FD_STEP == 1e-7
    A1 = fd_jacobians("roe", UL, UR)
    monkeypatch.setattr(stability, "FD_STEP", 5e-8)
    A2 = fd_jacobians("roe", UL, UR)
    for A, B in zip(A1, A2):
        scale = max(1.0, np.abs(A).max())
        assert np.max(np.abs(A - B)) < 1e-6 * scale


def _probe_loop_jacobians(solver, UL, UR, frame, step=1e-7):
    """The probe-at-a-time central difference that ``_fd_jacobians_U``
    replaced: one pair of flux calls per component and side."""

    def flux_of(ULp, URp):
        return face_flux(lambda W, f: riemann.compute_flux(solver, W, f),
                         euler.cons_to_prim(ULp), euler.cons_to_prim(URp), frame)

    AL = np.empty(UL.shape + (4,))
    AR = np.empty(UR.shape + (4,))
    for k in range(4):
        for side, U_probe, out in (("L", UL, AL), ("R", UR, AR)):
            hk = np.maximum(step, step * np.abs(U_probe[..., k]))
            e = np.zeros_like(U_probe)
            e[..., k] = hk
            if side == "L":
                fp, fm = flux_of(U_probe + e, UR), flux_of(U_probe - e, UR)
            else:
                fp, fm = flux_of(UL, U_probe + e), flux_of(UL, U_probe - e)
            out[..., :, k] = (fp - fm) / (2.0 * hk[..., None])
    return AL, AR


@pytest.mark.parametrize("solver", ["roe", "hll", "hllc", "van_leer"])
def test_fd_jacobian_probe_stack_equals_probe_loop(solver):
    # the 16 probes stacked into one flux call give the loop's bits, on one
    # face with a scalar normal and on a flat batch with per-face normals
    rng = np.random.default_rng(43)
    WL, WR = random_states(rng, 40, (0.0, 2.5)), random_states(rng, 40, (0.0, 2.5))
    WR[::3, 1] = -WR[::3, 1]  # running into each other at every third face
    a = rng.uniform(0.0, 2 * np.pi, 40)
    cases = [(WL[0], WR[0], X_FACE), (WL, WR, euler.FaceFrame(np.cos(a), np.sin(a)))]
    for WLc, WRc, frame in cases:
        UL, UR = euler.prim_to_cons(WLc), euler.prim_to_cons(WRc)
        got = fd_jacobians(solver, UL, UR, frame)
        want = _probe_loop_jacobians(solver, UL, UR, frame)
        for A, B in zip(got, want):
            assert A.shape == B.shape and A.flags.c_contiguous
            assert np.array_equal(A.view(np.int64), B.view(np.int64)), solver


@pytest.mark.parametrize("solver, batches", [("hllc", 1), ("hybrid-2", 2)])
def test_assemble_makes_one_flux_call_per_batch(monkeypatch, solver, batches, unsteady_base_flow):
    calls = []
    original = riemann.compute_flux

    def counted(*args, **kwargs):
        calls.append(args[0])
        return original(*args, **kwargs)

    monkeypatch.setattr(riemann, "compute_flux", counted)
    field, _ = initial_shock_field(ny=4)
    assemble(field, Scheme(solver=solver, order=5))
    # one per batch for its probes, and one for the steady check's residual
    # of the row, which fluxes only its x faces (its y fluxes cancel)
    assert len(calls) == batches + 1


@pytest.mark.parametrize("solver, orientation, face", [
    pytest.param("roe", "x/y", 15, id="roe-x/y"),
    pytest.param("hybrid-1", "y", 3, id="hybrid-1-y"),
])
def test_assemble_names_the_face_of_a_non_finite_flux_jacobian(monkeypatch, unsteady_base_flow,
                                                               solver, orientation, face):
    # one probe flux of y face 3 of the row is NaN: the +h probe of the right
    # state's rho v, so the Jacobian of side 1 is not finite.  The row has 12
    # x faces and then 11 y faces, so y face 3 is face 15 of the joint table
    # and face 3 of the hybrid's y part
    original, broken = riemann.compute_flux, []

    def one_nan(solver, W, frame):
        flux = original(solver, W, frame)
        probes = W.ndim == 5  # (sign, probed side, component, side axis, 4)
        if probes and np.any(frame.ny) and not broken:  # the first part with y faces
            flux[0, 1, 2, face, 0] = np.nan
            broken.append(frame)
        return flux

    monkeypatch.setattr(riemann, "compute_flux", one_nan)
    field, _ = initial_shock_field(ny=4)
    with pytest.raises(DifferentiationError,
                       match=rf"^non-finite flux Jacobian at {orientation}-face\(s\) \(1, {face}\)$"):
        assemble(field, Scheme(solver=solver))
    assert len(broken) == 1


# ------------------------------------------------------------- face blocks


def _recon_for(win, kind, space="conservative"):
    cfg = rc.ReconConfig(kind=kind, space=space, weno_variant="z")
    sides = side_windows(win, win)
    return rc.reconstruct_pair(sides, window_cells(sides, space), cfg, X_FACE,
                               None, None, linearise=True)


def side_jacobians(solver, recon):
    """The side-stacked flux Jacobians at a reconstruction's face states."""
    return stability._fd_jacobians_U(solver, euler.prim_to_cons(recon.W), X_FACE)


def test_first_order_blocks_degenerate_to_jacobians():
    rng = np.random.default_rng(41)
    W = random_states(rng, 2, (0.0, 1.5))
    win = np.repeat(euler.prim_to_cons(W)[:, None, :], 5, axis=1)
    recon = _recon_for(win, "first")
    A = side_jacobians("hll", recon)
    AL, AR = halves(A, -3)
    blocks = stability.face_blocks(recon, A)
    assert np.allclose(blocks[:, 0], 0.0) and np.allclose(blocks[:, 1], 0.0)
    assert np.allclose(blocks[:, 4], 0.0) and np.allclose(blocks[:, 5], 0.0)
    assert np.allclose(blocks[:, 2], AL) and np.allclose(blocks[:, 3], AR)


def test_uniform_blocks_sum_to_analytic_jacobian():
    W = np.array([1.0, 0.4, 0.2, 1.0])
    win = np.broadcast_to(euler.prim_to_cons(W), (1, 5, 4)).copy()
    recon = _recon_for(win, "weno5")
    blocks = stability.face_blocks(recon, side_jacobians("roe", recon))
    total = blocks.sum(axis=1)[0]
    A_exact = analytic_flux_jacobian(euler.prim_to_cons(W), X_FACE)
    assert np.max(np.abs(total - A_exact)) < 1e-5 * max(1.0, np.abs(A_exact).max())


def test_linear_weights_blocks_match_upstream_coefficients(linear_weights):
    # the linear weights make the six blocks the linear 5th-order upstream
    # combination of the two Jacobians
    rng = np.random.default_rng(42)
    base = np.array([1.0, 0.6, 0.1, 1.2])
    win = np.empty((1, 5, 4))
    for m in range(5):
        win[0, m] = euler.prim_to_cons(base * (1.0 + 0.02 * m))
    cfg = rc.ReconConfig(space="conservative")
    sides = side_windows(win, win)
    recon = rc.reconstruct_pair(sides, window_cells(sides, cfg.space), cfg, X_FACE,
                                None, None, linearise=True)
    A = side_jacobians("hll", recon)
    AL, AR = halves(A, -3)
    blocks = stability.face_blocks(recon, A)
    cl = np.array([2.0, -13.0, 47.0, 27.0, -3.0]) / 60.0  # offsets -2..2
    cr = cl[::-1]  # offsets -1..3
    expect = np.zeros_like(blocks)
    for o in range(5):
        expect[:, o] += AL * cl[o]
        expect[:, o + 1] += AR * cr[o]
    assert np.allclose(blocks, expect, atol=1e-12)


# ----------------------------------------------------------------- assembly


def test_assemble_refuses_unsteady_field():
    field, _ = initial_shock_field()
    with pytest.raises(UnsteadyFieldError):
        assemble(field, Scheme(solver="hll", order=1))


EVERY_CELL = "(0, 0), (1, 0), (2, 0), (3, 0) (+7 more)"


def _spoil_the_residual(monkeypatch, entries, value):
    """``marching.rhs`` with ``value`` written into ``entries`` of every residual."""
    rhs = marching.rhs

    def spoilt(*args):
        res = rhs(*args)
        res[entries] = value
        return res

    monkeypatch.setattr(marching, "rhs", spoilt)


@pytest.mark.parametrize("entries, value, named", [
    (np.s_[..., :], np.nan, f"d(rho)/dt not finite at cell(s) {EVERY_CELL}"),
    (np.s_[..., 3], np.nan, f"d(rho e)/dt not finite at cell(s) {EVERY_CELL}"),
    (np.s_[..., 3], np.inf, f"d(rho e)/dt not finite at cell(s) {EVERY_CELL}"),
    (np.s_[7, 0, 3], np.nan, "d(rho e)/dt not finite at cell(s) (7, 0)"),
], ids=["nan", "energy-nan", "energy-inf", "energy-nan-in-one-cell"])
def test_assemble_refuses_a_residual_that_is_not_finite(monkeypatch, base_flow_cache,
                                                        entries, value, named):
    # a steady row whose residual has a NaN or an infinite entry, in any
    # component, is not steady; the error names the row's cells with such an
    # entry and the component of the first
    scheme = Scheme(solver="roe", order=1)
    field, _ = base_flow_cache(scheme, epsilon=0.1)
    _spoil_the_residual(monkeypatch, entries, value)
    with pytest.raises(UnsteadyFieldError) as raised:
        assemble(field, scheme)
    assert str(raised.value) == f"mean field has density residual inf, not below 1e-12; {named}"


def test_assemble_names_every_cell_of_the_largest_density_rate(monkeypatch, base_flow_cache):
    # cells (3, 0) and (7, 0) share the largest |d rho/dt|, of either sign
    scheme = Scheme(solver="roe", order=1)
    field, _ = base_flow_cache(scheme, epsilon=0.1)
    _spoil_the_residual(monkeypatch, np.s_[[3, 7], 0, 0], [1e-9, -1e-9])
    with pytest.raises(UnsteadyFieldError) as raised:
        assemble(field, scheme)
    assert str(raised.value) == ("mean field has density residual 1.000e-09, not below 1e-12; "
                                 "largest at cell(s) (3, 0), (7, 0)")


def test_assemble_refuses_what_the_steady_solve_refuses(base_flow_cache):
    # the converged roe-o1 row with the density of cell (8, j) raised by
    # 1e-10 lies between the steady solve's bound, 1e-12, and 1e-8, the
    # looser bound assemble once had: assemble refuses it, as converge_1d
    # would, and accepts the converged row itself
    scheme = Scheme(solver="roe", order=1)
    field, info = base_flow_cache(scheme, epsilon=0.1, ny=4)
    assert info["residual"] < 1e-12
    assemble(field, scheme)
    field.U[8, :, 0] += 1e-10
    res = marching.density_residual(residual(field, scheme))
    assert 1e-12 < res < 1e-8
    with pytest.raises(UnsteadyFieldError,
                       match=r"^mean field has density residual 2\.\d{3}e-10, not below 1e-12; "
                             r"largest at cell\(s\) \(8, 0\)$"):
        assemble(field, scheme)


@pytest.mark.parametrize("space", SPACES)
@pytest.mark.parametrize("eps", [0.1, 0.5])
def test_hybrid_1_is_the_same_under_both_weno_variants(base_flow_cache, eps, space):
    # hybrid-1's fifth-order faces are its y faces, and on a y-uniform row
    # every y window is flat, where WENO-JS and WENO-Z both take the linear
    # weights: the steady profiles are equal bit for bit, and the block rows,
    # whose flux probes differ in rounding, agree to REFLECTION_RTOL
    rows = {}
    for variant in ("js", "z"):
        scheme = Scheme(solver="hybrid-1", weno_variant=variant, space=space)
        field, _ = base_flow_cache(scheme, epsilon=eps, ny=4)
        rows[variant] = field.U, assemble(field, scheme).block_row
    (U_js, C_js), (U_z, C_z) = rows["js"], rows["z"]
    assert np.array_equal(U_js, U_z)
    assert np.abs(C_js - C_z).max() <= stability.REFLECTION_RTOL * np.abs(C_z).max()


@pytest.mark.slow
@pytest.mark.parametrize("variant", ["z", "js"])
def test_c1_orderings_hold_under_both_weno_variants(base_flow_cache, variant):
    # claim C1 as orderings of the largest real part over the transverse
    # wavenumbers k >= 1 (11x8, primitive), never as snapshots: van Leer is
    # stable at first order and unstable at fifth, and roe-o5's carbuncle
    # weakens as the shock moves from eps = 0.1 to 0.5
    def transverse(solver, order, eps):
        scheme = Scheme(solver=solver, order=order, weno_variant=variant)
        field, _ = base_flow_cache(scheme, epsilon=eps, ny=8)
        return eigensolve(assemble(field, scheme)).max_real_by_k[1:].max()

    assert transverse("van_leer", 1, 0.1) < 0.0
    assert transverse("van_leer", 5, 0.1) > 0.0
    assert transverse("roe", 5, 0.1) > transverse("roe", 5, 0.5)


def test_assemble_refuses_a_batch_of_fields():
    # the scatter would read the batch axis as the face normal
    field, _ = initial_shock_field(ny=4)
    batch = MeanField(U=np.stack([field.U, field.U]), bc=field.bc, shock_column=field.shock_column)
    with pytest.raises(ValueError, match=r"\(2, 11, 4, 4\)"):
        assemble(batch, Scheme(solver="roe", order=1))


def test_assemble_refuses_a_signed_zero_off_row_0():
    # -0.0 == 0.0, but rows are compared bit for bit
    field, _ = initial_shock_field(nx=9, ny=3, shock_column=5)
    assert field.U[4, 0, 2] == 0.0 and not np.signbit(field.U[4, 0, 2])
    field.U[4, 2, 2] = -0.0
    with pytest.raises(ValueError, match=r"differs from row 0 at cell\(s\) \(4, 2\)$"):
        assemble(field, Scheme(solver="roe", order=1))


def test_assemble_names_a_nan_column_as_an_invalid_state():
    # rows are compared bit for bit, so a column of equal NaNs is uniform
    # along y and reaches the state check of the row, which names its cell
    field, _ = initial_shock_field(nx=9, ny=3, shock_column=5)
    field.U[6, :, 0] = np.nan
    with pytest.raises(InvalidStateError, match=r"\(6, 0\)$"):
        assemble(field, Scheme(solver="roe", order=1))


@pytest.mark.parametrize("space, conversions", [
    ("primitive", 2), ("conservative", 3), ("characteristic", 3),
])
def test_assemble_converts_its_row_once(base_flow_cache, monkeypatch, space, conversions):
    # the row's primitive states come from one conversion of the row, the
    # primitive axis of apply_boundaries in every space: no conversion sees
    # the field's other rows, the steady check, the reconstruction, the
    # outflow fold and the eigensolve convert nothing, and the flux probes
    # convert once.  Outside the primitive space apply_boundaries also
    # converts its ghost states back from conservative variables
    field, _ = base_flow_cache(Scheme(solver="roe", order=1), epsilon=0.1, ny=32)
    cons_to_prim, shapes = euler.cons_to_prim, []

    def counted(U, *args):
        shapes.append(np.shape(U))
        return cons_to_prim(U, *args)

    monkeypatch.setattr(euler, "cons_to_prim", counted)
    S = assemble(field, Scheme(solver="roe", order=1, space=space))
    eigensolve(S)
    assert len(shapes) == conversions, shapes
    assert shapes.count((field.nx, 1, 4)) == 1
    assert not any(field.ny in shape for shape in shapes), shapes


@pytest.mark.parametrize("space", SPACES)
@pytest.mark.parametrize("solver, order", [("roe", 1), ("roe", 5), ("hybrid-2", 5)])
def test_assemble_converts_its_cells_only_in_apply_boundaries(monkeypatch, solver, order, space):
    # besides the flux probes, whose stacks lead with (sign, side,
    # component), assemble converts the row's cells once, and its ghost
    # states back outside the primitive space, with the steady check run
    field, _ = initial_shock_field(ny=4)
    cons_to_prim, shapes = euler.cons_to_prim, []

    def counted(U, *args):
        shapes.append(np.shape(U))
        return cons_to_prim(U, *args)

    monkeypatch.setattr(euler, "cons_to_prim", counted)
    monkeypatch.setattr(marching, "STEADY_TOL", np.inf)
    assemble(field, Scheme(solver=solver, order=order, space=space))
    cells = [shape for shape in shapes if shape[:3] != (2, 2, 4)]
    assert cells == [(field.nx, 1, 4)] + ([] if space == "primitive" else [(2, 4)])
    assert len(shapes) - len(cells) == len(Scheme(solver=solver).parts)


@pytest.mark.parametrize("ny", [8, 11, 32])
@pytest.mark.parametrize("scheme", [
    Scheme(solver="roe", order=5, space="primitive"),
    Scheme(solver="roe", order=1),
    Scheme(solver="hybrid-1"),
    Scheme(solver="roe", order=5, space="characteristic"),
], ids=lambda scheme: scheme.label())
def test_signed_blocks_do_not_depend_on_the_grid_height(base_flow_cache, scheme, ny):
    # C(d) couples a cell to the cell d rows above it: a steady shock on ny
    # rows has the very bits of its C(d) on 7 rows, the fewest rows on which
    # the offsets d = -3..3 keep slots of their own
    field, _ = base_flow_cache(scheme, epsilon=0.5, ny=4)
    C = {n: assemble(replace(field, U=np.repeat(field.U[:, :1], n, axis=1)), scheme).block_row
         for n in (7, ny)}
    assert C[7].shape == (7, 4 * field.nx, 4 * field.nx)
    assert np.array_equal(C[ny], C[7])


def test_circulant_spectrum_first_order_upwind():
    # supersonic 16x1 strip between inflow and outflow: S is the classic
    # block upwind difference, -A on the diagonal and +A on the subdiagonal,
    # s = 1 on unit cells, with A the flux Jacobian of the state in the
    # space's variables.  Its eigenvalues, those of -A, are defective, so the
    # entries are compared
    N = 16
    W = np.array([1.4, 20.0, 0.0, 1.0])
    field = uniform_field(W, nx=N, ny=1)
    A_U = analytic_flux_jacobian(euler.prim_to_cons(W), X_FACE)
    for space in ("conservative", "characteristic", "primitive"):
        S = assemble(field, Scheme(solver="roe", order=1, space=space))
        A = euler.dw_du(W) @ A_U @ euler.du_dw(W) if space == "primitive" else A_U
        expected = np.kron(np.eye(N), -A) + np.kron(np.eye(N, k=-1), A)
        C = wrapped_blocks(S)[0]  # one row: every offset d sums onto slot 0
        assert np.abs(C - expected).max() < 1e-5 * np.abs(A).max(), space


@pytest.mark.parametrize("order", [1, 2, 5])
@pytest.mark.parametrize("space", ["conservative", "primitive", "characteristic"])
def test_uniform_field_kernel(order, space):
    # constant perturbations are invisible to consistent flux differences in
    # the rows of the columns 3..nx-4, whose x stencils read no ghost state
    field = uniform_field([1.4, 0.7, 0.4, 1.0], nx=10, ny=5)
    S = assemble(field, Scheme(solver="hllc", order=order, space=space))
    rng = np.random.default_rng(43)
    c = rng.standard_normal(4)
    A = dense(S)
    vec = np.tile(c, S.nx * S.ny)
    out = (A @ vec).reshape(S.nx, S.ny, 4)[3 : S.nx - 3]
    assert np.abs(out).max() < 1e-7 * max(1.0, np.abs(A).max())


def test_first_order_space_equivalence(unsteady_base_flow):
    # the three assemblies are similar matrices, so their spectra coincide.
    # The upstream convection chain makes most eigenvalues badly defective
    # (pointwise comparison is ill-posed in floating point), so the
    # equivalence is asserted at the matrix level, which implies it, plus on
    # the well-conditioned dominant eigenvalue.
    field, cfg = initial_shock_field()
    mats = {}
    doms = {}
    for space in ("conservative", "primitive", "characteristic"):
        S = assemble(field, Scheme(solver="roe", order=1, space=space))
        mats[space] = dense(S)
        doms[space] = eigensolve(S).max_real
    scale = np.abs(mats["conservative"]).max()
    # primitive: similarity by block-diag(dU/dW) at the cell means
    W = euler.cons_to_prim(field.U)
    n = mats["conservative"].shape[0]
    D = np.zeros((n, n))
    for i in range(cfg.nx):
        for j in range(cfg.ny):
            c = 4 * (i * cfg.ny + j)
            D[c : c + 4, c : c + 4] = euler.du_dw(W[i, j])
    sim = np.linalg.solve(D, mats["conservative"] @ D)
    assert np.abs(sim - mats["primitive"]).max() < 1e-10 * scale
    # characteristic: R L = I, so a first-order face state is its cell and
    # the first-order matrix is the conservative one, bit for bit
    assert np.array_equal(mats["characteristic"], mats["conservative"])
    for space in ("primitive", "characteristic"):
        assert abs(doms[space] - doms["conservative"]) < 1e-6 * max(1.0, abs(doms["conservative"]))


@pytest.mark.parametrize("epsilon", [0.1, 0.5])
@pytest.mark.parametrize("solver", ["roe", "hllc"])
def test_first_order_characteristic_scheme_is_the_conservative_one(solver, epsilon):
    # a first-order face state is its cell in every space, so the
    # characteristic scheme never meets its eigen-matrices: the steady solve,
    # S, its lambda_max and a march step all keep the conservative bits
    cfg = sp.ShockProblemConfig(epsilon=epsilon, nx=11, ny=4)
    out = {}
    for space in ("conservative", "characteristic"):
        scheme = Scheme(solver=solver, order=1, space=space)
        profile, info = sp.converge_1d(cfg, scheme)
        field = sp.project_to_2d(profile, cfg)
        S = assemble(field, scheme)
        perturbed = marching.inject_perturbation(field, 1e-7, 3)
        stepped, dt = marching.step_ssprk3(perturbed, scheme, 0.1, 1.0)
        out[space] = (profile.tobytes(), info, S.block_row.tobytes(),
                      float.hex(eigensolve(S).max_real), stepped.U.tobytes(), float.hex(dt))
    assert out["characteristic"] == out["conservative"]


def test_block_counts_by_order(unsteady_base_flow):
    field, cfg = initial_shock_field()
    # downstream interior cell: all couplings alive for Roe and HLL
    i, j = 7, 5
    for solver in ("roe", "hll"):
        for order, expect in ((1, 5), (2, 9), (5, 13)):
            S = assemble(field, Scheme(solver=solver, order=order))
            cols = block_cols(S)
            assert len(cols[i][j]) == expect, (solver, order)
            # structure bound everywhere
            counts = [len(cols[a][b]) for a in range(cfg.nx) for b in range(cfg.ny)]
            assert max(counts) <= expect


def _every_scheme():
    """The 168 schemes: every solver, order, space and cap."""
    return (s for solver in SOLVERS for space in SPACES for s in _schemes(solver, space))


def test_transverse_blocks_couple_a_cell_to_its_own_column(unsteady_base_flow):
    # a y face's window lies in its own column, so every C(d) with d != 0 is
    # block-diagonal in the column i: each 4x4 block coupling column i to a
    # column i' != i is exactly 0.  Every solver, order, space and cap
    field, cfg = initial_shock_field(epsilon=0.1)
    off_diagonal = ~np.eye(cfg.nx, dtype=bool)
    for scheme in _every_scheme():
        C = assemble(field, scheme).block_row
        blocks = C.reshape(stability.OFFSETS, cfg.nx, 4, cfg.nx, 4).transpose(0, 1, 3, 2, 4)
        for d in (-3, -2, -1, 1, 2, 3):
            assert np.all(blocks[d][off_diagonal] == 0.0), (scheme.label(), d)


def test_block_row_splits_into_x_faces_at_d_0_and_y_faces_that_sum_to_0(monkeypatch, unsteady_base_flow):
    # C = C_x + C_y, C_y assembled from the y faces alone.  An x face reads
    # one row, so C_x(d) is exactly 0 for d != 0.  A y face's window lies in
    # its own column, so every C_y(d), d = 0 included, is block-diagonal in
    # the column.  A y-uniform shift of the whole field moves no y-flux
    # difference, so sum_d C_y(d) = 0.  Each entry of C_y(d) is one rounded
    # sum of the two terms of a column's y face, the one the flux leaves by
    # and the one it enters by, and they telescope to 0 over d.  So the
    # exact sum of the K = OFFSETS stored entries is at most K u max|C_y|,
    # and summing them in floating point adds at most (K - 1) K u max|C_y|:
    # |sum_d C_y(d)| <= K^2 u max|C_y|, u = eps / 2.  Every solver, order,
    # space and cap
    field, cfg = initial_shock_field(epsilon=0.1)
    off_diagonal = ~np.eye(cfg.nx, dtype=bool)
    K = stability.OFFSETS
    bound = K * K * np.finfo(float).eps / 2
    triplets = stability._face_triplets

    def y_triplets(B, window, axis, *args):
        parts = triplets(B, window, axis, *args)
        return parts if axis == "y" else []

    for scheme in _every_scheme():
        C = assemble(field, scheme).block_row
        with monkeypatch.context() as patch:
            patch.setattr(stability, "_face_triplets", y_triplets)
            C_y = assemble(field, scheme).block_row
        C_x = C - C_y
        for d in (-3, -2, -1, 1, 2, 3):
            assert np.all(C_x[d] == 0.0), (scheme.label(), d)
        blocks = C_y.reshape(K, cfg.nx, 4, cfg.nx, 4).transpose(0, 1, 3, 2, 4)
        assert np.all(blocks[:, off_diagonal] == 0.0), scheme.label()
        assert np.abs(C_y.sum(axis=0)).max() <= bound * np.abs(C_y).max(), scheme.label()


def test_inflow_rows_reference_no_ghosts(unsteady_base_flow):
    field, cfg = initial_shock_field()
    S = assemble(field, Scheme(solver="roe", order=5))
    pattern = block_cols(S)
    n = cfg.nx * cfg.ny
    for row in pattern:
        for cols in row:
            assert all(0 <= c < n for c in cols)
    # the first column couples to fewer upstream neighbors than an interior row
    assert len(pattern[0][5]) < len(pattern[7][5])
    cols = sorted(c // cfg.ny for c in pattern[0][5])
    assert min(cols) == 0  # nothing left of the boundary


def test_outflow_ghost_chain_rule(unsteady_base_flow):
    # the last column's rightward couplings fold onto itself through the
    # pressure-pinned copy; with the pin, a pressure perturbation of the
    # last cell must not propagate through the ghost energy entry
    field, cfg = initial_shock_field()
    S = assemble(field, Scheme(solver="roe", order=5))
    last = cfg.nx - 1
    cols = sorted(c // cfg.ny for c in block_cols(S)[last][5])
    assert max(cols) == last  # ghost blocks were folded, not dropped


def _loop_assembly(field, scheme):
    """Dense S scattered face by face, offset by offset: the reference for
    the vectorised scatter of ``assemble``."""
    nx, ny, ng = field.nx, field.ny, NG
    sigma = 1.0  # unit cells
    W = euler.cons_to_prim(field.U)
    S = np.zeros((4 * nx * ny, 4 * nx * ny))

    def add(i_row, j_row, i_col, j_col, sign, blk):
        if scheme.space == "primitive":
            blk = euler.dw_du(W[i_row, j_row]) @ blk
        r, c = 4 * (i_row * ny + j_row), 4 * (i_col * ny + j_col)
        S[r : r + 4, c : c + 4] += sign * blk

    def outflow_chain(j):
        # d(ghost)/d(last cell) of the pressure-pinned copy
        T = np.diag([1.0, 1.0, 1.0, 0.0])
        if scheme.space != "primitive":
            u, v = W[nx - 1, j, 1], W[nx - 1, j, 2]
            T[3, :3] = [-0.5 * (u * u + v * v), u, v]
        return T

    states = fields.apply_boundaries(field, scheme.space == "primitive")
    for table, solver, recon in marching.face_reconstructions(field, states, scheme,
                                                              linearise=True):
        A = stability._fd_jacobians_U(
            solver, euler.prim_to_cons(recon.W), table.frame)
        for axis, B in table.split(stability.face_blocks(recon, A), 0):
            if axis == "x":
                for k in range(nx + 1):
                    for j in range(ny):
                        for o in range(6):
                            i_col, blk = k + o - ng, B[k, j, o]
                            if i_col < 0:
                                continue  # inflow ghost
                            if i_col >= nx:
                                i_col, blk = nx - 1, blk @ outflow_chain(j)
                            for i_row, sign in ((k - 1, -sigma), (k, sigma)):
                                if 0 <= i_row < nx:
                                    add(i_row, j, i_col, j, sign, blk)
            else:
                for i in range(nx):
                    for l in range(ny):
                        for o in range(6):
                            for j_row, sign in (((l - 1) % ny, -sigma), (l, sigma)):
                                add(i, j_row, i, (l + o - ng) % ny, sign, B[i, l, o])
    return S


def test_sparse_scatter_matches_loop_reference(unsteady_base_flow):
    # the vectorised scatter sums in another order, so agreement is to a few
    # ulps of the largest entry, for every order, space and cap, on a shock
    # and on a smooth field.  The smooth field varies along x only, so its
    # rows stay equal
    shock = sp.build_initial_field(sp.ShockProblemConfig(ny=5))
    smooth = uniform_field([1.4, 0.9, 0.3, 1.1], nx=6, ny=6)
    rng = np.random.default_rng(46)
    smooth.U *= 1.0 + 0.01 * rng.standard_normal((smooth.nx, 1, 4))
    cases = [
        (shock, Scheme(solver="roe", order=5, space="primitive", cap="second")),
        (shock, Scheme(solver="hllc", order=2, space="conservative")),
        (shock, Scheme(solver="hybrid-1", space="characteristic", cap="first")),
        (smooth, Scheme(solver="hll", order=5, space="characteristic")),
        (smooth, Scheme(solver="van_leer", order=1, space="primitive")),
    ]
    for field, scheme in cases:
        ref = _loop_assembly(field, scheme)
        S = dense(assemble(field, scheme))
        assert np.abs(S - ref).max() <= 1e-14 * np.abs(ref).max(), scheme.label()


def _rhs_derivative_mismatch(field, scheme, v, eps=1e-7):
    """max |d rhs/d U . v - S v| by central differences, and max |d rhs . v|."""
    from shockstab import marching

    S = assemble(field, scheme)
    fp = field.copy()
    fp.U += eps * v.reshape(field.nx, field.ny, 4)
    fm = field.copy()
    fm.U -= eps * v.reshape(field.nx, field.ny, 4)
    dr = (residual(fp, scheme) - residual(fm, scheme)) / (2 * eps)
    Sv = (dense(S) @ v).reshape(field.nx, field.ny, 4)
    return np.max(np.abs(dr - Sv)), np.abs(dr).max()


def test_assemble_matches_rhs_directional_derivative(unsteady_base_flow):
    # S is the (frozen-weight) linearization of the nonlinear residual: for
    # first order (no weights at all) a directional derivative of rhs must
    # match S @ v
    field = uniform_field([1.4, 0.9, 0.3, 1.1], nx=6, ny=6)
    # make it vary along x, with rows that stay equal; it is not steady, so
    # skip the steadiness check and compare derivatives only.  The direction
    # v varies along y too
    rng = np.random.default_rng(44)
    field.U *= 1.0 + 0.01 * rng.standard_normal((field.nx, 1, 4))
    v = rng.standard_normal(4 * field.nx * field.ny)
    err, scale = _rhs_derivative_mismatch(
        field, Scheme(solver="hll", order=1, space="conservative"), v
    )
    assert err < 1e-5 * max(1.0, scale)

    # the shock problem's initial field adds the inflow ghosts (dropped) and
    # the pressure-pinned outflow ghosts (folded onto the last column).
    # HLLC is left out of the direction v that varies along y: at its y faces
    # the transverse velocity is zero, so s* = 0 exactly and HLLC switches
    # branch there; the central difference straddles that kink (7.2e-6
    # relative at step 1e-7, 1.3e-4 at 1e-6, against at most 1.6e-7 for the
    # cases below) and does not measure S.  The k = 0 direction v0 is
    # constant along y: the perturbed field stays uniform along y, the
    # y-flux differences of rhs cancel and the kink drops out, so every
    # solver runs it
    field = sp.build_initial_field(sp.ShockProblemConfig(ny=4))
    v = rng.standard_normal(4 * field.nx * field.ny)
    v0 = np.repeat(rng.standard_normal((field.nx, 1, 4)), field.ny, axis=1).ravel()
    for solver in ("roe", "hll", "hllc", "van_leer"):
        for space in ("conservative", "characteristic"):
            scheme = Scheme(solver=solver, order=1, space=space)
            for direction in (v0,) if solver == "hllc" else (v, v0):
                err, scale = _rhs_derivative_mismatch(field, scheme, direction)
                assert err < 1e-5 * max(1.0, scale), (solver, space, direction is v0)


# ---------------------------------------------------------------- eigensolve


def _spectrum_of_matrix(M):
    """The spectrum of M as the S of a single row: the one-slot block row
    C(0) = M on ny = 1, every other offset zero."""
    C = np.zeros((stability.OFFSETS,) + M.shape)
    C[0] = M
    S = stability.StabilityMatrix(nx=M.shape[0] // 4, ny=1, block_row=C)
    spec = eigensolve(S)
    assert spec.max_real_by_k.shape == (1,)
    return spec


def test_eigensolve_diagonal():
    spec = _spectrum_of_matrix(np.diag([-1.0, -2.0, -3.0, -4.0]))
    assert abs(spec.max_real + 1.0) < 1e-14


def test_eigensolve_rotation_block():
    M = np.zeros((4, 4))
    M[0, 1], M[1, 0] = 1.0, -1.0
    spec = _spectrum_of_matrix(M)
    assert abs(spec.max_real) < 1e-12
    assert np.any(np.abs(spec.eigenvalues - 1j) < 1e-12)


def test_eigensolve_characteristic_polynomial_oracle():
    # coefficients via Faddeev-LeVerrier (trace recursion), roots via the
    # companion matrix: an independent route to the same spectrum
    rng = np.random.default_rng(45)
    M = rng.standard_normal((8, 8))
    n = M.shape[0]
    coeffs = [1.0]
    Mk = np.eye(n)
    for k in range(1, n + 1):
        Mk = M @ Mk
        ck = -np.trace(Mk) / k
        Mk += ck * np.eye(n)
        coeffs.append(ck)
    roots = np.roots(coeffs)
    spec = _spectrum_of_matrix(M)
    # a complex solve returns a conjugate pair's members with real parts a
    # few ulps apart, so they are paired by distance, not by a sort
    dist = np.abs(roots[:, None] - spec.eigenvalues[None, :])
    assert dist[linear_sum_assignment(dist)].max() < 1e-8


def _dominant_residual(S, spec):
    """||S v - lambda v|| / (||v|| max|S|) of the returned dominant pair, with
    the grid vector v built from the block eigenvector as
    eigvec[i] exp(2 pi i k* j / ny) at cell (i, j)."""
    phase = np.exp(2j * np.pi * spec.k_star * np.arange(S.ny) / S.ny)
    v = (spec.eigvec.reshape(S.nx, 1, 4) * phase[:, None]).ravel()
    A = dense(S)
    r = A @ v - spec.dominant * v
    return np.linalg.norm(r) / (np.linalg.norm(v) * np.abs(A).max())


def _random_circulant(nx, ny, seed, reflected=False):
    """(dense A, StabilityMatrix) of S = circ(C) for a random real block row
    C(d), d = -3..3, as in a fifth-order S: generically non-defective, so the
    whole multiset of eigenvalues is well posed.  ``reflected`` makes
    C(-d) = P C(d) P exactly, P = diag(1, 1, -1, 1) per cell: the symmetry
    under y -> -y of an S about a field with v = 0."""
    rng = np.random.default_rng(seed)
    C = rng.standard_normal((7, 4 * nx, 4 * nx))
    if reflected:
        flip = np.tile([1.0, 1.0, -1.0, 1.0], nx)
        C = 0.5 * (C + flip[:, None] * C[-np.arange(7)] * flip)  # the sum commutes: exact
    return _circulant(C, ny)


def _circulant(C, ny):
    """(dense A, StabilityMatrix) of the block row C on ny rows."""
    nx = C.shape[1] // 4
    S = stability.StabilityMatrix(nx=nx, ny=ny, block_row=C)
    return dense(S), S


def _asymmetry(C):
    """max |C(-d mod ny) - P C(d) P| / max |C| of the wrapped blocks C."""
    ny, n = C.shape[:2]
    flip = np.tile([1.0, 1.0, -1.0, 1.0], n // 4)
    return np.abs(C[-np.arange(ny) % ny] - flip[:, None] * C * flip).max() / np.abs(C).max()


def _reflected(C):
    """Whether C(-d mod ny) = P C(d) P to ``REFLECTION_RTOL`` of max |C|, which
    makes every Fourier block similar to a real matrix."""
    return bool(_asymmetry(C) <= stability.REFLECTION_RTOL)


def _residual_bound(S):
    """Bound on ``_dominant_residual``, from the dtype: a backward-stable
    solve of a Fourier block S^(k), or of its real form T(k), leaves a
    residual of a small multiple of eps ||S^(k)||_F, and
    ||S^(k)||_F <= sum_d ||C(d)||_F <= 7 * 4nx * max|S| for the at most 7
    nonzero blocks C(d) of 4nx columns.  With 8 for 7 and a factor 4 for
    the solver's constant, that is 32 * 4nx * eps."""
    return 32 * 4 * S.nx * np.finfo(float).eps


@pytest.fixture
def solved_dtypes(monkeypatch):
    """(solver, dtype, shape) of every LAPACK solve, in call order:
    ``eigensolve`` hands ``eigvals`` the stack of its leading cells' 4x4
    blocks, when it splits any off, and then the stack of the rest of its
    Fourier blocks, and the first read of ``Spectrum.eigvec`` hands block k*
    to ``eig``."""
    seen = []

    def recording(solve):
        def wrapped(a, *args, **kwargs):
            seen.append((solve.__name__, np.asarray(a).dtype, np.shape(a)))
            return solve(a, *args, **kwargs)
        return wrapped

    monkeypatch.setattr(np.linalg, "eigvals", recording(np.linalg.eigvals))
    monkeypatch.setattr(np.linalg, "eig", recording(np.linalg.eig))
    return seen


def _solves(S, real, eigvec_read, p=0):
    """What ``solved_dtypes`` holds after one ``eigensolve`` of S that splits
    off p leading cells: for p > 0 one eigenvalue solve of the K = ny/2 + 1
    blocks' p cell blocks, (K p, 4, 4), then one of their trailing blocks,
    (K, 4nx - 4p, 4nx - 4p), and, once ``eigvec`` has been read, one
    eigenpair solve of the whole block k*; each on real blocks T(k) or
    complex blocks S^(k)."""
    dtype = np.dtype(float if real else complex)
    K, n = S.ny // 2 + 1, 4 * S.nx
    cells = [("eigvals", dtype, (K * p, 4, 4))] if p else []
    rest = [("eigvals", dtype, (K, n - 4 * p, n - 4 * p))]
    return cells + rest + [("eig", dtype, (n, n))] * eigvec_read


def _assert_full_spectrum(A, spec):
    dense = scipy.linalg.eigvals(A)
    dist = np.abs(spec.eigenvalues[:, None] - dense[None, :])
    pair = linear_sum_assignment(dist)
    assert dist[pair].max() < 1e-12 * np.abs(dense).max()
    assert spec.max_real == spec.eigenvalues.real.max()


@pytest.mark.parametrize("reflected", [False, True], ids=["complex", "real"])
def test_fourier_blocks_give_the_full_spectrum(solved_dtypes, reflected):
    A, S = _random_circulant(nx=2, ny=5, seed=49, reflected=reflected)
    spec = eigensolve(S)
    # a reflected S hands real blocks T(k) to the solves, any other complex
    # ones; the eigenvector is solved on its first read only
    assert solved_dtypes == _solves(S, reflected, eigvec_read=False)
    assert spec.max_real_by_k.shape == (5,)
    # ny is odd, so every block but k = 0 is complex: the residual below then
    # also checks the phase exp(2 pi i k j / ny) of the grid eigenvector, and
    # on a real block the component-2 factor i of D
    assert int(np.argmax(spec.max_real_by_k)) != 0
    _assert_full_spectrum(A, spec)
    assert solved_dtypes == _solves(S, reflected, eigvec_read=False)
    assert _dominant_residual(S, spec) < _residual_bound(S)
    assert solved_dtypes == _solves(S, reflected, eigvec_read=True)
    # a second read returns the kept vector and solves nothing
    assert spec.eigvec is spec.eigvec
    assert _dominant_residual(S, spec) < _residual_bound(S)
    assert solved_dtypes == _solves(S, reflected, eigvec_read=True)


@pytest.mark.parametrize("reflected", [False, True], ids=["complex", "real"])
@pytest.mark.parametrize("ny", [1, 2, 3, 4, 5, 8, 16, 32])
def test_half_spectrum_mirrors_the_conjugate_blocks(solved_dtypes, ny, reflected):
    # only blocks k <= ny // 2 are solved; ny = 1 and 2 mirror none, and an
    # even ny has the real Nyquist block k = ny / 2, its own conjugate.  Built
    # on its own, S^(ny - k) need not equal conj S^(k) in the last bits (the
    # FFT's do not from ny = 16), so a solve of every block would break the
    # exact mirror below
    A, S = _random_circulant(nx=2, ny=ny, seed=50 + ny, reflected=reflected)
    spec = eigensolve(S)
    assert solved_dtypes == _solves(S, reflected, eigvec_read=False)
    _assert_full_spectrum(A, spec)
    by_k = spec.max_real_by_k
    assert np.array_equal(by_k[1:], by_k[1:][::-1])
    assert spec.k_star <= ny // 2
    assert by_k[spec.k_star] == spec.max_real
    assert _dominant_residual(S, spec) < _residual_bound(S)
    assert solved_dtypes == _solves(S, reflected, eigvec_read=True)
    if reflected:  # a real solve returns a conjugate pair's upper member first
        assert spec.dominant.imag >= 0.0


def test_one_odd_entry_keeps_the_complex_blocks(solved_dtypes):
    # one entry of C(d) off its reflection by 1e-6 max|C|, above
    # REFLECTION_RTOL: every block stays complex, solved as before.  On
    # ny = 32, C(-3) sits in slot 29, the far slot that S occupies
    for ny, d in ((8, 1), (32, -3)):
        solved_dtypes.clear()
        _, S = _random_circulant(nx=2, ny=ny, seed=52, reflected=True)
        assert _reflected(wrapped_blocks(S))
        C = S.block_row.copy()
        C[d, 0, 5] += 1e-6 * np.abs(C).max()
        A, S = _circulant(C, ny)
        assert not _reflected(wrapped_blocks(S))
        spec = eigensolve(S)
        assert solved_dtypes == _solves(S, real=False, eigvec_read=False)
        by_k, _ = _all_blocks_reference(S, real=False)
        assert np.array_equal(spec.max_real_by_k[: ny // 2 + 1], by_k[: ny // 2 + 1])
        _assert_full_spectrum(A, spec)
        # ny = 32 leaves 1.4e-14, above ny = 8's fixed bound: it gets the dtype's
        assert _dominant_residual(S, spec) < (1e-14 if ny == 8 else _residual_bound(S))
        assert solved_dtypes == _solves(S, real=False, eigvec_read=True)


@pytest.mark.parametrize("order", [1, 5])
@pytest.mark.parametrize("space", ["conservative", "primitive", "characteristic"])
def test_fourier_lambda_max_matches_dense_on_steady_shock(base_flow_cache, order, space):
    # these spectra are defective (see test_first_order_space_equivalence),
    # so only the well-conditioned dominant eigenvalue is compared.  Either
    # solve rounds it by about eps * max|S|, which is up to 1.4e4 here: the
    # two differ by at most 2.6e-16 * max|S| (1.4e-12) on these fields
    scheme = Scheme(solver="roe", order=order, space=space)
    field, _ = base_flow_cache(scheme, epsilon=0.5, ny=4)
    S = assemble(field, scheme)
    spec = eigensolve(S)
    A = dense(S)
    lam_dense = scipy.linalg.eigvals(A).real.max()
    tol = max(1e-12 * max(1.0, abs(lam_dense)), 1e-15 * np.abs(A).max())
    assert abs(spec.max_real - lam_dense) <= tol
    assert _dominant_residual(S, spec) < 1e-14


def test_max_real_by_transverse_wavenumber(base_flow_cache):
    # first-order Roe and HLLC carry the carbuncle on the odd-even mode
    # k = ny/2; S is real, so lambda(k) = lambda(ny - k); the steady profile
    # does not depend on ny and the blocks depend on k only through k/ny, so
    # ny = 8 repeats ny = 4 on its even wavenumbers
    for solver, lam_odd_even in (("roe", 11.5907), ("hllc", 3.0714)):
        by_k = {}
        for ny in (4, 8):
            scheme = Scheme(solver=solver, order=1)
            field, _ = base_flow_cache(scheme, epsilon=0.1, ny=ny)
            lam = eigensolve(assemble(field, scheme)).max_real_by_k
            assert int(np.argmax(lam)) == ny // 2, (solver, ny)
            assert np.array_equal(lam[1:], lam[1:][::-1])
            assert abs(lam[ny // 2] - lam_odd_even) < 1e-4, (solver, ny)
            by_k[ny] = lam
        assert np.abs(by_k[8][::2] - by_k[4]).max() < 1e-12 * np.abs(by_k[4]).max()
    # HLL is stable at first order: every transverse mode decays
    scheme = Scheme(solver="hll", order=1)
    field, _ = base_flow_cache(scheme, epsilon=0.5, nx=13, ny=8)
    lam = eigensolve(assemble(field, scheme)).max_real_by_k
    assert np.all(lam[1:] < 0.0)


def _offset_blocks(S):
    """(ny, 4nx, 4nx): every Fourier block S^(k), k = 0..ny-1, summed over the
    seven slots of ``S.block_row`` as ``eigensolve`` sums its blocks
    k <= ny/2: in slot order, d = 0..3, -3..-1, with phases
    exp(2 pi i (k d mod ny) / ny), in one matrix product, whose rows k <= ny/2
    hold the bits of eigensolve's."""
    n = 4 * S.nx
    d = (np.arange(stability.OFFSETS) + 3) % stability.OFFSETS - 3
    phase = np.exp(2j * np.pi * (np.outer(np.arange(S.ny), d) % S.ny) / S.ny)
    return (phase @ S.block_row.reshape(stability.OFFSETS, n * n)).reshape(S.ny, n, n)


def _fft_blocks(S):
    """(ny, 4nx, 4nx): every Fourier block S^(k) as the length-ny FFT of the
    wrapped slots C(d mod ny), an independent construction."""
    return S.ny * np.fft.ifft(wrapped_blocks(S), axis=0)


def _real_form(S_hat):
    """T(k) = Re(D^-1 S^(k) D), D = diag(1, 1, i, 1) per cell, of each block,
    written out entry by entry."""
    v = np.arange(S_hat.shape[-1]) % 4 == 2  # rows and columns of component 2
    T = S_hat.real.copy()
    T[:, v[:, None] & ~v] = S_hat.imag[:, v[:, None] & ~v]
    T[:, ~v[:, None] & v] = -S_hat.imag[:, ~v[:, None] & v]
    return T


def _all_blocks_reference(S, real, blocks=_offset_blocks):
    """(max_real_by_k, max_real) of a solve of every Fourier block, the
    conjugate ones included: the Fourier path before it mirrored them.  The
    blocks are ``blocks(S)``, by default summed from the offsets as
    ``eigensolve`` sums them; ``real`` solves their ``_real_form``."""
    S_hat = blocks(S)
    if real:
        S_hat = _real_form(S_hat)
    block_vals = [scipy.linalg.eigvals(B) for B in S_hat]
    k_star = int(np.argmax([v.real.max() for v in block_vals]))
    block_vals[k_star] = scipy.linalg.eig(S_hat[k_star])[0]
    return np.array([v.real.max() for v in block_vals]), np.concatenate(block_vals).real.max()


@pytest.mark.parametrize("reflected", [False, True], ids=["complex", "real"])
@pytest.mark.parametrize("ny", [1, 2, 3, 4, 5, 6, 7, 8, 16, 32])
def test_offset_blocks_match_the_fft_of_the_wrapped_slots(monkeypatch, ny, reflected):
    # below ny = 7 offsets share a slot, so these cases check that the phase
    # sum wraps them as the fold onto slot d mod ny does
    A, S = _random_circulant(nx=2, ny=ny, seed=60 + ny, reflected=reflected)
    solved = []
    eigvals = np.linalg.eigvals

    def recording(a):
        solved.append(a)
        return eigvals(a)

    monkeypatch.setattr(np.linalg, "eigvals", recording)
    spec = eigensolve(S)
    (blocks,) = solved
    fft = _fft_blocks(S)[: ny // 2 + 1]
    assert blocks.dtype == (float if reflected else complex)
    if reflected:
        fft = _real_form(fft)
    # each entry of either construction sums at most seven terms C(d) times a
    # phase of modulus 1; each rounds the sum by a few eps per term
    # (the phase's angle and exp, the products and the sums, or the FFT's
    # butterflies), so the two agree to 8 eps sum_d |C(d)| per entry
    bound = 8 * np.finfo(float).eps * np.abs(S.block_row).sum(axis=0)
    assert np.all(np.abs(blocks - fft) <= bound)
    _, lam = _all_blocks_reference(S, reflected, blocks=_fft_blocks)
    tol = max(1e-12 * max(1.0, abs(lam)), 1e-15 * np.abs(S.block_row).max())
    assert abs(spec.max_real - lam) <= tol
    _assert_full_spectrum(A, spec)


@pytest.mark.parametrize("scheme, epsilon", [
    *((Scheme(solver="roe", order=order, space=space), 0.5)
      for order in (1, 5) for space in ("conservative", "primitive", "characteristic")),
    (Scheme(solver="hllc", order=1), 0.1),
    (Scheme(solver="hybrid-1"), 0.5),
    (Scheme(solver="hybrid-2"), 0.5),
], ids=lambda p: p.label() if isinstance(p, Scheme) else f"eps{p}")
def test_steady_shocks_are_reflection_symmetric_to_rounding(base_flow_cache, scheme, epsilon):
    # the flux of a steady shock (v = 0) is symmetric under y -> -y, and its
    # FD Jacobians keep that to rounding: 0 (HLLC or van Leer on the y
    # faces) to 1.25e-14 (Roe) of max|C|, five orders below REFLECTION_RTOL,
    # so every one of them is solved in the real form
    field, _ = base_flow_cache(scheme, epsilon=epsilon, ny=4)
    assert _asymmetry(wrapped_blocks(assemble(field, scheme))) <= 1e-4 * stability.REFLECTION_RTOL


def _with_tangential_velocity(field, v0):
    """The field and its inflow state with v = v0 in every cell: the
    acoustic characteristic variables do not see a uniform v, so a steady
    shock stays steady, but S loses its y -> -y symmetry."""
    W = euler.cons_to_prim(field.U)
    W[..., 2] = v0
    inflow = field.bc.inflow_W.copy()
    inflow[2] = v0
    bc = fields.BoundarySpec(inflow, field.bc.outflow_pressure)
    return replace(field, U=euler.prim_to_cons(W), bc=bc)


@pytest.mark.parametrize("solver, order, space, epsilon, ny, v0, real", [
    ("roe", 1, "primitive", 0.1, 8, 0.0, True),
    # k* = 2 of ny = 5 is no block's own conjugate, so its eigenvector has a
    # component 2 and the real form's D shows; k* = 0 and ny/2 decouple it
    ("roe", 1, "primitive", 0.1, 5, 0.0, True),
    # its Roe y-face Jacobians miss the reflection by 1.2e-14 max|C|, rounding
    ("roe", 5, "characteristic", 0.5, 4, 0.0, True),
    # v0 = 0.1 breaks the reflection by 5.6e-3 max|C|
    ("roe", 5, "characteristic", 0.5, 4, 0.1, False),
])
def test_half_spectrum_matches_all_block_solve(base_flow_cache, solved_dtypes, solver, order,
                                               space, epsilon, ny, v0, real):
    scheme = Scheme(solver=solver, order=order, space=space)
    field, _ = base_flow_cache(scheme, epsilon=epsilon, ny=ny)
    if v0:
        field = _with_tangential_velocity(field, v0)
    S = assemble(field, scheme)  # the steady check holds with v0 too
    C = wrapped_blocks(S)
    assert _reflected(C) == real
    spec = eigensolve(S)
    assert solved_dtypes == _solves(S, real, eigvec_read=False)
    by_k, lam = _all_blocks_reference(S, real)
    assert np.array_equal(spec.max_real_by_k[: ny // 2 + 1], by_k[: ny // 2 + 1])
    tol = max(1e-12 * max(1.0, abs(lam)), 1e-15 * np.abs(C).max())
    assert abs(spec.max_real - lam) <= tol
    # across the forms: the real blocks' lambda_max is the complex blocks'
    _, lam_complex = _all_blocks_reference(S, real=False)
    assert abs(spec.max_real - lam_complex) <= tol
    assert abs(spec.max_real - scipy.linalg.eigvals(dense(S)).real.max()) <= tol
    # the block eigenpair against S^(k*) = sum_d C(d) exp(2 pi i k* d / ny),
    # summed here over d = -3..3 with the exponent unreduced, not in
    # eigensolve's order and phases.  Its residual over max|C|
    # is the solve's, bounded by _residual_bound, plus the difference of the
    # two sums' roundings, bounded alike.  A real form also drops
    # Im(D^-1 S^(k*) D): each entry is half a sum over the at most 7 slots
    # of C(-d) - P C(d) P, at most 7/2 asymmetries, and its 2-norm is at
    # most 4nx times that
    d = np.arange(stability.OFFSETS) - stability.OFFSETS // 2
    S_k = np.tensordot(np.exp(2j * np.pi * spec.k_star * d / ny), S.block_row[d], axes=1)
    v = spec.eigvec
    assert abs(np.linalg.norm(v) - 1.0) <= 1e-14
    dropped = 4 * S.nx * 3.5 * _asymmetry(C) if real else 0.0
    r = np.linalg.norm(S_k @ v - spec.dominant * v) / np.abs(C).max()
    assert r < 2 * _residual_bound(S) + dropped
    assert solved_dtypes == _solves(S, real, eigvec_read=True)


def _decoupled_circulant(nx, ny, p, seed, reflected=False, lifted=None):
    """(dense A, StabilityMatrix) of a random block row whose leading p cells
    couple to no later cell at any offset, their blocks written as -0.0,
    which counts as zero: every Fourier block is block lower triangular over
    those cells.  Cell ``lifted``, if any, has 50 I added to its C(0): its
    eigenvalues in every block rise by 50, above the other cells' spectral
    radius of about sqrt(7 * 4nx) for nx = 4."""
    _, S = _random_circulant(nx, ny, seed, reflected)
    C = S.block_row.copy()
    cell = np.arange(4 * nx) // 4
    C[:, (cell[:, None] < p) & (cell > cell[:, None])] = -0.0  # keeps C(-d) = P C(d) P
    if lifted is not None:
        C[0, 4 * lifted:4 * lifted + 4, 4 * lifted:4 * lifted + 4] += 50.0 * np.eye(4)
    return _circulant(C, ny)


@pytest.mark.parametrize("reflected", [False, True], ids=["complex", "real"])
@pytest.mark.parametrize("lifted", [0, 3], ids=["cells", "rest"])
@pytest.mark.parametrize("p", [1, 3])
@pytest.mark.parametrize("ny", [1, 4, 11])
def test_split_spectrum_of_decoupled_leading_cells(solved_dtypes, ny, p, lifted, reflected):
    # nx = 4, so p = 3 leaves the last cell alone in the trailing block; the
    # dominant eigenvalue is cell 0's, split off, or the last cell's, in the rest
    A, S = _decoupled_circulant(nx=4, ny=ny, p=p, seed=70 + ny, reflected=reflected, lifted=lifted)
    spec = eigensolve(S)
    assert solved_dtypes == _solves(S, reflected, eigvec_read=False, p=p)
    _assert_full_spectrum(A, spec)
    # within each block the leading cells' values come first, cell by cell
    S_hat = _offset_blocks(S)
    vals = spec.eigenvalues.reshape(ny, 16)
    for k in range(ny // 2 + 1):
        for i in range(p):
            want = scipy.linalg.eigvals(S_hat[k, 4 * i:4 * i + 4, 4 * i:4 * i + 4])
            dist = np.abs(vals[k, 4 * i:4 * i + 4, None] - want)
            assert dist[linear_sum_assignment(dist)].max() < 1e-12 * np.abs(A).max()
    m = np.argmax(vals[spec.k_star].real)  # cell 0's values, or among the rest's
    assert m < 4 if lifted < p else m >= 4 * p
    assert _dominant_residual(S, spec) < _residual_bound(S)
    assert solved_dtypes == _solves(S, reflected, eigvec_read=True, p=p)


def test_one_nonzero_entry_couples_its_cells(solved_dtypes):
    # the smallest subnormal in block (0, 2) of one offset couples cell 0 to
    # a later cell: nothing splits off, and the blocks take the one solve
    _, S = _decoupled_circulant(nx=4, ny=4, p=3, seed=75)
    C = S.block_row.copy()
    C[-2, 1, 9] = np.nextafter(0.0, 1.0)
    A, S = _circulant(C, 4)
    spec = eigensolve(S)
    assert solved_dtypes == _solves(S, real=False, eigvec_read=False)
    _assert_full_spectrum(A, spec)


@pytest.mark.parametrize("ny", [1, 4, 11, 32])
@pytest.mark.parametrize("space", SPACES)
@pytest.mark.parametrize("solver, order, epsilon, p", [
    ("hllc", 1, 0.1, 5),
    ("van_leer", 1, 0.1, 5),
    ("hybrid-1", 5, 0.1, 5),
    ("hybrid-1", 5, 0.5, 4),
])
def test_upstream_cells_split_off_a_steady_shock(base_flow_cache, solved_dtypes, solver, order,
                                                  epsilon, p, space, ny):
    # One-sided x fluxes at the supersonic faces before the shock (HLLC, van
    # Leer, hybrid-1's van Leer x faces) make those cells' rows exactly 0
    # beyond their own cell, so each block splits into p cells and the rest.
    # Their spectra are defective: equal cells, upstream and downstream,
    # chain into Jordan blocks, which a dense solve of a whole block scatters
    # by up to 0.24 on these fields.  So the split is checked where a
    # solve is well posed: lambda_max, well conditioned, against a solve of
    # every whole block, and each eigenvalue in the backward sense against its
    # whole block S^(k)
    scheme = Scheme(solver=solver, order=order, space=space)
    field, _ = base_flow_cache(scheme, epsilon=epsilon, ny=ny)
    S = assemble(field, scheme)
    C = wrapped_blocks(S)
    assert _reflected(C)
    spec = eigensolve(S)
    assert solved_dtypes == _solves(S, real=True, eigvec_read=False, p=p)
    _, lam = _all_blocks_reference(S, real=True)
    tol = max(1e-12 * max(1.0, abs(lam)), 1e-15 * np.abs(C).max())
    assert abs(spec.max_real - lam) <= tol
    # A backward-stable solve of a diagonal piece of a block lower-triangular
    # S^(k) returns the eigenvalues of S^(k) + E, ||E|| bounded as in
    # _residual_bound, plus the real form's dropped asymmetry (as in
    # test_half_spectrum_matches_all_block_solve): so sigma_min(S^(k) - lam)
    # is at most that, and the block's values sum to its trace to 4nx times it
    n = 4 * S.nx
    bound = (_residual_bound(S) + n * 3.5 * _asymmetry(C)) * np.abs(C).max()
    S_hat = _offset_blocks(S)
    vals = spec.eigenvalues.reshape(ny, n)
    for k in range(ny // 2 + 1):
        shifted = S_hat[k] - vals[k][:, None, None] * np.eye(n)
        assert np.linalg.svd(shifted, compute_uv=False)[:, -1].max() <= bound
        assert abs(vals[k].sum() - np.trace(S_hat[k])) <= n * bound


@pytest.mark.parametrize("solver", ["roe", "hllc"])
def test_lambda_max_matches_the_march(base_flow_cache, solver):
    # A perturbation of the steady shock evolves under the linear scheme
    # dW/dt = S dW, and a step of SSP-RK3 of fixed length dt applies its
    # stability polynomial P(z) = 1 + z + z^2/2 + z^3/6 at z = dt S.  So the
    # march's perturbation after n steps is P(dt S)^n dW_0, and its growth is
    # S's, lambda_max included, up to the nonlinear terms, of relative size
    # the perturbation's, and the rounding of a difference of states.  The
    # steps are fixed at 0.999 times the base flow's CFL step, passed as
    # dt_max, which stays below each perturbed state's own CFL step
    scheme = Scheme(solver=solver, order=1, space="primitive")
    field, _ = base_flow_cache(scheme, epsilon=0.1, ny=4)
    A = dense(assemble(field, scheme))
    W0 = euler.cons_to_prim(field.U)
    dt = 0.999 * marching.cfl_dt(W0, 0.1)
    z, I = dt * A, np.eye(len(A))
    P = I + z @ (I + z @ (I + z / 3.0) / 2.0)
    state = marching.inject_perturbation(field, 1e-9, seed=1)
    predicted = (euler.cons_to_prim(state.U) - W0).ravel()
    start = np.linalg.norm(predicted)
    for steps in range(1, 2001):
        state, step = marching.step_ssprk3(state, scheme, 0.1, dt)
        assert step == dt
        predicted = P @ predicted
        dW = (euler.cons_to_prim(state.U) - W0).ravel()
        assert np.linalg.norm(dW - predicted) <= 1e-3 * np.linalg.norm(dW), steps
        if np.linalg.norm(dW) >= np.exp(8.0) * start:
            break
    else:
        pytest.fail("the perturbation did not grow by e^8 in 2000 steps")
