from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg
from scipy.optimize import linear_sum_assignment

from shockstab import euler, fields, reconstruction as rc, riemann, shock_problem as sp, stability
from shockstab.errors import DifferentiationError, InvalidStateError, UnsteadyFieldError
from shockstab.euler import X_FACE
from shockstab.fields import BoundarySpec, MeanField
from shockstab.scheme import Scheme
from shockstab.stability import Spectrum, assemble, eigensolve, localize

from circulant import dense, wrapped_blocks
from euler_reference import analytic_flux_jacobian, characteristic_eigenvalues
from padded_reference import NG
from side_axis import face_flux, halves, side_states, side_windows
from test_euler import random_states
from test_face_batch import SOLVERS, SPACES, _schemes



def uniform_periodic_field(W, nx=6, ny=5):
    U = euler.prim_to_cons(np.asarray(W, dtype=float))
    interior = np.broadcast_to(U, (nx, ny, 4)).copy()
    return MeanField(U=interior, bc=BoundarySpec(periodic_x=True))


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
def test_assemble_makes_one_flux_call_per_batch(monkeypatch, solver, batches):
    calls = []
    original = riemann.compute_flux

    def counted(*args, **kwargs):
        calls.append(args[0])
        return original(*args, **kwargs)

    monkeypatch.setattr(riemann, "compute_flux", counted)
    field, _ = initial_shock_field(ny=4)
    assemble(field, Scheme(solver=solver, order=5), check_steady=False)
    assert len(calls) == batches


@pytest.mark.parametrize("solver, orientation, face", [
    pytest.param("roe", "x/y", 15, id="roe-x/y"),
    pytest.param("hybrid-1", "y", 3, id="hybrid-1-y"),
])
def test_assemble_names_the_face_of_a_non_finite_flux_jacobian(monkeypatch, solver, orientation,
                                                               face):
    # one probe flux of y face 3 of the row is NaN: the +h probe of the right
    # state's rho v.  The row has 12 x faces and then 11 y faces, so y face 3
    # is face 15 of the joint table and face 3 of the hybrid's y part
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
                       match=rf"^non-finite flux Jacobian at {orientation}-face \[\[{face}\]\]$"):
        assemble(field, Scheme(solver=solver), check_steady=False)
    assert len(broken) == 1


# ------------------------------------------------------------- face blocks


def _recon_for(win, kind, space="conservative"):
    cfg = rc.ReconConfig(kind=kind, space=space, weno_variant="z")
    return rc.reconstruct_pair(side_windows(win, win), cfg, X_FACE)


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
    recon = rc.reconstruct_pair(side_windows(win, win), cfg, X_FACE)
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


def test_assemble_refuses_a_batch_of_fields():
    # the scatter would read the batch axis as the face normal
    field, _ = initial_shock_field(ny=4)
    batch = MeanField(U=np.stack([field.U, field.U]), bc=field.bc, shock_column=field.shock_column)
    with pytest.raises(ValueError, match=r"\(2, 11, 4, 4\)"):
        assemble(batch, Scheme(solver="roe", order=1), check_steady=False)


def test_assemble_refuses_a_signed_zero_off_row_0():
    # -0.0 == 0.0, but rows are compared bit for bit
    field, _ = initial_shock_field(nx=9, ny=3, shock_column=5)
    assert field.U[4, 0, 2] == 0.0 and not np.signbit(field.U[4, 0, 2])
    field.U[4, 2, 2] = -0.0
    with pytest.raises(ValueError, match=r"cell \(4, 2\) differs from cell \(4, 0\)$"):
        assemble(field, Scheme(solver="roe", order=1), check_steady=False)


def test_assemble_names_a_nan_column_as_an_invalid_state():
    # rows are compared bit for bit, so a column of equal NaNs is uniform
    # along y and reaches the state check, which names its cells
    field, _ = initial_shock_field(nx=9, ny=3, shock_column=5)
    field.U[6, :, 0] = np.nan
    with pytest.raises(InvalidStateError, match=r"\(6, 0\), \(6, 1\), \(6, 2\)$"):
        assemble(field, Scheme(solver="roe", order=1))


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
    # supersonic 1xN periodic strip: S is the classic circulant upwind
    # difference; eigenvalues lie on circles -s*lam*(1 - exp(-i theta)),
    # s = 1 on unit cells
    N = 16
    W = np.array([1.4, 20.0, 0.0, 1.0])
    field = uniform_periodic_field(W, nx=N, ny=1)
    S = assemble(field, Scheme(solver="roe", order=1), check_steady=True)
    spec = eigensolve(S)
    sigma = 1.0
    lam_a = characteristic_eigenvalues(W, X_FACE)
    thetas = 2.0 * np.pi * np.arange(N) / N
    expected = np.concatenate(
        [-sigma * la * (1.0 - np.exp(-1j * thetas)) for la in lam_a]
    )
    # every computed eigenvalue matches one expected value
    d = np.abs(spec.eigenvalues[:, None] - expected[None, :]).min(axis=1)
    assert d.max() < 1e-5 * sigma * np.abs(lam_a).max()
    assert spec.max_real < 1e-8


@pytest.mark.parametrize("order", [1, 2, 5])
@pytest.mark.parametrize("space", ["conservative", "primitive", "characteristic"])
def test_uniform_field_kernel(order, space):
    # constant perturbations are invisible to consistent flux differences
    field = uniform_periodic_field([1.4, 0.7, 0.4, 1.0])
    S = assemble(field, Scheme(solver="hllc", order=order, space=space))
    rng = np.random.default_rng(43)
    c = rng.standard_normal(4)
    A = dense(S)
    vec = np.tile(c, S.nx * S.ny)
    out = A @ vec
    assert np.abs(out).max() < 1e-7 * max(1.0, np.abs(A).max())


def test_first_order_space_equivalence():
    # the three assemblies are similar matrices, so their spectra coincide.
    # The upstream convection chain makes most eigenvalues badly defective
    # (pointwise comparison is ill-posed in floating point), so the
    # equivalence is asserted at the matrix level, which implies it, plus on
    # the well-conditioned dominant eigenvalue.
    field, cfg = initial_shock_field()
    mats = {}
    doms = {}
    for space in ("conservative", "primitive", "characteristic"):
        S = assemble(field, Scheme(solver="roe", order=1, space=space),
                     check_steady=False)
        mats[space] = dense(S)
        doms[space] = eigensolve(S).max_real
    scale = np.abs(mats["conservative"]).max()
    # primitive: similarity by block-diag(dU/dW) at the cell means
    W = field.interior_primitive()
    n = mats["conservative"].shape[0]
    D = np.zeros((n, n))
    for i in range(cfg.nx):
        for j in range(cfg.ny):
            c = 4 * (i * cfg.ny + j)
            D[c : c + 4, c : c + 4] = euler.du_dw(W[i, j])
    sim = np.linalg.solve(D, mats["conservative"] @ D)
    assert np.abs(sim - mats["primitive"]).max() < 1e-10 * scale
    # characteristic: R L = I makes the first-order matrix identical
    assert np.abs(mats["characteristic"] - mats["conservative"]).max() < 1e-8 * scale
    for space in ("primitive", "characteristic"):
        assert abs(doms[space] - doms["conservative"]) < 1e-6 * max(1.0, abs(doms["conservative"]))


def test_block_counts_by_order():
    field, cfg = initial_shock_field()
    # downstream interior cell: all couplings alive for Roe and HLL
    i, j = 7, 5
    for solver in ("roe", "hll"):
        for order, expect in ((1, 5), (2, 9), (5, 13)):
            S = assemble(field, Scheme(solver=solver, order=order), check_steady=False)
            cols = block_cols(S)
            assert len(cols[i][j]) == expect, (solver, order)
            # structure bound everywhere
            counts = [len(cols[a][b]) for a in range(cfg.nx) for b in range(cfg.ny)]
            assert max(counts) <= expect


def test_transverse_blocks_couple_a_cell_to_its_own_column():
    # a y face's window lies in its own column, so every C(d) with d != 0 is
    # block-diagonal in the column i: each 4x4 block coupling column i to a
    # column i' != i is exactly 0.  Every solver, order, space and cap
    field, cfg = initial_shock_field(epsilon=0.1)
    off_diagonal = ~np.eye(cfg.nx, dtype=bool)
    for scheme in (s for solver in SOLVERS for space in SPACES for s in _schemes(solver, space)):
        C = assemble(field, scheme, check_steady=False).block_row
        blocks = C.reshape(stability.OFFSETS, cfg.nx, 4, cfg.nx, 4).transpose(0, 1, 3, 2, 4)
        for d in (-3, -2, -1, 1, 2, 3):
            assert np.all(blocks[d][off_diagonal] == 0.0), (scheme.label(), d)


def test_inflow_rows_reference_no_ghosts():
    field, cfg = initial_shock_field()
    S = assemble(field, Scheme(solver="roe", order=5), check_steady=False)
    pattern = block_cols(S)
    n = cfg.nx * cfg.ny
    for row in pattern:
        for cols in row:
            assert all(0 <= c < n for c in cols)
    # the first column couples to fewer upstream neighbors than an interior row
    assert len(pattern[0][5]) < len(pattern[7][5])
    cols = sorted(c // cfg.ny for c in pattern[0][5])
    assert min(cols) == 0  # nothing left of the boundary


def test_outflow_ghost_chain_rule():
    # the last column's rightward couplings fold onto itself through the
    # pressure-pinned copy; with the pin, a pressure perturbation of the
    # last cell must not propagate through the ghost energy entry
    field, cfg = initial_shock_field()
    S = assemble(field, Scheme(solver="roe", order=5), check_steady=False)
    last = cfg.nx - 1
    cols = sorted(c // cfg.ny for c in block_cols(S)[last][5])
    assert max(cols) == last  # ghost blocks were folded, not dropped


def _loop_assembly(field, scheme):
    """Dense S scattered face by face, offset by offset: the reference for
    the vectorised scatter of ``assemble``."""
    from shockstab import marching

    nx, ny, ng = field.nx, field.ny, NG
    sigma = 1.0  # unit cells
    W = field.interior_primitive()
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

    periodic_x = field.bc.periodic_x
    states = fields.apply_boundaries(field)
    for table, solver, recon in marching.face_reconstructions(field, states, scheme):
        A = stability._fd_jacobians_U(
            solver, euler.prim_to_cons(recon.W), table.frame)
        for axis, B in table.split(stability.face_blocks(recon, A), 0):
            if axis == "x":
                for k in range(nx if periodic_x else nx + 1):
                    for j in range(ny):
                        for o in range(6):
                            i_col, blk = k + o - ng, B[k, j, o]
                            if periodic_x:
                                i_col %= nx
                            elif i_col < 0:
                                continue  # inflow ghost
                            elif i_col >= nx:
                                i_col, blk = nx - 1, blk @ outflow_chain(j)
                            for i_row, sign in ((k - 1, -sigma), (k, sigma)):
                                if periodic_x:
                                    i_row %= nx
                                if 0 <= i_row < nx:
                                    add(i_row, j, i_col, j, sign, blk)
            else:
                for i in range(nx):
                    for l in range(ny):
                        for o in range(6):
                            for j_row, sign in (((l - 1) % ny, -sigma), (l, sigma)):
                                add(i, j_row, i, (l + o - ng) % ny, sign, B[i, l, o])
    return S


def test_sparse_scatter_matches_loop_reference():
    # the vectorised scatter sums in another order, so agreement is to a few
    # ulps of the largest entry, for every order, space, cap and boundary kind.
    # The periodic field varies along x only, so its rows stay equal
    shock = sp.build_initial_field(sp.ShockProblemConfig(ny=5))
    periodic = uniform_periodic_field([1.4, 0.9, 0.3, 1.1], nx=6, ny=6)
    rng = np.random.default_rng(46)
    periodic.U *= 1.0 + 0.01 * rng.standard_normal((periodic.nx, 1, 4))
    cases = [
        (shock, Scheme(solver="roe", order=5, space="primitive", cap="second")),
        (shock, Scheme(solver="hllc", order=2, space="conservative")),
        (shock, Scheme(solver="hybrid-1", space="characteristic", cap="first")),
        (periodic, Scheme(solver="hll", order=5, space="characteristic")),
        (periodic, Scheme(solver="van_leer", order=1, space="primitive")),
    ]
    for field, scheme in cases:
        ref = _loop_assembly(field, scheme)
        S = dense(assemble(field, scheme, check_steady=False))
        assert np.abs(S - ref).max() <= 1e-14 * np.abs(ref).max(), scheme.label()


def _rhs_derivative_mismatch(field, scheme, v, eps=1e-7):
    """max |d rhs/d U . v - S v| by central differences, and max |d rhs . v|."""
    from shockstab import marching

    S = assemble(field, scheme, check_steady=False)
    fp = field.copy()
    fp.U += eps * v.reshape(field.nx, field.ny, 4)
    fm = field.copy()
    fm.U -= eps * v.reshape(field.nx, field.ny, 4)
    dr = (marching.rhs(fp, scheme) - marching.rhs(fm, scheme)) / (2 * eps)
    Sv = (dense(S) @ v).reshape(field.nx, field.ny, 4)
    return np.max(np.abs(dr - Sv)), np.abs(dr).max()


def test_assemble_matches_rhs_directional_derivative():
    # S is the (frozen-weight) linearization of the nonlinear residual: for
    # first order (no weights at all) a directional derivative of rhs must
    # match S @ v
    field = uniform_periodic_field([1.4, 0.9, 0.3, 1.1], nx=6, ny=6)
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
    S = stability.StabilityMatrix(
        nx=M.shape[0] // 4, ny=1, space="conservative",
        W_mean=np.tile([1.0, 0.0, 0.0, 1.0], (M.shape[0] // 4, 1, 1)), block_row=C,
    )
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
    """||S v - lambda v|| / (||v|| max|S|) of the returned dominant pair."""
    A, v = dense(S), spec.eigvec_grid.ravel()
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
    S = stability.StabilityMatrix(
        nx=nx, ny=ny, space="conservative", W_mean=np.tile([1.0, 0.0, 0.0, 1.0], (nx, ny, 1)),
        block_row=C,
    )
    return dense(S), S


def _reflected(C):
    """Whether C(-d mod ny) = P C(d) P to ``REFLECTION_RTOL`` of max |C|, which
    makes every Fourier block similar to a real matrix."""
    ny, n = C.shape[:2]
    flip = np.tile([1.0, 1.0, -1.0, 1.0], n // 4)
    deviation = np.abs(C[-np.arange(ny) % ny] - flip[:, None] * C * flip).max()
    return bool(deviation <= stability.REFLECTION_RTOL * np.abs(C).max())


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
    """dtypes of the arrays that ``eigensolve`` hands to its two solvers."""
    seen = []

    def recording(solve):
        def wrapped(a, *args, **kwargs):
            seen.append(np.asarray(a).dtype)
            return solve(a, *args, **kwargs)
        return wrapped

    monkeypatch.setattr(np.linalg, "eigvals", recording(np.linalg.eigvals))
    monkeypatch.setattr(np.linalg, "eig", recording(np.linalg.eig))
    return seen


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
    # a reflected S hands real blocks T(k) to both solves, any other complex ones
    assert solved_dtypes == [np.dtype(float if reflected else complex)] * 2
    assert spec.max_real_by_k.shape == (5,)
    # ny is odd, so every block but k = 0 is complex: the residual below then
    # also checks the phase exp(2 pi i k j / ny) of the grid eigenvector, and
    # on a real block the component-2 factor i of D
    assert int(np.argmax(spec.max_real_by_k)) != 0
    _assert_full_spectrum(A, spec)
    assert _dominant_residual(S, spec) < _residual_bound(S)


@pytest.mark.parametrize("reflected", [False, True], ids=["complex", "real"])
@pytest.mark.parametrize("ny", [1, 2, 3, 4, 5, 8, 16, 32])
def test_half_spectrum_mirrors_the_conjugate_blocks(solved_dtypes, ny, reflected):
    # only blocks k <= ny // 2 are solved; ny = 1 and 2 mirror none, and an
    # even ny has the real Nyquist block k = ny / 2, its own conjugate.  From
    # ny = 16 the FFT's S^(ny - k) differs from conj S^(k) in the last bits,
    # so a solve of every block breaks the exact mirror below
    A, S = _random_circulant(nx=2, ny=ny, seed=50 + ny, reflected=reflected)
    spec = eigensolve(S)
    assert solved_dtypes == [np.dtype(float if reflected else complex)] * 2
    _assert_full_spectrum(A, spec)
    by_k = spec.max_real_by_k
    assert np.array_equal(by_k[1:], by_k[1:][::-1])
    # the dominant mode is v[i] exp(2 pi i k* j / ny): its FFT along j peaks at k*
    k_star = int(np.argmax(np.abs(np.fft.fft(spec.eigvec_grid, axis=1)).sum(axis=(0, 2))))
    assert k_star <= ny // 2
    assert by_k[k_star] == spec.max_real
    assert _dominant_residual(S, spec) < _residual_bound(S)
    if reflected:  # a real solve returns a conjugate pair's upper member first
        assert spec.dominant.imag >= 0.0


def test_one_odd_entry_keeps_the_complex_blocks(solved_dtypes):
    # one entry of C(d) off its reflection by 1e-12 max|C|, above
    # REFLECTION_RTOL: every block stays complex, solved as before.  On
    # ny = 32, C(-3) sits in slot 29, the far slot that S occupies
    for ny, d in ((8, 1), (32, -3)):
        solved_dtypes.clear()
        _, S = _random_circulant(nx=2, ny=ny, seed=52, reflected=True)
        assert _reflected(wrapped_blocks(S))
        C = S.block_row.copy()
        C[d, 0, 5] += 1e-12 * np.abs(C).max()
        A, S = _circulant(C, ny)
        assert not _reflected(wrapped_blocks(S))
        spec = eigensolve(S)
        assert solved_dtypes == [np.dtype(complex)] * 2
        by_k, _ = _all_blocks_reference(S, real=False)
        assert np.array_equal(spec.max_real_by_k[: ny // 2 + 1], by_k[: ny // 2 + 1])
        _assert_full_spectrum(A, spec)
        # ny = 32 leaves 1.4e-14, above ny = 8's fixed bound: it gets the dtype's
        assert _dominant_residual(S, spec) < (1e-14 if ny == 8 else _residual_bound(S))


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


def _all_blocks_reference(S, real):
    """(max_real_by_k, max_real) of a solve of every Fourier block, the
    conjugate ones included: the Fourier path before it mirrored them.
    ``real`` solves T(k) = Re(D^-1 S^(k) D), D = diag(1, 1, i, 1) per cell,
    written out entry by entry, in place of S^(k)."""
    S_hat = S.ny * np.fft.ifft(wrapped_blocks(S), axis=0)
    if real:
        v = np.arange(4 * S.nx) % 4 == 2  # rows and columns of component 2
        T = S_hat.real.copy()
        T[:, v[:, None] & ~v] = S_hat.imag[:, v[:, None] & ~v]
        T[:, ~v[:, None] & v] = -S_hat.imag[:, ~v[:, None] & v]
        S_hat = T
    block_vals = [scipy.linalg.eigvals(B) for B in S_hat]
    k_star = int(np.argmax([v.real.max() for v in block_vals]))
    block_vals[k_star] = scipy.linalg.eig(S_hat[k_star])[0]
    return np.array([v.real.max() for v in block_vals]), np.concatenate(block_vals).real.max()


@pytest.mark.parametrize("solver, order, space, epsilon, ny, real", [
    ("roe", 1, "primitive", 0.1, 8, True),
    # its Roe y-face Jacobians miss the reflection by 1.2e-14 max|C|
    ("roe", 5, "characteristic", 0.5, 4, False),
])
def test_half_spectrum_matches_all_block_solve(base_flow_cache, solver, order, space, epsilon,
                                               ny, real):
    scheme = Scheme(solver=solver, order=order, space=space)
    field, _ = base_flow_cache(scheme, epsilon=epsilon, ny=ny)
    S = assemble(field, scheme)
    C = wrapped_blocks(S)
    assert _reflected(C) == real
    spec = eigensolve(S)
    by_k, lam = _all_blocks_reference(S, real)
    assert np.array_equal(spec.max_real_by_k[: ny // 2 + 1], by_k[: ny // 2 + 1])
    tol = max(1e-12 * max(1.0, abs(lam)), 1e-15 * np.abs(C).max())
    assert abs(spec.max_real - lam) <= tol
    # across the forms: the real blocks' lambda_max is the complex blocks'
    _, lam_complex = _all_blocks_reference(S, real=False)
    assert abs(spec.max_real - lam_complex) <= tol


def test_localize_synthetic():
    vec = np.zeros((11, 11, 4), dtype=complex)
    vec[5, 3, 2] = 1.0  # cell (6, 4) in 1-based labels
    spec = Spectrum(
        eigenvalues=np.zeros(4), max_real=0.0, dominant=0j,
        eigvec_grid=vec, eigvec_primitive=vec, max_real_by_k=np.zeros(11),
    )
    profile, col = localize(spec)
    assert col == 6
    assert profile[5] == 1.0
    flat = Spectrum(
        eigenvalues=np.zeros(4), max_real=0.0, dominant=0j,
        eigvec_grid=np.ones((7, 7, 4), dtype=complex),
        eigvec_primitive=np.ones((7, 7, 4), dtype=complex), max_real_by_k=np.zeros(7),
    )
    prof, _ = localize(flat)
    assert np.allclose(prof, 1.0)
