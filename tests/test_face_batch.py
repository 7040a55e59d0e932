"""The flat face batch of ``marching.face_reconstructions`` against the
per-direction sliding-window path it replaced, kept here as the reference:
x faces and y faces windowed, reconstructed and fluxed one orientation at a
time with the scalar frames ``X_FACE`` and ``Y_FACE``."""

from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse

from shockstab import euler, fields, marching, reconstruction, riemann, shock_problem as sp, stability
from shockstab.euler import X_FACE, Y_FACE
from shockstab.scheme import Scheme

from padded_reference import padded
from test_marching import _periodic_x_field


def _x_face_windows(Upad, nx, ny):
    """(..., nx+1, ny, 5, 4) windows of the x faces of a padded field."""
    sw = np.lib.stride_tricks.sliding_window_view(Upad, 5, axis=-3)
    winL = np.moveaxis(sw[..., : nx + 1, 3 : 3 + ny, :, :], -1, -2)
    winR = np.moveaxis(sw[..., 1 : nx + 2, 3 : 3 + ny, :, :], -1, -2)
    return winL, winR


def _y_face_windows(Upad, nx, ny):
    """(..., nx, ny+1, 5, 4) windows of the y faces of a padded field."""
    sw = np.lib.stride_tricks.sliding_window_view(Upad, 5, axis=-2)
    winL = np.moveaxis(sw[..., 3 : 3 + nx, : ny + 1, :, :], -1, -2)
    winR = np.moveaxis(sw[..., 3 : 3 + nx, 1 : ny + 2, :, :], -1, -2)
    return winL, winR


def per_direction_face_reconstructions(field, Upad, scheme, linearise=True):
    """Yield (axis, solver, frame, FaceRecon) per face orientation, the face
    states on the (nx+1, ny) or (nx, ny+1) face grid."""
    Xpad = euler.cons_to_prim(Upad, "padded field") if scheme.space == "primitive" else None
    cap_masks = fields.shock_face_masks(field) if scheme.cap != "none" else (None, None)
    axes = ("x", "y") if field.ny > 1 else ("x",)
    for axis, cap_mask in zip(axes, cap_masks):
        solver, _ = scheme.per_direction(axis)
        windows, frame = (_x_face_windows, X_FACE) if axis == "x" else (_y_face_windows, Y_FACE)
        winL, winR = windows(Upad, field.nx, field.ny)
        XwinL, XwinR = (None, None) if Xpad is None else windows(Xpad, field.nx, field.ny)
        recon = reconstruction.reconstruct_pair(
            winL, winR, scheme.recon_config(axis), frame,
            cap_cfg=scheme.cap_config(axis), cap_mask=cap_mask, XwinL=XwinL, XwinR=XwinR,
            linearise=linearise,
        )
        yield axis, solver, frame, recon


def per_direction_rhs(field, scheme):
    Upad = padded(field)
    res = np.zeros(field.U.shape)
    for axis, solver, frame, recon in per_direction_face_reconstructions(
            field, Upad, scheme, linearise=False):
        flux = riemann.compute_flux(solver, recon.WL, recon.WR, frame, scheme.roe_delta0)
        res -= np.diff(flux, axis=-3 if axis == "x" else -2) / field.h
    return res


def per_direction_assemble(field, scheme):
    """S as a CSR array, scattered exactly as ``stability.assemble`` does."""
    nx, ny = field.nx, field.ny
    Wint = field.interior_primitive()
    T_out = None
    if not field.bc.periodic_x:
        T_out = np.zeros((ny, 4, 4))
        T_out[:, 0, 0] = T_out[:, 1, 1] = T_out[:, 2, 2] = 1.0
        if scheme.space != "primitive":
            T_out[:, 3, 0] = -0.5 * (Wint[nx - 1, :, 1] ** 2 + Wint[nx - 1, :, 2] ** 2)
            T_out[:, 3, 1] = Wint[nx - 1, :, 1]
            T_out[:, 3, 2] = Wint[nx - 1, :, 2]
    parts = []
    Upad = padded(field)
    for axis, solver, frame, recon in per_direction_face_reconstructions(field, Upad, scheme):
        AL_U, AR_U = stability._fd_jacobians_U(
            solver, euler.prim_to_cons(recon.WL), euler.prim_to_cons(recon.WR),
            frame, scheme.roe_delta0,
        )
        parts += stability._face_triplets(
            stability.face_blocks(recon, AL_U, AR_U), axis, field, T_out)
    rows, cols, signs, blocks = (np.concatenate(p) for p in zip(*parts))
    if scheme.space == "primitive":
        blocks = euler.dw_du(Wint).reshape(-1, 4, 4)[rows] @ blocks
    blocks = signs[:, None, None] * blocks
    comp = np.arange(4)
    entry_rows = np.broadcast_to(4 * rows[:, None, None] + comp[:, None], blocks.shape)
    entry_cols = np.broadcast_to(4 * cols[:, None, None] + comp, blocks.shape)
    n = 4 * nx * ny
    S = scipy.sparse.coo_array(
        (blocks.ravel(), (entry_rows.ravel(), entry_cols.ravel())), shape=(n, n)
    ).tocsr()
    S.eliminate_zeros()
    return S


def _fields():
    """A shock field with a transverse perturbation, whose conservative
    high-order faces hit the positivity fallback, and a periodic field."""
    shock = sp.build_initial_field(sp.ShockProblemConfig(nx=9, ny=3, shock_column=5))
    rng = np.random.default_rng(90)
    shock.U[..., 2] += 1e-3 * rng.standard_normal(shock.U.shape[:-1])
    return shock, _periodic_x_field()


SOLVERS = ("roe", "hll", "hllc", "van_leer", "hybrid-1", "hybrid-2")
SPACES = ("conservative", "primitive", "characteristic")
CAPS = ("none", "first", "second", "smoothest-third")


def _schemes(solver, space):
    # a direction hybrid fixes its own orders
    for order in (5,) if solver.startswith("hybrid") else (1, 2, 5):
        for cap in CAPS:
            yield Scheme(solver=solver, order=order, space=space, cap=cap)


@pytest.mark.parametrize("space", SPACES)
@pytest.mark.parametrize("solver", SOLVERS)
def test_face_batch_rhs_equals_the_per_direction_reference(solver, space):
    # every order and cap, batch shapes () and (2,): the same bits
    rng = np.random.default_rng(91)
    for field in _fields():
        batch = field.U * (1.0 + 1e-4 * rng.standard_normal((2,) + field.U.shape))
        for scheme in _schemes(solver, space):
            for U in (field.U, batch):
                f = replace(field, U=U)
                assert np.array_equal(marching.rhs(f, scheme), per_direction_rhs(f, scheme)), (
                    scheme.label(), U.shape)
    if space == "conservative" and Scheme(solver=solver).per_direction("x")[1] == 5:
        # the raw M = 20 jump drives p < 0 at a fifth-order x face
        shock = _fields()[0]
        batches = marching.face_reconstructions(
            shock, fields.apply_boundaries(shock), Scheme(solver=solver, order=5, space=space),
            linearise=False)
        assert any(recon.fallback.any() for _, _, recon in batches)


@pytest.mark.parametrize("space", SPACES)
@pytest.mark.parametrize("solver", SOLVERS)
def test_face_batch_assembly_equals_the_per_direction_reference(solver, space):
    for field in _fields():
        for scheme in _schemes(solver, space):
            S = stability.assemble(field, scheme, check_steady=False).matrix
            ref = per_direction_assemble(field, scheme)
            assert np.array_equal(S.indptr, ref.indptr), scheme.label()
            assert np.array_equal(S.indices, ref.indices), scheme.label()
            assert np.array_equal(S.data, ref.data), scheme.label()


@pytest.mark.parametrize("solver, batches", [
    ("roe", 1), ("hll", 1), ("hllc", 1), ("van_leer", 1), ("hybrid-1", 2), ("hybrid-2", 2),
])
def test_one_reconstruction_and_one_flux_call_per_scheme_part(monkeypatch, solver, batches):
    calls = {"reconstruct_pair": 0, "compute_flux": 0}

    def counting(module, name):
        original = getattr(module, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)

    counting(reconstruction, "reconstruct_pair")
    counting(riemann, "compute_flux")
    field = sp.build_initial_field(sp.ShockProblemConfig(ny=4))
    marching.rhs(field, Scheme(solver=solver, order=5, cap="second"))
    assert calls == {"reconstruct_pair": batches, "compute_flux": batches}


def test_face_table_windows_and_normals():
    # every window runs along its face's normal through the face's two cells
    nx, ny = 4, 3
    table = fields.face_table(nx, ny, ("x", "y"), False)
    assert table.grids == (("x", (nx + 1, ny)), ("y", (nx, ny + 1)))
    left, right = table.left, table.right
    n_x = table.frame.nx.astype(int)[:, None]
    assert np.array_equal(table.frame.nx ** 2 + table.frame.ny ** 2, np.ones(len(left)))
    # windows of interior cells step one cell along the normal, wrapping in y
    inner = (np.stack([left, right]) < nx * ny).all(axis=(0, 2))
    i, j = np.divmod(left[inner], ny)
    assert np.all(np.diff(i, axis=1) == n_x[inner]) and np.all(np.diff(j, axis=1) % ny == 1 - n_x[inner])
    assert np.array_equal(right[:, :-1], left[:, 1:])
    # face k of the x faces in row j has left cell (k-1, j), the face l of
    # the y faces in column i has left cell (i, l-1), wrapped
    cell = np.arange(nx * ny).reshape(nx, ny)
    x_left = left[: (nx + 1) * ny, 2].reshape(nx + 1, ny)
    assert np.array_equal(x_left[0], np.full(ny, nx * ny))  # the inflow state
    assert np.array_equal(x_left[1:], cell)
    assert np.array_equal(left[(nx + 1) * ny :, 2].reshape(nx, ny + 1), cell[:, np.arange(-1, ny) % ny])
    # every state is read: the cells, the inflow state and each row's outflow state
    assert np.array_equal(np.unique(np.stack([left, right])), np.arange(nx * ny + 1 + ny))
    assert fields.face_table(nx, ny, ("x", "y"), False) is table
    # a single orientation keeps its scalar normal
    assert fields.face_table(nx, ny, ("y",), False).frame is euler.Y_FACE


def test_state_windows_equal_the_padded_reference_windows():
    # the windows gathered from the state axis are the very windows of the
    # padded layout, for both boundary kinds, a single row and a batch
    shock, periodic = _fields()
    row = sp.build_initial_field(sp.ShockProblemConfig(ny=1))
    rng = np.random.default_rng(92)
    batch = replace(shock, U=shock.U * (1.0 + 1e-4 * rng.standard_normal((3,) + shock.U.shape)))
    for field in (shock, periodic, row, batch):
        states, Upad = fields.apply_boundaries(field), padded(field)
        table = fields.face_table(field.nx, field.ny, ("x", "y"), field.bc.periodic_x)
        for side, index in enumerate((table.left, table.right)):
            gathered = table.split(marching._windows(states, index), field.U.ndim - 3)
            for (orientation, win), ref in zip(gathered, (_x_face_windows, _y_face_windows)):
                expect = ref(Upad, field.nx, field.ny)[side]
                assert np.array_equal(win, expect), (field.U.shape, orientation, side)
