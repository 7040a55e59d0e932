"""The flat face batch of ``marching.face_reconstructions`` against the
per-direction sliding-window path it replaced, kept here as the reference:
x faces and y faces windowed, reconstructed and fluxed one orientation at a
time with the scalar frames ``X_FACE`` and ``Y_FACE``, their shock faces
flagged by per-orientation masks, and their blocks scattered by offsets
along the face normal, with a hand-built outflow chain rule.  Each face
grid is flattened onto the side axis the package takes."""

from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg

from shockstab import euler, fields, marching, reconstruction, riemann, shock_problem as sp, stability
from shockstab.errors import InvalidStateError
from shockstab.euler import X_FACE, Y_FACE
from shockstab.scheme import Scheme

from circulant import dense
from padded_reference import padded
from residual import residual
from side_axis import side_windows, window_cells
from test_marching import _smooth_field


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


def shock_face_masks(field):
    """Boolean masks of faces touching the shock column: x faces of shape
    (nx+1, ny), y faces of shape (nx, ny+1), shared by every batch member.
    Empty masks without a column."""
    nx, ny = field.nx, field.ny
    mask_x = np.zeros((nx + 1, ny), dtype=bool)
    mask_y = np.zeros((nx, ny + 1), dtype=bool)
    if field.shock_column is not None:
        col = field.shock_column - 1  # to 0-based
        mask_x[col] = True  # left face of the shock column
        mask_x[col + 1] = True  # right face
        mask_y[col] = True  # all transverse faces of the column
    return mask_x, mask_y


def per_direction_face_reconstructions(field, Xpad, scheme, linearise=True):
    """Yield (axis, solver, frame, grid, FaceRecon) per face orientation: the
    windows of the (nx+1, ny) or (nx, ny+1) face grid of the padded states
    ``Xpad``, in the scheme's window variables, are flattened onto the side
    axis.  A part that carries a cap takes it on the shock's faces."""
    axes = ("x", "y") if field.ny > 1 else ("x",)
    for axis, cap_mask in zip(axes, shock_face_masks(field)):
        _, solver, cfg, cap_cfg = next(part for part in scheme.parts if axis in part[0])
        windows, frame = (_x_face_windows, X_FACE) if axis == "x" else (_y_face_windows, Y_FACE)
        winL, winR = (w.reshape(w.shape[:-4] + (-1, 5, 4)) for w in windows(Xpad, field.nx, field.ny))
        win = side_windows(winL, winR)
        recon = reconstruction.reconstruct_pair(win, window_cells(win, cfg.space), cfg, frame,
                                                cap_cfg, cap_mask.ravel(), linearise=linearise)
        grid = (field.nx + 1, field.ny) if axis == "x" else (field.nx, field.ny + 1)
        yield axis, solver, frame, grid, recon


def per_direction_rhs(field, scheme):
    Xpad = padded(field, scheme.space == "primitive")
    res = np.zeros(field.U.shape)
    for axis, solver, frame, grid, recon in per_direction_face_reconstructions(
            field, Xpad, scheme, linearise=False):
        flux = riemann.compute_flux(solver, recon.W, frame)
        flux = flux.reshape(flux.shape[:-2] + grid + (4,))
        res -= np.diff(flux, axis=-3 if axis == "x" else -2)
    return res


def face_triplets(B, axis, field, T_out):
    """(row cells, column cells, signs, 4x4 blocks) of one face orientation,
    once for the cell before the faces and once for the cell after them.

    ``B`` holds the face blocks as ``face_blocks`` returns them.  Face k
    along the normal lies between interior cells k-1 and k, and its offset
    o reaches interior cell k+o-3.  The periodic y direction wraps; along x
    the inflow ghost columns are dropped and the outflow ghost columns fold
    onto the last column through ``T_out``.
    """
    if axis == "y":
        B = B.swapaxes(0, 1)  # normal face index first
    n = field.nx if axis == "x" else field.ny
    periodic = axis == "y"
    if periodic:
        B = B[:n]  # face n repeats face 0
    k, t, o = np.indices(B.shape[:3])  # normal face, transverse cell, offset
    col = k + o - 3
    keep = periodic | (col >= 0)
    if periodic:
        col %= n
    else:
        ghost = col >= n
        B[ghost] = B[ghost] @ T_out[t[ghost]]
        col = np.minimum(col, n - 1)

    def cell(normal, across):
        return normal * field.ny + across if axis == "x" else across * field.ny + normal

    sigma = 1.0  # unit cells
    parts = []
    for row, sign in ((k - 1, -sigma), (k, sigma)):
        if periodic:
            row = row % n
        ok = keep & (row >= 0) & (row < n)
        parts.append((cell(row[ok], t[ok]), cell(col[ok], t[ok]),
                      np.full(ok.sum(), sign), B[ok]))
    return parts


def per_direction_assemble(field, scheme):
    """S as a dense array, every face reconstructed and every row scattered on
    its own.  On a y-uniform field with ny >= 7, block row j = 0 of the
    circ(C) of ``stability.assemble`` has these very bits."""
    nx, ny = field.nx, field.ny
    Wint = field.interior_primitive()
    T_out = np.zeros((ny, 4, 4))
    T_out[:, 0, 0] = T_out[:, 1, 1] = T_out[:, 2, 2] = 1.0
    if scheme.space != "primitive":
        T_out[:, 3, 0] = -0.5 * (Wint[nx - 1, :, 1] ** 2 + Wint[nx - 1, :, 2] ** 2)
        T_out[:, 3, 1] = Wint[nx - 1, :, 1]
        T_out[:, 3, 2] = Wint[nx - 1, :, 2]
    parts = []
    Xpad = padded(field, scheme.space == "primitive")
    for axis, solver, frame, grid, recon in per_direction_face_reconstructions(field, Xpad, scheme):
        A_U = stability._fd_jacobians_U(solver, euler.prim_to_cons(recon.W), frame)
        B = stability.face_blocks(recon, A_U).reshape(grid + (6, 4, 4))
        parts += face_triplets(B, axis, field, T_out)
    rows, cols, signs, blocks = (np.concatenate(p) for p in zip(*parts))
    if scheme.space == "primitive":
        blocks = euler.dw_du(Wint).reshape(-1, 4, 4)[rows] @ blocks
    blocks = signs[:, None, None] * blocks
    n = 4 * nx * ny
    comp = np.arange(4)
    # the duplicates are summed in scatter order
    entries = ((4 * rows)[:, None, None] + comp[:, None]) * n + (4 * cols)[:, None, None] + comp
    return np.bincount(entries.ravel(), blocks.ravel(), n * n).reshape(n, n)


def _fields():
    """A shock field with a transverse perturbation, whose conservative
    high-order faces hit the positivity fallback, and a smooth field."""
    shock = sp.build_initial_field(sp.ShockProblemConfig(nx=9, ny=3, shock_column=5))
    rng = np.random.default_rng(90)
    shock.U[..., 2] += 1e-3 * rng.standard_normal(shock.U.shape[:-1])
    return shock, _smooth_field()


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
                assert np.array_equal(residual(f, scheme), per_direction_rhs(f, scheme)), (
                    scheme.label(), U.shape)
    if space == "conservative" and Scheme(solver=solver).parts[0][2].kind == "weno5":
        # the raw M = 20 jump drives p < 0 at a fifth-order x face
        shock = _fields()[0]
        batches = marching.face_reconstructions(
            shock, fields.apply_boundaries(shock, False),
            Scheme(solver=solver, order=5, space=space), linearise=False)
        assert any(recon.fallback.any() for _, _, recon in batches)


def _y_uniform_fields():
    """The fields of ``_fields`` made uniform along y on 7 rows: the shock's
    transverse perturbation is drawn per column, and the smooth field
    repeats its row 0."""
    ny = 7
    shock = sp.build_initial_field(sp.ShockProblemConfig(nx=9, ny=ny, shock_column=5))
    rng = np.random.default_rng(90)
    shock.U[..., 2] += 1e-3 * rng.standard_normal((shock.nx, 1))
    smooth = _smooth_field()
    return shock, replace(smooth, U=np.repeat(smooth.U[:, :1], ny, axis=1))


def _block_row_0(nx, ny):
    """Rows of S that belong to the cells (i, 0)."""
    return (4 * ny * np.arange(nx)[:, None] + np.arange(4)).ravel()


@pytest.mark.parametrize("space", SPACES)
@pytest.mark.parametrize("solver", SOLVERS)
def test_face_batch_assembly_equals_the_per_direction_reference(solver, space, unsteady_base_flow):
    # every order and cap on 7 rows, where no two offsets share a slot: block
    # row j = 0 of circ(C) holds the bits of the reference's block row 0
    for field in _y_uniform_fields():
        row0 = _block_row_0(field.nx, field.ny)
        for scheme in _schemes(solver, space):
            A = dense(stability.assemble(field, scheme))
            ref = per_direction_assemble(field, scheme)
            assert np.array_equal(A[row0], ref[row0]), scheme.label()
    if space == "conservative" and Scheme(solver=solver).parts[0][2].kind == "weno5":
        # the raw M = 20 jump drives p < 0 at a fifth-order x face
        shock = _y_uniform_fields()[0]
        batches = marching.face_reconstructions(
            shock, fields.apply_boundaries(shock, False),
            Scheme(solver=solver, order=5, space=space), linearise=False)
        assert any(recon.fallback.any() for _, _, recon in batches)


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
    residual(field, Scheme(solver=solver, order=5, cap="second"))
    assert calls == {"reconstruct_pair": batches, "compute_flux": batches}


@pytest.mark.parametrize("space", SPACES)
@pytest.mark.parametrize("solver, batches", [("roe", 1), ("hybrid-2", 2)])
def test_one_left_state_call_and_one_window_gather_per_face_batch(monkeypatch, space, solver,
                                                                   batches):
    # one gather per part of its faces' own cells from the primitive axis,
    # then, for a WENO part, one of five-slot windows and one left-state
    # call.  hybrid-2's first-order y part gathers only its cells and makes
    # no left-state call, in every space
    calls = {"_left_state": 0, "gather_windows": []}

    def counting(module, name, record):
        original = getattr(module, name)

        def counted(*args, **kwargs):
            record(*args)
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)

    def left_state(*args):
        calls["_left_state"] += 1

    counting(reconstruction, "_left_state", left_state)
    counting(marching, "gather_windows", lambda states, index: calls["gather_windows"].append(
        index.shape[1:]))
    field = sp.build_initial_field(sp.ShockProblemConfig(ny=4))
    residual(field, Scheme(solver=solver, order=5, space=space))
    assert calls["gather_windows"] == [(), (5,), ()][:batches + 1]
    assert calls["_left_state"] == 1


def _adjacent_cells(field, primitive):
    """(2F, 4) side-stacked cells before and after every face of the flat
    face axis, x faces then y faces, from the padded reference: x face k of
    row j lies between cells (k-1, j) and (k, j), y face l of column i
    between cells (i, l-1) and (i, l)."""
    P = padded(field, primitive)[2:, 2:]  # cell (i, j) at [i + 1, j + 1]
    nx, ny = field.nx, field.ny
    left = [P[: nx + 1, 1 : ny + 1], P[1 : nx + 1, : ny + 1]]
    right = [P[1 : nx + 2, 1 : ny + 1], P[1 : nx + 1, 1 : ny + 2]]
    return np.concatenate([c.reshape(-1, 4) for c in left + right])


@pytest.mark.parametrize("space", ["primitive", "conservative", "characteristic"])
@pytest.mark.parametrize("solver", ["roe", "hllc", "van_leer"])
def test_first_order_faces_are_their_cells(solver, space):
    # a first-order part's two states of a face are the primitive states of
    # the cells before and after it, the ghosts' converted back outside the
    # primitive space, bit for bit, and no
    # face falls back; linearised, each state reads its own cell, window
    # slot 2, with weight 1
    scheme = Scheme(solver=solver, order=1, space=space)
    primitive = space == "primitive"
    shock = sp.build_initial_field(sp.ShockProblemConfig(ny=3))
    rng = np.random.default_rng(34)
    perturbed = replace(shock, U=shock.U * (1.0 + 1e-3 * rng.standard_normal(shock.U.shape)))
    first = np.zeros((5, 4))
    first[2] = 1.0
    for field in (shock, perturbed):
        cells = _adjacent_cells(field, primitive)
        expected = cells if primitive else euler.cons_to_prim(cells)
        states = fields.apply_boundaries(field, primitive)
        for linearise in (True, False):
            (table, _, recon), = marching.face_reconstructions(field, states, scheme,
                                                               linearise=linearise)
            assert recon.W.shape == expected.shape == (2 * len(table.window), 4)
            assert recon.W.tobytes() == expected.tobytes()
            assert recon.fallback.shape == (len(table.window),) and not recon.fallback.any()
            if linearise:
                assert np.array_equal(recon.lin, np.broadcast_to(first, recon.W.shape[:1] + (5, 4)))
            else:
                assert recon.lin is None
    # a row whose cell 7 has p < 0 is refused by the conversion of its
    # cells, which names the cell by (i, j), in every space
    row = sp.build_initial_field(sp.ShockProblemConfig(), ny=1)
    W = euler.cons_to_prim(row.U)
    W[7, 0, 3] = -1e-3
    row.U = euler.prim_to_cons(W)
    match = r"non-positive pressure in interior at cell\(s\) \(7, 0\)$"
    with pytest.raises(InvalidStateError, match=match):
        residual(row, scheme)


def test_face_table_windows_and_normals():
    # every stencil runs along its face's normal through the face's two cells
    nx, ny = 4, 3
    table = fields.face_table(nx, ny, ("x", "y"), None)
    assert table.grids == (("x", (nx + 1, ny)), ("y", (nx, ny + 1)))
    window = table.window
    n_x = table.frame.nx.astype(int)[:, None]
    assert np.array_equal(table.frame.nx ** 2 + table.frame.ny ** 2, np.ones(len(window)))
    # one stencil of six cells per face holds both five-cell windows, the
    # right window being the left one shifted by one cell
    assert window.shape == (len(window), 6) and not window.flags.writeable
    # stencils of interior cells step one cell along the normal, wrapping in y
    inner = (window < nx * ny).all(axis=1)
    i, j = np.divmod(window[inner], ny)
    assert np.all(np.diff(i, axis=1) == n_x[inner]) and np.all(np.diff(j, axis=1) % ny == 1 - n_x[inner])
    # face k of the x faces in row j has left cell (k-1, j) and right cell
    # (k, j), the face l of the y faces in column i has left cell (i, l-1),
    # wrapped
    cell = np.arange(nx * ny).reshape(nx, ny)
    x_left = window[: (nx + 1) * ny, 2].reshape(nx + 1, ny)
    x_right = window[: (nx + 1) * ny, 3].reshape(nx + 1, ny)
    assert np.array_equal(x_left[0], np.full(ny, nx * ny))  # the inflow state
    assert np.array_equal(x_left[1:], cell)
    assert np.array_equal(x_right[:-1], cell)
    assert np.array_equal(x_right[-1], nx * ny + 1 + np.arange(ny))  # the outflow states
    assert np.array_equal(window[(nx + 1) * ny :, 2].reshape(nx, ny + 1), cell[:, np.arange(-1, ny) % ny])
    # every state is read: the cells, the inflow state and each row's outflow state
    assert np.array_equal(np.unique(window), np.arange(nx * ny + 1 + ny))
    # the side axis: every left window, then every right window mirrored
    assert not table.sides.flags.writeable
    assert np.array_equal(table.sides, np.concatenate([window[:, 0:5], window[:, 5:0:-1]]))
    assert fields.face_table(nx, ny, ("x", "y"), None) is table
    # a single orientation keeps its scalar normal
    assert fields.face_table(nx, ny, ("y",), None).frame is euler.Y_FACE


@pytest.mark.parametrize("primitive", [False, True])
@pytest.mark.parametrize("nx, ny", [(5, 1), (5, 3), (11, 4)])
def test_a_cell_moves_exactly_the_states_whose_source_it_is(nx, ny, primitive):
    # perturb one cell of a smooth admissible field: the states of
    # apply_boundaries that change, in either form, are those whose source
    # is that cell, the cell and, in the last column, its row's outflow
    # ghost; no cell moves the inflow state
    i, j = np.meshgrid(np.arange(nx), np.arange(ny), indexing="ij")
    W = np.stack([
        1.0 + 0.3 * np.sin(2 * np.pi * i / nx),
        0.5 + 0.1 * np.cos(2 * np.pi * j / ny),
        np.full((nx, ny), 0.2),
        1.0 + 0.2 * np.cos(2 * np.pi * (i + j) / nx),
    ], axis=-1)
    field = fields.MeanField(euler.prim_to_cons(W), fields.BoundarySpec(W[0, 0], 0.9))
    source = fields.face_table(nx, ny, ("x", "y"), None).source
    assert not source.flags.writeable
    for orientations in (("x",), ("y",)):
        assert np.array_equal(fields.face_table(nx, ny, orientations, 1).source, source)
    inflow = source < 0
    assert np.count_nonzero(inflow) == 1
    base = fields.apply_boundaries(field, primitive)
    for cell in range(nx * ny):
        moved = field.copy()
        moved.U.reshape(-1, 4)[cell] *= 1.0 + 1e-3 * np.arange(1, 5)
        states = fields.apply_boundaries(moved, primitive)
        changed = (states.X != base.X).any(axis=-1) | (states.W != base.W).any(axis=-1)
        assert np.array_equal(changed, source == cell), cell
        assert not changed[inflow].any(), cell


@pytest.mark.parametrize("column", [None, 1, 3, 5])
def test_face_table_shock_flags_equal_the_per_direction_masks(column):
    # with a column, at the last column (nx = 5) and without one; the flags
    # of a single orientation are its own mask
    nx, ny = 5, 4
    field = replace(sp.build_initial_field(sp.ShockProblemConfig(nx=nx, ny=ny, shock_column=3)),
                    shock_column=column)
    masks = shock_face_masks(field)
    table = fields.face_table(nx, ny, ("x", "y"), column)
    assert table.shock.dtype == bool and not table.shock.flags.writeable
    assert np.array_equal(table.shock, np.concatenate([m.ravel() for m in masks]))
    for orientation, mask in zip(("x", "y"), masks):
        single = fields.face_table(nx, ny, (orientation,), column)
        assert np.array_equal(single.shock, mask.ravel()), orientation
    assert table.shock.any() == (column is not None)


@pytest.mark.parametrize("primitive", [False, True])
def test_state_windows_equal_the_padded_reference_windows(primitive):
    # the windows gathered from the window axis are the very windows of the
    # padded layout, for a shock and a smooth field, a single row and a
    # batch, in either variables, and the cells gathered from the primitive
    # axis are their slot 2 in primitive variables.  The row's one y face
    # per column stands for both y faces of the reference
    shock, smooth = _fields()
    row = sp.build_initial_field(sp.ShockProblemConfig(ny=1))
    rng = np.random.default_rng(92)
    batch = replace(shock, U=shock.U * (1.0 + 1e-4 * rng.standard_normal((3,) + shock.U.shape)))
    for field in (shock, smooth, row, batch):
        states, Xpad = fields.apply_boundaries(field, primitive), padded(field, primitive)
        table = fields.face_table(field.nx, field.ny, ("x", "y"), field.shock_column)
        windows = marching.gather_windows(states.X, table.sides)
        cells = marching.gather_windows(states.W, table.sides[:, 2])
        space = "primitive" if primitive else "conservative"
        assert cells.tobytes() == window_cells(windows, space).tobytes()
        n = windows.shape[-3] // 2
        # the right windows come mirrored
        for side, windows in enumerate((windows[..., :n, :, :], windows[..., n:, ::-1, :])):
            gathered = table.split(windows, field.U.ndim - 3)
            for (orientation, win), ref in zip(gathered, (_x_face_windows, _y_face_windows)):
                expect = ref(Xpad, field.nx, field.ny)[side]
                win = np.broadcast_to(win, expect.shape)
                assert np.array_equal(win, expect), (field.U.shape, orientation, side)


def _uniform_fields():
    """Shock fields of every height the tests sample, uniform along y, then a
    smooth field uniform along y with a transverse velocity."""
    for ny in (1, 2, 3, 4, 7, 8):
        yield sp.build_initial_field(sp.ShockProblemConfig(nx=9, ny=ny, shock_column=5))
    smooth = _smooth_field()
    yield replace(smooth, U=np.repeat(smooth.U[:, :1], smooth.ny, axis=1))


UNIT_ROUNDOFF = np.finfo(float).eps / 2
# The two lambdas are eigenvalues of S perturbed by E, and to first order an
# eigenvalue of condition number kappa moves by at most kappa ||E||_2
# (Wilkinson 1965).  E is counted as one rounding u ||S||_2 for each of the
# two orders the entries are summed in and for each of the two eigensolves,
# as LAPACK bounds a solve's error by EPSMCH ||S|| / RCONDE, EPSMCH = u
ROUNDINGS = 4


@pytest.mark.parametrize("field", list(_uniform_fields()),
                         ids=[f"ny={ny}" for ny in (1, 2, 3, 4, 7, 8)] + ["smooth"])
def test_y_uniform_assembly_tiles_the_reference_block_row(field, unsteady_base_flow):
    # every solver, hybrid, order and space; the caps are sampled in turn
    nx, ny = field.nx, field.ny
    row0 = _block_row_0(nx, ny)
    schemes = [s for solver in SOLVERS for space in SPACES for s in _schemes(solver, space)]
    for scheme in schemes[ny % len(CAPS)::len(CAPS)]:
        S = stability.assemble(field, scheme)
        ref = per_direction_assemble(field, scheme)
        A = dense(S)
        if ny >= 7:
            # no two offsets share a slot: block row j = 0 holds the reference's bits
            assert np.array_equal(A[row0], ref[row0]), scheme.label()
        else:
            # the offsets that share a slot are summed in another order
            lam = stability.eigensolve(S).max_real
            w, vl, vr = scipy.linalg.eig(ref, left=True, right=True)
            m = np.argmax(w.real)
            x, y = vr[:, m], vl[:, m]
            kappa = np.linalg.norm(x) * np.linalg.norm(y) / abs(y.conj() @ x)
            floor = max(1e-12 * max(1.0, abs(w[m].real)), 1e-15 * np.abs(A).max())
            tol = max(floor, ROUNDINGS * kappa * UNIT_ROUNDOFF * np.linalg.norm(ref, 2))
            assert abs(lam - w[m].real) <= tol, (scheme.label(), kappa)


@pytest.mark.parametrize("moved, named", [
    ([(6, 2, 0)], (6, 2)),
    ([(3, 0, 2)], (3, 1)),  # a cell of row 0: every other row differs from it
    ([(8, 1, 3), (2, 3, 1)], (2, 3)),  # the first of two in C order
])
def test_field_off_uniform_by_one_ulp_is_refused(moved, named):
    # the test is bit for bit: one ulp in a cell is refused, before the
    # steady check, naming the first cell that differs from its row-0 cell
    field = sp.build_initial_field(sp.ShockProblemConfig(nx=9, ny=4, shock_column=5))
    for cell in moved:
        field.U[cell] = np.nextafter(field.U[cell], np.inf)
    i, j = named
    with pytest.raises(ValueError, match=rf"^assemble takes a field uniform along y, but "
                                         rf"cell \({i}, {j}\) differs from cell \({i}, 0\)$"):
        stability.assemble(field, Scheme(solver="roe", order=5, space="characteristic"))


def test_y_uniform_assembly_probes_only_the_row_0_faces(monkeypatch, unsteady_base_flow):
    # 11x32: the probes of the 12 x faces and 11 y faces of the one row,
    # one y face per column, not of all 747 faces
    calls = []
    original = riemann.compute_flux

    def counted(solver, W, frame):
        calls.append(W.shape)
        return original(solver, W, frame)

    monkeypatch.setattr(riemann, "compute_flux", counted)
    field = sp.build_initial_field(sp.ShockProblemConfig(ny=32))
    assert len(fields.face_table(11, 1, ("x", "y"), 6).window) == 23
    stability.assemble(field, Scheme(solver="roe", order=1))
    # the steady check's residual of the row's 12 x faces (its y fluxes
    # cancel), then the probes
    assert calls == [(2 * 12, 4), (2, 2, 4, 2 * 23, 4)]
