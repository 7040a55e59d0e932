"""Assembly and spectral analysis of the linearized perturbation-evolution
matrix S of the semi-discrete scheme around a steady base flow.

Each face contributes six 4x4 blocks: the flux Jacobians with respect to
the two reconstructed face states, combined with the frozen-weight
linearization coefficients of the reconstruction.  Block o acts on the
state at slot o of the face's stencil in ``fields.face_table``, the very
indices ``marching.rhs`` gathers, and the face's flux leaves the cell at
slot 2 and enters the cell at slot 3.  ``assemble`` scatters all of them at
once, with the sign for the two adjacent unit cells, into one sparse CSR
matrix: duplicate entries are summed and exact zeros dropped, which leaves
rows with up to 13 nonzero blocks at fifth order and 5 at first order.  Row
and column 4*(i*ny + j) + c belong to component c of interior cell (i, j).
Ghost states never appear: the inflow state carries no perturbation and
each row's outflow state folds onto the row's last cell through
``fields.outflow_jacobian``, the derivative of the pressure-pinned copy.

A field whose cell averages are exactly equal along y (every projected
steady shock) has the same blocks at every face of a column of faces.
``assemble`` sees that in the field itself and then reconstructs, probes
and blocks only the faces of row j = 0 (``FaceTable.row0``), hands every
face its row-0 face's blocks, sums only the entries of block row j = 0 and
tiles that block row along j, so S comes out exactly block-circulant.
Block row j = 0 is summed in the order of the whole scatter and so holds
the very bits a scatter of every row gives it.

``eigensolve`` takes one of two paths, chosen by a property of S that it
checks itself.  A base flow uniform along the periodic y direction (every
projected steady shock) makes S block-circulant in j: the block coupling
(i, j) to (i', j') depends on j' - j mod ny only.  Then S splits exactly
into ny Fourier blocks of size 4nx, one per transverse wavenumber k; S is
real, so block ny - k is the conjugate of block k, and only the
floor(ny/2) + 1 blocks k <= ny/2 are solved densely.  This is what makes
wide grids affordable, since the dense solve of the whole S grows as
(nx ny)^3.  A projected steady shock has v = 0, and every flux is symmetric
under y -> -y, so S is too: component 2 of each cell (v, or rho v) changes
sign with j -> -j.  ``eigensolve`` checks that on the blocks, and then each
Fourier block is similar to a real matrix, whose real solve costs about a
quarter of the complex one; a block-circulant S without the symmetry keeps
the complex blocks.  Any other S, a field that varies along y or a
hand-built matrix, is densified and solved whole.

Variable spaces:

* conservative   - perturbation vector is dU, blocks used as is
* primitive      - perturbation vector is dW; Jacobians are chained with
                   dU/dW at the face states and every row is premultiplied
                   by (dU/dW)^-1 at the cell mean
* characteristic - perturbation vector is dU; reconstruction runs on the
                   face-projected characteristic variables, so Jacobians are
                   chained with the right eigen-matrix and every block is
                   post-multiplied by the face's left eigen-matrix
"""

from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse

from . import euler, marching, riemann
from .errors import DifferentiationError, UnsteadyFieldError
from .fields import MeanField, apply_boundaries, outflow_jacobian
from .reconstruction import FaceRecon
from .scheme import Scheme


@dataclass
class StabilityMatrix:
    matrix: scipy.sparse.csr_array  # (4N, 4N), exact zeros pruned
    nx: int
    ny: int
    space: str
    W_mean: np.ndarray  # interior primitive states (nx, ny, 4)


@dataclass
class Spectrum:
    eigenvalues: np.ndarray  # complex (4N,)
    max_real: float
    # the eigenvalue of largest real part.  Of a complex pair it is, with real
    # Fourier blocks (``eigensolve``), the member with Im > 0, which LAPACK
    # lists first; otherwise the member that the solve of block k* <= ny/2,
    # or the dense solve, ranks first.  The other member is in ``eigenvalues``
    dominant: complex
    eigvec_grid: np.ndarray  # complex (nx, ny, 4), native perturbation space
    eigvec_primitive: np.ndarray  # complex (nx, ny, 4)
    # (ny,) per transverse wavenumber k; entry ny - k mirrors entry k exactly
    max_real_by_k: np.ndarray | None = None


# relative step of the central-difference flux Jacobians
FD_STEP = 1e-7


def _fd_jacobians_U(solver, U, frame, label="face"):
    """Central-difference d(flux)/dU of each side-stacked face state U
    (..., 2F, 4), side-stacked likewise: (..., 2F, 4, 4).

    Component k is probed with the step FD_STEP * max(1, |U_k|).  Probes
    act on the conservative components; derivatives against other
    variable spaces are obtained by chaining with the analytic transforms.
    All 16 probes (+h and -h, either side, four components) of every face
    sit on leading axes (sign, side, component) of one flux call, so an
    ``InvalidStateError`` of a probe names it by those axes first.
    """
    n = U.shape[-2] // 2
    h = np.maximum(FD_STEP, FD_STEP * np.abs(U))  # the step of each probe
    e = np.zeros((4,) + U.shape)  # (probed component, ..., 2F, 4)
    for k in range(4):
        e[k, ..., k] = h[..., k]
    Up = np.empty((2, 2) + e.shape)  # (sign, probed side, component, ..., 2F, 4)
    Up[:] = U
    for side, rows in enumerate((slice(None, n), slice(n, None))):
        Up[0, side, ..., rows, :] += e[..., rows, :]
        Up[1, side, ..., rows, :] -= e[..., rows, :]
    Wp = euler.on_sides(euler.cons_to_prim, Up, f"{label} probe")
    flux = riemann.compute_flux(solver, Wp, frame)
    # A[side][..., :, k] = (F(+h_k) - F(-h_k)) / (2 h_k)
    h_side = np.moveaxis(h.reshape(h.shape[:-2] + (2, n, 4)), (-3, -1), (0, 1))
    dF = (flux[0] - flux[1]) / (2.0 * h_side[..., None])
    # (..., side, F, 4, component), then the side axis
    A = np.moveaxis(dF, (0, 1), (-4, -1)).copy().reshape(U.shape + (4,))
    bad = ~np.all(np.isfinite(A), axis=(-2, -1))
    if bad.any():
        bad = np.argwhere(bad[..., :n] | bad[..., n:])
        raise DifferentiationError(f"non-finite flux Jacobian at {label} {bad[:4].tolist()}")
    return A


def face_blocks(recon: FaceRecon, A_U) -> np.ndarray:
    """Six coefficient blocks per face, one per slot of its stencil: slot o
    is the cell at offset o-2 from the face's left cell.  ``A_U`` holds the
    side-stacked flux Jacobians of ``_fd_jacobians_U``.

    The -2 and +3 entries are the alpha pair, -1/+2 the beta pair and the
    0/+1 entries the chi pair of the frozen-weight flux linearization.
    """
    n = A_U.shape[-3] // 2
    if recon.space == "conservative":
        A = A_U
    elif recon.space == "primitive":
        A = A_U @ euler.du_dw(recon.W)
    else:
        A = A_U @ np.concatenate([recon.Rmat, recon.Rmat], axis=-3)

    c6 = np.zeros(A.shape[:-2] + (6, 4))
    c6[..., :n, :5, :] = recon.lin[..., :n, :, :]  # left states: offsets -2..2
    c6[..., n:, 1:, :] = recon.lin[..., n:, ::-1, :]  # right states: -1..3, unmirrored
    side_blocks = A[..., None, :, :] * c6[..., :, None, :]
    blocks = side_blocks[..., :n, :, :, :] + side_blocks[..., n:, :, :, :]
    if recon.space == "characteristic":
        blocks = np.einsum("...oab,...bc->...oac", blocks, recon.Lmat)
    return blocks


def _face_triplets(B, window, axis: str, field: MeanField, T_out):
    """(row cells, column cells, signs, 4x4 blocks) of one face orientation,
    once for the cell before the faces and once for the cell after them.

    ``B`` holds the blocks of one face grid as ``face_blocks`` returns them
    and ``window`` its part of ``FaceTable.window``: block o acts on the
    state at slot o, and the flux leaves slot 2's cell and enters slot 3's.
    Only the nx*ny cells that lead the state axis carry a perturbation: the
    inflow state is dropped, and row t's outflow state folds onto the cell
    before the row's last face through ``T_out[t]``.
    """
    if axis == "y":
        B, window = B.swapaxes(0, 1), window.swapaxes(0, 1)  # normal face first
    periodic = axis == "y" or field.bc.periodic_x
    if periodic:
        B, window = B[:-1], window[:-1]  # the last face repeats the first
    cells = field.nx * field.ny
    col = window
    if not periodic:
        out = col > cells  # the states past the inflow state are outflow states
        t = np.indices(col.shape)[1]
        B[out] = B[out] @ T_out[t[out]]
        col = np.where(out, window[-1:, :, 2:3], col)
    keep = col < cells
    parts = []
    for slot, sign in ((2, -1.0), (3, 1.0)):
        row = np.broadcast_to(window[..., slot : slot + 1], col.shape)
        ok = keep & (row < cells)
        parts.append((row[ok], col[ok], np.full(ok.sum(), sign), B[ok]))
    return parts


# largest density residual of a mean field that ``assemble`` accepts as steady
STEADY_TOL = 1e-8


def assemble(field: MeanField, scheme: Scheme, check_steady: bool = True) -> StabilityMatrix:
    """Build the stability matrix of the scheme around a steady mean field.

    The field must be a single (nx, ny, 4) field: the scatter reads the
    leading axis as the face normal, so a batch is refused with ValueError.
    A field uniform along y (ny > 1, every row equal to row 0 bit for bit)
    has only the faces of row j = 0 reconstructed and differentiated, so an
    error of theirs names a face of ``FaceTable.row0``; its S is block row
    j = 0 tiled along j (module docstring).  Any other field has every face
    of its own.  The steady check runs on the whole field either way.
    """
    if field.U.ndim != 3:
        raise ValueError(
            f"assemble takes a single (nx, ny, 4) field, got cell averages of shape {field.U.shape}"
        )
    states = apply_boundaries(field)
    if check_steady:
        res = float(np.abs(marching.rhs(field, scheme)[..., 0]).max())
        if res > STEADY_TOL:
            raise UnsteadyFieldError(
                f"mean field density residual {res:.3e} exceeds {STEADY_TOL:.1e}; "
                "converge the base flow first"
            )
    nx, ny = field.nx, field.ny
    Wint = field.interior_primitive()
    # every row of a y-uniform field repeats row 0: its faces read the windows of row 0's
    uniform = ny > 1 and bool(np.all(field.U == field.U[:, :1]))

    T_out = None if field.bc.periodic_x else outflow_jacobian(field, scheme.space == "primitive")

    parts = []
    for table, solver, recon in marching.face_reconstructions(field, states, scheme, row0=uniform):
        faces = table.row0 if uniform else table
        orientations = "/".join(o for o, _ in table.grids)
        A_U = _fd_jacobians_U(solver, euler.prim_to_cons(recon.W), faces.frame,
                              label=f"{orientations}-face")
        B = face_blocks(recon, A_U)
        if uniform:
            B = B[table.to_row0]
        for (axis, grid_blocks), (_, grid_window) in zip(table.split(B, 0),
                                                         table.split(table.window, 0)):
            for part in _face_triplets(grid_blocks, grid_window, axis, field, T_out):
                if uniform:  # only block row j = 0 is summed, in the order of the whole scatter
                    first = part[0] % ny == 0
                    part = tuple(a[first] for a in part)
                parts.append(part)
    rows, cols, signs, blocks = (np.concatenate(p) for p in zip(*parts))
    if scheme.space == "primitive":
        blocks = euler.dw_du(Wint).reshape(-1, 4, 4)[rows] @ blocks
    blocks = signs[:, None, None] * blocks

    comp = np.arange(4)
    entry_rows = np.broadcast_to(4 * rows[:, None, None] + comp[:, None], blocks.shape)
    entry_cols = np.broadcast_to(4 * cols[:, None, None] + comp, blocks.shape)
    n = 4 * nx * ny
    # tocsr sums the duplicate entries
    S = scipy.sparse.coo_array(
        (blocks.ravel(), (entry_rows.ravel(), entry_cols.ravel())), shape=(n, n)
    ).tocsr()
    S.eliminate_zeros()
    if uniform:
        S = _tile_along_y(S, ny)
    return StabilityMatrix(
        matrix=S, nx=nx, ny=ny, space=scheme.space, W_mean=Wint,
    )


def _tile_along_y(S0, ny: int) -> scipy.sparse.csr_array:
    """The block-circulant S whose block row j is block row j = 0 of ``S0``,
    its only nonzero rows, shifted by j along y: entry (i, 0, a; i', j', b)
    becomes (i, j, a; i', j' + j mod ny, b).

    ``S0`` is canonical CSR, so a row's entries in column block i' form a run
    in (j', b) order.  Shift j wraps the run's entries with j' >= ny - j round
    to its front, which rotates the run.  The CSR arrays of S are written in
    that order, sorted without a sort.
    """
    nnz = S0.nnz
    row = np.repeat(np.arange(S0.shape[0]), np.diff(S0.indptr))
    i, j = np.divmod(S0.indices // 4, ny)
    starts = np.r_[True, (row[1:] != row[:-1]) | (i[1:] != i[:-1])]
    run = np.cumsum(starts) - 1
    run_start = np.flatnonzero(starts)
    length = np.diff(np.r_[run_start, nnz])[run]
    # every run twice over, first at the columns of j' - ny, then at those of
    # j': shift j reads its sorted run from the first copy's last wrapped[j]
    # entries on, and adds 4j to the columns
    first = run_start[run] + np.arange(nnz)
    data, cols = np.empty(2 * nnz), np.empty(2 * nnz, dtype=S0.indices.dtype)
    data[first] = data[first + length] = S0.data
    cols[first], cols[first + length] = S0.indices - 4 * ny, S0.indices
    count = np.bincount(run * ny + ny - 1 - j, minlength=run_start.size * ny).reshape(-1, ny)
    wrapped = (np.cumsum(count, axis=1) - count).T  # (j, run): entries with j' >= ny - j
    src = first + length - wrapped[:, run]
    shift = np.arange(ny)[:, None]
    # S's rows run by block row i, then j, then a: block row i of S0 once per j
    bounds = S0.indptr[:: 4 * ny]

    def by_block_row(a):
        return np.concatenate([a[:, lo:hi].ravel() for lo, hi in zip(bounds[:-1], bounds[1:])])

    lengths = np.diff(S0.indptr).reshape(-1, ny, 4)[:, :1]
    indptr = np.zeros_like(S0.indptr)
    np.cumsum(np.broadcast_to(lengths, (lengths.shape[0], ny, 4)), out=indptr[1:])
    return scipy.sparse.csr_array(
        (by_block_row(data[src]), by_block_row(cols[src] + 4 * shift), indptr), shape=S0.shape
    )


# S counts as block-circulant when every row matches the first one, shifted,
# to this fraction of its largest entry.  ``assemble`` tiles the S of an
# exactly y-uniform field, which is then circulant bit for bit; a field
# uniform along y only to rounding, or a hand-built matrix, sums its rows in
# orders that depend on the row, which leaves a few ulps (2.5e-16 measured).
# ``eigensolve`` holds the blocks' y -> -y symmetry to the same fraction.  The
# benchmark's steady shocks keep it to 0 (HLLC, van Leer) or 3e-15 to 8e-15
# (Roe) of max|C|; roe-o5/characteristic, off by 1.2e-14, stays complex
CIRCULANT_RTOL = 1e-14


def _circulant_blocks(S: StabilityMatrix):
    """Blocks C(d), shape (ny, 4nx, 4nx), of S when S is block-circulant in j.

    C(d) couples cell (i, j) to cell (i', j + d mod ny); it is read from the
    j = 0 block row.  Returns None unless S matches circ(C) on every row to
    ``CIRCULANT_RTOL``.  max |S - circ(C)| is taken in one pass over S: the
    larger of max |S - C(d)| over S's entries and max |C| over the nonzeros
    of C that some block row lacks.
    """
    nx, ny = S.nx, S.ny
    A = S.matrix.tocoo()
    cell_r, comp_r = np.divmod(A.row, 4)
    cell_c, comp_c = np.divmod(A.col, 4)
    i_r, j_r = np.divmod(cell_r, ny)
    i_c, j_c = np.divmod(cell_c, ny)
    # flat index into C of every entry's counterpart C(d)[a, b]
    a, b = 4 * i_r + comp_r, 4 * i_c + comp_c
    key = ((j_c - j_r) % ny * 4 * nx + a) * 4 * nx + b
    first = j_r == 0
    C = np.zeros(ny * (4 * nx) ** 2)
    C[key[first]] = A.data[first]
    lacked = (C != 0.0) & (np.bincount(key, minlength=C.size) < ny)
    deviation = max(np.abs(A.data - C[key]).max(initial=0.0), np.abs(C[lacked]).max(initial=0.0))
    if deviation > CIRCULANT_RTOL * np.abs(A.data).max(initial=0.0):
        return None
    return C.reshape(ny, 4 * nx, 4 * nx)


def eigensolve(S: StabilityMatrix) -> Spectrum:
    """Full spectrum plus the grid-mapped most-unstable eigenvector.

    A base flow uniform along the periodic y direction makes S
    block-circulant in j, which ``_circulant_blocks`` checks on S itself.
    Then S splits exactly into ny Fourier blocks
    S^(k) = sum_d C(d) exp(2 pi i k d / ny) of size 4nx, one per transverse
    wavenumber k.  C is real, so S^(ny - k) = conj S^(k): only the blocks
    k = 0..floor(ny/2) are solved, and every block k > ny/2 takes the
    conjugate eigenvalues of block ny - k.  The spectrum is the union of
    all ny blocks' (in block order, not the order of a dense solve),
    ``max_real_by_k`` holds each block's largest real part, equal for k and
    ny - k, and the eigenvector of the dominant block k*, the lower k of a
    conjugate pair, is v^[i] exp(2 pi i k* j / ny).

    The blocks are solved as real matrices when S is symmetric under
    y -> -y: C(-d mod ny) = P C(d) P to ``CIRCULANT_RTOL`` of max |C|, where
    P = diag(1, 1, -1, 1) per cell flips component 2, v in the primitive
    space and rho v in the other two.  Then conj S^(k) = P S^(k) P, so with
    D = diag(1, 1, i, 1) per cell T(k) = Re(D^-1 S^(k) D) is similar to
    S^(k); the blocks T(k) go to the solves and the dominant eigenvector of
    T(k*) maps back as D v.  A circulant S without that symmetry (a scheme
    whose Jacobians break it by more than the tolerance, a hand-built
    matrix) has its complex blocks S^(k) solved.  Any other S (a field that
    varies along y, a hand-built matrix) gets one dense ``eig`` of the whole
    matrix and ``max_real_by_k = None``.
    """
    C = _circulant_blocks(S)
    if C is None:
        vals, vecs = scipy.linalg.eig(S.matrix.toarray(), overwrite_a=True)
        k = int(np.argmax(vals.real))
        grid = vecs[:, k].reshape(S.nx, S.ny, 4)
        by_k = None
    else:
        S_hat = S.ny * np.fft.ifft(C, axis=0)[: S.ny // 2 + 1]
        # y -> -y flips component 2 of every cell, v or rho v: P = diag(1, 1, -1, 1)
        flip = np.tile([1.0, 1.0, -1.0, 1.0], S.nx)
        D = np.ones(4 * S.nx, dtype=complex)  # diagonal of the similarity D^-1 S^(k) D
        asymmetry = np.abs(C[-np.arange(S.ny) % S.ny] - flip[:, None] * C * flip).max()
        if asymmetry <= CIRCULANT_RTOL * np.abs(C).max():
            # C(-d) = P C(d) P: with D = diag(1, 1, i, 1) per cell, D^-1 S^(k) D is real
            D[flip < 0] = 1j
            S_hat = (S_hat * (D.conj()[:, None] * D)).real
        block_vals = list(np.linalg.eigvals(S_hat))
        k_star = int(np.argmax([v.real.max() for v in block_vals]))
        block_vals[k_star], vecs = scipy.linalg.eig(S_hat[k_star])
        m = int(np.argmax(block_vals[k_star].real))
        phase = np.exp(2j * np.pi * k_star * np.arange(S.ny) / S.ny)
        grid = (D * vecs[:, m]).reshape(S.nx, 1, 4) * phase[:, None]
        # S is real, so S^(ny - k) = conj S^(k)
        block_vals += [block_vals[S.ny - k].conj() for k in range(len(block_vals), S.ny)]
        vals = np.concatenate(block_vals)
        k = k_star * 4 * S.nx + m
        by_k = np.array([v.real.max() for v in block_vals])
    pivot = np.unravel_index(np.argmax(np.abs(grid)), grid.shape)
    grid = grid / grid[pivot]  # deterministic phase and scale
    if S.space == "primitive":
        prim = grid.copy()
    else:
        M = euler.dw_du(S.W_mean)
        prim = np.einsum("ijab,ijb->ija", M, grid)
    return Spectrum(
        eigenvalues=vals,
        max_real=float(vals.real.max()),
        dominant=complex(vals[k]),
        eigvec_grid=grid,
        eigvec_primitive=prim,
        max_real_by_k=by_k,
    )


def localize(spectrum: Spectrum):
    """Per-column peak amplitude of the unstable mode (primitive variables).

    Returns (profile of length nx, 1-based argmax column).
    """
    amp = np.abs(spectrum.eigvec_primitive)
    profile = amp.max(axis=(1, 2))
    return profile, int(np.argmax(profile)) + 1

