"""Assembly and spectral analysis of the linearized perturbation-evolution
matrix S of the semi-discrete scheme around a steady base flow.

Each face contributes six 4x4 blocks: the flux Jacobians with respect to
the two reconstructed face states, combined with the frozen-weight
linearization coefficients of the reconstruction.  Block o acts on the
state at slot o of the face's stencil in ``fields.face_table``, the very
indices ``marching.rhs`` gathers, and the face's flux leaves the cell at
slot 2 and enters the cell at slot 3.  ``assemble`` scatters all of them at
once, with the sign for the two adjacent unit cells, and sums duplicate
entries with one ``tocsr``.  Ghost states never appear: the inflow state
carries no perturbation and each row's outflow state folds onto the row's
last cell through ``fields.outflow_jacobian``, the derivative of the
pressure-pinned copy.

The linearisation is about a steady captured shock, whose rows of cell
averages are exactly equal along the periodic y direction.  S is then
block-circulant in j: the block coupling cell (i, j) to cell (i', j')
depends on j' - j mod ny only.  A y face's stencil reaches three cells to
either side of it, so S is fixed by its signed block row C(d), d = -3..3,
the coupling of a cell to the cells d rows above it, and S = circ(C) with
C(d) summed onto slot d mod ny.  That block row is the one form of S.
``assemble`` takes the seven blocks from the field's row alone, a one-row
field with one y face per column, and builds no 4N x 4N matrix: slot o of
that face sits at d = o - 3 as the face below the row and at d = o - 2 as
the face above it.  A field that varies along y is refused.

``eigensolve`` splits S exactly into ny Fourier blocks of size 4nx, one per
transverse wavenumber k; S is real, so block ny - k is the conjugate of
block k, and only the floor(ny/2) + 1 blocks k <= ny/2 are solved densely.
This is what makes wide grids affordable, since the dense solve of the
whole S grows as (nx ny)^3.  A projected steady shock has v = 0, and every
flux is symmetric under y -> -y, so S is too: component 2 of each cell (v,
or rho v) changes sign with j -> -j.  ``eigensolve`` checks that on the
blocks, and then each Fourier block is similar to a real matrix, whose real
solve costs about a quarter of the complex one; blocks without the symmetry
stay complex.

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

from dataclasses import dataclass, replace

import numpy as np
import scipy.sparse

from . import euler, marching, riemann
from .errors import DifferentiationError, UnsteadyFieldError
from .fields import MeanField, apply_boundaries, outflow_jacobian
from .reconstruction import FaceRecon
from .scheme import Scheme


@dataclass
class StabilityMatrix:
    """S about a mean field uniform along y, as its signed block row (module
    docstring)."""

    nx: int
    ny: int
    space: str
    W_mean: np.ndarray  # interior primitive states (nx, ny, 4)
    # (OFFSETS, 4nx, 4nx): C(d) at index d mod OFFSETS, d = -3..3, so block_row[d] is C(d)
    block_row: np.ndarray


@dataclass
class Spectrum:
    eigenvalues: np.ndarray  # complex (4N,)
    max_real: float
    # the eigenvalue of largest real part.  Of a complex pair it is, with real
    # Fourier blocks (``eigensolve``), the member with Im > 0, which LAPACK
    # lists first; otherwise the member that the solve of block k* <= ny/2
    # ranks first.  The other member is in ``eigenvalues``
    dominant: complex
    eigvec_grid: np.ndarray  # complex (nx, ny, 4), native perturbation space
    eigvec_primitive: np.ndarray  # complex (nx, ny, 4)
    # (ny,) per transverse wavenumber k; entry ny - k mirrors entry k exactly
    max_real_by_k: np.ndarray


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
    """(row cells, column cells, y offsets d, signs, 4x4 blocks) of one face
    orientation, once for the cell before the faces and once for the cell
    after them.

    ``B`` holds the blocks of one face grid as ``face_blocks`` returns them
    and ``window`` its part of ``FaceTable.window``: block o acts on the
    state at slot o, and the flux leaves slot 2's cell and enters slot 3's.
    A row's one y face per column is the face above the row and the face
    below it: the column cell of its block o lies d = o - 2 rows above the
    cell the flux leaves and d = o - 3 rows above the cell it enters; an x
    face's blocks have d = 0.  Only the nx*ny cells that lead the state axis
    carry a perturbation: the inflow state is dropped, and row t's outflow
    state folds onto the cell before the row's last face through ``T_out[t]``.
    """
    if axis == "x" and field.bc.periodic_x:
        B, window = B[:-1], window[:-1]  # the last face repeats the first
    cells = field.nx * field.ny
    col = window
    if axis == "x" and not field.bc.periodic_x:
        out = col > cells  # the states past the inflow state are outflow states
        t = np.indices(col.shape)[1]
        B[out] = B[out] @ T_out[t[out]]
        col = np.where(out, window[-1:, :, 2:3], col)
    keep = col < cells
    parts = []
    for slot, sign in ((2, -1.0), (3, 1.0)):
        row = np.broadcast_to(window[..., slot : slot + 1], col.shape)
        d = np.broadcast_to(np.arange(6) - slot if axis == "y" else 0, col.shape)
        ok = keep & (row < cells)
        parts.append((row[ok], col[ok], d[ok], np.full(ok.sum(), sign), B[ok]))
    return parts


# largest density residual of a mean field that ``assemble`` accepts as steady
STEADY_TOL = 1e-8

# the signed offsets d = -3..3 of a y-uniform field's block row, stored at d mod OFFSETS
OFFSETS = 7


def assemble(field: MeanField, scheme: Scheme, check_steady: bool = True) -> StabilityMatrix:
    """Build the stability matrix of the scheme around a steady mean field.

    The field must be a single (nx, ny, 4) field: the scatter reads the
    leading axis as the face normal, so a batch is refused with ValueError.
    It must be uniform along y, every row equal to row 0 bit for bit; a
    field that varies along y is refused with ValueError naming its first
    cell (i, j) that differs from cell (i, 0).  The field is assembled from its row alone, the
    one-row field ``field.U[:, :1]``: the steady check, the reconstruction
    and the probes run on the row's cells and faces, and an error names
    those.  S is returned as ``block_row``.  The row's entries meet
    ``tocsr`` in the order, and with their columns (i', d) sorted as, those
    of block row j = 0 in a scatter of every row, so where no two offsets
    share a slot (ny >= 7) circ(C) holds that scatter's bits.
    """
    if field.U.ndim != 3:
        raise ValueError(
            f"assemble takes a single (nx, ny, 4) field, got cell averages of shape {field.U.shape}"
        )
    bits = field.U.view(np.uint64)
    differs = np.argwhere((bits[:, 1:] != bits[:, :1]).any(axis=-1))
    if len(differs):
        i, j = differs[0] + (0, 1)
        raise ValueError(
            f"assemble takes a field uniform along y, but cell ({i}, {j}) differs from cell ({i}, 0)"
        )
    nx, ny = field.nx, field.ny
    W_mean = field.interior_primitive()
    # every y-flux difference is exactly 0, so the row's residual is the field's
    field = replace(field, U=field.U[:, :1])
    if check_steady:
        res = float(np.abs(marching.rhs(field, scheme)[..., 0]).max())
        if res > STEADY_TOL:
            raise UnsteadyFieldError(
                f"mean field density residual {res:.3e} exceeds {STEADY_TOL:.1e}; "
                "converge the base flow first"
            )
    states = apply_boundaries(field)
    T_out = None if field.bc.periodic_x else outflow_jacobian(field, scheme.space == "primitive")

    parts = []
    for table, solver, recon in marching.face_reconstructions(field, states, scheme):
        orientations = "/".join(o for o, _ in table.grids)
        A_U = _fd_jacobians_U(solver, euler.prim_to_cons(recon.W), table.frame,
                              label=f"{orientations}-face")
        B = face_blocks(recon, A_U)
        for (axis, grid_blocks), (_, grid_window) in zip(table.split(B, 0),
                                                         table.split(table.window, 0)):
            parts += _face_triplets(grid_blocks, grid_window, axis, field, T_out)
    rows, cols, offsets, signs, blocks = (np.concatenate(p) for p in zip(*parts))
    if scheme.space == "primitive":
        blocks = euler.dw_du(W_mean[:, 0])[rows] @ blocks
    blocks = signs[:, None, None] * blocks
    cols = OFFSETS * cols + offsets % OFFSETS  # column block (i', d mod OFFSETS)

    comp = np.arange(4)
    entry_rows = np.broadcast_to(4 * rows[:, None, None] + comp[:, None], blocks.shape)
    entry_cols = np.broadcast_to(4 * cols[:, None, None] + comp, blocks.shape)
    n = 4 * nx
    # tocsr sorts each row's entries with an unstable sort and then sums the
    # duplicates, so the bits of C(d) follow SciPy's order, not the scatter's.
    # A sum in scatter order (np.bincount) moves C(d) by about 1e-16 max|C|
    # and a tier-1 lambda on ny = 2 past its bound, so scipy.sparse stays
    C = scipy.sparse.coo_array(
        (blocks.ravel(), (entry_rows.ravel(), entry_cols.ravel())), shape=(n, n * OFFSETS)
    ).tocsr().toarray()
    C = C.reshape(n, nx, OFFSETS, 4).transpose(2, 0, 1, 3).reshape(OFFSETS, n, n)
    return StabilityMatrix(nx=nx, ny=ny, space=scheme.space, W_mean=W_mean, block_row=C)


# ``eigensolve`` solves the Fourier blocks as real matrices when the blocks
# are symmetric under y -> -y to this fraction of max|C|.  The flux of a base
# flow with v = 0 is, but its FD Jacobians need not be to the last bit: the
# benchmark's steady shocks keep the symmetry to 0 (HLLC, van Leer) or 3e-15
# to 8e-15 (Roe) of max|C|; roe-o5/characteristic, off by 1.2e-14, stays complex
REFLECTION_RTOL = 1e-14


def eigensolve(S: StabilityMatrix) -> Spectrum:
    """Full spectrum plus the grid-mapped most-unstable eigenvector.

    The block row ``S.block_row`` is summed onto ny slots,
    C(d mod ny) += C(d), and S splits exactly into ny Fourier blocks
    S^(k) = sum_d C(d) exp(2 pi i k d / ny) of size 4nx, one per transverse
    wavenumber k.  C is real, so S^(ny - k) = conj S^(k): only the blocks
    k = 0..floor(ny/2) are solved, and every block k > ny/2 takes the
    conjugate eigenvalues of block ny - k.  The spectrum is the union of
    all ny blocks' (in block order, not the order of a dense solve),
    ``max_real_by_k`` holds each block's largest real part, equal for k and
    ny - k, and the eigenvector of the dominant block k*, the lower k of a
    conjugate pair, is v^[i] exp(2 pi i k* j / ny).

    The blocks are solved as real matrices when S is symmetric under
    y -> -y: C(-d mod ny) = P C(d) P to ``REFLECTION_RTOL`` of max |C|, where
    P = diag(1, 1, -1, 1) per cell flips component 2, v in the primitive
    space and rho v in the other two.  Then conj S^(k) = P S^(k) P, so with
    D = diag(1, 1, i, 1) per cell T(k) = Re(D^-1 S^(k) D) is similar to
    S^(k); the blocks T(k) go to the solves and the dominant eigenvector of
    T(k*) maps back as D v.  Blocks without that symmetry (a scheme whose
    Jacobians break it by more than the tolerance) have their complex
    blocks S^(k) solved.
    """
    offsets = np.arange(OFFSETS) - OFFSETS // 2  # d = -3..3
    C = np.zeros((S.ny,) + S.block_row.shape[1:])
    for d in offsets:
        C[d % S.ny] += S.block_row[d]
    S_hat = S.ny * np.fft.ifft(C, axis=0)[: S.ny // 2 + 1]
    # y -> -y flips component 2 of every cell, v or rho v: P = diag(1, 1, -1, 1)
    flip = np.tile([1.0, 1.0, -1.0, 1.0], S.nx)
    D = np.ones(4 * S.nx, dtype=complex)  # diagonal of the similarity D^-1 S^(k) D
    # only the slots d mod ny can be nonzero, a set closed under d -> -d
    asymmetry = np.abs(C[-offsets % S.ny] - flip[:, None] * C[offsets % S.ny] * flip).max()
    if asymmetry <= REFLECTION_RTOL * np.abs(C).max():
        # C(-d) = P C(d) P: with D = diag(1, 1, i, 1) per cell, D^-1 S^(k) D is real
        D[flip < 0] = 1j
        S_hat = (S_hat * (D.conj()[:, None] * D)).real
    block_vals = list(np.linalg.eigvals(S_hat))
    k_star = int(np.argmax([v.real.max() for v in block_vals]))
    # NumPy returns a real spectrum as real arrays; as complex they keep their bits
    block_vals[k_star], vecs = (a.astype(complex) for a in np.linalg.eig(S_hat[k_star]))
    m = int(np.argmax(block_vals[k_star].real))
    phase = np.exp(2j * np.pi * k_star * np.arange(S.ny) / S.ny)
    grid = (D * vecs[:, m]).reshape(S.nx, 1, 4) * phase[:, None]
    # S is real, so S^(ny - k) = conj S^(k)
    block_vals += [block_vals[S.ny - k].conj() for k in range(len(block_vals), S.ny)]
    vals = np.concatenate(block_vals)
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
        dominant=complex(block_vals[k_star][m]),
        eigvec_grid=grid,
        eigvec_primitive=prim,
        max_real_by_k=np.array([v.real.max() for v in block_vals]),
    )


def localize(spectrum: Spectrum):
    """Per-column peak amplitude of the unstable mode (primitive variables).

    Returns (profile of length nx, 1-based argmax column).
    """
    amp = np.abs(spectrum.eigvec_primitive)
    profile = amp.max(axis=(1, 2))
    return profile, int(np.argmax(profile)) + 1

