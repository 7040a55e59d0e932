"""Assembly and spectral analysis of the linearized perturbation-evolution
matrix S of the semi-discrete scheme around a steady base flow.

Each face contributes six 4x4 blocks: the flux Jacobians with respect to
the two reconstructed face states, combined with the frozen-weight
linearization coefficients of the reconstruction.  Block o acts on the
state at slot o of the face's stencil in ``fields.face_table``, the very
indices ``marching.rhs`` gathers, and the face's flux leaves the cell at
slot 2 and enters the cell at slot 3.  ``assemble`` scatters all of them at
once, with the sign for the two adjacent unit cells, and sums duplicate
entries in scatter order.  Ghost states never appear: ``FaceTable.source``
names the cell that each state is or copies.  A block on a state that
copies a cell, a row's outflow state, folds onto that cell through
``fields.outflow_jacobian`` of the cell's state, the derivative of the
pressure-pinned copy, and a block on the inflow state, which copies no
cell, is dropped: it carries no perturbation.

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
transverse wavenumber k, the symbol S^(k) = sum_d C(d) exp(2 pi i k d / ny)
of the seven offsets; S is real, so block ny - k is the conjugate of block
k, and only the floor(ny/2) + 1 blocks k <= ny/2 are built, each straight
from the offsets, and solved once.  This is what makes wide grids
affordable, since the dense solve of the whole S grows as (nx ny)^3.  Ahead
of the shock, where HLL, HLLC and van Leer x faces take the upwind flux
exactly, the leading cells couple to no later cell, and ``eigensolve``
solves their 4x4 diagonal blocks apart from the coupled rest of each block.

A projected steady shock has v = 0, and every flux is symmetric under
y -> -y, so S is too: component 2 of each cell (v, or rho v) changes sign
with j -> -j.  ``eigensolve`` checks that on the offsets to the rounding
floor of their FD entries, and then each Fourier block is similar to a real
matrix, whose real solve costs about a third of the complex one.  The
steady shocks measured keep the symmetry to rounding in every variable
space, so they take the real form; a field with a real tangential velocity
(v != 0) breaks it, and its blocks stay complex.

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
from functools import cached_property

import numpy as np

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
    # (OFFSETS, 4nx, 4nx): C(d) at index d mod OFFSETS, d = -3..3, so block_row[d] is C(d)
    block_row: np.ndarray


@dataclass
class Spectrum:
    """The spectrum of S from its Fourier blocks k <= ny/2 (``eigensolve``),
    each solved once for its eigenvalues; ``eigvec`` solves block k* again,
    on its first read only."""

    # complex (4N,), block by block, k = 0..ny-1; within a block the values
    # of the cells split off ahead of the shock come first, 4 per cell in cell
    # order, then those of the rest of the block (``eigensolve``)
    eigenvalues: np.ndarray
    max_real: float
    # the eigenvalue of largest real part.  Of a complex pair it is, with real
    # Fourier blocks (``eigensolve``), the member with Im > 0, which LAPACK
    # lists first; otherwise the member that the solve of block k* <= ny/2
    # ranks first.  The other member is in ``eigenvalues``
    dominant: complex
    k_star: int  # the Fourier block that holds ``dominant``, k* <= ny/2
    # (ny,) per transverse wavenumber k; entry ny - k mirrors entry k exactly
    max_real_by_k: np.ndarray
    # block k* as it was solved, T(k*) or S^(k*), and the diagonal D that maps
    # an eigenvector of it to one of S^(k*)
    block: np.ndarray
    similarity: np.ndarray

    @cached_property
    def eigvec(self) -> np.ndarray:
        """complex (4nx,): a right eigenvector of block k* for ``dominant``,
        in S's own variable space, of unit 2-norm and with the phase LAPACK
        returns; compare eigenvectors by residual and angle, not by bits.
        The eigenpair solve of ``block`` runs on the first read, which keeps
        its result."""
        vals, vecs = np.linalg.eig(self.block)
        return self.similarity * vecs[:, int(np.argmin(np.abs(vals - self.dominant)))]


# relative step of the central differences of both linearisations: the flux
# Jacobians of S and the steady solve's 1D Jacobian
FD_STEP = 1e-7


def fd_step(x):
    """The central-difference step FD_STEP max(1, |x|) of each value x."""
    return FD_STEP * np.maximum(1.0, np.abs(x))


def _fd_jacobians_U(solver, U, frame, label="face"):
    """Central-difference d(flux)/dU of each side-stacked face state U
    (..., 2F, 4), side-stacked likewise: (..., 2F, 4, 4).

    Component k is probed with the step ``fd_step`` of U_k.  Probes
    act on the conservative components; derivatives against other
    variable spaces are obtained by chaining with the analytic transforms.
    All 16 probes (+h and -h, either side, four components) of every face
    sit on leading axes (sign, side, component) of one flux call, so an
    ``InvalidStateError`` of a probe names it by those axes first.
    """
    n = U.shape[-2] // 2
    h = fd_step(U)  # the step of each probe
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


def _face_triplets(B, window, axis: str, source, T_out):
    """(row cells, column cells, y offsets d, signs, 4x4 blocks) of one face
    orientation, once for the cell before the faces and once for the cell
    after them.

    ``B`` holds the blocks of one face grid as ``face_blocks`` returns them
    and ``window`` its part of ``FaceTable.window``: block o acts on the
    state at slot o, and the flux leaves slot 2's cell and enters slot 3's.
    A row's one y face per column is the face above the row and the face
    below it: the column cell of its block o lies d = o - 2 rows above the
    cell the flux leaves and d = o - 3 rows above the cell it enters; an x
    face's blocks have d = 0.  ``source`` is ``FaceTable.source``: a block
    on a state that copies another cell, an outflow state, folds onto that
    cell through ``T_out``, a block on the inflow state (-1) is dropped,
    and the blocks of the cell at slot 2, or at slot 3, are kept only where
    that slot's state is its own cell.
    """
    col = source[window]
    copy = (col >= 0) & (col != window)
    B[copy] = B[copy] @ T_out
    parts = []
    for slot, sign in ((2, -1.0), (3, 1.0)):
        row = np.broadcast_to(window[..., slot : slot + 1], col.shape)
        d = np.broadcast_to(np.arange(6) - slot if axis == "y" else 0, col.shape)
        ok = (col >= 0) & (source[row] == row)
        parts.append((row[ok], col[ok], d[ok], np.full(ok.sum(), sign), B[ok]))
    return parts


# largest density residual of a mean field that ``assemble`` accepts as steady
STEADY_TOL = 1e-8

# the signed offsets d = -3..3 of a y-uniform field's block row, stored at d mod OFFSETS
OFFSETS = 7


def assemble(field: MeanField, scheme: Scheme) -> StabilityMatrix:
    """Build the stability matrix of the scheme around a steady mean field.

    The field must be a single (nx, ny, 4) field: the scatter reads the
    leading axis as the face normal, so a batch is refused with ValueError.
    It must be uniform along y, every row equal to row 0 bit for bit; a
    field that varies along y is refused with ValueError naming its first
    cell (i, j) that differs from cell (i, 0).  The field is assembled from
    its row alone, the one-row field ``field.U[:, :1]``: the conversion to
    the row's primitive states, the steady check, the reconstruction and
    the probes run on the row's cells and faces, and an error names those.
    The row's cells are converted once, by ``apply_boundaries``, in every
    space; only the flux probes convert again, their perturbed face states.
    S is returned as ``block_row``, its duplicate entries summed in scatter
    order.  The row's entries come in the order of those of block row
    j = 0 in a scatter of every row, so where no two offsets share a slot
    (ny >= 7) circ(C) holds that scatter's bits.  A field whose
    ``marching.density_residual`` exceeds ``STEADY_TOL``, +inf if not
    finite, is refused with UnsteadyFieldError.
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
    primitive = scheme.space == "primitive"
    # every y-flux difference is exactly 0, so the row's residual is the field's
    field = replace(field, U=field.U[:, :1])
    states = apply_boundaries(field, primitive)
    W_row = states.W[:nx]
    res = marching.density_residual(marching.rhs(field, states, scheme))
    if res > STEADY_TOL:
        raise UnsteadyFieldError(
            f"mean field density residual {res:.3e} exceeds {STEADY_TOL:.1e}; "
            "converge the base flow first"
        )
    T_out = outflow_jacobian(W_row[-1], primitive)

    parts = []
    for table, solver, recon in marching.face_reconstructions(field, states, scheme,
                                                              linearise=True):
        orientations = "/".join(o for o, _ in table.grids)
        A_U = _fd_jacobians_U(solver, euler.prim_to_cons(recon.W), table.frame,
                              label=f"{orientations}-face")
        B = face_blocks(recon, A_U)
        for (axis, grid_blocks), (_, grid_window) in zip(table.split(B, 0),
                                                         table.split(table.window, 0)):
            parts += _face_triplets(grid_blocks, grid_window, axis, table.source, T_out)
    rows, cols, offsets, signs, blocks = (np.concatenate(p) for p in zip(*parts))
    if primitive:
        blocks = euler.dw_du(W_row)[rows] @ blocks
    blocks = signs[:, None, None] * blocks

    n = 4 * nx
    comp = np.arange(4)
    # entry (a, b) of a block is entry (d mod OFFSETS, 4i + a, 4i' + b) of the
    # block row; np.bincount sums the duplicates in scatter order
    entry_rows = (offsets % OFFSETS * n + 4 * rows)[:, None, None] + comp[:, None]
    entries = entry_rows * n + (4 * cols)[:, None, None] + comp
    C = np.bincount(entries.ravel(), blocks.ravel(), OFFSETS * n * n).reshape(OFFSETS, n, n)
    return StabilityMatrix(nx=nx, ny=ny, block_row=C)


# ``eigensolve`` solves the Fourier blocks as real matrices when the offsets
# are symmetric under y -> -y to this fraction of max|C|: the rounding floor
# of C's FD entries (Higham, Accuracy and Stability of Numerical Algorithms,
# 2002, ch. 4).  An entry (F(U + h) - F(U - h)) / 2h carries the flux's
# rounding, eps |F|, divided by the step h = FD_STEP max(1, |U|): an error
# of eps / FD_STEP of the entry's scale |F| / max(1, |U|), so two entries
# equal in exact arithmetic may differ by that much, and an asymmetry below
# it is rounding.  The flux of a steady shock (v = 0) is symmetric, and the
# benchmark's steady shocks sit at 0 (HLLC or van Leer on the y faces) to
# 1.25e-14 (Roe) of max|C|.  A uniform tangential velocity v0 breaks the
# symmetry far above the floor: 5.6e-8 to 3.2e-7 of max|C| at v0 = 1e-6,
# 5.5e-3 to 2.6e-2 at v0 = 0.1 (Roe and HLLC shocks, first and fifth order)
REFLECTION_RTOL = np.finfo(float).eps / FD_STEP


def eigensolve(S: StabilityMatrix) -> Spectrum:
    """Full spectrum plus the dominant Fourier block.

    S = circ(C) splits exactly into ny Fourier blocks
    S^(k) = sum_d C(d) exp(2 pi i k d / ny) of size 4nx, one per transverse
    wavenumber k, built here from the seven offsets d = -3..3 of
    ``S.block_row`` with the phase exponent k d reduced mod ny: one
    (K, OFFSETS) matrix of phases times the (OFFSETS, (4nx)^2) block row, for
    the K = floor(ny/2) + 1 blocks k <= ny/2 alone.  C is real, so
    S^(ny - k) = conj S^(k): every block k > ny/2 takes the conjugate
    eigenvalues of block ny - k.  The K blocks' eigenvalues give
    ``eigenvalues``, the union of all ny blocks' (in block order, not the
    order of a dense solve), ``max_real_by_k``, each block's largest
    real part, equal for k and ny - k, ``max_real``, the dominant block k*,
    the lower k of a conjugate pair, and ``dominant``.  ``Spectrum.eigvec``,
    the eigenvector v of block k* for ``dominant``, is solved when it is
    first read; the grid eigenvector of S, v[i] exp(2 pi i k* j / ny) at
    cell (i, j), is the caller's to build.

    Each block is solved only where it is coupled.  Cell i couples to cell
    i' where some C(d) has a nonzero entry, -0.0 counting as zero, in block
    (i, i'), and p counts the leading cells, short of the last, that couple
    to no later cell.  Every block S^(k) is then block lower triangular over
    those p cells, so its eigenvalues are those of their 4x4 diagonal blocks
    and of its trailing (4nx - 4p)^2 block: the K p cell blocks go to one
    eigenvalue solve, then the K trailing blocks to another, and each
    block's eigenvalues list the cells' first.  The zeros are exact: at a
    supersonic face HLL and HLLC (S_L >= 0) and van Leer (|M| >= 1) return
    the upwind side's flux through np.where, so a probe of the downstream
    state leaves the flux's bits as they are and its FD Jacobian is 0.
    Roe's flux is upwind there only up to rounding, and a WENO state reads
    downstream cells, so for them p = 0 and the K blocks go whole to the one
    solve.  ``block`` is always the whole block k*.

    The blocks are solved as real matrices when S is symmetric under
    y -> -y: C(-d) = P C(d) P for every offset d to ``REFLECTION_RTOL`` of
    max |C|, the rounding floor of the FD entries, where P = diag(1, 1, -1, 1)
    per cell flips component 2, v in the primitive space and rho v in the
    other two.  That makes the ny wrapped slots symmetric too, which is all
    the Fourier blocks need, so for ny < 7, where offsets share a slot, the
    check is sufficient rather than necessary.  Then conj S^(k) = P S^(k) P,
    so with D = diag(1, 1, i, 1) per cell T(k) = Re(D^-1 S^(k) D) is similar
    to S^(k); the blocks T(k) go to the solve and an eigenvector of T(k*)
    maps back as D v.  A steady shock's asymmetry is rounding, and T(k)
    drops it.  Blocks without that symmetry (a base flow with v != 0) are
    solved as the complex blocks S^(k).
    """
    C, n, ny = S.block_row, 4 * S.nx, S.ny
    # the offset d of each slot of the block row, which stores C(d) at d mod OFFSETS
    d = (np.arange(OFFSETS) + OFFSETS // 2) % OFFSETS - OFFSETS // 2
    # the phases exp(2 pi i k d / ny) of the blocks k = 0..floor(ny/2)
    phase = np.exp(2j * np.pi * (np.outer(np.arange(ny // 2 + 1), d) % ny) / ny)
    S_hat = (phase @ C.reshape(OFFSETS, n * n)).reshape(-1, n, n)
    # y -> -y flips component 2 of every cell, v or rho v: P = diag(1, 1, -1, 1)
    flip = np.tile([1.0, 1.0, -1.0, 1.0], S.nx)
    D = np.ones(n, dtype=complex)  # diagonal of the similarity D^-1 S^(k) D
    # slot -s mod OFFSETS holds C(-d) of slot s's C(d)
    asymmetry = np.abs(C[-np.arange(OFFSETS)] - flip[:, None] * C * flip).max()
    if asymmetry <= REFLECTION_RTOL * np.abs(C).max():
        # C(-d) = P C(d) P: with D = diag(1, 1, i, 1) per cell, D^-1 S^(k) D is real
        D[flip < 0] = 1j
        S_hat = (S_hat * (D.conj()[:, None] * D)).real
    # p: the leading cells, short of the last, that couple to no later cell
    coupled = (C != 0.0).any(axis=0).reshape(S.nx, 4, S.nx, 4).any(axis=(1, 3))
    later = np.triu(coupled, 1).any(axis=1)
    later[-1] = True
    p = int(np.argmax(later))
    K = len(S_hat)
    pieces = []
    if p:
        # the leading cells' diagonal 4x4 blocks, (K, 4, 4, p) as np.diagonal lays them out
        cells = np.diagonal(S_hat[:, : 4 * p, : 4 * p].reshape(K, p, 4, p, 4), axis1=1, axis2=3)
        pieces.append(np.linalg.eigvals(np.moveaxis(cells, -1, 1).reshape(K * p, 4, 4))
                      .reshape(K, 4 * p))
    pieces.append(np.linalg.eigvals(S_hat[:, 4 * p:, 4 * p:]))
    # NumPy returns a real spectrum as real arrays; as complex they keep their bits
    block_vals = list(np.concatenate([v.astype(complex, copy=False) for v in pieces], axis=1))
    k_star = int(np.argmax([v.real.max() for v in block_vals]))
    m = int(np.argmax(block_vals[k_star].real))
    # S is real, so S^(ny - k) = conj S^(k)
    block_vals += [block_vals[ny - k].conj() for k in range(len(block_vals), ny)]
    vals = np.concatenate(block_vals)
    return Spectrum(
        eigenvalues=vals,
        max_real=float(vals.real.max()),
        dominant=complex(block_vals[k_star][m]),
        k_star=k_star,
        max_real_by_k=np.array([v.real.max() for v in block_vals]),
        block=S_hat[k_star].copy(),
        similarity=D,
    )
