import copy

import numpy as np
import pytest

from shockstab import euler
from shockstab.errors import InvalidStateError
from shockstab.euler import FaceFrame, X_FACE, Y_FACE
from shockstab.fields import face_table

from euler_reference import analytic_flux_jacobian, characteristic_eigenvalues, entropy



def random_states(rng, n, mach_range=(0.0, 3.0)):
    """Random valid primitive states with |velocity| up to a few sound speeds."""
    rho = rng.uniform(0.1, 10.0, n)
    p = rng.uniform(0.1, 10.0, n)
    c = np.sqrt(euler.GAMMA * p / rho)
    mag = rng.uniform(*mach_range, n) * c
    ang = rng.uniform(0.0, 2 * np.pi, n)
    return np.stack([rho, mag * np.cos(ang), mag * np.sin(ang), p], axis=-1)


def random_frames(rng, n):
    ang = rng.uniform(0.0, 2 * np.pi, n)
    return [FaceFrame(np.cos(a), np.sin(a)) for a in ang]


def test_cons_to_prim_zero_velocity():
    W = euler.cons_to_prim(np.array([1.0, 0.0, 0.0, 2.5]))
    assert np.allclose(W, [1.0, 0.0, 0.0, 1.0], rtol=0, atol=1e-15)


def test_cons_to_prim_m20_state():
    # rho=1.4, u=20, p=1: rho*e = 1/0.4 + 0.5*1.4*400 = 282.5
    W = euler.cons_to_prim(np.array([1.4, 28.0, 0.0, 282.5]))
    assert abs(W[3] - 1.0) < 1e-12


def test_prim_cons_round_trip():
    rng = np.random.default_rng(1)
    W = random_states(rng, 100)
    U = euler.prim_to_cons(W)
    W2 = euler.cons_to_prim(U)
    assert np.allclose(W2, W, rtol=1e-12, atol=0)
    assert np.allclose(euler.prim_to_cons(W2), U, rtol=1e-12, atol=0)


GOOD_CELL = [1.0, 0.5, -0.25, 2.0]  # p = 0.4 (2 - 0.15625) > 0
DENSITY = r"^non-positive density in interior at cell\(s\) "
PRESSURE = r"^non-positive pressure in interior at cell\(s\) "


@pytest.mark.parametrize("cell, message", [
    ([0.0, 0.5, -0.25, 2.0], DENSITY + r"\(1,\)$"),
    ([-1.0, 0.5, -0.25, 2.0], DENSITY + r"\(1,\)$"),
    ([np.nan, 0.5, -0.25, 2.0], DENSITY + r"\(1,\)$"),
    ([1.0, 0.5, -0.25, -1.0], PRESSURE + r"\(1,\)$"),
    ([1.0, 0.5, -0.25, np.nan], PRESSURE + r"\(1,\)$"),
    ([-1.0, 0.5, -0.25, -1.0], DENSITY + r"\(1,\)$"),  # bad in both: density first
], ids=["rho 0", "rho < 0", "rho NaN", "p < 0", "energy NaN", "rho and p"])
def test_cons_to_prim_rejects_bad_states(cell, message):
    U = np.array([GOOD_CELL, cell, GOOD_CELL])
    with pytest.raises(InvalidStateError, match=message):
        euler.cons_to_prim(U, "interior")


def test_cons_to_prim_names_a_bad_cell_of_a_batch_by_its_full_index():
    U = np.broadcast_to(GOOD_CELL, (2, 3, 4, 4)).copy()
    U[1, 2, 3, 3] = -1.0
    with pytest.raises(InvalidStateError, match=PRESSURE + r"\(1, 2, 3\)$"):
        euler.cons_to_prim(U, "interior")
    U[0, 1, 2, 0] = 0.0
    with pytest.raises(InvalidStateError, match=DENSITY + r"\(0, 1, 2\)$"):
        euler.cons_to_prim(U, "interior")


def test_sound_speed_names_the_bad_cell():
    W = random_states(np.random.default_rng(2), 8)
    W[5, 3] = -1.0
    with pytest.raises(InvalidStateError, match=r"^non-positive sound speed at cell\(s\) \(5,\)$"):
        euler.sound_speed(W)


def test_right_eigen_matrix_names_the_degenerate_cell():
    W = random_states(np.random.default_rng(3), 8).reshape(2, 4, 4)
    W[1, 2, 1] = np.inf  # a finite sound speed, an infinite eigenvector entry
    with np.errstate(invalid="ignore"), pytest.raises(
            InvalidStateError, match=r"^degenerate eigen-matrix at cell\(s\) \(1, 2\)$"):
        euler.eigen_matrices(W, X_FACE)


def test_exact_flux_stationary_gas():
    U = euler.prim_to_cons(np.array([2.0, 0.0, 0.0, 3.0]))
    F = euler.exact_flux_w(euler.cons_to_prim(U), X_FACE)
    assert np.allclose(F, [0.0, 3.0, 0.0, 0.0], atol=1e-14)


def test_exact_flux_axis_swap_symmetry():
    rng = np.random.default_rng(2)
    W = random_states(rng, 20)
    Fy = euler.exact_flux_w(W, Y_FACE)
    W_swap = W[:, [0, 2, 1, 3]]
    Fx = euler.exact_flux_w(W_swap, X_FACE)
    assert np.allclose(Fy, Fx[:, [0, 2, 1, 3]], rtol=1e-14, atol=1e-14)


def test_exact_flux_m20_values():
    # hand evaluation: q=20, rho*e = 282.5, f4 = (282.5+1)*20
    W = np.array([1.4, 20.0, 0.0, 1.0])
    F = euler.exact_flux_w(W, X_FACE)
    assert np.allclose(F, [28.0, 561.0, 0.0, 5670.0], rtol=1e-13)


def test_exact_flux_rotation_equivariance():
    rng = np.random.default_rng(3)
    for _ in range(20):
        W = random_states(rng, 1)[0]
        a = rng.uniform(0, 2 * np.pi)
        ca, sa = np.cos(a), np.sin(a)
        frame = random_frames(rng, 1)[0]
        F = euler.exact_flux_w(W, frame)
        W_rot = np.array(
            [W[0], ca * W[1] - sa * W[2], sa * W[1] + ca * W[2], W[3]]
        )
        frame_rot = FaceFrame(ca * frame.nx - sa * frame.ny, sa * frame.nx + ca * frame.ny)
        F_rot = euler.exact_flux_w(W_rot, frame_rot)
        expect = np.array([F[0], ca * F[1] - sa * F[2], sa * F[1] + ca * F[2], F[3]])
        assert np.allclose(F_rot, expect, rtol=1e-12, atol=1e-12)


def test_face_frame_takes_one_normal_per_face():
    rng = np.random.default_rng(4)
    a = rng.uniform(0.0, 2 * np.pi, 6)
    W = random_states(rng, 6)
    frame = FaceFrame(np.cos(a), np.sin(a))
    F = euler.exact_flux_w(W, frame)
    for f in range(6):
        assert np.array_equal(F[f], euler.exact_flux_w(W[f], FaceFrame(np.cos(a[f]), np.sin(a[f]))))
    sub = frame.at(np.array([False, True, False, True, False, False]))
    assert np.array_equal(sub.nx, np.cos(a[[1, 3]])) and np.array_equal(sub.ly, np.cos(a[[1, 3]]))
    assert X_FACE.at([0, 2]) is X_FACE
    # one non-unit normal among unit ones is refused
    ny = np.sin(a)
    ny[3] *= 1.0 + 1e-6
    with pytest.raises(ValueError, match="unit vector"):
        FaceFrame(np.cos(a), ny)
    # so is a NaN normal, as a scalar or among unit ones
    with pytest.raises(ValueError, match="unit vector"):
        FaceFrame(np.nan, 0.0)
    ny[3] = np.nan
    with pytest.raises(ValueError, match="unit vector"):
        FaceFrame(np.cos(a), ny)


def test_face_frame_compares_and_hashes_by_identity():
    # per-face array normals: generated field-wise __eq__/__hash__ would
    # raise on the arrays
    frame = face_table(4, 3, ("x", "y"), False, None).frame
    twin = copy.copy(frame)
    assert np.array_equal(twin.nx, frame.nx) and np.array_equal(twin.ny, frame.ny)
    assert frame == frame and frame != twin
    assert hash(frame) == hash(frame)
    assert len({frame, twin, X_FACE}) == 3


def fd_jacobian(fn, x, h=1e-7):
    cols = []
    for k in range(x.size):
        e = np.zeros_like(x)
        e[k] = max(h, h * abs(x[k]))
        cols.append((fn(x + e) - fn(x - e)) / (2 * e[k]))
    return np.stack(cols, axis=-1)


def test_du_dw_zero_velocity():
    J = euler.du_dw(np.array([1.0, 0.0, 0.0, 1.0]))
    expect = np.diag([1.0, 1.0, 1.0, 2.5])
    assert np.allclose(J, expect, atol=1e-14)


def test_du_dw_entries():
    J = euler.du_dw(np.array([2.0, 3.0, 0.0, 1.0]))
    assert J[1, 0] == 3.0 and J[1, 1] == 2.0


def test_du_dw_matches_fd_jacobian():
    rng = np.random.default_rng(4)
    for W in random_states(rng, 10):
        J = euler.du_dw(W)
        Jfd = fd_jacobian(euler.prim_to_cons, W)
        assert np.max(np.abs(J - Jfd)) < 1e-6


def test_dw_du_is_inverse():
    rng = np.random.default_rng(5)
    W = random_states(rng, 50)
    prod = euler.du_dw(W) @ euler.dw_du(W)
    assert np.allclose(prod, np.eye(4), atol=1e-12)


def test_left_right_eigen_inverse():
    rng = np.random.default_rng(6)
    W = random_states(rng, 100)
    for frame in random_frames(rng, 5):
        L, R = euler.eigen_matrices(W, frame)
        assert np.allclose(L @ R, np.eye(4), atol=1e-12)


def test_eigen_matrices_diagonalize_jacobian():
    rng = np.random.default_rng(7)
    for _ in range(50):
        W = random_states(rng, 1)[0]
        frame = random_frames(rng, 1)[0]
        U = euler.prim_to_cons(W)
        A = analytic_flux_jacobian(U, frame)
        L, R = euler.eigen_matrices(W, frame)
        D = L @ A @ R
        lam = characteristic_eigenvalues(W, frame)
        assert np.allclose(D, np.diag(lam), atol=1e-9 * max(1.0, np.abs(lam).max()))


def test_left_eigen_shear_row():
    # last row for n=(1,0) is (-v, 0, 1, 0) on conservative perturbations
    W = np.array([2.0, 1.5, 0.7, 3.0])
    L, _ = euler.eigen_matrices(W, X_FACE)
    assert np.allclose(L[3], [-0.7, 0.0, 1.0, 0.0], atol=1e-14)


def test_analytic_jacobian_vs_fd():
    rng = np.random.default_rng(8)
    for W in random_states(rng, 3):
        U = euler.prim_to_cons(W)
        frame = random_frames(rng, 1)[0]
        A = analytic_flux_jacobian(U, frame)
        Afd = fd_jacobian(lambda x: euler.exact_flux_w(euler.cons_to_prim(x), frame), U)
        assert np.max(np.abs(A - Afd)) < 1e-6 * max(1.0, np.abs(A).max())


def test_analytic_jacobian_eigenvalues():
    rng = np.random.default_rng(9)
    W = random_states(rng, 1)[0]
    frame = random_frames(rng, 1)[0]
    A = analytic_flux_jacobian(euler.prim_to_cons(W), frame)
    lam = np.sort(np.linalg.eigvals(A).real)
    expect = np.sort(characteristic_eigenvalues(W, frame))
    assert np.allclose(lam, expect, rtol=1e-9, atol=1e-9)


def test_analytic_jacobian_zero_velocity_first_row():
    U = euler.prim_to_cons(np.array([1.0, 0.0, 0.0, 1.0]))
    A = analytic_flux_jacobian(U, X_FACE)
    assert np.allclose(A[0], [0.0, 1.0, 0.0, 0.0], atol=1e-14)


def test_entropy_increases_across_rh_jump():
    from shockstab.shock_problem import jump_ratios

    for m0 in [1.1, 2.0, 5.0, 20.0, 100.0]:
        f, g = jump_ratios(m0)
        s_l = entropy(np.array([1.4, m0, 0.0, 1.0]))
        s_r = entropy(np.array([1.4 * f, m0 / f, 0.0, g]))
        assert s_r > s_l
