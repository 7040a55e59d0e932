import math
from dataclasses import replace

import numpy as np
import pytest

from shockstab import euler, reconstruction as rc
from shockstab.euler import X_FACE
from shockstab.scheme import CAP_TO_KIND

from side_axis import halves, side_states, side_windows


# The per-slot WENO5 formulas that the substencil-axis kernels replaced, kept
# as the reference: each beta and candidate spelled out on (..., comps) slot
# views.  The kernels must give the same bits.
def ref_smoothness_indicators(w) -> np.ndarray:
    w0, w1, w2, w3, w4 = (w[..., m, :] for m in range(5))
    beta = np.empty(w.shape[:-2] + (3,) + w.shape[-1:])
    beta[..., 0, :] = 13.0 / 12.0 * (w0 - 2 * w1 + w2) ** 2 + 0.25 * (w0 - 4 * w1 + 3 * w2) ** 2
    beta[..., 1, :] = 13.0 / 12.0 * (w1 - 2 * w2 + w3) ** 2 + 0.25 * (w1 - w3) ** 2
    beta[..., 2, :] = 13.0 / 12.0 * (w2 - 2 * w3 + w4) ** 2 + 0.25 * (3 * w2 - 4 * w3 + w4) ** 2
    return beta


def ref_weno5_candidates(w) -> np.ndarray:
    w0, w1, w2, w3, w4 = (w[..., m, :] for m in range(5))
    cand = np.empty(w.shape[:-2] + (3,) + w.shape[-1:])
    cand[..., 0, :] = (2 * w0 - 7 * w1 + 11 * w2) / 6.0
    cand[..., 1, :] = (-w1 + 5 * w2 + 2 * w3) / 6.0
    cand[..., 2, :] = (2 * w2 + 5 * w3 - w4) / 6.0
    return cand


def random_windows(rng, batch):
    """Finite windows (*batch, 5, 4) of both signs and magnitudes 1e-6..1e6,
    with signed zeros and whole flat windows mixed in."""
    shape = batch + (5, 4)
    w = rng.choice([-1.0, 1.0], shape) * 10.0 ** rng.uniform(-6.0, 6.0, shape)
    w[rng.random(shape) < 0.1] = 0.0
    w[rng.random(shape) < 0.1] = -0.0
    flat = rng.random(batch + (1, 4)) < 0.2
    return np.where(flat, w[..., 2:3, :], w)


BATCHES = [(), (12,), (3, 264)]


@pytest.mark.parametrize("batch", BATCHES)
def test_substencil_kernels_equal_the_per_slot_reference(batch):
    rng = np.random.default_rng(20)
    for _ in range(20):
        w = random_windows(rng, batch)
        for win in (w, w[..., ::-1, :]):  # left and mirrored (right-state) windows
            for kernel, ref in ((rc.smoothness_indicators, ref_smoothness_indicators),
                                (rc.weno5_candidates, ref_weno5_candidates)):
                got, expect = kernel(win), ref(win)
                assert got.shape == batch + (3, 4)
                assert np.array_equal(got, expect)
                assert np.array_equal(np.signbit(got), np.signbit(expect))


@pytest.mark.parametrize("batch", BATCHES)
@pytest.mark.parametrize("kind, variant", [("weno5", "z"), ("weno5", "js"), ("eno3", "z")])
@pytest.mark.parametrize("linearise", [True, False])
def test_weno_left_state_equals_the_per_slot_reference(monkeypatch, batch, kind, variant,
                                                       linearise):
    # the face value and the frozen-weight coefficients keep their bits
    rng = np.random.default_rng(21)
    cfg = rc.ReconConfig(kind=kind, weno_variant=variant, space="conservative")
    wins = [random_windows(rng, batch) for _ in range(10)]
    wins += [w[..., ::-1, :] for w in wins]
    got = [rc._left_state(w, cfg, linearise) for w in wins]
    monkeypatch.setattr(rc, "smoothness_indicators", ref_smoothness_indicators)
    monkeypatch.setattr(rc, "weno5_candidates", ref_weno5_candidates)
    expect = [rc._left_state(w, cfg, linearise) for w in wins]
    for (value, lin), (ref_value, ref_lin) in zip(got, expect):
        assert np.all(np.isfinite(value))
        assert np.array_equal(value, ref_value)
        assert (lin is None) == (not linearise)
        if linearise:
            assert np.array_equal(lin, ref_lin)


def test_smoothness_indicators_constant():
    assert np.allclose(rc.smoothness_indicators(np.full(5, 3.7)[:, None]), 0.0, atol=1e-28)


def test_smoothness_indicators_linear():
    beta = rc.smoothness_indicators(np.array([1.0, 2.0, 3.0, 4.0, 5.0])[:, None])[:, 0]
    assert np.allclose(beta, [1.0, 1.0, 1.0], atol=1e-14)


@pytest.mark.parametrize("fn", [rc.weights_js, rc.weights_z])
def test_weights_linear_at_zero_and_equal_beta(fn):
    assert np.allclose(fn(np.zeros(3)[:, None])[:, 0], [0.1, 0.6, 0.3], atol=1e-14)
    assert np.allclose(fn(np.ones(3)[:, None])[:, 0], [0.1, 0.6, 0.3], atol=1e-14)


def test_weights_z_matches_paper_table():
    # smooth factors of the shock-cell window reproduce the published weights
    beta = np.array([4.00186, 9.74719, 28.78125])
    w = rc.weights_z(beta[:, None])[:, 0]
    assert np.allclose(w, [0.21135, 0.62458, 0.16407], atol=5e-5)


def test_weights_properties_random():
    rng = np.random.default_rng(0)
    beta = rng.uniform(0.0, 100.0, (10_000, 3, 1))
    for fn in (rc.weights_js, rc.weights_z):
        w = fn(beta)
        assert np.all(w >= 0) and np.all(w <= 1)
        assert np.allclose(w.sum(axis=-2), 1.0, atol=1e-12)
    # equal betas return the linear weights
    b = rng.uniform(0.1, 50.0, (100, 1, 1)) * np.ones((100, 3, 1))
    for fn in (rc.weights_js, rc.weights_z):
        assert np.allclose(fn(b), rc.LINEAR_WEIGHTS[:, None], atol=1e-12)


def test_weno5_candidates_linear_window():
    cand = rc.weno5_candidates(np.array([1.0, 2.0, 3.0, 4.0, 5.0])[:, None])
    assert np.allclose(cand, 3.5, atol=1e-14)


def left_state(win, kind="weno5"):
    """Left state of one scalar 5-window (compact kinds read the middle)."""
    val, _ = rc._left_state(np.asarray(win, dtype=float)[:, None], rc.ReconConfig(kind=kind))
    return val[0]


def test_weno5_left_state_constant_and_linear():
    val = left_state(np.full(5, 2.0))
    assert abs(val - 2.0) < 1e-14
    val = left_state(np.arange(1.0, 6.0))
    assert abs(val - 3.5) < 1e-13


def test_weno5_right_symmetry():
    # the right state is the left state of the mirrored window, which is how
    # reconstruct_pair computes it
    rng = np.random.default_rng(1)
    w = np.repeat(rng.uniform(0.5, 2.0, (50, 5, 1)), 4, axis=-1)  # primitive windows
    cfg = rc.ReconConfig(space="primitive")
    W = euler.cons_to_prim(euler.prim_to_cons(w))  # the primitive windows rhs gathers
    _, right = halves(rc.reconstruct_pair(side_windows(W, W), cfg, X_FACE).W, -2)
    left, _ = rc._left_state(W[:, ::-1], cfg)
    assert np.array_equal(right, left)


def test_muscl_left_state_cases():
    def muscl(win3):  # plain 3-window (cells i-1, i, i+1)
        return left_state(np.concatenate([[0.0], win3, [0.0]]), "muscl")

    assert abs(muscl(np.full(3, 4.0)) - 4.0) < 1e-14
    assert abs(muscl(np.array([1.0, 2.0, 3.0])) - 2.5) < 1e-12
    # local extremum: van Albada kills the slope
    assert abs(muscl(np.array([1.0, 3.0, 1.0])) - 3.0) < 1e-10


def test_first_order_left_state():
    assert left_state(np.arange(5.0), "first") == 2.0


def test_exactness_all_orders():
    rng = np.random.default_rng(2)
    const = np.full((1, 5, 1), 3.3)
    lin = (np.arange(5.0) * 0.7 + 1.0)[None, :, None]
    for kind in ("first", "muscl", "weno5", "eno3"):
        cfg = rc.ReconConfig(kind=kind, space="conservative")
        val, _ = rc._left_state(const, cfg)
        assert np.allclose(val, 3.3, atol=1e-13), kind
        if kind != "first":
            val, _ = rc._left_state(lin, cfg)
            assert np.allclose(val, 1.0 + 2.5 * 0.7, atol=1e-12), kind


def test_weno5_linear_weights_equal_upstream_scheme(linear_weights):
    # with tau5 = 0 (here, linear weights) the scheme is the 5th-order
    # linear upstream interpolation (2, -13, 47, 27, -3)/60
    rng = np.random.default_rng(3)
    w = rng.uniform(0.5, 2.0, (20, 5, 1))
    cfg = rc.ReconConfig(space="conservative")
    val, lin = rc._left_state(w, cfg)
    expect = w[:, :, 0] @ (np.array([2.0, -13.0, 47.0, 27.0, -3.0]) / 60.0)
    assert np.allclose(val[:, 0], expect, atol=1e-13)
    assert np.allclose(lin[:, :, 0], np.array([2, -13, 47, 27, -3]) / 60.0, atol=1e-14)


def test_lin_coeffs_reproduce_values():
    # frozen-weight linearization evaluated at the window reproduces the value
    rng = np.random.default_rng(4)
    w = rng.uniform(0.5, 2.0, (30, 5, 4))
    for kind in ("first", "muscl", "weno5", "eno3"):
        cfg = rc.ReconConfig(kind=kind, space="conservative", weno_variant="z")
        val, lin = rc._left_state(w, cfg)
        assert np.allclose((lin * w).sum(axis=-2), val, atol=1e-12), kind


def test_lin_coeffs_sum_to_one():
    rng = np.random.default_rng(5)
    w = rng.uniform(0.5, 2.0, (30, 5, 4))
    for kind in ("first", "muscl", "weno5", "eno3"):
        cfg = rc.ReconConfig(kind=kind, space="conservative")
        _, lin = rc._left_state(w, cfg)
        assert np.allclose(lin.sum(axis=-2), 1.0, atol=1e-12), kind


def _cell_averages(f_prim, a, b, n):
    """Analytic cell averages of sin-based primitives via the antiderivative."""
    x = np.linspace(a, b, n + 1)
    h = (b - a) / n
    return x, h


@pytest.mark.parametrize(
    "variant,profile",
    [("z", "sine"), ("js", "monotone")],
)
def test_weno5_convergence_order(variant, profile):
    # analytic cell averages; face-value error must drop ~2^5 per refinement
    def F(x):  # antiderivative of the profile
        return -np.cos(x) if profile == "sine" else -np.cos(x) + 1.5 * x * x

    def f(x):
        return np.sin(x) if profile == "sine" else np.sin(x) + 3.0 * x

    errs = []
    for n in (40, 80):
        a, b = 0.3, 0.3 + 2.0
        edges = np.linspace(a, b, n + 1)
        h = (b - a) / n
        avg = (F(edges[1:]) - F(edges[:-1])) / h
        win = np.lib.stride_tricks.sliding_window_view(avg, 5)  # (n-4, 5)
        cfg = rc.ReconConfig(space="conservative", weno_variant=variant)
        val, _ = rc._left_state(win[:, :, None], cfg)
        exact = f(edges[3 : n - 1])  # face right of each window's center cell
        errs.append(np.abs(val[:, 0] - exact).max())
    ratio = errs[0] / errs[1]
    assert 32 * 0.8 < ratio < 32 * 1.3


def test_reconstruct_pair_uniform_any_space():
    W = np.array([1.4, 20.0, 0.0, 1.0])
    U = euler.prim_to_cons(W)
    for space in ("conservative", "primitive", "characteristic"):
        win = np.broadcast_to(W if space == "primitive" else U, (3, 5, 4))
        cfg = rc.ReconConfig(space=space)
        out = rc.reconstruct_pair(side_windows(win, win), cfg, X_FACE)
        assert np.allclose(out.W, W, atol=1e-12)
        assert out.W.shape == (6, 4)
        assert not out.fallback.any()


def test_characteristic_projection_round_trip():
    # identity-on-center reconstruction through the projection returns the cell
    rng = np.random.default_rng(6)
    from test_euler import random_states

    W = random_states(rng, 8)
    U = euler.prim_to_cons(W)
    win = np.repeat(U[:, None, :], 5, axis=1)  # constant windows
    cfg = rc.ReconConfig(kind="first", space="characteristic")
    out = rc.reconstruct_pair(side_windows(win, win), cfg, X_FACE)
    assert np.allclose(out.W, side_states(W, W), rtol=1e-12, atol=1e-12)


def test_characteristic_differs_from_primitive_on_curved_profile():
    rng = np.random.default_rng(7)
    base = np.array([1.4, 20.0, 0.0, 1.0])
    win = np.empty((1, 5, 4))
    for m in range(5):
        scale = 1.0 + 0.4 * m * m  # curved, smooth-ish
        win[0, m] = euler.prim_to_cons(base * scale)
    outs = {}
    for space, w in (("conservative", win), ("primitive", euler.cons_to_prim(win))):
        cfg = rc.ReconConfig(space=space)
        outs[space] = rc.reconstruct_pair(side_windows(w, w), cfg, X_FACE)
    assert np.all(np.isfinite(outs["conservative"].W))
    assert np.all(np.isfinite(outs["primitive"].W))
    assert not np.allclose(outs["conservative"].W[0], outs["primitive"].W[0])


def test_positivity_fallback(linear_weights):
    # a violent window drives the reconstructed pressure negative
    W = np.array(
        [
            [1.0, 0.0, 0.0, 1.0],
            [1.0, 0.0, 0.0, 1.0],
            [1.0, 0.0, 0.0, 1.0],
            [100.0, 50.0, 0.0, 1e-3],
            [1.0, 0.0, 0.0, 1.0],
        ]
    )
    U = euler.prim_to_cons(W)[None]
    cfg = rc.ReconConfig(space="conservative")
    out = rc.reconstruct_pair(side_windows(U, U), cfg, X_FACE)
    assert out.fallback.all()
    assert np.all(out.W[..., 0] > 0) and np.all(out.W[..., 3] > 0)


def _admissible_row(w):
    """Reference: one primitive state, spelled out."""
    return bool(w[0] > 0.0 and w[3] > 0.0 and all(math.isfinite(x) for x in w))


def test_admissible_equals_the_spelled_out_predicate():
    base = [1.0, 0.5, -0.25, 2.0]
    rows = {"base": base}
    for k in range(4):
        for value in (np.nan, np.inf, -np.inf):
            row = list(base)
            row[k] = value
            rows[f"component {k} = {value}"] = row
    for k, name in ((0, "rho"), (3, "p")):
        for label, value in (("0", 0.0), ("-0", -0.0), ("< 0", -1.0),
                             ("just above 0", np.nextafter(0.0, 1.0))):
            row = list(base)
            row[k] = value
            rows[f"{name} {label}"] = row
    W = np.array(list(rows.values()))
    expected = [_admissible_row(w) for w in W]
    assert sum(expected) == 3  # the base row and both just above 0
    assert dict(zip(rows, rc._admissible(W).tolist())) == dict(zip(rows, expected))
    # a batch shape: one mask entry per state
    batch = np.stack([W, W[::-1]]).reshape(2, 3, -1, 4)
    assert np.array_equal(rc._admissible(batch),
                          np.reshape([_admissible_row(w) for w in batch.reshape(-1, 4)],
                                     batch.shape[:-1]))


def test_eno3_picks_single_stencil():
    w = np.array([1.0, 1.1, 1.2, 5.0, 9.0])[None, :, None]  # jump on the right
    cfg = rc.ReconConfig(kind="eno3", space="conservative")
    val, lin = rc._left_state(w, cfg)
    # the smoothest substencil is the left one, (2 w0 - 7 w1 + 11 w2) / 6,
    # and it alone carries the linearization
    assert np.array_equal(lin[0, :, 0], np.array([2.0, -7.0, 11.0, 0.0, 0.0]) / 6.0)
    cand = rc.weno5_candidates(w)
    assert np.allclose(val, cand[:, 0], atol=1e-14)


@pytest.mark.parametrize("order", [1, 2, 5])
@pytest.mark.parametrize("space", ["conservative", "primitive", "characteristic"])
@pytest.mark.parametrize("cap", ["none", "second"])
def test_face_states_do_not_depend_on_linearise(order, space, cap):
    # rhs skips the frozen-weight coefficients; the face states and the
    # positivity fallback must be the very same bits as for the assembly.
    # In the conservative space the shock's faces hit the fallback
    from shockstab import fields, marching, shock_problem as sp
    from shockstab.scheme import Scheme

    field = sp.build_initial_field(sp.ShockProblemConfig(ny=3))
    states = fields.apply_boundaries(field)
    scheme = Scheme(solver="roe", order=order, space=space, cap=cap)
    fallback_faces = 0
    for on, off in zip(marching.face_reconstructions(field, states, scheme),
                       marching.face_reconstructions(field, states, scheme, linearise=False)):
        a, b = on[2], off[2]
        for name in ("W", "fallback"):
            assert np.array_equal(getattr(a, name), getattr(b, name)), (on[0].grids, name)
        assert a.lin is not None and b.lin is None
        fallback_faces += int(a.fallback.sum())
    if space == "conservative" and (order > 1 or cap == "second"):
        assert fallback_faces > 0


# The two-call reconstruction that the side axis replaced, kept as the
# reference: the left and the right windows held apart, each reconstructed
# by its own ``_left_state`` call (the right one mirrored there and back),
# validated and spliced on its own.
def ref_reconstruct_pair(winL_U, winR_U, cfg, frame, cap_cfg=None, cap_mask=None,
                         XwinL=None, XwinR=None, linearise=True):
    recon = ref_reconstruct_pair_one(winL_U, winR_U, cfg, frame, XwinL, XwinR, linearise)
    if cap_mask is not None and np.any(cap_mask):
        at = (slice(None),) * (winL_U.ndim - 2 - np.ndim(cap_mask)) + (cap_mask,)
        sub = ref_reconstruct_pair_one(
            winL_U[at], winR_U[at], cap_cfg, frame.at(cap_mask),
            None if XwinL is None else XwinL[at],
            None if XwinR is None else XwinR[at],
            linearise,
        )
        names = ("WL", "WR", "lin_L", "lin_R") if linearise else ("WL", "WR")
        for name in names:
            recon[name][at] = sub[name]
        recon["fallback"][at] = sub["fallback"]
    return recon


def ref_reconstruct_pair_one(winL_U, winR_U, cfg, frame, XwinL, XwinR, linearise):
    Lmat = Rmat = None
    if cfg.space == "characteristic":
        W_l = euler.cons_to_prim(winL_U[..., 2, :], "face-left cell")
        W_r = euler.cons_to_prim(winR_U[..., 2, :], "face-right cell")
        W_eval = 0.5 * (W_l + W_r)
        Lmat, Rmat = euler.eigen_matrices(W_eval, frame)
        XwinL = np.einsum("...ab,...wb->...wa", Lmat, winL_U)
        XwinR = np.einsum("...ab,...wb->...wa", Lmat, winR_U)
    elif cfg.space == "conservative":
        XwinL, XwinR = winL_U, winR_U

    XL, lin_L = rc._left_state(XwinL, cfg, linearise)
    XR, lin_Rm = rc._left_state(XwinR[..., ::-1, :], cfg, linearise)
    lin_R = lin_Rm[..., ::-1, :].copy() if linearise else None

    if cfg.space == "conservative":
        WL, WR = rc._prim_soft(XL), rc._prim_soft(XR)
    elif cfg.space == "primitive":
        WL, WR = XL, XR
    else:
        WL = rc._prim_soft(np.einsum("...ab,...b->...a", Rmat, XL))
        WR = rc._prim_soft(np.einsum("...ab,...b->...a", Rmat, XR))
    okL = (WL[..., 0] > 0) & (WL[..., 3] > 0) & np.isfinite(WL).all(axis=-1)
    okR = (WR[..., 0] > 0) & (WR[..., 3] > 0) & np.isfinite(WR).all(axis=-1)

    fallback = ~(okL & okR)
    if fallback.any():
        if linearise:
            first = np.zeros(lin_L.shape[-2:])
            first[2] = 1.0
            lin_L[fallback] = first
            lin_R[fallback] = first
        WL[fallback] = euler.cons_to_prim(winL_U[fallback][..., 2, :], "fallback")
        WR[fallback] = euler.cons_to_prim(winR_U[fallback][..., 2, :], "fallback")
    return {"WL": WL, "WR": WR, "lin_L": lin_L, "lin_R": lin_R, "Lmat": Lmat, "Rmat": Rmat,
            "fallback": fallback}


def _same_bits(a, b):
    return a.shape == b.shape and np.array_equal(np.asarray(a).view(np.int64),
                                                 np.asarray(b).view(np.int64))


# the right state of this face, in one member of a batch, drives the
# pressure negative; its left state stays admissible
TRIPPED_FACE = 4
_VIOLENT = euler.prim_to_cons(np.array([  # mirrored: the order its right state reads
    [5.28, -8.59, 1.62, 2.28],
    [11.8, 4.10, -2.26, 0.0716],
    [0.0208, 0.210, 1.09, 0.00170],
    [0.0265, 7.60, -0.587, 66.2],
    [26.4, -25.4, -0.0464, 0.411],
]))[::-1]


def _face_windows(batch):
    """Left and right conservative windows (*batch, F, 5, 4) of every face
    of a perturbed 9x3 shock field, with their table; in a batch, the right
    window of ``TRIPPED_FACE`` in the last member is ``_VIOLENT``."""
    from shockstab import fields, shock_problem as sp

    field = sp.build_initial_field(sp.ShockProblemConfig(nx=9, ny=3, shock_column=5))
    rng = np.random.default_rng(22)
    U = field.U * (1.0 + 1e-3 * rng.standard_normal(batch + field.U.shape))
    states = fields.apply_boundaries(replace(field, U=U))
    table = fields.face_table(9, 3, ("x", "y"), False, 5)
    winL = states[..., table.window[:, :5], :]
    winR = states[..., table.window[:, 1:], :]
    if batch:
        winR[(-1,) * len(batch) + (TRIPPED_FACE,)] = _VIOLENT
    return winL, winR, table


@pytest.mark.parametrize("space", ["conservative", "primitive", "characteristic"])
@pytest.mark.parametrize("kind, variant", [("first", "z"), ("muscl", "z"), ("weno5", "z"),
                                           ("weno5", "js"), ("eno3", "z")])
@pytest.mark.parametrize("cap", ["none", "second"])
def test_side_axis_reconstruction_equals_the_two_call_reference(space, kind, variant, cap):
    # one left-state call on the side axis gives the bits of the two calls:
    # face states, frozen-weight coefficients, fallback faces, eigen-matrices
    cfg = rc.ReconConfig(kind=kind, weno_variant=variant, space=space)
    cap_cfg = replace(cfg, kind=CAP_TO_KIND[cap]) if cap != "none" else None
    for batch in ((), (3,), (2, 3)):
        winL, winR, table = _face_windows(batch)
        cap_mask = None if cap_cfg is None else table.shock
        XwinL = XwinR = None
        if space == "primitive":
            XwinL, XwinR = euler.cons_to_prim(winL), euler.cons_to_prim(winR)
        sides = side_windows(winL, winR) if XwinL is None else side_windows(XwinL, XwinR)
        for linearise in (True, False):
            ref = ref_reconstruct_pair(winL, winR, cfg, table.frame, cap_cfg, cap_mask,
                                       XwinL, XwinR, linearise)
            got = rc.reconstruct_pair(sides, cfg, table.frame, cap_cfg, cap_mask, linearise)
            WL, WR = halves(got.W, -2)
            assert _same_bits(WL, ref["WL"]) and _same_bits(WR, ref["WR"]), (batch, linearise)
            assert np.array_equal(got.fallback, ref["fallback"])
            for name in ("Lmat", "Rmat"):
                mine, theirs = getattr(got, name), ref[name]
                assert (mine is None and theirs is None) or _same_bits(mine, theirs), name
            if linearise:
                lin_L, lin_R = halves(got.lin, -3)
                assert _same_bits(lin_L, ref["lin_L"])
                assert _same_bits(lin_R[..., ::-1, :], ref["lin_R"])
            else:
                assert got.lin is None
            if batch and kind != "first":
                # the violent right window alone trips the fallback, in the
                # last member only
                tripped = np.zeros(got.fallback.shape, dtype=bool)
                tripped[(-1,) * len(batch) + (TRIPPED_FACE,)] = True
                assert np.all(got.fallback[tripped])
                left_only = ref_reconstruct_pair(winL, winL, cfg, table.frame,
                                                 XwinL=XwinL, XwinR=XwinL, linearise=False)
                assert not left_only["fallback"][tripped].any()
