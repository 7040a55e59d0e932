import dataclasses
import itertools
from dataclasses import replace

import numpy as np
import pytest

from shockstab import euler, fields, marching, reconstruction, riemann, shock_problem as sp
from shockstab.errors import ConvergenceError, InvalidStateError, ShockStabError
from shockstab.fields import BoundarySpec, MeanField, apply_boundaries, outflow_jacobian
from shockstab.scheme import Scheme

from euler_reference import entropy
from residual import residual
from test_marching import _smooth_field, edge_boundaries



def cfg(**kw):
    return sp.ShockProblemConfig(**kw)


def test_jump_ratios_m1():
    f, g = sp.jump_ratios(1.0)
    assert abs(f - 1.0) < 1e-14 and abs(g - 1.0) < 1e-14


def test_jump_ratios_m20():
    f, g = sp.jump_ratios(20.0)
    assert abs(f - 160.0 / 27.0) < 1e-12  # 5.9259259...
    assert abs(g - 466.5) < 1e-10


def test_jump_ratios_refuse_a_subsonic_mach_number():
    with pytest.raises(ValueError, match="M0 >= 1"):
        sp.jump_ratios(0.5)


def test_jump_ratio_strong_shock_limit():
    f, _ = sp.jump_ratios(1e6)
    assert abs(f - 6.0) < 1e-3


def test_intermediate_state_limits():
    c0 = cfg(epsilon=0.0)
    assert np.allclose(sp.intermediate_state(c0), sp.upstream_state(c0), atol=1e-14)
    c1 = cfg(epsilon=1.0)
    assert np.allclose(sp.intermediate_state(c1), sp.downstream_state(c1), atol=1e-12)


def test_hugoniot_weights_eps01():
    # frozen from an independent high-precision evaluation of the closed form
    a_rho, a_u, a_p = sp.hugoniot_weights(20.0, 0.1)
    assert a_rho == 0.1
    assert abs(a_u - 0.2580244454) < 1e-9
    assert abs(a_p - 0.0395702270) < 1e-9
    w_m = sp.intermediate_state(cfg(epsilon=0.1))
    assert np.allclose(w_m, [2.0896296296, 15.7103435950, 0.0, 19.4199406720], atol=1e-9)


def test_intermediate_state_monotone_and_bounded():
    rng = np.random.default_rng(20)
    for m0 in (1.5, 5.0, 20.0):
        eps = np.linspace(0.0, 1.0, 21)
        states = np.array([sp.intermediate_state(cfg(mach=m0, epsilon=e)) for e in eps])
        w_l = sp.upstream_state(cfg(mach=m0))
        w_r = sp.downstream_state(cfg(mach=m0))
        lo = np.minimum(w_l, w_r) - 1e-12
        hi = np.maximum(w_l, w_r) + 1e-12
        assert np.all(states >= lo) and np.all(states <= hi)
        for k in (0, 1, 3):  # rho, u, p monotone in eps
            d = np.diff(states[:, k])
            assert np.all(d >= -1e-12) or np.all(d <= 1e-12)
        # mass flux of the end states matches
        assert abs(w_l[0] * w_l[1] - w_r[0] * w_r[1]) < 1e-12 * w_l[0] * w_l[1]


def test_build_initial_field_structure():
    c = cfg()
    field = sp.build_initial_field(c)
    interior = field.U
    # rows identical
    assert np.allclose(interior, interior[:, :1, :], atol=0)
    # eps=0 gives a strictly two-state field
    f0 = sp.build_initial_field(cfg(epsilon=0.0))
    W = f0.interior_primitive()
    assert np.allclose(W[: c.shock_column], sp.upstream_state(c), atol=1e-13)
    assert np.allclose(W[c.shock_column :], sp.downstream_state(c), atol=1e-12)
    # zero transverse velocity everywhere
    assert np.all(interior[..., 2] == 0.0)


@pytest.mark.parametrize("primitive", [False, True])
def test_padding_contract(primitive):
    # the state axes hold the cells in (i, j) order, then the inflow state
    # and the pressure-pinned outflow state of every row, the window axis X
    # conservative or primitive and the axis W primitive; they are derived
    # anew on every call, leaving the field untouched
    c = cfg()
    field = sp.build_initial_field(c)
    snap = field.U.copy()
    X, W_axis = apply_boundaries(field, primitive)
    n = c.nx * c.ny
    assert X.shape == W_axis.shape == (n + 1 + c.ny, 4)
    # C order, batched or not: the face gathers read them without a copy
    assert X.flags.c_contiguous and W_axis.flags.c_contiguous
    for axis in apply_boundaries(replace(field, U=np.stack([field.U] * 3)), primitive):
        assert axis.flags.c_contiguous
    assert np.array_equal(snap, field.U)
    assert all(np.array_equal(a, b) for a, b in zip(apply_boundaries(field, primitive),
                                                    (X, W_axis)))
    W = field.interior_primitive()
    # the primitive axis holds the interior converted once; in the primitive
    # space it is the window axis itself
    assert (W_axis is X) == primitive
    assert np.array_equal(W_axis[:n], W.reshape(n, 4))
    if primitive:
        # one conversion and no round trip: the inflow state is P_LEFT = 1 to
        # the bit, where a cons -> prim round trip reads 0x1.ffffffffffffep-1
        assert np.array_equal(X[:n], W.reshape(n, 4))
        assert np.array_equal(X[n], sp.upstream_state(c))
        assert np.array_equal(X[n + 1 :, :3], W[-1, :, :3])
        assert np.all(X[n + 1 :, 3] == sp.downstream_state(c)[3])
    else:
        assert np.array_equal(X[:n], field.U.reshape(n, 4))
        assert np.allclose(X[n], euler.prim_to_cons(sp.upstream_state(c)), atol=1e-13)
        # outflow: the last column's state with the pressure pinned
        W_out = euler.cons_to_prim(X[n + 1 :])
        assert np.allclose(W_out[:, :3], W[-1, :, :3], atol=0)
        assert np.all(W_out[:, 3] == sp.downstream_state(c)[3])


def concatenated_states(field, primitive):
    """The state axis as ``apply_boundaries`` built it with ``np.concatenate``
    before it wrote into one preallocated array; kept as the reference.  Its
    primitive axis converts the cells once, takes the inflow state as
    ``inflow_W`` and pins the pressure of the last column's states."""
    U, bc = field.U, field.bc
    X = euler.cons_to_prim(U) if primitive else U
    cells = X.reshape(U.shape[:-3] + (-1, 4))
    last = euler.cons_to_prim(U[..., -1, :, :], "outflow column")
    last[..., 3] = bc.outflow_pressure
    inflow = np.broadcast_to(bc.inflow_W if primitive else bc.inflow_U, U.shape[:-3] + (1, 4))
    return np.concatenate([cells, inflow, last if primitive else euler.prim_to_cons(last)], axis=-2)


@pytest.mark.parametrize("primitive", [False, True])
@pytest.mark.parametrize("case", ["single", "batch", "row", "smooth"])
def test_apply_boundaries_equals_the_concatenated_reference(case, primitive):
    # a fresh C-contiguous array, bit for bit the concatenated states; the
    # smooth field has a transverse velocity and an outflow pressure that
    # differs from its last column's pressure on every row but row 0
    field = sp.build_initial_field(cfg(ny=3), ny=1 if case == "row" else None)
    rng = np.random.default_rng(13)
    if case == "smooth":
        field = _smooth_field()
        assert np.any(field.interior_primitive()[-1, :, 3] != field.bc.outflow_pressure)
    elif case == "batch":
        scale = 1.0 + 0.01 * rng.standard_normal((2, 3) + field.U.shape)
        field = replace(field, U=euler.prim_to_cons(field.interior_primitive() * scale))
    snap = field.U.copy()
    states, W_axis = apply_boundaries(field, primitive)
    assert states.flags.c_contiguous and states.flags.owndata
    assert np.array_equal(states, concatenated_states(field, primitive))
    # the primitive axis is the window axis in the primitive space, else its
    # cells converted, each bit as the cells' own conversion, checked
    reference = concatenated_states(field, primitive) if primitive else euler.cons_to_prim(states)
    assert W_axis.tobytes() == reference.tobytes()
    assert (W_axis is states) == primitive
    if primitive:
        # the interior is interior_primitive, the inflow state inflow_W and
        # every outflow state the last column's W with p = outflow_pressure
        W, bc, n = field.interior_primitive(), field.bc, field.nx * field.ny
        assert np.array_equal(states[..., :n, :], W.reshape(W.shape[:-3] + (n, 4)))
        assert np.all(states[..., n, :] == bc.inflow_W)
        assert np.all(states[..., n + 1 :, 3] == bc.outflow_pressure)
        assert np.array_equal(states[..., n + 1 :, :3], W[..., -1, :, :3])
    states[...] = -1.0
    assert np.array_equal(field.U, snap)


@pytest.mark.parametrize("primitive", [False, True])
def test_outflow_jacobian_is_the_derivative_of_the_outflow_states(primitive):
    # central differences of the outflow states of apply_boundaries with
    # respect to each component of the row's last cell, both in conservative
    # or both in primitive variables, on a column with transverse velocity:
    # the very ghost states that the residual of that space reads
    field = sp.build_initial_field(cfg(ny=3))
    rng = np.random.default_rng(12)
    W = field.interior_primitive()
    W[..., 2] += 0.3 * rng.standard_normal(W.shape[:-1])
    W *= 1.0 + 0.01 * rng.standard_normal(W.shape)
    field = replace(field, U=euler.prim_to_cons(W))
    n = field.nx * field.ny
    to_var = euler.cons_to_prim if primitive else np.copy
    from_var = euler.prim_to_cons if primitive else np.copy
    X = to_var(field.U)
    W_last = field.interior_primitive()[-1]  # the last column's states
    T = outflow_jacobian(W_last, primitive)
    assert T.shape == (field.ny, 4, 4)
    for c in range(4):
        h = 1e-6 * np.maximum(1.0, np.abs(X[-1, :, c]))
        ghosts = []
        for sign in (1.0, -1.0):
            Xp = X.copy()
            Xp[-1, :, c] += sign * h
            ghosts.append(apply_boundaries(replace(field, U=from_var(Xp)), primitive).X[n + 1 :])
        fd = (ghosts[0] - ghosts[1]) / (2.0 * h[:, None])
        # rounding of the ghost states (|E| ~ 1e3) over the 1e-6 step
        assert np.abs(T[:, :, c] - fd).max() < 1e-6 * max(1.0, np.abs(T).max()), c
    # the pinned pressure never moves; a batch gives the stack of its members
    assert np.all(T[:, 3, :] == 0.0) == primitive
    assert np.array_equal(outflow_jacobian(np.stack([W_last, 2.0 * W_last]), primitive),
                          np.stack([T, outflow_jacobian(2.0 * W_last, primitive)]))


def test_single_row_has_nx_plus_two_states():
    # a row reads its cells, the inflow state and its one outflow state: 13
    # states for nx = 11, where a padded grid held 17 x 7 cells
    field = sp.build_initial_field(cfg(nx=11), ny=1)
    for primitive in (False, True):
        assert [a.shape for a in apply_boundaries(field, primitive)] == [(13, 4)] * 2
        stack = replace(field, U=np.stack([field.U] * 54))
        assert [a.shape for a in apply_boundaries(stack, primitive)] == [(54, 13, 4)] * 2


def test_primitive_rhs_names_the_bad_interior_cell():
    # the inadmissible cell is named by its interior (i, j), batch index first
    field = sp.build_initial_field(cfg(ny=5))
    scheme = Scheme(solver="roe", order=5, space="primitive")
    field.U[4, 2, 0] = -1.0
    with pytest.raises(InvalidStateError, match=r"density in interior at cell\(s\) \(4, 2\)$"):
        residual(field, scheme)
    stack = replace(field, U=np.stack([sp.build_initial_field(cfg(ny=5)).U, field.U]))
    with pytest.raises(InvalidStateError, match=r"density in interior at cell\(s\) \(1, 4, 2\)$"):
        residual(stack, scheme)


def test_a_primitive_residual_converts_its_states_once(monkeypatch):
    # apply_boundaries owns the one conversion: a 2D primitive rhs converts
    # its cells once and never back, and the probe stack of one
    # _fd_jacobian_1d is converted once as a whole
    scheme = Scheme(solver="roe", order=5, space="primitive")
    field, row = sp.build_initial_field(cfg()), sp.build_initial_field(cfg(), ny=1)
    cols = np.arange(4 * row.nx)
    calls = {"cons_to_prim": [], "prim_to_cons": []}
    for name in calls:
        original = getattr(euler, name)

        def counted(X, *args, _name=name, _original=original):
            calls[_name].append(np.shape(X))
            return _original(X, *args)

        monkeypatch.setattr(euler, name, counted)
    residual(field, scheme)
    assert calls == {"cons_to_prim": [field.U.shape], "prim_to_cons": []}
    calls["cons_to_prim"].clear()
    sp._fd_jacobian_1d(row, scheme, cols)
    assert calls == {"cons_to_prim": [(2 * len(cols) + 1,) + row.U.shape], "prim_to_cons": []}


def test_boundary_spec_needs_inflow_and_outflow():
    # both fields are required; the conservative inflow state is converted
    # once per spec
    with pytest.raises(TypeError):
        BoundarySpec()
    with pytest.raises(TypeError):
        BoundarySpec(inflow_W=sp.upstream_state(cfg()))
    with pytest.raises(TypeError):
        BoundarySpec(outflow_pressure=1.0)
    bc = BoundarySpec(inflow_W=sp.upstream_state(cfg()), outflow_pressure=1.0)
    assert np.array_equal(bc.inflow_U, euler.prim_to_cons(bc.inflow_W))
    assert bc.inflow_U is bc.inflow_U


def entropy_increase(field, c):
    """Relative entropy rise (s_M - s_L) / (s_R - s_L) of the shock column,
    its state the row average of the column's conservative states."""
    s_l = entropy(sp.upstream_state(c))
    s_r = entropy(sp.downstream_state(c))
    col_mean = field.U[c.shock_column - 1].mean(axis=0)
    return (entropy(euler.cons_to_prim(col_mean)) - s_l) / (s_r - s_l)


def test_entropy_increase_endpoints():
    c = cfg(epsilon=0.0)
    field = sp.build_initial_field(c)
    assert abs(entropy_increase(field, c)) < 1e-12
    c1 = cfg(epsilon=1.0)
    field1 = sp.build_initial_field(c1)
    assert abs(entropy_increase(field1, c1) - 1.0) < 1e-12


def test_entropy_denominator_value():
    # ln(466.5) - 1.4 ln(160/27), evaluated independently
    f, g = sp.jump_ratios(20.0)
    ds = np.log(g) - euler.GAMMA * np.log(f)
    assert abs(ds - 3.6541862914) < 1e-9
    c = cfg(epsilon=0.5)
    field = sp.build_initial_field(c)
    w_m = sp.intermediate_state(c)
    s_m = entropy(w_m)
    s_l = entropy(sp.upstream_state(c))
    expect = (s_m - s_l) / ds
    assert abs(entropy_increase(field, c) - expect) < 1e-12


def test_initial_field_mass_flux_identity():
    c = cfg()
    W = sp.build_initial_field(c).interior_primitive()
    flux_up = W[0, 0, 0] * W[0, 0, 1]
    flux_down = W[-1, 0, 0] * W[-1, 0, 1]
    assert abs(flux_up - flux_down) < 1e-12 * flux_up


def test_converge_1d_roe_first_order_eps0(monkeypatch):
    # exact two-state profile is already steady for Roe (tiny smoothing floor)
    monkeypatch.setattr(riemann, "ROE_DELTA0", 1e-13)
    c = cfg(epsilon=0.0)
    scheme = Scheme(solver="roe", order=1)
    field = sp.build_initial_field(c, ny=1)
    r = residual(field, scheme)
    assert np.abs(r[..., 0]).max() < 1e-9
    profile, info = sp.converge_1d(c, scheme)
    assert info["steps"] <= 100
    assert np.allclose(profile, field.U[:, 0], rtol=1e-8, atol=1e-8)


@pytest.mark.slow
def test_converge_1d_hll_first_order():
    # HLL smears the shock over cells 6-9; on 11 cells its tail still differs
    # from the pinned outflow pressure (residual floor 9e-12), on 13 it reaches 1e-14
    c = cfg(nx=13)
    profile, info = sp.converge_1d(c, Scheme(solver="hll", order=1))
    assert info["residual"] < c.converge_tol
    # the epsilon-labelled member of the steady family, not a neighbour
    assert profile[5, 0] == sp.intermediate_state(c)[0]
    field = sp.project_to_2d(profile, c)
    assert np.all(field.U[..., 2] == 0.0)
    r = residual(field, Scheme(solver="hll", order=1))
    assert np.abs(r[..., 0]).max() < 1e-11


@pytest.mark.slow
def test_converge_1d_hll_first_order_short_row_raises():
    # the 11-cell row has no steady state below converge_tol for hll-o1: the
    # smeared shock's tail meets the fixed outflow pressure in cell 11
    with pytest.raises(ConvergenceError, match=r"hll-o1\S*: 1D residual \d\.\d+e-\d+ .*cell 11$"):
        sp.converge_1d(cfg(), Scheme(solver="hll", order=1))


def test_converge_1d_reports_the_residual_of_every_component():
    # convergence judges the density alone.  At roe-o5 eps=0.7 on 11 cells
    # the momentum and energy residuals were measured at 3.8e-11 and
    # 4.1e-10, far above it, so ``info`` reports each component's largest
    # |dU/dt| at the returned state; which values they take is not pinned
    c = cfg(epsilon=0.7)
    scheme = Scheme(solver="roe", order=5)
    profile, info = sp.converge_1d(c, scheme)
    by_component = info["residual_by_component"]
    assert len(by_component) == 4 and all(type(v) is float for v in by_component)
    assert by_component[0] == info["residual"] < c.converge_tol
    row = replace(sp.project_to_2d(profile, c), U=profile[:, None].copy())
    r = sp._residual_1d(row, scheme).reshape(-1, 4)
    assert by_component == tuple(np.abs(r).max(axis=0).tolist())


@pytest.mark.slow
def test_converge_1d_jitter_restart_reaches_the_labelled_member():
    # the first LM attempt stops at 2.085 and the restart converges; what
    # rescues it is the restart's damping, reset to 1e-3, since a restart
    # without the jitter converges too
    c = cfg(epsilon=0.3)
    profile, info = sp.converge_1d(c, Scheme(solver="van_leer", order=5))
    assert info["residual"] < c.converge_tol
    assert profile[5, 0] == sp.intermediate_state(c)[0]
    assert info["steps"] == 10
    assert info["restarts"] >= 1


def test_converge_1d_counts_no_restart_when_the_first_attempt_converges(base_flow_cache):
    _, info = base_flow_cache(Scheme(solver="roe", order=5), epsilon=0.1)
    assert info["residual"] < cfg().converge_tol
    assert info["restarts"] == 0


@pytest.mark.slow
def test_converge_1d_inadmissible_jitter_start_is_a_failed_restart():
    # the second jitter restart re-pins rho_6 and leaves p_6 < 0; that start is
    # skipped, so the stall itself is reported, not an InvalidStateError
    with pytest.raises(
        ConvergenceError, match=r"roe-o5-z/conservative: 1D residual \d\.\d+e[-+]\d+ .*cell 6$"
    ):
        sp.converge_1d(cfg(), Scheme(solver="roe", order=5, space="conservative"))


@pytest.mark.parametrize("broken, value", [(n, np.inf) for n in range(1, 11)] + [(5, -1.0)],
                         ids=[f"inf-step-{n}" for n in range(1, 11)] + ["negative-rho-step-5"])
def test_converge_1d_refuses_a_diverged_smoothing_march(monkeypatch, broken, value):
    # the last stage of a smoothing step overflows in cell 8: the step
    # refuses the state it would end in, naming the cell, and the march
    # fails at once, before a next step spreads NaN states.  A finite state
    # of negative density is refused by the next step's conversion, and
    # fails the march the same way
    step, rhs, steps, stages = marching.step_ssprk3, marching.rhs, [], []

    def counted(field, scheme, cfl, dt_max):
        out, dt = step(field, scheme, cfl, dt_max)
        steps.append(dt)
        if value < 0 and len(steps) == broken:
            out.U[7, 0, 0] = value
        return out, dt

    def overflowing(*args):
        res = rhs(*args)
        stages.append(None)
        if value > 0 and len(stages) == 3 * broken:
            res[7, 0, 3] = value
        return res

    monkeypatch.setattr(marching, "step_ssprk3", counted)
    monkeypatch.setattr(marching, "rhs", overflowing)
    with pytest.raises(ConvergenceError,
                       match=r"^1D smoothing march diverged for roe-o1/primitive$") as raised:
        sp.converge_1d(cfg(), Scheme(solver="roe", order=1))
    # the overflowing step raises; the negative density passes its own step
    assert len(steps) == broken - (value > 0)
    cause = raised.value.__cause__
    assert isinstance(cause, InvalidStateError)
    assert str(cause).endswith("(7, 0)")


@pytest.mark.parametrize("stage", ["start_probe", "trial_probe", "trial", "batch"])
def test_lm_refine_propagates_errors_from_outside_the_package(monkeypatch, stage):
    # only package errors (an inadmissible probe or trial state) are handled;
    # anything else is a bug and must surface: from the probes of the start
    # (Jacobian call 1) or of the first trial (call 2), from the residual of
    # a trial whose probes were inadmissible, or from the batched residual of
    # the damped retries that follow a rejected first trial
    c = cfg()
    scheme = Scheme(solver="roe", order=1)
    field = sp.build_initial_field(c, ny=1)
    residual, jacobian = sp._residual_1d, sp._fd_jacobian_1d
    jacobian_calls = itertools.count(1)

    def failing_jacobian(*args):
        call = next(jacobian_calls)
        if (stage, call) in (("start_probe", 1), ("trial_probe", 2)):
            raise RuntimeError(stage)
        if (stage, call) == ("trial", 2):
            raise InvalidStateError("inadmissible probe")  # the trial is judged by its residual
        J, r = jacobian(*args)
        if (stage, call) == ("batch", 2):
            return J, np.full_like(r, np.nan)  # a non-finite cost rejects the first trial
        return J, r

    def failing_residual(f, s):
        batched = f.U.ndim == 4
        if (stage == "trial" and not batched) or (stage == "batch" and batched):
            raise RuntimeError(stage)
        return residual(f, s)

    monkeypatch.setattr(sp, "_residual_1d", failing_residual)
    monkeypatch.setattr(sp, "_fd_jacobian_1d", failing_jacobian)
    with pytest.raises(RuntimeError, match=stage):
        sp._lm_refine_1d(field, scheme, _lm_free(c))


def _lm_free(c):
    """The unknowns that converge_1d's LM moves for a shock in column 6:
    all but the clamped upstream cells 1-4 and the pinned density rho_6."""
    assert c.shock_column == 6
    free = np.ones(4 * c.nx, dtype=bool)
    free[:16] = free[20] = False
    return free


def _loop_lm_refine_1d(field, scheme, free):
    """Reference: the sequential Levenberg-Marquardt loop, one residual call
    per damped trial and a Jacobian call at the top of every iteration;
    returns (state, residual vector, iterations) as ``sp._lm_refine_1d``
    does."""
    nx, tol = field.nx, sp.ShockProblemConfig.converge_tol
    W = field.interior_primitive()
    c = euler.sound_speed(W)
    speed = float((np.abs(W[..., 1]) + c).max())
    scale = np.maximum(1.0, np.abs(field.U).max(axis=(0, 1))) * speed
    s = np.tile(scale, nx)
    rho_floor = 1e-3 * float(W[..., 0].min())
    p_floor = 1e-3 * float(W[..., 3].min())

    def admissible(f):
        Wt = euler.cons_to_prim(f.U)
        return bool((Wt[..., 0].min() > rho_floor) and (Wt[..., 3].min() > p_floor))

    r = sp._residual_1d(field, scheme)
    cost = float(np.linalg.norm(r / s))
    lam = 1e-3
    it = 0
    while it < sp.LM_MAX_ITER:
        it += 1
        if np.isfinite(r).all() and np.abs(r.reshape(nx, 4)[:, 0]).max() < tol:
            break
        try:
            J = sp._fd_jacobian_1d(field, scheme, np.flatnonzero(free))[0] / s[:, None]
        except ShockStabError:
            break
        g = J.T @ (r / s)
        H = J.T @ J
        dH = np.diag(H).copy()
        dH[dH <= 0] = 1.0
        accepted = False
        for _ in range(25):
            try:
                step_free = np.linalg.solve(H + lam * np.diag(dH), -g)
            except np.linalg.LinAlgError:
                lam *= 4.0
                continue
            step = np.zeros(4 * nx)
            step[free] = step_free
            trial = replace(field, U=field.U + step.reshape(nx, 1, 4))
            try:
                if not admissible(trial):
                    lam *= 4.0
                    continue
                r2 = sp._residual_1d(trial, scheme)
            except ShockStabError:
                lam *= 4.0
                continue
            cost2 = float(np.linalg.norm(r2 / s))
            if np.isfinite(cost2) and cost2 < cost:
                field, r, cost = trial, r2, cost2
                lam = max(lam / 3.0, 1e-14)
                accepted = True
                break
            lam *= 4.0
        if not accepted:
            break
    return field, r, it


@pytest.mark.parametrize("scheme, epsilon, fault", [
    (Scheme(solver="roe", order=1), 0.1, None),  # every first trial is accepted
    (Scheme(solver="roe", order=5), 0.1, None),  # a batch of damped retries ends in an acceptance
    # a batch accepts a step that moves the Jacobian, and the solve goes on
    (Scheme(solver="roe", order=5), 0.5, None),
    # the same, when every batch raises and its trials run one at a time
    (Scheme(solver="roe", order=5), 0.5, "batch"),
    (Scheme(solver="hll", order=1), 0.1, None),  # batches reject every trial: the attempts stall
    (Scheme(solver="roe", order=5, space="conservative"), 0.1, None),  # inadmissible trials
    # every damped system is singular: an attempt ends with no trial
    (Scheme(solver="roe", order=1), 0.1, "singular"),
    # only the least damped system of an iteration solves: a rejected first
    # trial has no successor, and the attempt stalls
    (Scheme(solver="hll", order=1), 0.1, "one damping"),
    # only the system with k = 3 is singular: each stack of the steps after
    # a rejected first trial raises, and its systems are solved one at a time
    (Scheme(solver="roe", order=5), 0.1, "damping 3"),
    # a state whose density moved by more than 0.1 from the attempt's start
    # has no residual: the probes and the residual of a first trial raise,
    # then the batch of its successors, and one at a time its far members
    (Scheme(solver="roe", order=5), 0.1, "far"),
    # the probes of each attempt's start raise: it is judged by its residual
    (Scheme(solver="roe", order=1), 0.1, "start probes"),
], ids=lambda v: v.label() if isinstance(v, Scheme) else str(v))
def test_lm_refine_equals_the_sequential_loop(monkeypatch, scheme, epsilon, fault):
    # each attempt of converge_1d, restarts included, returns the state,
    # residual and iteration count of the sequential loop, and counts the
    # calls it makes, also under an injected fault.  A fault depends only on
    # what the failing call is given: a state, or a damped system and the
    # rank of a system among those with its right-hand side met in the run.
    # So the loop and the package, which reach the same states in different
    # orders, meet the same faults
    refine, jacobian, residual, solve = (sp._lm_refine_1d, sp._fd_jacobian_1d, sp._residual_1d,
                                         np.linalg.solve)
    calls, batches, attempts = {"jacobians": 0, "residuals": 0}, [], []
    start, damping, raised = [], {}, []  # of the current run

    def far(U):  # a batch is far when one of its members is
        return fault == "far" and bool((np.abs(U[..., 0] - start[0][..., 0]) > 0.1).any())

    def counted_jacobian(f, *args):
        calls["jacobians"] += 1
        if far(f.U) or (fault == "start probes" and np.array_equal(f.U, start[0])):
            raised.append("probes")
            raise InvalidStateError("a probe")
        return jacobian(f, *args)

    def counted_residual(f, s):
        calls["residuals"] += 1
        batched = f.U.ndim == 4
        if batched:
            batches.append(len(f.U))
        if (batched and fault == "batch") or far(f.U):
            raised.append("batch" if batched else "trial")
            raise InvalidStateError("a trial")
        return residual(f, s)

    def faulty_solve(A, b):
        # the damping index k of a system (lambda 4^k) is its rank among the
        # distinct systems with its right-hand side met in the run, so a
        # system solved again keeps its index.  A stack raises when any of
        # its systems is faulted, as LAPACK does; a stack of one is named
        # as its system
        met = damping.setdefault(b.reshape(-1, A.shape[-1])[0].tobytes(), [])
        ks = []
        for system in A.reshape(-1, *A.shape[-2:]):
            if system.tobytes() not in met:
                met.append(system.tobytes())
            ks.append(met.index(system.tobytes()))
        faulted = [k for k in ks if fault == "singular" or (fault == "one damping" and k > 0)
                   or (fault == "damping 3" and k == 3)]
        if faulted:
            raised.append("stack" if len(ks) > 1 else f"system {faulted[0]}")
            raise np.linalg.LinAlgError("Singular matrix")
        return solve(A, b)

    def run(solve_lm, field, *args):
        start[:] = [field.U.copy()]
        damping.clear()
        raised.clear()
        return solve_lm(field, *args)

    def compared(field, *args):
        expected = run(_loop_lm_refine_1d, field.copy(), *args)
        before = dict(calls)
        got = run(refine, field, *args)
        made = {key: calls[key] - before[key] for key in calls}
        attempts.append((got, made, expected, list(raised), start[0]))
        return got

    monkeypatch.setattr(sp, "_fd_jacobian_1d", counted_jacobian)
    monkeypatch.setattr(sp, "_residual_1d", counted_residual)
    monkeypatch.setattr(sp, "_lm_refine_1d", compared)
    monkeypatch.setattr(np.linalg, "solve", faulty_solve)
    try:
        sp.converge_1d(cfg(epsilon=epsilon), scheme)
    except ConvergenceError:
        assert scheme.solver == "hll" or scheme.space == "conservative" or fault in (
            "singular", "start probes")
    for (got, res, it, lm_calls), made, (expected, expected_res, expected_it), _, begun in attempts:
        assert np.array_equal(got.U, expected.U)
        assert _same_bits(res, expected_res) and it == expected_it
        assert lm_calls == made
        if fault in ("singular", "start probes"):
            assert it == 1 and np.array_equal(got.U, begun)  # the attempt ends at its start
    faults = [attempt_faults for *_, attempt_faults, _ in attempts]
    if fault == "singular":
        # no step gives a first trial: each is solved once, as a stack of
        # one, and raises
        assert faults == [[f"system {k}" for k in range(25)]] * 3
    elif fault == "start probes":
        assert faults == [["probes"]] * 3
        assert [made for _, made, *_ in attempts] == [{"jacobians": 1, "residuals": 1}] * 3
    elif fault == "one damping":
        # the last iteration's first trial was rejected, then the stack of
        # its 24 damped successors and each of them were singular
        assert batches == []
        assert faults[0][-25:] == ["stack", *[f"system {k}" for k in range(1, 25)]]
    elif fault == "damping 3":
        # every batch follows a stack that raised and a step 3 left out
        assert batches and set(batches) == {23}
        assert sum(faults, []) == ["stack", "system 3"] * len(batches)
    elif fault == "far":
        # a first trial with no residual, then a batch that raises and a
        # trial in it with no residual
        assert faults[0][:4] == ["probes", "trial", "batch", "trial"]
    elif scheme.order == 1 and scheme.solver == "roe":
        assert batches == []
    elif scheme.space == "conservative":
        assert min(batches) < 24  # a damped step that is not admissible is left out
    else:
        assert batches and set(batches) == {24}


def _trial_admissible(U, rho_floor, p_floor):
    """Reference: the admissibility of one trial row, cons_to_prim, the
    minima of its density and pressure against the floors, and every entry
    finite."""
    try:
        W = euler.cons_to_prim(U)
    except ShockStabError:
        return False
    return bool((W[..., 0].min() > rho_floor) and (W[..., 3].min() > p_floor)
                and np.isfinite(W).all())


def _trial_mask(U, rho_floor, p_floor):
    """The LM's screen of stacked trial rows U (K, nx, 1, 4), as it reads the mask."""
    return euler.admissible(euler.soft_primitive(U), rho_floor, p_floor).all(axis=(-2, -1))


def test_damped_stack_keeps_the_bits_of_one_system_at_a_time(monkeypatch):
    # the two facts the stacked damped trials of the LM solve rest on.  The
    # stacked solve of a real damped stack (the first LM iteration of
    # roe-o5 at epsilon 0.1, its 25 dampings) equals the solve of each
    # system on its own, bit for bit
    c = cfg()
    field = sp.build_initial_field(c, ny=1)
    free = np.ones(4 * c.nx, dtype=bool)
    free[:16] = free[20] = False  # the clamped upstream cells and the pinned density
    W = field.interior_primitive()
    speed = float((np.abs(W[..., 1]) + euler.sound_speed(W)).max())
    s = np.tile(np.maximum(1.0, np.abs(field.U).max(axis=(0, 1))) * speed, c.nx)
    J, r = sp._fd_jacobian_1d(field, Scheme(solver="roe", order=5), np.flatnonzero(free))
    J = J / s[:, None]
    H, g = J.T @ J, J.T @ (r / s)
    dH = np.diag(H).copy()
    dH[dH <= 0] = 1.0
    lam = 1e-3 * 4.0 ** np.arange(25)
    solve = np.linalg.solve

    def either_major_solve(A, b):
        # NumPy 1.x reads b as vectors when b.ndim == A.ndim - 1, 2.x only
        # when b.ndim == 1: a stack needs b.ndim == A.ndim to mean one thing
        assert b.ndim == A.ndim or (A.ndim, b.ndim) == (2, 1)
        return solve(A, b)

    monkeypatch.setattr(np.linalg, "solve", either_major_solve)
    steps = sp._damped_steps(H, g, dH, lam)
    monkeypatch.undo()
    for k in range(25):
        assert np.array_equal(steps[k], np.linalg.solve(H + 1e-3 * 4.0**k * np.diag(dH), -g)), k

    # the stacked mask equals the per-trial check on hand-made rows: each
    # changes cell 8 of the initial row
    rho_floor, p_floor = 1e-3 * W[..., 0].min(), (euler.GAMMA - 1.0) * 1e-3
    base = field.U[8, 0]
    cells = {
        "initial": base,
        "rho 0": [0.0, *base[1:]],
        "rho < 0": [-1.0, *base[1:]],
        "rho NaN": [np.nan, *base[1:]],
        "p 0": [1.0, 0.0, 0.0, 0.0],
        "p < 0": [*base[:3], -1.0],
        "p NaN": [*base[:3], np.nan],
        "rho at its floor": [rho_floor, 0.0, 0.0, 1.0],
        "rho above its floor": [np.nextafter(rho_floor, 1.0), 0.0, 0.0, 1.0],
        "p at its floor": [1.0, 0.0, 0.0, 1e-3],  # (GAMMA - 1) (1e-3 - 0) is p_floor
        "p above its floor": [1.0, 0.0, 0.0, np.nextafter(1e-3, 1.0)],
        "rho u +inf": [base[0], np.inf, *base[2:]],
        "rho u -inf": [base[0], -np.inf, *base[2:]],
        "rho v +inf": [*base[:2], np.inf, base[3]],
        "rho v -inf": [*base[:2], -np.inf, base[3]],
        # the checked conversion passes E = +inf with p = +inf: the mask
        # refuses it for not being finite
        "E +inf": [*base[:3], np.inf],
        "E -inf": [*base[:3], -np.inf],
    }
    U = np.repeat(field.U[None], len(cells), axis=0)
    U[:, 8, 0] = list(cells.values())
    expected = [_trial_admissible(u, rho_floor, p_floor) for u in U]
    assert dict(zip(cells, expected)) == {name: name in ("initial", "rho above its floor",
                                                         "p above its floor") for name in cells}
    assert _trial_mask(U, rho_floor, p_floor).tolist() == expected

    # at zero floors the mask is converge_1d's screen of a jittered restart
    # start: it fails exactly where the checked conversion raises, or where
    # a state is not finite
    def converts(u):
        try:
            W = replace(field, U=u).interior_primitive()
        except InvalidStateError:
            return False
        return bool(np.isfinite(W).all())

    converted = [converts(u) for u in U]
    assert dict(zip(cells, converted)) == {name: name in (
        "initial", "rho at its floor", "rho above its floor", "p at its floor",
        "p above its floor") for name in cells}
    assert _trial_mask(U, 0.0, 0.0).tolist() == converted
    # E = +inf is the one row the checked conversion passes
    e_inf = U[list(cells).index("E +inf")]
    assert np.isinf(replace(field, U=e_inf).interior_primitive()).any()


def _loop_fd_jacobian(field, scheme, cols):
    """Reference: the column-by-column finite-difference Jacobian, one rhs
    call per probe, shape (4 nx, len(cols))."""
    J = np.zeros((4 * field.nx, len(cols)))
    for k, col in enumerate(cols):
        i, c = divmod(col, 4)
        h = 1e-7 * max(1.0, abs(field.U[i, 0, c]))
        fp = field.copy()
        fp.U[i, 0, c] += h
        fm = field.copy()
        fm.U[i, 0, c] -= h
        J[:, k] = (sp._residual_1d(fp, scheme) - sp._residual_1d(fm, scheme)) / (2 * h)
    return J


def _counting_layers(monkeypatch):
    """Wrap the layers a Jacobian may call; return, per layer, the list of
    the batch shape of each call's field or the side-axis length of its
    face states (``reconstruct_pair``'s cells (..., 2F, 4))."""
    calls = {"rhs": [], "apply_boundaries": [], "reconstruct_pair": [], "compute_flux": []}

    def counting(module, name, size):
        original = getattr(module, name)

        def counted(*args, **kwargs):
            calls[name].append(size(*args, **kwargs))
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)

    def side_axis(X, cells, cfg, frame, **kwargs):
        return cells.shape[-2]

    counting(marching, "rhs", lambda field, states, scheme: field.U.shape[:-3])
    counting(fields, "apply_boundaries", lambda field, primitive: field.U.shape[:-3])
    counting(reconstruction, "reconstruct_pair", side_axis)
    counting(riemann, "compute_flux", lambda kind, W, frame: W.shape[-2])
    return calls


def _low_energy_row():
    # a row moving at u = 1 in which one cell's internal energy 2.5e-8 lies
    # below its probe step 1e-7: that cell's -h energy probe and its +h
    # x-momentum probe have p < 0
    nx = 8
    W = np.tile([1.0, 1.0, 0.0, 1.0], (nx, 1, 1))
    W[3, 0, 3] = 1e-8
    return MeanField(U=euler.prim_to_cons(W), bc=edge_boundaries(W))


def _same_bits(a, b):
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def test_fd_jacobian_equals_the_column_loop_on_a_converged_row(base_flow_cache, monkeypatch):
    scheme = Scheme(solver="roe", order=5)
    field2d, _ = base_flow_cache(scheme, epsilon=0.1)
    row = replace(field2d, U=field2d.U[:, :1].copy())
    every = np.arange(4 * row.nx)
    # all columns, and the LM solve's free ones: cells 1-4 clamped, rho_6 pinned
    for cols in (every, every[(every >= 16) & (every != 20)]):
        expected = _loop_fd_jacobian(row, scheme, cols)
        residual = sp._residual_1d(row, scheme)
        with monkeypatch.context() as m:
            calls = _counting_layers(m)
            J, r = sp._fd_jacobian_1d(row, scheme, cols)
        assert J.shape == (4 * row.nx, len(cols))
        assert np.array_equal(J, expected)
        assert _same_bits(r, residual)
        # every probe and the row itself in one pass, and no rhs call
        assert calls["rhs"] == []
        assert calls["apply_boundaries"] == [(2 * len(cols) + 1,)]
        assert len(calls["reconstruct_pair"]) == len(calls["compute_flux"]) == 1


def test_fd_jacobian_raises_at_an_inadmissible_probe_in_one_pass(monkeypatch):
    scheme = Scheme(solver="roe", order=5)
    row = _low_energy_row()
    calls = _counting_layers(monkeypatch)
    with pytest.raises(InvalidStateError):
        sp._fd_jacobian_1d(row, scheme, np.arange(4 * row.nx))
    # the primitive conversion of the whole probe stack refuses it
    assert calls == {"rhs": [], "apply_boundaries": [(2 * 4 * row.nx + 1,)],
                     "reconstruct_pair": [], "compute_flux": []}


def _jacobian_rows():
    """A perturbed shock row (shock column 6) and a smooth row of 5 cells,
    shorter than the 6-cell stencil, so that every face's stencil reads a
    ghost state and the windows of the outer faces read one more than once."""
    rng = np.random.default_rng(18)
    shock = sp.build_initial_field(cfg(), ny=1)
    shock = replace(shock, U=shock.U * (1.0 + 1e-3 * rng.standard_normal(shock.U.shape)))
    x = 2 * np.pi * np.arange(5) / 5
    W = np.stack([1.0 + 0.3 * np.sin(x), 0.5 + 0.1 * np.cos(x), 0.05 * np.sin(2 * x),
                  1.0 + 0.2 * np.cos(x)], axis=-1)[:, None]
    short = MeanField(U=euler.prim_to_cons(W), bc=edge_boundaries(W), shock_column=2)
    return shock, short


@pytest.mark.parametrize("space", ["conservative", "primitive", "characteristic"])
@pytest.mark.parametrize("solver", ["roe", "hll", "hllc", "van_leer", "hybrid-1", "hybrid-2"])
def test_fd_jacobian_equals_the_column_loop_on_every_column(monkeypatch, solver, space):
    # only the faces a probe touches are evaluated; the Jacobian is still the
    # one of rhs bit for bit, and the row's residual is rhs's, on a shock row
    # and a row shorter than the stencil, every order and cap, and where the
    # positivity fallback drops faces to first order
    orders = (5,) if solver.startswith("hybrid") else (1, 2, 5)
    caps = ("none", "first", "second", "smoothest-third")
    fell_back = []
    reconstruct_pair = reconstruction.reconstruct_pair

    def recording(*args, **kwargs):
        recon = reconstruct_pair(*args, **kwargs)
        fell_back.append(bool(recon.fallback.any()))
        return recon

    for row in _jacobian_rows():
        every = np.arange(4 * row.nx)
        for order, cap in itertools.product(orders, caps):
            scheme = Scheme(solver=solver, order=order, space=space, cap=cap)
            expected = _loop_fd_jacobian(row, scheme, every)
            residual = sp._residual_1d(row, scheme)
            with monkeypatch.context() as m:
                m.setattr(reconstruction, "reconstruct_pair", recording)
                J, r = sp._fd_jacobian_1d(row, scheme, every)
            assert np.array_equal(J, expected), (row.nx, scheme.label())
            assert _same_bits(r, residual), (row.nx, scheme.label())
    if space == "conservative" and solver in ("roe", "hll", "hllc", "van_leer"):
        assert any(fell_back)  # the fifth-order shock faces drop to first order


@pytest.mark.parametrize("scheme, reach", [
    (Scheme(solver="roe", order=5, cap="second"), (-2, 3)),
    (Scheme(solver="hybrid-2", cap="second"), (-2, 3)),
    (Scheme(solver="roe", order=1), (0, 1)),
    (Scheme(solver="hybrid-1"), (0, 1)),  # its row's x faces are van_leer-o1
], ids=["roe", "hybrid-2", "roe-o1", "hybrid-1"])
def test_fd_jacobian_fluxes_only_the_touched_faces(monkeypatch, scheme, reach):
    # a probe of cell i changes the faces whose read slots hold it: the
    # faces i-2 .. i+3 of the row where the part reads windows, the faces i
    # and i+1 where it reads cells (its last cell also through the outflow
    # ghost, which the same faces read).  One reconstruct_pair and one
    # compute_flux call take those faces of every probe and the row's
    # nx + 1 faces, and rhs is not called
    c = cfg()
    row = sp.build_initial_field(c, ny=1)
    # the columns the steady solve probes: the cells past the clamped
    # upstream ones, less the pinned shock-cell density
    cols = np.setdiff1d(np.arange(4 * (c.shock_column - 2), 4 * c.nx), [4 * (c.shock_column - 1)])
    cells = cols // 4
    touched = sum(min(i + reach[1], c.nx) - max(i + reach[0], 0) + 1 for i in cells)
    assert len(cols) == 27 and 2 * touched == {(-2, 3): 300, (0, 1): 108}[reach]
    calls = _counting_layers(monkeypatch)
    sp._fd_jacobian_1d(row, scheme, cols)
    sp._fd_jacobian_1d(row, scheme, cols)
    faces = 2 * touched + c.nx + 1
    assert calls == {"rhs": [], "apply_boundaries": [(2 * len(cols) + 1,)] * 2,
                     "reconstruct_pair": [2 * faces] * 2, "compute_flux": [2 * faces] * 2}
    # the index is built once per face table and set of probed cells
    info = sp._probe_faces.cache_info()
    sp._fd_jacobian_1d(row, scheme, cols)
    assert sp._probe_faces.cache_info().hits == info.hits + 1
    assert sp._probe_faces.cache_info().misses == info.misses


def test_lm_refine_ends_the_attempt_when_the_jacobian_raises(monkeypatch):
    # the probes of the first trial leave the admissible states: the trial is
    # still accepted on its residual, and the attempt ends at the next
    # iteration, as a stall does, returning that state with that iteration
    # counted
    c = cfg()
    scheme = Scheme(solver="roe", order=1)
    field = sp.build_initial_field(c, ny=1)
    args = (scheme, _lm_free(c))
    with monkeypatch.context() as m:
        m.setattr(sp, "LM_MAX_ITER", 1)
        one_step, res_one, it_one, _ = sp._lm_refine_1d(field, *args)
    assert it_one == 1 and not np.array_equal(one_step.U, field.U)

    jacobian, residual, calls = sp._fd_jacobian_1d, sp._residual_1d, []

    def failing_second_call(*a):
        calls.append("jacobian")
        if calls.count("jacobian") == 2:
            raise InvalidStateError("inadmissible probe")
        return jacobian(*a)

    def recording_residual(*a):
        calls.append("residual")
        return residual(*a)

    monkeypatch.setattr(sp, "_fd_jacobian_1d", failing_second_call)
    monkeypatch.setattr(sp, "_residual_1d", recording_residual)
    got, res, it, lm_calls = sp._lm_refine_1d(field, *args)
    # the start's pass, the trial's raising pass, its residual; no more probes
    assert calls == ["jacobian", "jacobian", "residual"]
    assert lm_calls == {"jacobians": 2, "residuals": 1}
    assert np.array_equal(got.U, one_step.U) and _same_bits(res, res_one)
    assert it == 2


def test_lm_solve_takes_one_pass_per_accepted_step(monkeypatch):
    # roe-o1 accepts every first trial, and the start and each accepted
    # trial get their residual and Jacobian from one _fd_jacobian_1d pass:
    # the LM phase makes one reconstruct_pair call per accepted step plus
    # the start's.  A separate residual pass per trial would double that.
    refine = sp._lm_refine_1d
    calls = _counting_layers(monkeypatch)
    attempts = []

    def counted(*args):
        before = len(calls["reconstruct_pair"])
        out = refine(*args)
        attempts.append((len(calls["reconstruct_pair"]) - before, out))
        return out

    monkeypatch.setattr(sp, "_lm_refine_1d", counted)
    _, info = sp.converge_1d(cfg(), Scheme(solver="roe", order=1))
    (passes, (_, res, it, lm_calls)), = attempts
    accepted = it - 1  # the last iteration stops at the converged residual
    assert np.abs(res[0::4]).max() < cfg().converge_tol and info["restarts"] == 0
    assert passes == accepted + 1
    assert lm_calls == {"jacobians": accepted + 1, "residuals": 0}
    assert info["lm_iterations"] == it and info["jacobians"] == accepted + 1
    assert info["residuals"] == 0


def _recorded_attempts(monkeypatch):
    """Wrap ``sp._lm_refine_1d``; return the list of each attempt's
    (start state, free mask, result), and fail a residual that converge_1d
    evaluates outside its attempts."""
    refine, residual, attempts, running = sp._lm_refine_1d, sp._residual_1d, [], []

    def recorded(field, scheme, free):
        start = field.U.copy()
        running.append(True)
        out = refine(field, scheme, free)
        running.pop()
        attempts.append((start, free, out))
        return out

    def inside_an_attempt(f, s):
        assert running, "converge_1d evaluated a residual outside its attempts"
        return residual(f, s)

    monkeypatch.setattr(sp, "_lm_refine_1d", recorded)
    monkeypatch.setattr(sp, "_residual_1d", inside_an_attempt)
    return attempts


@pytest.mark.parametrize("scheme, epsilon, cell", [
    (Scheme(solver="roe", order=1), 0.1, None),  # converges in one attempt
    # stalls; its second restart's jittered start is inadmissible
    (Scheme(solver="roe", order=5, space="conservative"), 0.1, 6),
    # stalls; the second restart ends lowest, in cell 2, and the first
    # attempt in cell 4
    (Scheme(solver="roe", order=2, space="characteristic"), 0.0, 2),
], ids=lambda v: v.label() if isinstance(v, Scheme) else str(v))
def test_lm_refine_returns_the_residual_of_the_state_it_returns(monkeypatch, scheme, epsilon,
                                                                cell):
    # converge_1d picks the better attempt and names the failing cell from
    # the residual vector each attempt returns, with no residual of its own:
    # the vector is _residual_1d of the returned state bit for bit, whether
    # a Jacobian pass or a batch of damped trials gave it
    residual = sp._residual_1d
    attempts = _recorded_attempts(monkeypatch)
    try:
        sp.converge_1d(cfg(epsilon=epsilon), scheme)
    except ConvergenceError as err:
        drho = [np.abs(r[0::4]) for _, _, (_, r, _, _) in attempts]
        best = min(range(len(drho)), key=lambda k: drho[k].max())  # the first of equals
        assert int(np.argmax(drho[best])) + 1 == cell and str(err).endswith(f"cell {cell}")
        assert f"residual {drho[best].max():.3e} >=" in str(err)
    else:
        assert cell is None and len(attempts) == 1
    for _, _, (got, r, _, _) in attempts:
        assert _same_bits(r, residual(got, scheme))


def test_a_jittered_restart_moves_only_the_free_unknowns(monkeypatch):
    # roe-o5/conservative at epsilon 0.1 stalls, and its first restart starts
    # from the best state jittered: the clamped upstream cells and the pinned
    # shock-cell density keep their bits, and every other nonzero unknown
    # moves.  Both attempts move the one free mask that converge_1d built
    c = cfg()
    attempts = _recorded_attempts(monkeypatch)
    with pytest.raises(ConvergenceError):
        sp.converge_1d(c, Scheme(solver="roe", order=5, space="conservative"))
    (_, free, (best, _, _, _)), (start, restart_free, _) = attempts
    assert restart_free is free and np.array_equal(free, _lm_free(c))
    best, start = best.U.reshape(-1), start.reshape(-1)
    assert _same_bits(start[~free], best[~free])
    assert start[20] == sp.intermediate_state(c)[0]
    moved = start != best
    assert moved[free & (best != 0.0)].all() and not moved[~free].any()


def _spoilt_attempts(monkeypatch, entry, spoilt):
    """Wrap ``sp._lm_refine_1d`` so that the residual vector of each attempt
    whose index is in ``spoilt`` reads NaN at flat ``entry``; return the list
    of each attempt's returned state."""
    refine, attempts = sp._lm_refine_1d, []

    def spoiling(*args):
        got, r, it, calls = refine(*args)
        if len(attempts) in spoilt:
            r = r.copy()
            r[entry] = np.nan
        attempts.append(got)
        return got, r, it, calls

    monkeypatch.setattr(sp, "_lm_refine_1d", spoiling)
    return attempts


def test_a_nan_attempt_gives_way_to_a_converged_restart(monkeypatch):
    # roe-o1 converges in one attempt; with that attempt's density residual
    # NaN in cell 8, the first restart runs and its converged state wins
    attempts = _spoilt_attempts(monkeypatch, 4 * 7, {0})
    profile, info = sp.converge_1d(cfg(), Scheme(solver="roe", order=1))
    assert info["restarts"] == 1 and len(attempts) == 2
    assert np.isfinite(info["residual"]) and info["residual"] < cfg().converge_tol
    assert np.array_equal(profile, attempts[1].U[:, 0])


@pytest.mark.parametrize("entry, name", [(4 * 7, "rho"), (4 * 7 + 3, "rho e")],
                         ids=["density", "energy"])
def test_a_residual_that_is_not_finite_never_converges(monkeypatch, entry, name):
    # every attempt ends on a NaN, in the density of cell 8 or, with the
    # density below tolerance, in its energy: the solve raises, naming that
    # entry, not the cell of largest finite |d rho/dt|
    attempts = _spoilt_attempts(monkeypatch, entry, {0, 1, 2})
    with pytest.raises(ConvergenceError,
                       match=r"^roe-o1/primitive: 1D residual inf >= converge_tol 1e-12 ") as raised:
        sp.converge_1d(cfg(), Scheme(solver="roe", order=1))
    assert str(raised.value).endswith(f"; d({name})/dt not finite in cell 8")
    assert len(attempts) == 3


def test_the_steady_tolerance_is_a_constant_no_caller_sets():
    with pytest.raises(TypeError):
        cfg(converge_tol=1e-10)
    assert cfg().converge_tol == 1e-12
    assert "converge_tol" not in {f.name for f in dataclasses.fields(sp.ShockProblemConfig)}


def test_project_to_2d_rows_equal():
    c = cfg(nx=7, ny=5, shock_column=4)
    profile = sp.initial_profile(c)
    field = sp.project_to_2d(profile, c)
    interior = field.U
    assert interior.shape == (7, 5, 4)
    assert np.allclose(interior, interior[:, :1, :], atol=0)


def test_config_validation():
    with pytest.raises(ValueError):
        cfg(mach=0.8)
    with pytest.raises(ValueError):
        cfg(epsilon=1.5)
    with pytest.raises(ValueError):
        cfg(shock_column=12)


@pytest.mark.parametrize("make, match", [
    (lambda: cfg(ny=0), "at least one cell"),
    (lambda: cfg(nx=0), "at least one cell"),
    (lambda: marching.RunConfig(scheme=Scheme(), amplitude=float("nan")), "amplitude"),
    (lambda: marching.RunConfig(scheme=Scheme(), end_time=0.0), "end time"),
    (lambda: marching.RunConfig(scheme=Scheme(), end_time=-1.0), "end time"),
    (lambda: marching.RunConfig(scheme=Scheme(), end_time=float("nan")), "end time"),
    (lambda: marching.RunConfig(scheme=Scheme(), end_time=float("inf")), "end time"),
    (lambda: marching.RunConfig(scheme=Scheme(), cfl=float("inf")), "CFL"),
    (lambda: marching.RunConfig(scheme=Scheme(), cfl=float("nan")), "CFL"),
    (lambda: marching.RunConfig(scheme=Scheme(), amplitude=float("inf")), "amplitude"),
    (lambda: cfg(mach=float("inf")), "Mach"),
    (lambda: cfg(nx=11.5), "nx must be an integer"),
    (lambda: cfg(nx=11.0), "nx must be an integer"),
    (lambda: cfg(ny=True), "ny must be an integer"),
    (lambda: cfg(shock_column=6.5), "shock_column must be an integer"),
    # a seed that would march on fresh entropy, fail only inside march, or
    # march as another seed
    (lambda: marching.RunConfig(scheme=Scheme(), seed=None), "seed"),
    (lambda: marching.RunConfig(scheme=Scheme(), seed=-1), "seed"),
    (lambda: marching.RunConfig(scheme=Scheme(), seed=1.5), "seed"),
    (lambda: marching.RunConfig(scheme=Scheme(), seed=True), "seed"),
], ids=["ny=0", "nx=0", "amplitude=nan", "end_time=0", "end_time<0", "end_time=nan",
        "end_time=inf", "cfl=inf", "cfl=nan", "amplitude=inf", "mach=inf",
        "nx=11.5", "nx=11.0", "ny=True", "shock_column=6.5",
        "seed=None", "seed=-1", "seed=1.5", "seed=True"])
def test_empty_or_nan_settings_are_refused_at_construction(make, match):
    with pytest.raises(ValueError, match=match):
        make()


def test_numpy_integer_grid_settings_are_accepted():
    config = cfg(nx=np.int64(9), ny=np.int32(2), shock_column=np.int64(5))
    assert config == cfg(nx=9, ny=2, shock_column=5)
    field = sp.build_initial_field(config)
    assert field.U.shape == (9, 2, 4)
    for seed in (np.int64(0), np.int64(7)):
        run = marching.RunConfig(scheme=Scheme(), seed=seed)
        assert run == marching.RunConfig(scheme=Scheme(), seed=int(seed))
        assert np.array_equal(marching.inject_perturbation(field, 1e-7, run.seed).U,
                              marching.inject_perturbation(field, 1e-7, int(seed)).U)
