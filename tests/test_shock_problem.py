import itertools
from dataclasses import replace

import numpy as np
import pytest

from shockstab import euler, fields, marching, reconstruction, riemann, shock_problem as sp
from shockstab.errors import ConvergenceError, InvalidStateError, ShockStabError
from shockstab.fields import BoundarySpec, MeanField, apply_boundaries, outflow_jacobian
from shockstab.scheme import Scheme

from euler_reference import entropy



def cfg(**kw):
    return sp.ShockProblemConfig(**kw)


def test_jump_ratios_m1():
    f, g = sp.jump_ratios(1.0)
    assert abs(f - 1.0) < 1e-14 and abs(g - 1.0) < 1e-14


def test_jump_ratios_m20():
    f, g = sp.jump_ratios(20.0)
    assert abs(f - 160.0 / 27.0) < 1e-12  # 5.9259259...
    assert abs(g - 466.5) < 1e-10


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


def test_padding_contract():
    # the state axis holds the cell averages unchanged in (i, j) order, then
    # the inflow state and the pressure-pinned outflow state of every row;
    # it is derived anew on every call, leaving the field untouched
    c = cfg()
    field = sp.build_initial_field(c)
    snap = field.U.copy()
    U = apply_boundaries(field)
    n = c.nx * c.ny
    assert U.shape == (n + 1 + c.ny, 4)
    # C order, batched or not: the face gathers read it without a copy
    assert U.flags.c_contiguous
    assert apply_boundaries(replace(field, U=np.stack([field.U] * 3))).flags.c_contiguous
    assert np.array_equal(U[:n], field.U.reshape(n, 4))
    assert np.array_equal(snap, field.U)
    assert np.array_equal(apply_boundaries(field), U)
    up = euler.prim_to_cons(sp.upstream_state(c))
    assert np.allclose(U[n], up, atol=1e-13)
    # outflow: the last column's state with the pressure pinned
    W_out = euler.cons_to_prim(U[n + 1 :])
    assert np.allclose(W_out[:, :3], field.interior_primitive()[-1, :, :3], atol=0)
    assert np.all(W_out[:, 3] == sp.downstream_state(c)[3])
    # a periodic x has no ghost states
    periodic = replace(field, bc=BoundarySpec(periodic_x=True))
    assert np.array_equal(apply_boundaries(periodic), field.U.reshape(n, 4))


def concatenated_states(field):
    """The state axis as ``apply_boundaries`` built it with ``np.concatenate``
    before it wrote into one preallocated array; kept as the reference."""
    U, bc = field.U, field.bc
    cells = U.reshape(U.shape[:-3] + (-1, 4))
    if bc.periodic_x:
        return cells.copy()
    last = euler.cons_to_prim(U[..., -1, :, :], "outflow column")
    last[..., 3] = bc.outflow_pressure
    inflow = np.broadcast_to(bc.inflow_U, U.shape[:-3] + (1, 4))
    return np.concatenate([cells, inflow, euler.prim_to_cons(last)], axis=-2)


@pytest.mark.parametrize("case", ["single", "batch", "row", "periodic_x"])
def test_apply_boundaries_equals_the_concatenated_reference(case):
    # a fresh C-contiguous array, bit for bit the concatenated states
    field = sp.build_initial_field(cfg(ny=3), ny=1 if case == "row" else None)
    rng = np.random.default_rng(13)
    if case == "batch":
        scale = 1.0 + 0.01 * rng.standard_normal((2, 3) + field.U.shape)
        field = replace(field, U=euler.prim_to_cons(field.interior_primitive() * scale))
    elif case == "periodic_x":
        field = replace(field, bc=BoundarySpec(periodic_x=True))
    snap = field.U.copy()
    states = apply_boundaries(field)
    assert states.flags.c_contiguous and states.flags.owndata
    assert np.array_equal(states, concatenated_states(field))
    states[...] = -1.0
    assert np.array_equal(field.U, snap)


@pytest.mark.parametrize("primitive", [False, True])
def test_outflow_jacobian_is_the_derivative_of_the_outflow_states(primitive):
    # central differences of the outflow states of apply_boundaries with
    # respect to each component of the row's last cell, both in conservative
    # or both in primitive variables, on a column with transverse velocity
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
    T = outflow_jacobian(field, primitive)
    assert T.shape == (field.ny, 4, 4)
    for c in range(4):
        h = 1e-6 * np.maximum(1.0, np.abs(X[-1, :, c]))
        ghosts = []
        for sign in (1.0, -1.0):
            Xp = X.copy()
            Xp[-1, :, c] += sign * h
            ghosts.append(to_var(apply_boundaries(replace(field, U=from_var(Xp)))[n + 1 :]))
        fd = (ghosts[0] - ghosts[1]) / (2.0 * h[:, None])
        # rounding of the ghost states (|E| ~ 1e3) over the 1e-6 step
        assert np.abs(T[:, :, c] - fd).max() < 1e-6 * max(1.0, np.abs(T).max()), c
    # the pinned pressure never moves; a batch gives the stack of its members
    assert np.all(T[:, 3, :] == 0.0) == primitive
    batch = replace(field, U=np.stack([field.U, 2.0 * field.U]))
    assert np.array_equal(outflow_jacobian(batch, primitive),
                          np.stack([T, outflow_jacobian(replace(field, U=2.0 * field.U), primitive)]))


def test_single_row_has_nx_plus_two_states():
    # a row reads its cells, the inflow state and its one outflow state: 13
    # states for nx = 11, where a padded grid held 17 x 7 cells
    field = sp.build_initial_field(cfg(nx=11), ny=1)
    assert apply_boundaries(field).shape == (13, 4)
    stack = replace(field, U=np.stack([field.U] * 54))
    assert apply_boundaries(stack).shape == (54, 13, 4)


def test_primitive_rhs_names_the_bad_interior_cell():
    # the inadmissible cell is named by its interior (i, j), batch index first
    field = sp.build_initial_field(cfg(ny=5))
    scheme = Scheme(solver="roe", order=5, space="primitive")
    field.U[4, 2, 0] = -1.0
    with pytest.raises(InvalidStateError, match=r"density in interior at cell\(s\) \(4, 2\)$"):
        marching.rhs(field, scheme)
    stack = replace(field, U=np.stack([sp.build_initial_field(cfg(ny=5)).U, field.U]))
    with pytest.raises(InvalidStateError, match=r"density in interior at cell\(s\) \(1, 4, 2\)$"):
        marching.rhs(stack, scheme)


def test_boundary_spec_needs_inflow_and_outflow_unless_periodic():
    with pytest.raises(ValueError, match="inflow state and outflow pressure"):
        BoundarySpec()
    with pytest.raises(ValueError, match="inflow state and outflow pressure"):
        BoundarySpec(inflow_W=sp.upstream_state(cfg()))
    with pytest.raises(ValueError, match="inflow state and outflow pressure"):
        BoundarySpec(outflow_pressure=1.0)
    assert BoundarySpec(periodic_x=True).periodic_x


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
    r = marching.rhs(field, scheme)
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
    r = marching.rhs(field, Scheme(solver="hll", order=1))
    assert np.abs(r[..., 0]).max() < 1e-11


@pytest.mark.slow
def test_converge_1d_hll_first_order_short_row_raises():
    # the 11-cell row has no steady state below converge_tol for hll-o1: the
    # smeared shock's tail meets the fixed outflow pressure in cell 11
    with pytest.raises(ConvergenceError, match=r"hll-o1\S*: 1D residual \d\.\d+e-\d+ .*cell 11$"):
        sp.converge_1d(cfg(), Scheme(solver="hll", order=1))


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
    # a smoothing step overflows without raising: the march fails at once,
    # before the next step spreads NaN states.  A finite state of negative
    # density is refused by the next step, and fails the march the same way
    step, steps = marching.step_ssprk3, []

    def overflowing(field, dt, scheme):
        out = step(field, dt, scheme)
        steps.append(dt)
        if len(steps) == broken:
            out.U[7, 0, 0 if value < 0 else 3] = value
        return out

    monkeypatch.setattr(marching, "step_ssprk3", overflowing)
    with pytest.raises(ConvergenceError,
                       match=r"^1D smoothing march diverged for roe-o1/primitive$") as raised:
        sp.converge_1d(cfg(), Scheme(solver="roe", order=1))
    assert len(steps) == broken
    assert isinstance(raised.value.__cause__, InvalidStateError) == (value < 0)


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
        sp._lm_refine_1d(field, scheme, c.converge_tol, clamp_cells=(0, 1, 2, 3), pin_dofs=(20,))


def _loop_lm_refine_1d(field, scheme, tol, clamp_cells, pin_dofs):
    """Reference: the sequential Levenberg-Marquardt loop, one residual call
    per damped trial and a Jacobian call at the top of every iteration;
    returns (state, residual, iterations) as ``sp._lm_refine_1d`` does."""
    nx = field.nx
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

    free = np.ones(4 * nx, dtype=bool)
    for cell in clamp_cells:
        free[4 * cell : 4 * cell + 4] = False
    for dof in pin_dofs:
        free[dof] = False

    r = sp._residual_1d(field, scheme)
    cost = float(np.linalg.norm(r / s))
    lam = 1e-3
    it = 0
    while it < sp.LM_MAX_ITER:
        it += 1
        if np.abs(r.reshape(nx, 4)[:, 0]).max() < tol:
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
    return field, float(np.abs(r.reshape(nx, 4)[:, 0]).max()), it


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
    # number of systems with its right-hand side solved before it in the run.
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
        k = damping.get(b.tobytes(), 0)  # the damping index: lambda 4^k
        damping[b.tobytes()] = k + 1
        if fault == "singular" or (fault == "one damping" and k > 0):
            raised.append(f"system {k}")
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
        assert res == expected_res and it == expected_it
        assert lm_calls == made
        if fault in ("singular", "start probes"):
            assert it == 1 and np.array_equal(got.U, begun)  # the attempt ends at its start
    faults = [attempt_faults for *_, attempt_faults, _ in attempts]
    if fault == "singular":
        assert faults == [[f"system {k}" for k in range(25)]] * 3
    elif fault == "start probes":
        assert faults == [["probes"]] * 3
        assert [made for _, made, *_ in attempts] == [{"jacobians": 1, "residuals": 1}] * 3
    elif fault == "one damping":
        # the last iteration's first trial was rejected, then its 24 damped
        # successors were singular
        assert batches == [] and faults[0][-24:] == [f"system {k}" for k in range(1, 25)]
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
    the batch shape (fields) or the side-axis length (face states) of each
    call's first array argument."""
    calls = {"rhs": [], "apply_boundaries": [], "reconstruct_pair": [], "compute_flux": []}

    def counting(module, name, size):
        original = getattr(module, name)

        def counted(*args, **kwargs):
            calls[name].append(size(*args))
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)

    counting(marching, "rhs", lambda field, scheme: field.U.shape[:-3])
    counting(fields, "apply_boundaries", lambda field: field.U.shape[:-3])
    counting(reconstruction, "reconstruct_pair", lambda win, *a: win.shape[-3])
    counting(riemann, "compute_flux", lambda kind, W, frame: W.shape[-2])
    return calls


def _low_energy_row():
    # a periodic row moving at u = 1 in which one cell's internal energy
    # 2.5e-8 lies below its probe step 1e-7: that cell's -h energy probe and
    # its +h x-momentum probe have p < 0
    nx = 8
    W = np.tile([1.0, 1.0, 0.0, 1.0], (nx, 1, 1))
    W[3, 0, 3] = 1e-8
    return MeanField(U=euler.prim_to_cons(W), bc=BoundarySpec(periodic_x=True))


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
    """A perturbed shock row (inflow and outflow ghosts, shock column 6) and
    a periodic row of 5 cells, shorter than the 6-cell stencil, so that a
    window reads one cell twice."""
    rng = np.random.default_rng(18)
    shock = sp.build_initial_field(cfg(), ny=1)
    shock = replace(shock, U=shock.U * (1.0 + 1e-3 * rng.standard_normal(shock.U.shape)))
    x = 2 * np.pi * np.arange(5) / 5
    W = np.stack([1.0 + 0.3 * np.sin(x), 0.5 + 0.1 * np.cos(x), 0.05 * np.sin(2 * x),
                  1.0 + 0.2 * np.cos(x)], axis=-1)[:, None]
    periodic = MeanField(U=euler.prim_to_cons(W), bc=BoundarySpec(periodic_x=True),
                         shock_column=2)
    return shock, periodic


@pytest.mark.parametrize("space", ["conservative", "primitive", "characteristic"])
@pytest.mark.parametrize("solver", ["roe", "hll", "hllc", "van_leer", "hybrid-1", "hybrid-2"])
def test_fd_jacobian_equals_the_column_loop_on_every_column(monkeypatch, solver, space):
    # only the faces a probe touches are evaluated; the Jacobian is still the
    # one of rhs bit for bit, and the row's residual is rhs's, on
    # inflow/outflow and periodic rows, every order and cap, and where the
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
            assert np.array_equal(J, expected), (row.bc.periodic_x, scheme.label())
            assert _same_bits(r, residual), (row.bc.periodic_x, scheme.label())
    if space == "conservative" and solver in ("roe", "hll", "hllc", "van_leer"):
        assert any(fell_back)  # the fifth-order shock faces drop to first order


@pytest.mark.parametrize("solver", ["roe", "hybrid-2"])
def test_fd_jacobian_fluxes_only_the_touched_faces(monkeypatch, solver):
    # a probe of cell i changes the faces i-2 .. i+3 of the row (its last
    # cell also through the outflow ghost, which the same faces read): one
    # reconstruct_pair and one compute_flux call take those faces of every
    # probe and the row's nx + 1 faces, and rhs is not called
    c = cfg()
    row = sp.build_initial_field(c, ny=1)
    scheme = Scheme(solver=solver, order=5, cap="second")
    cols = np.arange(16, 4 * c.nx)
    cells = cols // 4
    touched = sum(min(i + 3, c.nx) - max(i - 2, 0) + 1 for i in cells)
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
    args = (scheme, c.converge_tol, (0, 1, 2, 3), (20,))
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
    assert np.array_equal(got.U, one_step.U) and res == res_one
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
    assert res < cfg().converge_tol and info["restarts"] == 0
    assert passes == accepted + 1
    assert lm_calls == {"jacobians": accepted + 1, "residuals": 0}
    assert info["lm_iterations"] == it and info["jacobians"] == accepted + 1
    assert info["residuals"] == 0


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
    (lambda: cfg(converge_tol=float("nan")), "converge_tol"),
    (lambda: cfg(converge_tol=0.0), "converge_tol"),
    (lambda: cfg(converge_tol=-1e-12), "converge_tol"),
    (lambda: cfg(converge_tol=float("inf")), "converge_tol"),
    (lambda: cfg(nx=11.5), "nx must be an integer"),
    (lambda: cfg(nx=11.0), "nx must be an integer"),
    (lambda: cfg(ny=True), "ny must be an integer"),
    (lambda: cfg(shock_column=6.5), "shock_column must be an integer"),
], ids=["ny=0", "nx=0", "amplitude=nan", "end_time=0", "end_time<0", "end_time=nan",
        "end_time=inf", "cfl=inf", "cfl=nan", "amplitude=inf", "mach=inf",
        "converge_tol=nan", "converge_tol=0", "converge_tol<0", "converge_tol=inf",
        "nx=11.5", "nx=11.0", "ny=True", "shock_column=6.5"])
def test_empty_or_nan_settings_are_refused_at_construction(make, match):
    with pytest.raises(ValueError, match=match):
        make()


def test_numpy_integer_grid_settings_are_accepted():
    config = cfg(nx=np.int64(9), ny=np.int32(2), shock_column=np.int64(5))
    assert config == cfg(nx=9, ny=2, shock_column=5)
    assert sp.build_initial_field(config).U.shape == (9, 2, 4)
