from dataclasses import replace

import numpy as np
import pytest

from shockstab import euler, fields, marching, reconstruction, riemann, shock_problem as sp
from shockstab.errors import NoExponentialStageError
from shockstab.fields import BoundarySpec, MeanField
from shockstab.marching import MonitorSeries, RunConfig, fit_growth_rate
from shockstab.scheme import Scheme

from padded_reference import padded
from side_axis import face_flux


def uniform_field(W, nx=8, ny=8):
    U = euler.prim_to_cons(np.asarray(W, dtype=float))
    interior = np.broadcast_to(U, (nx, ny, 4)).copy()
    return MeanField(U=interior, bc=BoundarySpec(periodic_x=True))


@pytest.mark.parametrize("order", [1, 2, 5])
@pytest.mark.parametrize("solver", ["roe", "hll", "hllc", "van_leer"])
def test_rhs_uniform_field_vanishes(solver, order):
    field = uniform_field([1.4, 20.0, 3.0, 1.0])
    r = marching.rhs(field, Scheme(solver=solver, order=order, space="primitive"))
    assert np.abs(r).max() < 1e-11


def test_rhs_steady_two_state_shock(monkeypatch):
    monkeypatch.setattr(riemann, "ROE_DELTA0", 1e-13)
    c = sp.ShockProblemConfig(epsilon=0.0)
    field = sp.build_initial_field(c)
    r = marching.rhs(field, Scheme(solver="roe", order=1))
    assert np.abs(r[..., 0]).max() < 1e-9


def test_rhs_matches_flux_divergence_manufactured():
    # subsonic smooth field: the order-1 residual must equal the divergence
    # of the first-order interface fluxes assembled by hand
    rng = np.random.default_rng(30)
    nx, ny = 6, 5
    W = np.empty((nx, ny, 4))
    for i in range(nx):
        for j in range(ny):
            W[i, j] = [1.0 + 0.05 * i + 0.02 * j, 0.3 + 0.01 * i, 0.1 - 0.01 * j, 1.0 + 0.03 * i]
    field = MeanField(U=euler.prim_to_cons(W), bc=BoundarySpec(periodic_x=True))
    scheme = Scheme(solver="hll", order=1)
    r = marching.rhs(field, scheme)
    from shockstab import riemann

    Wpad = euler.cons_to_prim(padded(field))
    expect = np.zeros((nx, ny, 4))
    for i in range(nx):
        for j in range(ny):
            ip, jp = i + 3, j + 3
            fxp = face_flux(riemann.hll_flux, Wpad[ip, jp], Wpad[ip + 1, jp], euler.X_FACE)
            fxm = face_flux(riemann.hll_flux, Wpad[ip - 1, jp], Wpad[ip, jp], euler.X_FACE)
            fyp = face_flux(riemann.hll_flux, Wpad[ip, jp], Wpad[ip, jp + 1], euler.Y_FACE)
            fym = face_flux(riemann.hll_flux, Wpad[ip, jp - 1], Wpad[ip, jp], euler.Y_FACE)
            expect[i, j] = -(fxp - fxm + fyp - fym)
    assert np.allclose(r, expect, rtol=1e-12, atol=1e-12)


def test_flux_telescoping_row_sums():
    # periodic interior fluxes cancel; only boundary fluxes remain per row
    c = sp.ShockProblemConfig()
    field = sp.build_initial_field(c)
    scheme = Scheme(solver="hll", order=5)
    r = marching.rhs(field, scheme)
    from shockstab import reconstruction, riemann

    table = fields.face_table(c.nx, c.ny, ("x",), False, None)
    windows = euler.cons_to_prim(fields.apply_boundaries(field))[table.sides]  # primitive space
    recon = reconstruction.reconstruct_pair(windows, scheme.parts[0][2], euler.X_FACE)
    fx = riemann.hll_flux(recon.W, euler.X_FACE).reshape(c.nx + 1, c.ny, 4)
    for j in range(c.ny):
        row_sum = r[:, j].sum(axis=0)
        expect = -(fx[-1, j] - fx[0, j])
        assert np.allclose(row_sum, expect, rtol=1e-10, atol=1e-10)


def _periodic_x_field():
    # smooth, subsonic and periodic in x and y; the column only places the cap
    nx, ny = 7, 5
    i, j = np.meshgrid(np.arange(nx), np.arange(ny), indexing="ij")
    W = np.stack([
        1.0 + 0.3 * np.sin(2 * np.pi * i / nx),
        0.5 + 0.1 * np.cos(2 * np.pi * j / ny),
        np.full((nx, ny), 0.2),
        1.0 + 0.2 * np.cos(2 * np.pi * (i + j) / nx),
    ], axis=-1)
    return MeanField(U=euler.prim_to_cons(W), bc=BoundarySpec(periodic_x=True), shock_column=4)


@pytest.mark.parametrize("cap", ["none", "second"])
@pytest.mark.parametrize("space", ["conservative", "primitive", "characteristic"])
@pytest.mark.parametrize("order", [1, 2, 5])
def test_batched_rhs_is_the_stack_of_single_rhs(monkeypatch, order, space, cap):
    # the batch axes only stack fields: every member's residual is bit for bit
    # the residual of that member alone, positivity fallbacks and cap included
    scheme = Scheme(solver="roe", order=order, space=space, cap=cap)
    fallbacks = []
    recon = reconstruction.reconstruct_pair

    def recording(*args, **kwargs):
        out = recon(*args, **kwargs)
        fallbacks.append(bool(out.fallback.any()))
        return out

    monkeypatch.setattr(reconstruction, "reconstruct_pair", recording)
    rng = np.random.default_rng(8)
    row = sp.build_initial_field(sp.ShockProblemConfig(), ny=1)
    shock = sp.build_initial_field(sp.ShockProblemConfig(ny=4))
    for field in (row, shock, _periodic_x_field()):
        for batch in ((3,), (2, 2)):
            U = field.U * (1.0 + 1e-3 * rng.standard_normal(batch + field.U.shape))
            fallbacks.clear()
            batched = marching.rhs(replace(field, U=U), scheme)
            hit_fallback = any(fallbacks)
            single = [marching.rhs(replace(field, U=u), scheme)
                      for u in U.reshape((-1,) + field.U.shape)]
            assert batched.shape == U.shape
            assert np.array_equal(batched, np.stack(single).reshape(U.shape))
            if space == "conservative" and order > 1 and not field.bc.periodic_x:
                assert hit_fallback  # the raw M = 20 jump drives p < 0 at a face


def test_window_scan_tries_a_window_of_exactly_min_len():
    # n = 11, min_len = 10: the shrink step from 11 must not skip length 10.
    # An outlier at the end spoils every end-anchored window
    t = np.arange(11.0)
    y = 0.5 * t
    y[-1] += 5.0
    assert marching._window_r2_scan(t, y, 10) == (0, 10)
    t12 = np.arange(12.0)
    y12 = 0.5 * t12
    y12[-2:] += 5.0
    assert marching._window_r2_scan(t12, y12, 10) == (0, 10)


def test_cfl_dt():
    field = uniform_field([1.4, 20.0, 0.0, 1.0])
    dt = marching.cfl_dt(field, 0.1)
    assert abs(dt - 0.1 / 21.0) < 1e-15
    assert abs(marching.cfl_dt(field, 0.2) - 2 * dt) < 1e-15
    still = uniform_field([1.4, 0.0, 0.0, 1.0])
    assert abs(marching.cfl_dt(still, 0.1) - 0.1) < 1e-15  # c = 1


def test_step_ssprk3_fixed_point_and_dt0():
    field = uniform_field([1.0, 0.5, -0.2, 2.0])
    out = marching.step_ssprk3(field, 0.01, Scheme(solver="roe", order=5))
    assert np.allclose(out.U, field.U, atol=1e-13)
    out0 = marching.step_ssprk3(field, 0.0, Scheme(solver="roe", order=2))
    assert np.array_equal(out0.U, field.U)


def test_entropy_wave_advection_order():
    # smooth density wave in uniform (u, p): error decays at 3rd order in dt
    # under a fixed tiny CFL, dominated by the spatial scheme at 5th order;
    # here we check the solution stays close after one period (qualitative).
    # The cells are unit cells, so the period is nx.
    nx = 32
    x = np.arange(nx) + 0.5
    W = np.empty((nx, 1, 4))
    W[:, 0, 0] = 1.0 + 0.2 * np.sin(2 * np.pi * x / nx)
    W[:, 0, 1] = 1.0
    W[:, 0, 2] = 0.0
    W[:, 0, 3] = 1.0
    field = MeanField(U=euler.prim_to_cons(W), bc=BoundarySpec(periodic_x=True))
    scheme = Scheme(solver="roe", order=5, space="primitive")
    t, t_end = 0.0, float(nx)
    state = field
    while t < t_end - 1e-12:
        dt = min(marching.cfl_dt(state, 0.4), t_end - t)
        state = marching.step_ssprk3(state, dt, scheme)
        t += dt
    err = np.abs(state.U[..., 0] - field.U[..., 0]).max()
    assert err < 2e-4  # advected one period: high-order scheme keeps the wave


def test_inject_perturbation_deterministic():
    c = sp.ShockProblemConfig()
    field = sp.build_initial_field(c)
    a = marching.inject_perturbation(field, 1e-7, seed=3)
    b = marching.inject_perturbation(field, 1e-7, seed=3)
    assert np.array_equal(a.U, b.U)
    d = marching.inject_perturbation(field, 1e-7, seed=4)
    assert not np.array_equal(a.U, d.U)
    z = marching.inject_perturbation(field, 0.0, seed=3)
    assert np.array_equal(z.U, field.U)
    delta = np.abs(a.U - field.U)
    assert delta.max() <= 1e-7 and delta.max() > 1e-8


def test_zero_amplitude_march_keeps_v_zero():
    c = sp.ShockProblemConfig(epsilon=0.0)
    field = sp.build_initial_field(c)
    run = RunConfig(scheme=Scheme(solver="van_leer", order=1), end_time=0.5, amplitude=0.0)
    series, _ = marching.march(field, run)
    assert series.vmax.max() == 0.0
    assert not series.collapsed
    assert np.all(np.diff(series.t) > 0)


def test_march_determinism():
    c = sp.ShockProblemConfig()
    field = sp.build_initial_field(c)
    run = RunConfig(scheme=Scheme(solver="van_leer", order=1), end_time=0.3, seed=11)
    s1, f1 = marching.march(field, run)
    s2, f2 = marching.march(field, run)
    assert np.array_equal(s1.vmax, s2.vmax)
    assert np.array_equal(f1.U, f2.U)


def test_inadmissible_start_is_a_collapse():
    # the perturbation at amplitude 0.3 leaves p < 0 in some cell: the march
    # reports a collapse at t = 0 instead of raising from its time step
    field = sp.build_initial_field(sp.ShockProblemConfig(ny=4))
    run = RunConfig(scheme=Scheme(solver="roe", order=1), amplitude=0.3, seed=0)
    series, state = marching.march(field, run)
    assert series.collapsed
    assert np.array_equal(series.t, [0.0])
    assert np.array_equal(state.U, marching.inject_perturbation(field, 0.3, 0).U)


def test_step_ending_in_an_inadmissible_state_is_a_collapse(monkeypatch):
    # a finite state with p < 0 after a step (its final RK combination) is
    # caught when the next step's dt is computed
    field = sp.build_initial_field(sp.ShockProblemConfig(ny=4))
    run = RunConfig(scheme=Scheme(solver="roe", order=1), end_time=1.0, amplitude=1e-9)

    def bad_step(state, dt, scheme):
        W = euler.cons_to_prim(state.U)
        W[2, 1, 3] = -1e-3
        return replace(state, U=euler.prim_to_cons(W))

    monkeypatch.setattr(marching, "step_ssprk3", bad_step)
    series, state = marching.march(field, run)
    assert series.collapsed
    assert len(series.t) == 2 and np.all(np.isfinite(state.U))
    rho, mx, my, energy = state.U[2, 1]
    assert energy < 0.5 * (mx * mx + my * my) / rho  # the state returned has p < 0


@pytest.mark.parametrize("component, value", [(0, np.nan), (3, np.inf)],
                         ids=["rho NaN", "energy +inf"])
def test_step_ending_in_a_non_finite_state_is_a_collapse(monkeypatch, component, value):
    # caught by the finite-state check after the step itself: an infinite
    # energy passes cons_to_prim as p = inf, and would give the next step dt = 0
    field = sp.build_initial_field(sp.ShockProblemConfig(ny=4))
    run = RunConfig(scheme=Scheme(solver="roe", order=1), end_time=1.0, amplitude=1e-9)
    steps = []

    def bad_step(state, dt, scheme):
        assert not steps, "the march went on after a non-finite step"
        U = state.U.copy()
        U[2, 1, component] = value
        steps.append(MeanField(U, state.bc, state.shock_column))
        return steps[-1]

    monkeypatch.setattr(marching, "step_ssprk3", bad_step)
    series, state = marching.march(field, run)
    assert series.collapsed is True  # a plain bool, as the run records write it
    assert np.array_equal(series.t, [0.0]) and len(series.vmax) == 1
    assert state is steps[0]


def synthetic_series(lam, t_end=30.0, n=600, v0=1e-7):
    t = np.linspace(0.0, t_end, n)
    return MonitorSeries(t=t, vmax=v0 * np.exp(lam * t))


def test_fit_growth_rate_pure_exponential():
    fit = fit_growth_rate(synthetic_series(0.5))
    assert abs(fit.lam - 0.5) < 1e-9
    assert fit.r2 > 0.999999


def test_fit_growth_rate_decay():
    fit = fit_growth_rate(synthetic_series(-0.3, v0=1.0))
    assert abs(fit.lam + 0.3) < 1e-9


def test_fit_growth_rate_three_stage():
    t = np.linspace(0.0, 60.0, 6000)
    plateau = 1e-7
    growth = plateau * np.exp(0.7 * (t - 10.0))
    sat = 0.05
    v = np.where(t < 10.0, plateau, np.minimum(growth, sat))
    fit = fit_growth_rate(MonitorSeries(t=t, vmax=v), amplitude=plateau)
    assert abs(fit.lam - 0.7) < 1e-3
    assert fit.window[0] > 10.0 and fit.window[1] < 60.0


def test_fit_growth_rate_rejects_junk():
    rng = np.random.default_rng(31)
    t = np.linspace(0, 10, 400)
    v = np.exp(rng.uniform(-8, 8, 400))  # white-noise log data
    with pytest.raises(NoExponentialStageError):
        fit_growth_rate(MonitorSeries(t=t, vmax=v))
    with pytest.raises(NoExponentialStageError):
        fit_growth_rate(MonitorSeries(t=t[:5], vmax=np.ones(5)))


@pytest.mark.slow
def test_stable_scheme_decays(base_flow_cache):
    # first-order van Leer at the paper conditions: ||v|| must decay
    scheme = Scheme(solver="van_leer", order=1)
    field, _ = base_flow_cache(scheme)
    run = RunConfig(scheme=scheme, end_time=25.0, seed=5)
    series, _ = marching.march(field, run)
    assert not series.collapsed
    fit = fit_growth_rate(series)
    assert fit.lam < 0
