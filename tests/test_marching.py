from dataclasses import replace

import numpy as np
import pytest

from shockstab import euler, fields, marching, reconstruction, riemann, shock_problem as sp
from shockstab.errors import InvalidStateError, NoExponentialStageError
from shockstab.fields import BoundarySpec, MeanField
from shockstab.marching import MonitorSeries, RunConfig, fit_growth_rate
from shockstab.scheme import Scheme

from padded_reference import padded
from residual import residual
from side_axis import face_flux


def edge_boundaries(W) -> BoundarySpec:
    """Inflow/outflow boundaries taken from a field's own (nx, ny, 4)
    primitive states: cell (0, 0) flows in and the pressure of cell
    (nx-1, 0) is pinned at the outflow."""
    return BoundarySpec(inflow_W=W[0, 0].copy(), outflow_pressure=float(W[-1, 0, 3]))


def uniform_field(W, nx=8, ny=8):
    W = np.broadcast_to(np.asarray(W, dtype=float), (nx, ny, 4))
    return MeanField(U=euler.prim_to_cons(W), bc=edge_boundaries(W))


@pytest.mark.parametrize("order", [1, 2, 5])
@pytest.mark.parametrize("solver", ["roe", "hll", "hllc", "van_leer"])
def test_rhs_uniform_field_vanishes(solver, order):
    field = uniform_field([1.4, 20.0, 3.0, 1.0])
    r = residual(field, Scheme(solver=solver, order=order, space="primitive"))
    assert np.abs(r).max() < 1e-11


def test_rhs_steady_two_state_shock(monkeypatch):
    monkeypatch.setattr(riemann, "ROE_DELTA0", 1e-13)
    c = sp.ShockProblemConfig(epsilon=0.0)
    field = sp.build_initial_field(c)
    r = residual(field, Scheme(solver="roe", order=1))
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
    field = MeanField(U=euler.prim_to_cons(W), bc=edge_boundaries(W))
    scheme = Scheme(solver="hll", order=1)
    r = residual(field, scheme)
    from shockstab import riemann

    Wpad = padded(field, True)
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
    # interior fluxes cancel; only boundary fluxes remain per row
    c = sp.ShockProblemConfig()
    field = sp.build_initial_field(c)
    scheme = Scheme(solver="hll", order=5)
    r = residual(field, scheme)
    from shockstab import reconstruction, riemann

    table = fields.face_table(c.nx, c.ny, ("x",), None)
    windows = fields.apply_boundaries(field, True).W[table.sides]  # primitive space
    recon = reconstruction.reconstruct_pair(windows, windows[..., 2, :], scheme.parts[0][2],
                                            euler.X_FACE, None, None, linearise=True)
    fx = riemann.hll_flux(recon.W, euler.X_FACE).reshape(c.nx + 1, c.ny, 4)
    for j in range(c.ny):
        row_sum = r[:, j].sum(axis=0)
        expect = -(fx[-1, j] - fx[0, j])
        assert np.allclose(row_sum, expect, rtol=1e-10, atol=1e-10)


def _smooth_field():
    # smooth and subsonic between inflow and outflow; the column only places the cap
    nx, ny = 7, 5
    i, j = np.meshgrid(np.arange(nx), np.arange(ny), indexing="ij")
    W = np.stack([
        1.0 + 0.3 * np.sin(2 * np.pi * i / nx),
        0.5 + 0.1 * np.cos(2 * np.pi * j / ny),
        np.full((nx, ny), 0.2),
        1.0 + 0.2 * np.cos(2 * np.pi * (i + j) / nx),
    ], axis=-1)
    return MeanField(U=euler.prim_to_cons(W), bc=edge_boundaries(W), shock_column=4)


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
    for field, raw_jump in ((row, True), (shock, True), (_smooth_field(), False)):
        for batch in ((3,), (2, 2)):
            U = field.U * (1.0 + 1e-3 * rng.standard_normal(batch + field.U.shape))
            fallbacks.clear()
            batched = residual(replace(field, U=U), scheme)
            hit_fallback = any(fallbacks)
            single = [residual(replace(field, U=u), scheme)
                      for u in U.reshape((-1,) + field.U.shape)]
            assert batched.shape == U.shape
            assert np.array_equal(batched, np.stack(single).reshape(U.shape))
            if space == "conservative" and order > 1 and raw_jump:
                assert hit_fallback  # the raw M = 20 jump drives p < 0 at a face


def test_window_scan_tries_a_window_of_exactly_min_len():
    # n = 11 and 12, min_len = 10: the outliers at the end leave one window
    # with R^2 >= 0.99, the first of exactly min_len samples
    t = np.arange(11.0)
    y = 0.5 * t
    y[-1] += 5.0
    assert marching._window_r2_scan(t, y, 10)[:2] == (0, 10)
    t12 = np.arange(12.0)
    y12 = 0.5 * t12
    y12[-2:] += 5.0
    assert marching._window_r2_scan(t12, y12, 10)[:2] == (0, 10)


def test_window_scan_breaks_a_tie_to_the_earliest_window():
    # an exact line on integers with one outlier in the middle: the windows
    # on either side of it have R^2 = 1 exactly, and the first one is taken
    t = np.arange(21.0)
    y = 2.0 * t
    y[10] += 50.0
    assert marching._window_r2_scan(t, y, 10) == (0, 10, 2.0, 1.0)


def brute_force_window(t, y, min_len):
    """(a, b, slope, r2) of the longest window [a, b) of at least ``min_len``
    samples whose line has R^2 >= 0.99, the first with the best R^2 at that
    length, each window fitted on its own by np.polyfit."""
    n = len(t)
    for length in range(n, min_len - 1, -1):
        best = None
        for a in range(n - length + 1):
            tw, yw = t[a : a + length], y[a : a + length]
            coef = np.polyfit(tw, yw, 1)
            r2 = 1.0 - np.var(yw - np.polyval(coef, tw)) / np.var(yw)
            if r2 >= 0.99 and (best is None or r2 > best[3]):
                best = (a, a + length, coef[0], r2)
        if best is not None:
            return best
    return None


def window_series(kind, seed):
    """A seeded series of 12-40 samples at uneven times, its ln||v|| offset
    as a march's is: a clean exponential with one outlier in its first
    third, two exponentials joined at a kink, or a ramp whose noise settles
    as it goes, as a march's transient does."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(12, 41))
    t = np.cumsum(rng.uniform(0.05, 0.15, n))
    if kind == "outlier":
        y = 2.0 * t
        y[rng.integers(1, n // 3)] += 3.0
    elif kind == "joined":
        kink = t[rng.integers(n // 4, 3 * n // 4)]
        y = np.where(t < kink, 3.0 * t, 3.0 * kink + 0.5 * (t - kink))
    else:
        y = 0.8 * t + rng.normal(0.0, 0.2, n) * (1.0 - t / t[-1])
    return t, np.log(1e-7) + y


@pytest.mark.parametrize("kind", ["outlier", "joined", "ramp"])
def test_window_scan_is_the_brute_force_search(kind):
    # the one search returns what trying every window of every length finds:
    # the longest with R^2 >= 0.99, the first best at that length, and that
    # window's least-squares slope and R^2, or None for both
    shorter = 0
    for seed in range(10):
        t, y = window_series(kind, seed)
        got, want = marching._window_r2_scan(t, y, 10), brute_force_window(t, y, 10)
        assert (got is None) == (want is None), seed
        if got is None:
            continue
        (a, b, slope, r2), (a0, b0, slope0, r20) = got, want
        assert (a, b) == (a0, b0), seed
        assert abs(slope - slope0) <= 1e-10 * abs(slope0), seed
        assert abs(r2 - r20) <= 1e-10 and r2 <= 1.0, seed
        shorter += b - a < len(t)
    assert shorter > 0  # some series qualify only in a window shorter than the series


def test_every_fit_that_returns_reaches_r2_099():
    # log-amplitude random walks with a drift: a fit raises or reports the
    # R^2 >= 0.99 of the window that its one least-squares pass chose
    rng = np.random.default_rng(11)
    fitted = 0
    for _ in range(40):
        n = int(rng.integers(12, 400))
        t = np.cumsum(rng.uniform(0.005, 0.015, n))
        drift = rng.normal(0.0, 5.0)
        v = 1e-7 * np.exp(drift * t + np.cumsum(rng.normal(0.0, 0.05, n)))
        try:
            fit = fit_growth_rate(MonitorSeries(t=t, vmax=v), 1e-7)
        except NoExponentialStageError:
            continue
        fitted += 1
        assert fit.r2 >= 0.99
    assert fitted > 0


def test_cfl_dt():
    W = euler.cons_to_prim(uniform_field([1.4, 20.0, 0.0, 1.0]).U)
    dt = marching.cfl_dt(W, 0.1)
    assert abs(dt - 0.1 / 21.0) < 1e-15
    assert abs(marching.cfl_dt(W, 0.2) - 2 * dt) < 1e-15
    still = euler.cons_to_prim(uniform_field([1.4, 0.0, 0.0, 1.0]).U)
    assert abs(marching.cfl_dt(still, 0.1) - 0.1) < 1e-15  # c = 1


def test_step_ssprk3_fixed_point_and_dt0():
    field = uniform_field([1.0, 0.5, -0.2, 2.0])
    out, dt = marching.step_ssprk3(field, Scheme(solver="roe", order=5), 1.0, 0.01)
    assert dt == 0.01
    assert np.allclose(out.U, field.U, atol=1e-13)
    out0, dt0 = marching.step_ssprk3(field, Scheme(solver="roe", order=2), 1.0, 0.0)
    assert dt0 == 0.0
    assert np.array_equal(out0.U, field.U)


@pytest.mark.parametrize("space", ["conservative", "primitive", "characteristic"])
def test_step_length_is_the_cfl_step_of_its_start_state(space):
    # the step reads its length from the state it starts from, capped by dt_max
    field = marching.inject_perturbation(sp.build_initial_field(sp.ShockProblemConfig()), 1e-3, 5)
    scheme = Scheme(solver="roe", order=1, space=space)
    expected = marching.cfl_dt(euler.cons_to_prim(field.U), 0.3)
    _, dt = marching.step_ssprk3(field, scheme, 0.3, np.inf)
    assert dt == expected
    _, capped = marching.step_ssprk3(field, scheme, 0.3, 0.5 * expected)
    assert capped == 0.5 * expected


def test_entropy_wave_advection_order():
    # smooth density bump in uniform (u, p): error decays at 3rd order in dt
    # under a fixed tiny CFL, dominated by the spatial scheme at 5th order;
    # here we check the solution stays close after advecting the bump by
    # half the domain (qualitative).  The cells are unit cells and u = 1, so
    # the bump moves by 48 cells in time 48 and stays clear of both ghosts
    nx, width, shift = 96, 40, 48
    x = np.arange(nx) + 0.5
    bump = np.where(x < width, np.sin(np.pi * x / width) ** 4, 0.0)
    W = np.empty((nx, 1, 4))
    W[:, 0, 0] = 1.0 + 0.2 * bump
    W[:, 0, 1] = 1.0
    W[:, 0, 2] = 0.0
    W[:, 0, 3] = 1.0
    field = MeanField(U=euler.prim_to_cons(W), bc=edge_boundaries(W))
    scheme = Scheme(solver="roe", order=5, space="primitive")
    t, t_end = 0.0, float(shift)
    state = field
    while t < t_end - 1e-12:
        state, dt = marching.step_ssprk3(state, scheme, 0.4, t_end - t)
        t += dt
    err = np.abs(state.U[..., 0] - np.roll(field.U[..., 0], shift, axis=0)).max()
    assert err < 2e-4  # advected by half the domain: high-order scheme keeps the bump


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


@pytest.mark.parametrize("space", ["conservative", "primitive", "characteristic"])
@pytest.mark.parametrize("solver, order", [("roe", 1), ("roe", 5), ("hybrid-2", 5)])
def test_a_step_converts_each_stage_state_once(monkeypatch, solver, order, space):
    # one step of a march: apply_boundaries converts each of the three stage
    # states once and checks it, and nothing else converts a cell, as the
    # time step reads the first stage's primitive axis.  Outside the
    # primitive space each stage also converts its ghost states back from
    # conservative variables
    field = sp.build_initial_field(sp.ShockProblemConfig())
    run = RunConfig(scheme=Scheme(solver=solver, order=order, space=space), end_time=1e-6)
    calls = []
    original = euler.cons_to_prim

    def counted(U, *args):
        calls.append(np.shape(U))
        return original(U, *args)

    monkeypatch.setattr(euler, "cons_to_prim", counted)
    series, _ = marching.march(field, run)
    assert len(series.t) == 2  # one step
    ghosts = [] if space == "primitive" else [(1 + field.ny, 4)]
    assert calls == ([field.U.shape] + ghosts) * 3


def _bad_cell_field(batch=False):
    """The 11x3 initial shock at epsilon 0.1 with p = -1e-3 in cell (8, 1);
    with ``batch``, the second member of a batch of two, after the shock."""
    field = sp.build_initial_field(sp.ShockProblemConfig(ny=3))
    W = euler.cons_to_prim(field.U)
    W[8, 1, 3] = -1e-3
    U = euler.prim_to_cons(W)
    return replace(field, U=np.stack([field.U, U]) if batch else U)


@pytest.mark.parametrize("space", ["conservative", "primitive", "characteristic"])
@pytest.mark.parametrize("order", [1, 2, 5])
def test_a_bad_cell_is_named_by_its_place_in_every_space(order, space):
    # the one conversion of the cells names the bad cell by (i, j), batch
    # index first, whatever face reads it and whether or not it falls back
    scheme = Scheme(solver="roe", order=order, space=space)
    for batch, where in ((False, r"\(8, 1\)"), (True, r"\(1, 8, 1\)")):
        with pytest.raises(InvalidStateError,
                           match=rf"^non-positive pressure in interior at cell\(s\) {where}$"):
            residual(_bad_cell_field(batch), scheme)


@pytest.mark.parametrize("space", ["conservative", "characteristic"])
def test_every_stage_of_a_weno_step_checks_its_cells(monkeypatch, space):
    # a conservative WENO5 residual reads the bad cell only through
    # admissible face states, so no face falls back: the conversion of the
    # cells is what refuses it, at each stage of a step and in a march,
    # which flags the collapse
    scheme = Scheme(solver="roe", order=5, space=space)
    bad = _bad_cell_field()
    with pytest.raises(InvalidStateError, match=r"interior at cell\(s\) \(8, 1\)$"):
        residual(bad, scheme)
    good = sp.build_initial_field(sp.ShockProblemConfig(ny=3))
    apply_boundaries = marching.apply_boundaries
    for stage in range(3):
        calls = []

        def bad_at_stage(field, primitive):
            # the stage's state axes are built from the bad field instead
            calls.append(stage)
            if len(calls) == stage + 1:
                field = replace(field, U=bad.U)
            return apply_boundaries(field, primitive)

        with monkeypatch.context() as m:
            m.setattr(marching, "apply_boundaries", bad_at_stage)
            with pytest.raises(InvalidStateError, match=r"interior at cell\(s\) \(8, 1\)$"):
                marching.step_ssprk3(good, scheme, 0.1, np.inf)
            assert len(calls) == stage + 1
            if stage == 1:
                calls.clear()
                run = RunConfig(scheme=scheme, end_time=1.0, amplitude=0.0)
                series, _ = marching.march(good, run)
                assert series.collapsed and np.array_equal(series.t, [0.0])


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
    # caught when the next step converts its start state
    field = sp.build_initial_field(sp.ShockProblemConfig(ny=4))
    run = RunConfig(scheme=Scheme(solver="roe", order=1), end_time=1.0, amplitude=1e-9)
    step = marching.step_ssprk3

    def bad_step(state, scheme, cfl, dt_max):
        out, dt = step(state, scheme, cfl, dt_max)
        W = euler.cons_to_prim(out.U)
        W[2, 1, 3] = -1e-3
        return replace(out, U=euler.prim_to_cons(W)), dt

    monkeypatch.setattr(marching, "step_ssprk3", bad_step)
    series, state = marching.march(field, run)
    assert series.collapsed
    assert len(series.t) == 2 and np.all(np.isfinite(state.U))
    rho, mx, my, energy = state.U[2, 1]
    assert energy < 0.5 * (mx * mx + my * my) / rho  # the state returned has p < 0


def _spoil_rhs(monkeypatch, call, entry, value):
    """Wrap ``marching.rhs`` so that its ``call``-th call, counted from 1,
    returns ``value`` at index ``entry``; return the list of the fields
    that the calls take, in order."""
    rhs, taken = marching.rhs, []

    def spoilt(field, states, scheme):
        taken.append(field)
        res = rhs(field, states, scheme)
        if len(taken) == call:
            res[entry] = value
        return res

    monkeypatch.setattr(marching, "rhs", spoilt)
    return taken


@pytest.mark.parametrize("value", [np.inf, np.nan], ids=["inf", "nan"])
def test_a_step_refuses_the_non_finite_state_it_ends_in(monkeypatch, value):
    # the last stage's energy residual is not finite in cell (2, 1), so the
    # state the step would end in is not either: the step names that cell
    field = sp.build_initial_field(sp.ShockProblemConfig(ny=4))
    taken = _spoil_rhs(monkeypatch, 3, (2, 1, 3), value)
    with pytest.raises(InvalidStateError,
                       match=r"^non-finite state after a step at cell\(s\) \(2, 1\)$"):
        marching.step_ssprk3(field, Scheme(solver="roe", order=1), 0.1, np.inf)
    assert len(taken) == 3


@pytest.mark.parametrize("component, value, k", [(0, np.nan, 1), (3, np.inf, 1), (3, np.inf, 5)],
                         ids=["rho NaN", "energy +inf", "energy +inf at step 5"])
def test_step_ending_in_a_non_finite_state_is_a_collapse(monkeypatch, component, value, k):
    # refused by step k itself: an infinite energy passes cons_to_prim as
    # p = inf, and would give the next step dt = 0.  The march keeps the
    # samples of its start and of the k - 1 steps before, and returns the
    # state step k started from, the one its first stage took
    field = sp.build_initial_field(sp.ShockProblemConfig(ny=4))
    run = RunConfig(scheme=Scheme(solver="roe", order=1), end_time=1.0, amplitude=1e-9)
    taken = _spoil_rhs(monkeypatch, 3 * k, (2, 1, component), value)
    series, state = marching.march(field, run)
    assert series.collapsed is True  # a plain bool, as the run records write it
    assert len(series.t) == len(series.vmax) == k and series.t[0] == 0.0
    assert len(taken) == 3 * k, "the march went on after a non-finite step"
    assert state is taken[3 * (k - 1)] and np.all(np.isfinite(state.U))


def synthetic_series(lam, t_end=30.0, n=600, v0=1e-7):
    t = np.linspace(0.0, t_end, n)
    return MonitorSeries(t=t, vmax=v0 * np.exp(lam * t))


def test_fit_growth_rate_pure_exponential():
    fit = fit_growth_rate(synthetic_series(0.5), amplitude=1e-7)
    assert abs(fit.lam - 0.5) < 1e-9
    assert fit.r2 > 0.999999


def test_fit_growth_rate_decay():
    fit = fit_growth_rate(synthetic_series(-0.3, v0=1.0), amplitude=1.0)
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


@pytest.mark.parametrize("tail", ["rising", "falling", "scattered"])
def test_fit_growth_rate_reads_nothing_above_the_stop_level(tail):
    # What a march no longer computes past STOP_LEVEL cannot move the fit of
    # a growing series.  This holds while a band holds >= 20 samples; when both
    # hold fewer, the fit reads the whole series, appended samples included.
    t = np.linspace(0.0, 30.0, 600)
    v = 1e-7 * np.exp(0.5 * t + 0.01 * np.sin(7.0 * t))
    stop = int(np.argmax(v > marching.STOP_LEVEL))
    series = MonitorSeries(t=t[: stop + 1], vmax=v[: stop + 1])  # as march leaves it
    band = (series.vmax >= 10.0 * 1e-7) & (series.vmax <= marching.STOP_LEVEL)
    assert band.sum() >= 20

    rng = np.random.default_rng(7)
    extra = {
        "rising": marching.STOP_LEVEL * np.exp(np.linspace(0.1, 12.0, 300)),
        "falling": marching.STOP_LEVEL * np.exp(np.linspace(5.0, 0.01, 40)),
        "scattered": marching.STOP_LEVEL * 10.0 ** rng.uniform(1e-6, 6.0, 150),
    }[tail]
    t_extra = t[stop] + 0.05 * np.arange(1, len(extra) + 1)
    longer = MonitorSeries(t=np.concatenate([series.t, t_extra]),
                           vmax=np.concatenate([series.vmax, extra]))

    def hexed(fit):
        return [float.hex(fit.lam), *map(float.hex, fit.window), float.hex(fit.r2)]

    assert hexed(fit_growth_rate(longer, 1e-7)) == hexed(fit_growth_rate(series, 1e-7))


@pytest.mark.parametrize("solver", ["roe", "hllc"])
def test_march_stops_at_the_level_its_fit_reads_to(base_flow_cache, solver):
    # The last sample is the first above STOP_LEVEL, and the band below it
    # holds enough of the exponential stage for a fit the benchmark accepts.
    scheme = Scheme(solver=solver, order=1)
    field, _ = base_flow_cache(scheme, epsilon=0.1, ny=4)
    for seed in (1, 2, 3):
        run = RunConfig(scheme=scheme, amplitude=1e-7, seed=seed)
        series, _ = marching.march(field, run)
        assert not series.collapsed
        assert series.vmax[-1] > marching.STOP_LEVEL, seed
        assert np.all(series.vmax[:-1] <= marching.STOP_LEVEL), seed
        band = (series.vmax >= 10.0 * run.amplitude) & (series.vmax <= marching.STOP_LEVEL)
        assert band.sum() >= 20, seed
        fit = fit_growth_rate(series, run.amplitude)
        assert fit.r2 >= 0.99 and fit.lam > 0, seed


@pytest.mark.parametrize("n, selected", [(12001, 11401), (12003, 11402)])
def test_fit_growth_rate_decimates_a_long_run(n, selected):
    # a stable march to t = 60 samples about 12,600 times.  Of n samples of
    # a decay on [0, 60], the fit selects those from t = 3 on, a run longer
    # than 4,000, which it thins to every third sample: the window it
    # returns is that whole grid, and the slope is exact to rounding.  Of
    # 12,003 samples the last is off the grid, so the window ends before it
    t = np.linspace(0.0, 60.0, n)
    series = MonitorSeries(t=t, vmax=1e-7 * np.exp(-2.0 * t))
    fit = fit_growth_rate(series, amplitude=1e-7)
    assert abs(fit.lam + 2.0) <= 1e-12 * 2.0
    run = t[t >= 3.0]
    assert len(run) == selected and len(run) // 4000 + 1 == 3
    grid = run[::3]
    assert fit.window == (grid[0], grid[-1])
    assert (grid[-1] == t[-1]) == (n == 12001)


def test_fit_growth_rate_rejects_junk():
    rng = np.random.default_rng(31)
    t = np.linspace(0, 10, 400)
    v = np.exp(rng.uniform(-8, 8, 400))  # white-noise log data
    with pytest.raises(NoExponentialStageError):
        fit_growth_rate(MonitorSeries(t=t, vmax=v), 1e-7)
    with pytest.raises(NoExponentialStageError):
        fit_growth_rate(MonitorSeries(t=t[:5], vmax=np.ones(5)), 1e-7)


def test_fit_growth_rate_of_samples_at_one_time():
    # a series whose samples all share one time has no slope: every window's
    # R^2 is 0.  march never records one, but a caller can build it.  At some
    # times the sums round to den_t = 0 with num != 0, which without the
    # den_t <= 0 guard would read as R^2 = 1.
    for t0 in (0.3, 0.7, 1.0, 3.0):
        series = MonitorSeries(t=np.full(12, t0), vmax=1e-7 * 2.0 ** np.arange(12))
        with pytest.raises(NoExponentialStageError, match="no window"):
            fit_growth_rate(series, 1e-7)


def test_fit_growth_rate_of_a_flat_series():
    # constant data: the window scan's flat-data branch gives R^2 = 1, and a
    # slope of 0 up to the rounding of the sums of y = ln 1e-6 = -13.8, a few
    # eps |y| per unit time.  At v = 1 every sum of y is exactly 0.
    t = np.linspace(0.0, 10.0, 50)
    for level in (1e-6, 1.0):
        fit = fit_growth_rate(MonitorSeries(t=t, vmax=np.full(50, level)), 1e-7)
        assert abs(fit.lam) < 10 * np.finfo(float).eps * 13.8
        assert fit.r2 == 1.0


def test_fit_growth_rate_rejects_a_band_of_short_runs():
    # a growing series whose band (>= 10x the amplitude) holds 50 samples,
    # but in runs of 5 between dips below it: the longest run is shorter than
    # the scan's 10-sample minimum, so no window is fitted
    amplitude = 1e-7
    v = np.concatenate([np.full(30, amplitude), np.tile([100.0] * 5 + [1.0] * 2, 10) * amplitude])
    t = np.linspace(0.0, 10.0, len(v))
    with pytest.raises(NoExponentialStageError, match="no window"):
        fit_growth_rate(MonitorSeries(t=t, vmax=v), amplitude)


def test_fit_growth_rate_of_ten_decaying_samples_uses_every_one():
    # a series that does not grow drops its first 5 % of time, which leaves
    # 9 of 10 samples, fewer than the 10 a fit needs, so it keeps all 10
    series = synthetic_series(-0.3, t_end=9.0, n=10, v0=1.0)
    fit = fit_growth_rate(series, amplitude=1.0)
    assert fit.window == (0.0, 9.0)
    assert abs(fit.lam + 0.3) < 1e-12


@pytest.mark.slow
def test_stable_scheme_decays(base_flow_cache):
    # first-order van Leer at the paper conditions: ||v|| must decay
    scheme = Scheme(solver="van_leer", order=1)
    field, _ = base_flow_cache(scheme)
    run = RunConfig(scheme=scheme, end_time=25.0, seed=5)
    series, _ = marching.march(field, run)
    assert not series.collapsed
    fit = fit_growth_rate(series, run.amplitude)
    assert fit.lam < 0
