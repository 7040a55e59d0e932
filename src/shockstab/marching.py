"""Semi-discrete residual, SSP-RK3 stepping, perturbation experiments and
exponential growth-rate fitting.  ``rhs`` reads every face's stencil from
``fields.face_table`` and differences the face fluxes over unit cells."""

from dataclasses import dataclass

import numpy as np

from . import euler, reconstruction, riemann
from .errors import InvalidStateError, NoExponentialStageError
from .fields import MeanField, apply_boundaries, face_table
from .scheme import Scheme

# a perturbed march stops early once the monitor ||v||_inf exceeds this
STOP_LEVEL = 1e-3


@dataclass(frozen=True)
class RunConfig:
    scheme: Scheme
    cfl: float = 0.1
    end_time: float = 60.0
    amplitude: float = 1e-7
    seed: int = 1234

    def __post_init__(self):
        if not 0 < self.cfl < np.inf:
            raise ValueError("CFL must be positive and finite")
        if not 0 < self.end_time < np.inf:
            raise ValueError("end time must be positive and finite")
        if not 0 <= self.amplitude < np.inf:
            raise ValueError("amplitude must be non-negative and finite")


@dataclass
class MonitorSeries:
    t: np.ndarray
    vmax: np.ndarray
    collapsed: bool = False


@dataclass
class GrowthFit:
    lam: float
    window: tuple[float, float]
    r2: float


def face_parts(field: MeanField, scheme: Scheme, linearise: bool = False):
    """Yield (table, solver, cfg, cap_cfg) once per part of ``scheme.parts``,
    in its order: one part of all x and y faces for a plain scheme, the x
    faces and then the y faces for a direction hybrid.  The residual of a
    single row keeps only its x faces: its periodic j+1/2 and j-1/2 fluxes
    are identical.  With ``linearise`` a single row keeps one y face per
    column too, as the row of a y-uniform field whose perturbations vary
    along y (``stability.assemble``).  ``table`` is the part's ``FaceTable``.
    It orders the flat face axis, carries the per-face normals and the faces
    a cap applies to, and splits per-face results back into face grids."""
    for orientations, solver, cfg, cap_cfg in scheme.parts:
        if field.ny == 1 and not linearise:
            if "x" not in orientations:
                continue
            orientations = ("x",)
        table = face_table(field.nx, field.ny, orientations, field.bc.periodic_x,
                           field.shock_column)
        yield table, solver, cfg, cap_cfg


def reconstruction_states(field: MeanField, states: np.ndarray, space: str) -> np.ndarray:
    """The state axis ``states`` of ``apply_boundaries`` in the variables the
    windows are gathered in: converted once to primitive variables in the
    primitive space, an inadmissible cell named by its interior (i, j)."""
    if space != "primitive":
        return states
    try:
        return euler.cons_to_prim(states)
    except InvalidStateError:
        field.interior_primitive()  # names the (i, j) of the bad cell
        raise


def face_reconstructions(field: MeanField, states: np.ndarray, scheme: Scheme,
                         linearise: bool = True):
    """Yield (table, solver, FaceRecon) once per part of ``face_parts``.

    Every part gathers both windows of its faces, side-stacked
    (..., 2F, 5, 4) behind the field's batch axes, in one take along
    ``table.sides`` from ``states``, the state axis of ``apply_boundaries``
    as ``reconstruction_states`` converts it; ``linearise`` is passed on to
    ``face_parts`` and ``reconstruct_pair``.
    """
    states = reconstruction_states(field, states, scheme.space)
    for table, solver, cfg, cap_cfg in face_parts(field, scheme, linearise):
        recon = reconstruction.reconstruct_pair(
            gather_windows(states, table.sides), cfg, table.frame,
            cap_cfg=cap_cfg, cap_mask=None if cap_cfg is None else table.shock,
            linearise=linearise,
        )
        yield table, solver, recon


def gather_windows(states: np.ndarray, index: np.ndarray) -> np.ndarray:
    """(..., R, 5, 4) windows of (..., S, 4) states gathered by an (R, 5)
    index.  They are stored slot-major: one slot of a batch's windows, the
    operand of each reconstruction formula, is then one run of memory."""
    return np.take(states, index.T, axis=-2).swapaxes(-3, -2)


def rhs(field: MeanField, scheme: Scheme) -> np.ndarray:
    """Semi-discrete residual dU/dt on the interior unit cells, shaped like
    ``field.U``: a batch of fields gives the stack of their residuals."""
    states = apply_boundaries(field)
    res = np.zeros(field.U.shape)
    for table, solver, recon in face_reconstructions(field, states, scheme, linearise=False):
        flux = riemann.compute_flux(solver, recon.W, table.frame)
        for orientation, grid_flux in table.split(flux, field.U.ndim - 3):
            if orientation == "x":
                res -= grid_flux[..., 1:, :, :] - grid_flux[..., :-1, :, :]
            else:
                res -= grid_flux[..., 1:, :] - grid_flux[..., :-1, :]
    return res


def cfl_dt(field: MeanField, cfl: float) -> float:
    W = field.interior_primitive()
    c = euler.sound_speed(W)
    speed = np.maximum(np.abs(W[..., 1]) + c, np.abs(W[..., 2]) + c)
    return cfl / float(speed.max())


def step_ssprk3(field: MeanField, dt: float, scheme: Scheme) -> MeanField:
    """Three-stage SSP Runge-Kutta update; returns a new field."""

    def stage(prev):
        return prev + dt * rhs(MeanField(prev, field.bc, field.shock_column), scheme)

    u0 = field.U
    u1 = stage(u0)
    u2 = 0.75 * u0 + 0.25 * stage(u1)
    return MeanField(u0 / 3.0 + 2.0 / 3.0 * stage(u2), field.bc, field.shock_column)


def inject_perturbation(field: MeanField, amplitude: float, seed: int) -> MeanField:
    """Uniform random perturbation on every conservative component of every
    interior cell; deterministic for a given seed."""
    out = field.copy()
    if amplitude > 0:
        rng = np.random.default_rng(seed)
        out.U += rng.uniform(-amplitude, amplitude, out.U.shape)
    return out


def transverse_velocity_norm(field: MeanField) -> float:
    v = field.U[..., 2] / field.U[..., 0]
    return float(np.abs(v).max())


def march(field: MeanField, run: RunConfig):
    """Advance a perturbed field to the end time, sampling ||v||_inf each step.

    Returns (MonitorSeries, final field).  A NaN or invalid state flags a
    collapse instead of raising, whether it is the perturbed start, a stage
    or the state a step ends in.
    """
    state = inject_perturbation(field, run.amplitude, run.seed)
    t = 0.0
    times = [t]
    vmax = [transverse_velocity_norm(state)]
    collapsed = False
    while t < run.end_time:
        try:
            dt = min(cfl_dt(state, run.cfl), run.end_time - t)
            state = step_ssprk3(state, dt, run.scheme)
        except InvalidStateError:
            collapsed = True
        else:
            collapsed = bool(np.count_nonzero(np.isfinite(state.U)) < state.U.size)
        if collapsed:
            break
        t += dt
        times.append(t)
        vmax.append(transverse_velocity_norm(state))
        if run.amplitude > 0 and vmax[-1] > STOP_LEVEL:
            break
    return MonitorSeries(t=np.array(times), vmax=np.array(vmax), collapsed=collapsed), state


def _window_r2_scan(t, y, min_len):
    """Select the fit window inside the exponential stage.

    The growth of the dominant mode only emerges once the subdominant modes
    have decayed relative to it, so the window is anchored at the end of the
    stage and grown backwards while the log-linear fit stays at R^2 >= 0.99.
    If no end-anchored window qualifies, the longest qualifying window
    anywhere is used.  Returns (a, b) slice bounds or None.
    """
    n = len(t)
    if n < min_len:
        return None
    ones = np.ones_like(t)
    pref = {}
    for name, arr in [("n", ones), ("t", t), ("y", y), ("tt", t * t),
                      ("ty", t * y), ("yy", y * y)]:
        pref[name] = np.concatenate([[0.0], np.cumsum(arr)])

    def window_r2(a, b):  # slice [a, b)
        s = {k: pref[k][b] - pref[k][a] for k in pref}
        num = s["n"] * s["ty"] - s["t"] * s["y"]
        den_t = s["n"] * s["tt"] - s["t"] ** 2
        den_y = s["n"] * s["yy"] - s["y"] ** 2
        if den_t <= 0:
            return 0.0
        if den_y <= 0:
            return 1.0  # constant data: a flat line fits exactly
        return min(1.0, num * num / (den_t * den_y))

    # grow a window backwards from the end of the stage
    best_end = None
    length = min_len
    while length <= n:
        if window_r2(n - length, n) >= 0.99:
            best_end = (n - length, n)
            length = int(length * 1.25) + 1
        else:
            break
    if best_end is not None:
        return best_end

    length = n
    while length >= min_len:
        starts = range(0, n - length + 1, max(1, length // 8))
        best = None
        for a in starts:
            r2 = window_r2(a, a + length)
            if r2 >= 0.99 and (best is None or r2 > best[2]):
                best = (a, a + length, r2)
        if best is not None:
            return best[0], best[1]
        length = max(min_len, int(length * 0.9)) if length > min_len else length - 1
    return None


def fit_growth_rate(series: MonitorSeries, amplitude: float | None = None) -> GrowthFit:
    """Least-squares slope of ln||v|| over an automatically selected window.

    The window is the longest stretch with log-linear R^2 >= 0.99, restricted
    to the exponential band (above 10x the injection level, below 1% of the
    saturation level) when the series grows overall.
    """
    good = np.isfinite(series.vmax) & (series.vmax > 0)
    t = series.t[good]
    v = series.vmax[good]
    if len(t) < 10:
        raise NoExponentialStageError("fewer than 10 positive samples")
    y = np.log(v)
    ref = amplitude if amplitude is not None else v[0]
    growing = np.median(y[-max(3, len(y) // 4):]) > np.median(y[: max(3, len(y) // 4)])

    sel = np.ones(len(t), dtype=bool)
    if growing:
        vmax = v.max()
        for lo, hi in [(10.0 * ref, 0.01 * vmax), (3.0 * ref, 0.1 * vmax)]:
            band = (v >= lo) & (v <= hi)
            if band.sum() >= 20:
                sel = band
                break
    else:
        sel = t >= t[0] + 0.05 * (t[-1] - t[0])
        if sel.sum() < 10:
            sel = np.ones(len(t), dtype=bool)

    # longest contiguous selected run
    idx = np.flatnonzero(sel)
    splits = np.split(idx, np.flatnonzero(np.diff(idx) > 1) + 1)
    run_idx = max(splits, key=len)
    tt, yy = t[run_idx], y[run_idx]

    if len(tt) > 4000:  # decimate: the fit only needs the shape
        stride = len(tt) // 4000 + 1
        tt, yy = tt[::stride], yy[::stride]

    min_len = max(10, len(tt) // 20)
    span = _window_r2_scan(tt, yy, min_len)
    if span is None:
        raise NoExponentialStageError("no window reaches R^2 >= 0.99")
    a, b = span
    coef = np.polyfit(tt[a:b], yy[a:b], 1)
    resid = yy[a:b] - np.polyval(coef, tt[a:b])
    var = np.var(yy[a:b])
    r2 = 1.0 if var == 0 else max(0.0, min(1.0, 1.0 - np.var(resid) / var))
    return GrowthFit(
        lam=float(coef[0]),
        window=(float(tt[a]), float(tt[b - 1])),
        r2=float(r2),
    )

