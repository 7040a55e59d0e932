"""Semi-discrete residual, SSP-RK3 stepping, perturbation experiments and
exponential growth-rate fitting.  ``rhs`` reads every face's stencil from
``fields.face_table`` and differences the face fluxes over unit cells.  It
takes the field's state axes from its caller, so that an SSP-RK3 step builds
the axes of its start state once, for its time step and its first stage.
``fields.apply_boundaries`` converts the cells, once per stage, for the step
and the faces; only ``transverse_velocity_norm`` divides rho v by rho of
every cell too, once per march step, for the monitored ||v||_inf."""

from dataclasses import dataclass

import numpy as np

from . import euler, reconstruction, riemann
from .errors import InvalidStateError, NoExponentialStageError
from .fields import MeanField, StateAxes, apply_boundaries, face_table
from .scheme import Scheme, is_int, is_real

# a perturbed march stops above this ||v||_inf, which also tops the fit's band
STOP_LEVEL = 1e-5
# a row is steady when its ``density_residual`` is below this bound
STEADY_TOL = 1e-12


@dataclass(frozen=True)
class RunConfig:
    scheme: Scheme
    cfl: float = 0.1
    end_time: float = 60.0
    amplitude: float = 1e-7
    seed: int = 1234

    def __post_init__(self):
        for name in ("cfl", "end_time", "amplitude"):
            if not is_real(getattr(self, name)):
                raise ValueError(f"{name} must be a real number, got {getattr(self, name)!r}")
        if not 0 < self.cfl < np.inf:
            raise ValueError("CFL must be positive and finite")
        if not 0 < self.end_time < np.inf:
            raise ValueError("end time must be positive and finite")
        if not 0 <= self.amplitude < np.inf:
            raise ValueError("amplitude must be non-negative and finite")
        if not (is_int(self.seed) and self.seed >= 0):
            raise ValueError(f"seed must be a non-negative integer, got {self.seed!r}")


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


def face_parts(field: MeanField, scheme: Scheme, *, linearise: bool):
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
        table = face_table(field.nx, field.ny, orientations, field.shock_column)
        yield table, solver, cfg, cap_cfg


def face_reconstructions(field: MeanField, states: StateAxes, scheme: Scheme, *,
                         linearise: bool):
    """Yield (table, solver, FaceRecon) once per part of ``face_parts``.

    Every part takes both sides of its faces, side-stacked behind the
    field's batch axes, from ``states``, the state axes that
    ``apply_boundaries`` builds (``part_states``), and passes its
    near-shock zone ``table.shock`` with its cap, if any.  ``linearise`` is
    passed on to ``face_parts`` and ``reconstruct_pair``.
    """
    for table, solver, cfg, cap_cfg in face_parts(field, scheme, linearise=linearise):
        recon = reconstruction.reconstruct_pair(
            *part_states(states, table.sides, cfg), cfg, table.frame,
            cap_cfg=cap_cfg, cap_mask=table.shock, linearise=linearise,
        )
        yield table, solver, recon


def part_states(states: StateAxes, sides: np.ndarray, cfg):
    """(win, cells), the first two arguments of ``reconstruct_pair``, of the
    rows of a (R, 5) side index: ``cells`` (..., R, 4) from ``states.W`` at
    slot 2, each row's own cell, and ``win`` the windows (..., R, 5, 4) from
    ``states.X``, or the cells where the part reads cells."""
    cells = gather_windows(states.W, sides[:, 2])
    return (cells if reconstruction.reads_cells(cfg) else gather_windows(states.X, sides)), cells


def gather_windows(states: np.ndarray, index: np.ndarray) -> np.ndarray:
    """The states of (..., S, 4) ``states`` that an index into the state
    axis names: (..., R, 4) cells for an (R,) index, (..., R, 5, 4) windows
    for an (R, 5) one.  Windows are stored slot-major: one slot of a batch's
    windows, the operand of each reconstruction formula, is then one run of
    memory."""
    taken = np.take(states, index.T, axis=-2)
    return taken if index.ndim == 1 else taken.swapaxes(-3, -2)


def rhs(field: MeanField, states: StateAxes, scheme: Scheme) -> np.ndarray:
    """Semi-discrete residual dU/dt on the interior unit cells, shaped like
    ``field.U``: a batch of fields gives the stack of their residuals.
    ``states`` are the field's state axes,
    ``apply_boundaries(field, scheme.space == "primitive")``."""
    res = np.zeros(field.U.shape)
    for table, solver, recon in face_reconstructions(field, states, scheme, linearise=False):
        flux = riemann.compute_flux(solver, recon.W, table.frame)
        for orientation, grid_flux in table.split(flux, field.U.ndim - 3):
            if orientation == "x":
                res -= grid_flux[..., 1:, :, :] - grid_flux[..., :-1, :, :]
            else:
                res -= grid_flux[..., 1:, :] - grid_flux[..., :-1, :]
    return res


def density_residual(res: np.ndarray) -> float:
    """max|d rho/dt| of a residual (..., 4) or flat (4 nx,), the measure of a
    steady row (below ``STEADY_TOL``); +inf when any entry is not finite."""
    res = np.reshape(res, (-1, 4))
    return float(np.abs(res[:, 0]).max()) if np.isfinite(res).all() else np.inf


def require_steady(res: np.ndarray, subject: str, error) -> None:
    """Raise ``error`` unless the residual ``res`` (..., nx, ny, 4) is steady,
    its ``density_residual`` below ``STEADY_TOL``, naming through
    ``euler.require`` the cells (i, j) of largest |d rho/dt| or, if it is not
    finite, the cells with a non-finite entry and the first one's component."""
    rate = density_residual(res)
    if rate < STEADY_TOL:
        return
    head = f"{subject} has density residual {rate:.3e}, not below {STEADY_TOL:.0e};"
    if rate == np.inf:
        finite = np.isfinite(res)
        name = ("rho", "rho u", "rho v", "rho e")[int(np.argmin(finite)) % 4]
        euler.require(finite.all(axis=-1), f"{head} d({name})/dt not finite", error=error)
    euler.require(np.abs(res[..., 0]) < rate, f"{head} largest", error=error)


def cfl_dt(W: np.ndarray, cfl: float) -> float:
    """The time step cfl / max(|u| + c, |v| + c) over primitive cell states
    W (..., 4) of unit cells."""
    c = euler.sound_speed(W)
    speed = np.maximum(np.abs(W[..., 1]) + c, np.abs(W[..., 2]) + c)
    return cfl / float(speed.max())


def step_ssprk3(field: MeanField, scheme: Scheme, cfl: float,
                dt_max: float) -> tuple[MeanField, float]:
    """One three-stage SSP Runge-Kutta step of dt = min(cfl_dt, dt_max);
    returns (new field, dt).

    Each stage's state is converted once, by ``apply_boundaries``.  The
    first stage's state axes are built before the step's length is known,
    and ``cfl_dt`` reads the interior cells of their primitive axis.  An
    inadmissible start or stage state raises ``InvalidStateError`` from
    that conversion, naming its cell (i, j), as does a non-finite end state.
    """
    primitive = scheme.space == "primitive"
    states = apply_boundaries(field, primitive)
    dt = min(cfl_dt(states.W[..., : field.nx * field.ny, :], cfl), dt_max)

    def stage(prev):
        f = MeanField(prev, field.bc, field.shock_column)
        return prev + dt * rhs(f, apply_boundaries(f, primitive), scheme)

    u0 = field.U
    u1 = u0 + dt * rhs(field, states, scheme)
    u2 = 0.75 * u0 + 0.25 * stage(u1)
    u3 = u0 / 3.0 + 2.0 / 3.0 * stage(u2)
    euler.require(np.isfinite(u3).all(axis=-1), "non-finite state after a step")
    return MeanField(u3, field.bc, field.shock_column), dt


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
    """Advance a perturbed field, sampling ||v||_inf each step, to the end time
    or, when perturbed, to its first sample above ``STOP_LEVEL``.

    Returns (MonitorSeries, final field).  Each step takes its own length
    from the state it starts from (``step_ssprk3``).  A state that a step
    refuses, the perturbed start, a stage or a non-finite end state, flags a
    collapse instead of raising; the field returned is that step's start.
    """
    state = inject_perturbation(field, run.amplitude, run.seed)
    t = 0.0
    times = [t]
    vmax = [transverse_velocity_norm(state)]
    collapsed = False
    while t < run.end_time:
        try:
            state, dt = step_ssprk3(state, run.scheme, run.cfl, run.end_time - t)
        except InvalidStateError:
            collapsed = True
            break
        t += dt
        times.append(t)
        vmax.append(transverse_velocity_norm(state))
        if run.amplitude > 0 and vmax[-1] > STOP_LEVEL:
            break
    return MonitorSeries(t=np.array(times), vmax=np.array(vmax), collapsed=collapsed), state


def _window_r2_scan(t, y, min_len):
    """The fit window of samples (t, y): the longest slice [a, b) of at least
    ``min_len`` samples whose least-squares line has R^2 >= 0.99.  Among the
    windows of that length it is the one with the largest R^2, the earliest
    on a tie.  Returns (a, b, slope, r2), the window's bounds and its line's
    slope and R^2, or None when no window qualifies.
    """
    n = len(t)
    pref = np.zeros((5, n + 1))
    np.cumsum([t, y, t * t, t * y, y * y], axis=1, out=pref[:, 1:])
    with np.errstate(divide="ignore", invalid="ignore"):
        for length in range(n, min_len - 1, -1):
            st, sy, stt, sty, syy = pref[:, length:] - pref[:, :-length]
            num = length * sty - st * sy
            den_t = length * stt - st**2
            den_y = length * syy - sy**2
            # den_y <= 0 is constant data, which a flat line fits exactly
            r2 = np.where(den_t <= 0, 0.0, np.where(
                den_y <= 0, 1.0, np.minimum(1.0, num * num / (den_t * den_y))))
            a = int(np.argmax(r2))
            if r2[a] >= 0.99:
                return a, a + length, num[a] / den_t[a], r2[a]
    return None


def fit_growth_rate(series: MonitorSeries, amplitude: float) -> GrowthFit:
    """Least-squares slope of ln||v|| over an automatically selected window.

    The window is the longest stretch with log-linear R^2 >= 0.99
    (``_window_r2_scan``), restricted to the exponential band (above 10x the
    injected ``amplitude``, or 3x where that band is short, up to
    ``STOP_LEVEL``) when the series grows overall.  The slope and R^2 come
    from the one least-squares pass that chose the window.
    """
    good = np.isfinite(series.vmax) & (series.vmax > 0)
    t = series.t[good]
    v = series.vmax[good]
    if len(t) < 10:
        raise NoExponentialStageError("fewer than 10 positive samples")
    y = np.log(v)
    growing = np.median(y[-max(3, len(y) // 4):]) > np.median(y[: max(3, len(y) // 4)])

    sel = np.ones(len(t), dtype=bool)
    if growing:
        for lo in (10.0 * amplitude, 3.0 * amplitude):
            band = (v >= lo) & (v <= STOP_LEVEL)
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
    a, b, lam, r2 = span
    return GrowthFit(lam=float(lam), window=(float(tt[a]), float(tt[b - 1])), r2=float(r2))
