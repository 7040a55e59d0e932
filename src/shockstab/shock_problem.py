"""The 2D steady normal-shock test problem.

Normalization: upstream density ``RHO_LEFT`` = 1.4 and pressure ``P_LEFT`` =
1.0, so with ``euler.GAMMA`` = 1.4 the upstream sound speed is 1 and the
inflow velocity equals the Mach number.  The grid is square with unit cells.
"""

import functools
from dataclasses import dataclass, replace

import numpy as np

from . import euler, fields, marching, reconstruction, riemann, stability
from .errors import ConvergenceError, InvalidStateError, ShockStabError
from .euler import GAMMA
from .fields import BoundarySpec, MeanField
from .scheme import Scheme, is_int

# iteration budget of each Levenberg-Marquardt attempt of the steady solve
LM_MAX_ITER = 150

RHO_LEFT = 1.4
P_LEFT = 1.0


@dataclass(frozen=True)
class ShockProblemConfig:
    mach: float = 20.0
    epsilon: float = 0.1
    nx: int = 11
    ny: int = 11
    shock_column: int = 6  # 1-based
    converge_tol = marching.STEADY_TOL  # unannotated: not a field, and read by no package code

    def __post_init__(self):
        for name in ("nx", "ny", "shock_column"):
            if not is_int(getattr(self, name)):
                raise ValueError(f"{name} must be an integer, got {getattr(self, name)!r}")
        if not 1.0 < self.mach < np.inf:
            raise ValueError("upstream Mach number must exceed 1 and be finite")
        if not 0.0 <= self.epsilon <= 1.0:
            raise ValueError("shock position must lie in [0, 1]")
        if not (self.nx >= 1 and self.ny >= 1):
            raise ValueError("the grid needs at least one cell in each direction")
        if not 1 <= self.shock_column <= self.nx:
            raise ValueError("shock column must be interior")


def jump_ratios(mach: float):
    """Density ratio f and pressure ratio g across the steady normal shock."""
    if mach < 1.0:
        raise ValueError("jump ratios need M0 >= 1")
    g1, gp = GAMMA - 1.0, GAMMA + 1.0
    f = 1.0 / (2.0 / (gp * mach * mach) + g1 / gp)
    g = 2.0 * GAMMA * mach * mach / gp - g1 / gp
    return f, g


def upstream_state(cfg: ShockProblemConfig) -> np.ndarray:
    c = np.sqrt(GAMMA * P_LEFT / RHO_LEFT)
    return np.array([RHO_LEFT, cfg.mach * c, 0.0, P_LEFT])


def downstream_state(cfg: ShockProblemConfig) -> np.ndarray:
    f, g = jump_ratios(cfg.mach)
    w_l = upstream_state(cfg)
    return np.array([w_l[0] * f, w_l[1] / f, 0.0, w_l[3] * g])


def hugoniot_weights(mach: float, eps: float):
    """Convex weights (a_rho, a_u, a_p) placing the shock cell on the
    Hugoniot curve between the upstream and downstream states."""
    m2 = mach * mach
    g = GAMMA
    a_rho = eps
    a_u = 1.0 - (1.0 - eps) * (
        1.0 + eps * (m2 - 1.0) / (1.0 + 0.5 * (g - 1.0) * m2)
    ) ** -0.5 * (1.0 + eps * (m2 - 1.0) / (1.0 - 2.0 * g * m2 / (g - 1.0))) ** -0.5
    a_p = eps * (1.0 + (1.0 - eps) * (g + 1.0) / (g - 1.0) * (m2 - 1.0) / m2) ** -0.5
    return a_rho, a_u, a_p


def intermediate_state(cfg: ShockProblemConfig) -> np.ndarray:
    """Primitive state of the internal shock cell for the configured epsilon."""
    a_rho, a_u, a_p = hugoniot_weights(cfg.mach, cfg.epsilon)
    w_l = upstream_state(cfg)
    w_r = downstream_state(cfg)
    return np.array(
        [
            (1.0 - a_rho) * w_l[0] + a_rho * w_r[0],
            (1.0 - a_u) * w_l[1] + a_u * w_r[1],
            0.0,
            (1.0 - a_p) * w_l[3] + a_p * w_r[3],
        ]
    )


def boundary_spec(cfg: ShockProblemConfig) -> BoundarySpec:
    return BoundarySpec(
        inflow_W=upstream_state(cfg), outflow_pressure=float(downstream_state(cfg)[3])
    )


def initial_profile(cfg: ShockProblemConfig) -> np.ndarray:
    """Column states of the initial 1D profile, shape (nx, 4) conservative."""
    w_l = upstream_state(cfg)
    w_r = downstream_state(cfg)
    w_m = intermediate_state(cfg)
    col = cfg.shock_column - 1
    W = np.empty((cfg.nx, 4))
    W[:col] = w_l
    W[col] = w_m
    W[col + 1 :] = w_r
    return euler.prim_to_cons(W)


def build_initial_field(cfg: ShockProblemConfig, ny: int | None = None) -> MeanField:
    """Column-uniform 2D field: upstream | Hugoniot cell | downstream."""
    if ny is not None:
        cfg = replace(cfg, ny=ny)
    return project_to_2d(initial_profile(cfg), cfg)


def _residual_1d(field, scheme) -> np.ndarray:
    """rhs of a row (or a batch of rows) flattened to (..., 4 nx)."""
    states = fields.apply_boundaries(field, scheme.space == "primitive")
    return marching.rhs(field, states, scheme).reshape(field.U.shape[:-3] + (-1,))


@functools.lru_cache(maxsize=None)
def _probe_faces(table, cells: tuple[int, ...], cfg):
    """The faces that a single row's probe stack changes, built once per face
    table (x faces of a row), probed cells and part; the arrays are read-only.

    The stack holds 2m probes, probe p moving cell ``cells[p % m]``, and then
    the unperturbed row at member 2m.  Probe p moves the states whose
    ``table.source`` is its cell: the cell and any ghost that copies it.  A
    probe touches face f when a slot that the part reads of f (the cells at
    first order, else the windows) holds a state it moves; every other face
    of the probe equals the row's.  Returns (probe, face, sides, shock): the
    touched pairs in (probe, face) order, then, for those faces followed by
    all of the row's faces, their (2F', 5) side index into the stack's
    flattened state axes, each member's axis laid out as ``table.source``,
    and the shock flags (F',).
    """
    n_faces, n_states = len(table.shock), len(table.source)
    moved = table.source == np.array(cells)[:, None]
    read = moved[:, table.sides[:, 2] if reconstruction.reads_cells(cfg) else table.sides]
    touched = read.reshape(len(cells), 2, n_faces, -1).any(axis=(1, 3))
    probe, face = np.nonzero(np.concatenate([touched, touched]))  # +h probes, then -h
    member = np.concatenate([probe, np.full(n_faces, 2 * len(cells))])
    faces = np.concatenate([face, np.arange(n_faces)])
    offset = np.tile(member * n_states, 2)[:, None]  # both sides' stack member
    sides = offset + table.sides[np.concatenate([faces, n_faces + faces])]
    shock = table.shock[faces]
    for a in (probe, face, sides, shock):
        a.flags.writeable = False
    return probe, face, sides, shock


def _fd_jacobian_1d(field, scheme, cols) -> tuple[np.ndarray, np.ndarray]:
    """True Jacobian columns of the 1D residual (differentiates through the
    weights) and the residual itself: (J, r), J of shape (4 nx, m) for the m
    flat coordinates ``cols`` and r of shape (4 nx,).

    Column ``col`` (cell i, component c) is probed at U +- h e_col with the
    step h = ``stability.fd_step`` of U[i, 0, c], the flux Jacobians' own,
    and is (R(U + h) - R(U - h)) / (2h), R the residual of ``rhs``, bit for
    bit.  The 2m probes and the row itself (member 2m) are stacked on a
    batch axis and pass through one ``apply_boundaries``, which converts
    the stack once.  Then ``marching.part_states`` gathers what the part
    reads (the cells at first order, else the windows and the cells) of
    only the faces whose read slots hold a state that a probe moves
    (``_probe_faces``: two faces per probe at first order, up to six
    otherwise) together with the row's faces, and one
    ``reconstruct_pair`` and one ``compute_flux`` call evaluate them.  Each
    probe's face fluxes are the row's with its touched faces written over.
    Every member, the row included, is differenced as ``rhs`` does, so r
    equals ``_residual_1d`` of the row bit for bit.  A probe that leaves
    the admissible states makes that one pass raise.
    """
    cols = np.asarray(cols)
    m = len(cols)
    i, c = np.divmod(cols, 4)
    h = stability.fd_step(field.U[i, 0, c])
    stack = np.repeat(field.U[None], 2 * m + 1, axis=0)  # +h probes, -h probes, the row
    plus = np.arange(m)
    stack[plus, i, 0, c] += h
    stack[m + plus, i, 0, c] -= h
    probes = replace(field, U=stack)
    # a row's x faces
    (table, solver, cfg, cap_cfg), = marching.face_parts(field, scheme, linearise=False)
    probe, face, sides, shock = _probe_faces(table, tuple(i.tolist()), cfg)
    states = fields.apply_boundaries(probes, scheme.space == "primitive")
    flat = fields.StateAxes(*(a.reshape(-1, 4) for a in states))
    recon = reconstruction.reconstruct_pair(
        *marching.part_states(flat, sides, cfg), cfg, table.frame,
        cap_cfg=cap_cfg, cap_mask=shock, linearise=False,
    )
    flux = riemann.compute_flux(solver, recon.W, table.frame)
    n = len(probe)
    F = np.repeat(flux[None, n:], 2 * m + 1, axis=0)  # (2m + 1, nx + 1, 4): the row's fluxes
    F[probe, face] = flux[:n]
    res = np.zeros((2 * m + 1, field.nx, 4))
    res -= F[:, 1:] - F[:, :-1]
    R = res.reshape(2 * m + 1, -1)
    return ((R[:m] - R[m : 2 * m]) / (2 * h)[:, None]).T, R[2 * m]


def _damped_steps(H, g, dH, lam_k) -> np.ndarray:
    """Solutions (K, n) of the damped systems (H + lam_k diag(dH)) x = -g,
    one for each of the K dampings ``lam_k``.

    The systems are solved as one (K, n, n) stack, which runs LAPACK's gesv
    on each matrix as a single solve does, so every solution keeps its bits.
    The right-hand side is given as (1, n, 1), which NumPy 1.x and 2.x both
    read as one one-column matrix, broadcast over the stack.  A singular
    system gets a NaN solution: if a stack of more than one raises, each
    system is solved on its own.
    """
    A = H + lam_k[:, None, None] * np.diag(dH)
    try:
        return np.linalg.solve(A, -g[None, :, None])[..., 0]
    except np.linalg.LinAlgError:
        x = np.full((len(lam_k), len(g)), np.nan)
        if len(lam_k) > 1:
            for x_k, A_k in zip(x, A):
                try:
                    x_k[:] = np.linalg.solve(A_k, -g)
                except np.linalg.LinAlgError:
                    pass  # a singular system has no step
        return x


def _above_floors(U, rho_floor, p_floor) -> np.ndarray:
    """(K,) mask of the stacked rows U (K, nx, 1, 4) whose every density
    exceeds ``rho_floor`` and every pressure ``p_floor``; a NaN fails both.

    With floors of 0 or more this is ``euler.cons_to_prim`` not raising and
    both minima clearing the floors.  The primitive states are
    ``reconstruction._prim_soft``'s.
    """
    W = reconstruction._prim_soft(U)
    return ((W[..., 0] > rho_floor) & (W[..., 3] > p_floor)).all(axis=(-2, -1))


# the Jacobian of an accepted trial whose probes have not run yet
_UNPROBED = object()


def _lm_refine_1d(field, scheme, free):
    """Levenberg-Marquardt steady solve; the marching limit cycles of the
    high-order schemes orbit an unstable fixed point this locates exactly.

    ``free`` (4 nx,) flags the flat (cell*4 + component) unknowns the solve
    moves; the others keep their entry values (``converge_1d`` says which).

    Each iteration tries up to 25 damped steps, step k with damping
    lambda_k = lambda 4^k, and accepts the first whose cost is finite and
    lower; lambda starts at 1e-3 and becomes max(lambda_k / 3, 1e-14) when
    step k is accepted (More, LNM 630, 1978).  Steps are solved and checked
    a run of k at a time: one ``np.linalg.solve`` of the stacked systems
    (one system at a time if the stack raises; ``_damped_steps``) and one
    admissibility mask over the stacked trials (``_above_floors``).  The
    steps up to the first admissible one are tried one k at a time, so an
    iteration whose first trial is accepted solves no more systems than it
    tries.  That first trial is evaluated by ``_fd_jacobian_1d``, which
    gives its residual and, if it is accepted, the next iteration's
    Jacobian in one pass; the start state gets both from one call too.  If
    it is rejected, the steps after it are solved and checked as one stack,
    their admissible trials are evaluated together in one batched
    ``_residual_1d`` call (one at a time, in order, if the batch raises),
    and an accepted one is probed when the next iteration needs its
    Jacobian.  A trial whose probes leave the admissible states is judged
    by its residual alone.

    An attempt stops once ``marching.density_residual(r)`` < ``marching.STEADY_TOL``,
    and ends when no damped step lowers the cost, or when a probe of the
    Jacobian of the current state leaves the admissible states; either
    way it returns the best state so far, its residual vector (4 nx,), the
    bits ``_residual_1d`` gives it, the iterations run and the calls made:
    ``jacobians`` of ``_fd_jacobian_1d`` (raising ones included) and
    ``residuals`` of ``_residual_1d`` (a batch counts once).
    Errors from outside the package propagate, also from the probes of a
    trial that is then rejected and from trials after the accepted one in a
    batch.
    """
    nx = field.nx
    # per-component residual scales (flux magnitude over the unit cell)
    W = field.interior_primitive()
    c = euler.sound_speed(W)
    speed = float((np.abs(W[..., 1]) + c).max())
    scale = np.maximum(1.0, np.abs(field.U).max(axis=(0, 1))) * speed
    s = np.tile(scale, nx)
    rho_floor = 1e-3 * float(W[..., 0].min())
    p_floor = 1e-3 * float(W[..., 3].min())

    cols = np.flatnonzero(free)
    calls = {"jacobians": 0, "residuals": 0}

    def residual(f):
        calls["residuals"] += 1
        return _residual_1d(f, scheme)

    def trial_residual(f):
        try:
            return residual(f)
        except ShockStabError:
            return None  # an inadmissible trial is rejected

    def jacobian(f):
        """(J / s, r) of f from one pass; (None, None) if a probe raises."""
        calls["jacobians"] += 1
        try:
            J, r = _fd_jacobian_1d(f, scheme, cols)
        except ShockStabError:
            return None, None
        return J / s[:, None], r

    def evaluated(field, H, g, dH, lam):
        """(lambda_k, U_k, J, r) of the admissible damped trials in order, r
        None where it raised: the first from its Jacobian pass, the rest in
        one batch.  The steps before the first trial are solved one at a
        time and the steps after it, only if it is rejected, as one stack."""

        def damped(ks):
            """(lambda_k, U_k) of the steps k in ``ks`` that solve and stay
            admissible, in order; lambda 4^k is exact (4 is a power of 2)."""
            lam_k = lam * 4.0**ks
            step = np.zeros((len(ks), 4 * nx))
            step[:, free] = _damped_steps(H, g, dH, lam_k)
            U = field.U + step.reshape(-1, nx, 1, 4)
            ok = _above_floors(U, rho_floor, p_floor)
            return lam_k[ok], U[ok]

        for k in range(25):
            lams, Us = damped(np.arange(k, k + 1))
            if len(lams):
                break
        else:
            return
        trial = replace(field, U=Us[0])
        J_t, r_t = jacobian(trial)
        yield lams[0], Us[0], J_t, trial_residual(trial) if r_t is None else r_t
        lams, Us = damped(np.arange(k + 1, 25))
        if not len(lams):
            return
        try:
            R = residual(replace(field, U=Us))
        except ShockStabError:
            R = map(trial_residual, (replace(field, U=U) for U in Us))
        for lam_k, U, r_t in zip(lams, Us, R):
            yield lam_k, U, _UNPROBED, r_t

    J, r = jacobian(field)
    if r is None:
        r = residual(field)
    cost = float(np.linalg.norm(r / s))
    lam = 1e-3
    it = 0
    while it < LM_MAX_ITER:
        it += 1
        if marching.density_residual(r) < marching.STEADY_TOL:
            break
        if J is _UNPROBED:
            J, _ = jacobian(field)
        if J is None:
            break  # an inadmissible probe ends the attempt, as a stall does
        g = J.T @ (r / s)
        H = J.T @ J
        dH = np.diag(H).copy()
        dH[dH <= 0] = 1.0
        for lam_k, U, J_t, r2 in evaluated(field, H, g, dH, lam):
            if r2 is None:
                continue
            cost2 = float(np.linalg.norm(r2 / s))
            if np.isfinite(cost2) and cost2 < cost:
                field, J, r, cost = replace(field, U=U), J_t, r2, cost2
                lam = max(lam_k / 3.0, 1e-14)
                break
        else:
            break
    return field, r, it, calls


def converge_1d(cfg: ShockProblemConfig, scheme: Scheme):
    """Drive the 1D restriction of the problem to its steady state.

    Ten small pseudo-time steps release the transient of the raw jump data.
    Then a damped Newton (Levenberg-Marquardt) solve of rhs = 0 finds the
    steady state (``_lm_refine_1d``).  Its Jacobian is the central finite
    difference of rhs, weights included, with every probe of one Jacobian
    and the state itself evaluated in one pass over the faces they touch
    (``_fd_jacobian_1d``), so that an accepted step costs one pass.  A
    rejected one is followed by its damped successors, solved as one stack
    of linear systems, checked by one admissibility mask and evaluated in
    one batched residual.  Pure marching does not converge: the
    fifth-order schemes only orbit their steady state in a weight-chatter
    limit cycle, and the low-dissipation solvers slowly drift the captured
    shock off its initial sub-cell position, losing the family member the
    shock-position parameter selects.  During the solve the supersonic
    upstream columns (exactly uniform in the steady state) stay clamped and
    the shock-cell density stays pinned: the solve moves only the other,
    free, unknowns.  An attempt ends when no damped step lowers the cost or
    when a Jacobian probe leaves the admissible states.  Up to two seeded
    jitter restarts then retry from the best state so far, jittering only
    its free unknowns; a jittered start that fails the trial mask
    ``_above_floors`` at zero floors counts as a failed restart.  The better
    attempt, residual and failing cell come from each attempt's residual.

    Returns the (nx, 4) conservative profile and ``info`` with the smoothing
    ``steps``, the total ``lm_iterations``, the jitter ``restarts`` started
    (failed ones included), the final ``residual`` max|d rho/dt| and
    ``residual_by_component``, the largest |dU/dt| of each conservative
    component, density first (``residual``), both read from the returned
    state's residual vector, and the calls the solve made over all
    attempts: ``jacobians`` of ``_fd_jacobian_1d`` (raising ones included)
    and ``residuals`` of ``_residual_1d`` (a batch of damped trials counts
    once).  Success is ``marching.density_residual`` < ``marching.STEADY_TOL``:
    the other components are checked only to be finite.  Anything else raises
    ConvergenceError naming the scheme, the residual and the 1-based cell of
    largest |d rho/dt|, or the cell and component of a non-finite entry.
    """
    field = build_initial_field(cfg, ny=1)
    # the LM's free unknowns, flat (cell*4 + component).  The supersonic
    # upstream columns, which the exact steady state keeps uniform, are
    # clamped: freezing them keeps the solver away from the non-smooth
    # uniform-window regime.  The steady captured shocks form a family of
    # sub-cell positions; the shock-cell density is pinned at the
    # shock-position prescription so every epsilon label selects its own
    # member deterministically
    col = cfg.shock_column - 1
    free = np.ones(4 * cfg.nx, dtype=bool)
    free[: 4 * max(col - 1, 0)] = False
    free[4 * col] = False

    # gentle smoothing only: the low-dissipation solvers slide the captured
    # shock off its sub-cell position within a handful of coarse steps, which
    # would silently swap the family member under analysis.  It is needed
    # all the same: without it roe-o5/characteristic at epsilon 0.5 does not
    # converge and lambda_max of other schemes moves by up to 1e-7.  A state
    # that a step refuses, inadmissible or not finite, fails the march
    n_smooth = 10
    for _ in range(n_smooth):
        try:
            field, _ = marching.step_ssprk3(field, scheme, 0.05, np.inf)
        except InvalidStateError as err:
            raise ConvergenceError(f"1D smoothing march diverged for {scheme.label()}") from err

    field.U[col, 0, 0] = intermediate_state(cfg)[0]
    field, r, lm_iters, calls = _lm_refine_1d(field, scheme, free)
    res = marching.density_residual(r)

    # a restart from the best state rescues two kinds of stopped attempt.
    # van_leer-o5 at epsilon 0.3 stops its first attempt at 2.085; a restart
    # that only resets the damping to 1e-3, with no jitter, converges it.
    # roe-o2/characteristic at epsilon 0.5 and van_leer-o2/characteristic at
    # 0.1 are MUSCL schemes, with no WENO weights; they stop at 6.4e-12 and
    # 1.6e-12, and only the seeded jitter rescues them
    rng = np.random.default_rng(2024)
    restarts = 0
    for _ in range(2):
        if res < marching.STEADY_TOL:
            break
        restarts += 1
        jitter = np.where(free, 1.0 + 1e-6 * rng.standard_normal(free.shape), 1.0)
        trial = replace(field, U=field.U * jitter.reshape(field.U.shape))
        if not _above_floors(trial.U[None], 0.0, 0.0)[0]:
            continue  # the jitter left the admissible states: a failed restart
        trial, tr, tit, tcalls = _lm_refine_1d(trial, scheme, free)
        lm_iters += tit
        calls = {key: calls[key] + tcalls[key] for key in calls}
        tres = marching.density_residual(tr)
        if tres < res:
            field, r, res = trial, tr, tres

    if not res < marching.STEADY_TOL:
        where = f"largest |d rho/dt| in cell {int(np.argmax(np.abs(r[0::4]))) + 1}"
        if res == np.inf:
            cell, name = marching.first_non_finite(r)
            where = f"d({name})/dt not finite in cell {cell + 1}"
        raise ConvergenceError(
            f"{scheme.label()}: 1D residual {res:.3e} >= converge_tol "
            f"{marching.STEADY_TOL:.0e} after the implicit solve and its restarts; {where}")
    info = {"steps": n_smooth, "lm_iterations": lm_iters, "restarts": restarts, "residual": res,
            "residual_by_component": tuple(np.abs(r.reshape(-1, 4)).max(axis=0).tolist()),
            **calls}
    return field.U[:, 0].copy(), info


def project_to_2d(profile: np.ndarray, cfg: ShockProblemConfig) -> MeanField:
    """Replicate a steady 1D profile across all rows of the 2D domain."""
    return MeanField(
        U=np.repeat(profile[:, None, :], cfg.ny, axis=1),
        bc=boundary_spec(cfg),
        shock_column=cfg.shock_column,
    )
