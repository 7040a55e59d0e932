"""Run one point through the public pipeline and judge its outcome.

Every failure carries a reason: the class name of a ``ShockStabError``
(``ConvergenceError``, ``InvalidStateError``, ``NoExponentialStageError``, ...),
``residual_above_tol`` for a steady solve that ``converge_1d`` accepted with a
warning above ``converge_tol``, ``march_collapsed``, ``fit_r2_below_0.99`` or
``lambda_mismatch`` against the reference file.
"""

import json
import warnings
from dataclasses import dataclass
from pathlib import Path

from shockstab import marching, shock_problem, stability
from shockstab.errors import ShockStabError
from shockstab.scheme import Scheme
from shockstab.shock_problem import ShockProblemConfig

from workloads import GROWTH_AMPLITUDE, GROWTH_CFL, Point

REFERENCE_FILE = Path(__file__).with_name("reference.json")
MIN_R2 = 0.99
MISMATCH = "lambda_mismatch"


def load_reference() -> dict:
    return json.loads(REFERENCE_FILE.read_text())


def lambda_check(lam: float, ref: dict | None, tol: dict) -> str | None:
    """``lambda_mismatch`` when lam is outside abs + rel * |ref| of a point that
    succeeded when the reference was made; points without such a reference are
    not judged."""
    if ref is None or ref["status"] != "ok":
        return None
    expected = ref["lambda_max"]
    if abs(lam - expected) > tol["abs"] + tol["rel"] * abs(expected):
        return MISMATCH
    return None


@dataclass
class Outcome:
    key: str
    reason: str | None = None  # None on success
    lam: float | None = None
    residual: float | None = None
    lam_fit: float | None = None
    r2: float | None = None
    # set by the caller that times the point: perf_counter bounds, and the
    # interval at the reference machine speed
    start: float = 0.0
    end: float = 0.0
    seconds: float = 0.0


def _config(point: Point):
    cfg = ShockProblemConfig(epsilon=point.epsilon, nx=point.nx, ny=point.ny)
    return cfg, Scheme(solver=point.solver, order=point.order, space=point.space)


def steady_lambda(point: Point):
    """Steady 1D solve -> 2D field -> S -> lambda_max.

    Returns (field, lambda_max, residual, reason); ``reason`` is
    ``residual_above_tol`` when the solve stopped above ``converge_tol``.
    Raises ``ShockStabError`` as the package does.
    """
    cfg, scheme = _config(point)
    with warnings.catch_warnings():
        # the package warns when it accepts a residual below 1e-8; the
        # residual itself is checked below
        warnings.simplefilter("ignore")
        profile, info = shock_problem.converge_1d(cfg, scheme)
    field = shock_problem.project_to_2d(profile, cfg)
    lam = stability.eigensolve(stability.assemble(field, scheme)).max_real
    residual = float(info["residual"])
    reason = "residual_above_tol" if residual >= cfg.converge_tol else None
    return field, lam, residual, reason


def run_verdict(point: Point, ref: dict | None, tol: dict) -> Outcome:
    """One point from its configuration to lambda_max."""
    try:
        _, lam, residual, reason = steady_lambda(point)
    except ShockStabError as exc:
        return Outcome(point.key, type(exc).__name__)
    return Outcome(point.key, lambda_check(lam, ref, tol) or reason, lam, residual)


@dataclass
class BaseFlow:
    """Set-up product of a growth point: its steady field and lambda_mat."""

    field: object = None
    lam: float | None = None
    residual: float | None = None
    reason: str | None = None


def prepare_growth(point: Point, ref: dict | None, tol: dict) -> BaseFlow:
    try:
        field, lam, residual, reason = steady_lambda(point)
    except ShockStabError as exc:
        return BaseFlow(reason=type(exc).__name__)
    return BaseFlow(field, lam, residual, lambda_check(lam, ref, tol) or reason)


def run_growth(point: Point, base: BaseFlow, perturbation_seed: int) -> Outcome:
    """Perturb -> march -> fit on a base flow prepared in set-up."""
    if base.field is None:
        return Outcome(point.key, base.reason)
    _, scheme = _config(point)
    run = marching.RunConfig(
        scheme=scheme, cfl=GROWTH_CFL, end_time=point.end_time,
        amplitude=GROWTH_AMPLITUDE, seed=perturbation_seed,
    )
    try:
        series, _ = marching.march(base.field, run)
        if series.collapsed:
            return Outcome(point.key, "march_collapsed", base.lam)
        fit = marching.fit_growth_rate(series, run.amplitude)
    except ShockStabError as exc:
        return Outcome(point.key, type(exc).__name__, base.lam)
    reason = base.reason or (None if fit.r2 >= MIN_R2 else "fit_r2_below_0.99")
    return Outcome(point.key, reason, base.lam, base.residual, fit.lam, fit.r2)
