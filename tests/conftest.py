"""Shared fixtures: converged base flows are expensive, so they are computed
once per session and cached by (scheme, problem config);
``linear_weights`` freezes the WENO-Z weights at their linear values;
``unsteady_base_flow`` lets ``stability.assemble`` linearise about a field
that is not steady, by lifting the steady bound ``marching.STEADY_TOL``,
which no test that uses it reaches through ``converge_1d``."""

import numpy as np
import pytest

from shockstab import marching, reconstruction
from shockstab.scheme import Scheme
from shockstab.shock_problem import ShockProblemConfig, converge_1d, project_to_2d


@pytest.fixture(scope="session")
def base_flow_cache():
    cache = {}

    def get(scheme: Scheme, cfg: ShockProblemConfig | None = None, **cfg_kw):
        cfg = cfg or ShockProblemConfig(**cfg_kw)
        key = (scheme, cfg)
        if key not in cache:
            profile, info = converge_1d(cfg, scheme)
            cache[key] = (project_to_2d(profile, cfg), info)
        field, info = cache[key]
        return field.copy(), info

    return get


@pytest.fixture
def linear_weights(monkeypatch):
    """WENO-Z reconstructions use the linear weights at every window."""

    def linear(beta):
        return np.broadcast_to(reconstruction.LINEAR_WEIGHTS[:, None], beta.shape).copy()

    monkeypatch.setattr(reconstruction, "weights_z", linear)


@pytest.fixture
def unsteady_base_flow(monkeypatch):
    """``stability.assemble``'s steady check accepts every finite density
    residual, for tests that linearise about initial or manufactured fields."""
    monkeypatch.setattr(marching, "STEADY_TOL", np.inf)
