"""Matrix stability laboratory for shock-capturing finite-volume Euler schemes."""

from .euler import FaceFrame
from .fields import BoundarySpec, MeanField
from .reconstruction import ReconConfig
from .scheme import Scheme
from .shock_problem import ShockProblemConfig

__version__ = "0.1.0"

__all__ = [
    "BoundarySpec",
    "FaceFrame",
    "MeanField",
    "ReconConfig",
    "Scheme",
    "ShockProblemConfig",
    "__version__",
]
