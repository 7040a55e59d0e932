"""Exception types shared across the package."""


class ShockStabError(Exception):
    """Base class for all package errors."""


class InvalidStateError(ShockStabError):
    """A gas state has non-positive density or pressure."""


class DegenerateFanError(ShockStabError):
    """HLL/HLLC wave fan has collapsed (S_R - S_L below tolerance)."""


class ConvergenceError(ShockStabError):
    """The steady solve stopped at or above its tolerance, or diverged."""


class UnsteadyFieldError(ShockStabError):
    """A mean field offered for linearization is not steady."""


class DifferentiationError(ShockStabError):
    """Finite-difference flux Jacobian hit a non-finite probe value."""


class NoExponentialStageError(ShockStabError):
    """Monitor series has no window with a clean log-linear fit."""
