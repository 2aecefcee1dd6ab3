"""Exception hierarchy for glmsub.

All library errors derive from :class:`GlmsubError` so callers can catch
one base class.  Estimation failures (singular information, Newton
divergence) share the :class:`FitError` base; the two-stage driver and
the study runner treat any ``FitError`` in stage 1 as retryable.
"""

from __future__ import annotations

import copyreg

__all__ = [
    "GlmsubError",
    "ValidationError",
    "ConfigError",
    "NumericOverflowError",
    "DegenerateResponseError",
    "FitError",
    "SingularInformationError",
    "NonConvergenceError",
    "StageOneError",
]


class GlmsubError(Exception):
    """Base class for all glmsub errors."""

    def __reduce__(self):
        # Skips __init__, whose signature differs from args in some subclasses,
        # so that a forked worker's error reaches the caller unchanged.
        return copyreg.__newobj__, (type(self), *self.args), self.__dict__


class ValidationError(GlmsubError, ValueError):
    """Invalid input: bad shapes, out-of-range values, malformed configs."""


class ConfigError(ValidationError):
    """Configuration error, carrying the offending YAML key path.  Raised
    by ``parse_config`` and by the config dataclasses it builds, so a run
    config constructed in code fails with the same key."""

    def __init__(self, key: str, message: str):
        self.key = key
        super().__init__(f"{key}: {message}")


class NumericOverflowError(GlmsubError):
    """A mean evaluation or a Poisson draw produced a non-finite value."""

    def __init__(self, message: str, index: int | None = None):
        self.index = index
        super().__init__(message)


class DegenerateResponseError(GlmsubError):
    """Response vector cannot support the requested operation
    (e.g. a binary response with only one class present)."""


class FitError(GlmsubError):
    """Base class for maximum-likelihood estimation failures."""


class SingularInformationError(FitError):
    """An information (Hessian) matrix is singular and cannot be inverted."""


class NonConvergenceError(FitError):
    """Newton-Raphson failed to converge; carries the last iterate."""

    def __init__(self, message: str, theta=None, iterations: int = 0):
        self.theta = theta
        self.iterations = iterations
        super().__init__(message)


class StageOneError(GlmsubError):
    """All stage-1 pilot attempts failed; carries the last underlying error."""

    def __init__(self, attempts: int, last_error: Exception):
        self.attempts = attempts
        self.last_error = last_error
        super().__init__(
            f"stage-1 pilot estimation failed after {attempts} attempts: {last_error}"
        )
