"""Exception types shared across the package, and the integer check that raises one."""

import numpy as np


class SensitivityError(Exception):
    """Base class for all errors raised by this package."""


class ParameterError(SensitivityError, ValueError):
    """Invalid distribution, model, or estimator parameters."""


class CapacityError(SensitivityError, ValueError):
    """Requested computation exceeds a hard size cap."""


class EvaluationError(SensitivityError, RuntimeError):
    """Model evaluation failed or produced a non-finite value."""


class ConfigError(SensitivityError, ValueError):
    """Invalid or inconsistent run configuration."""


def require_integer(name: str, value) -> int:
    """value as an int; ParameterError for a bool or any non-integer type.

    Python and numpy integers pass; a float such as 2.0 does not, so a count
    or seed is never silently truncated.
    """
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ParameterError(f"{name} must be an integer, got {value!r}")
    return int(value)
