"""Exception types shared across the package, the integer and real-number
checks that raise one, and the unknown-key and operating-system string checks
of config values read from JSON."""

import math
import numbers
import os

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


def require_real(name: str, value) -> float:
    """value as a float; ParameterError unless it is a real number.

    A bool, a string or None is not one, although float() takes some of them;
    nor is an integer too large for a float.
    """
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ParameterError(f"{name} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise ParameterError(f"{name} is too large for a float") from None


def require_finite(name: str, value) -> float:
    """value as a float; ParameterError unless it is a finite real number."""
    value = require_real(name, value)
    if not math.isfinite(value):
        raise ParameterError(f"{name} must be finite, got {value!r}")
    return value


def _check_keys(obj: dict, allowed: set, where: str) -> None:
    unknown = set(obj) - allowed
    if unknown:
        raise ConfigError(f"unknown key(s) in {where}: {', '.join(sorted(unknown))}")


def _check_os_string(value, what: str, error: type[SensitivityError]) -> None:
    """error naming `what` unless the operating system can take `value`, a
    str, bytes or os.PathLike, as a command argument or a file name. JSON
    can hold two things that neither can: a null character, and a lone
    surrogate such as "\\ud800", which does not encode to bytes."""
    try:
        if b"\0" not in os.fsencode(value):
            return
        problem = "a null character"
    except UnicodeEncodeError:
        problem = "a lone surrogate"
    raise error(f"{what} must not hold {problem}, got {value!r}")
