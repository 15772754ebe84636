"""Exceptions, and the value predicates config validation raises them on."""

import math


class PatchBiasError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(PatchBiasError, ValueError):
    """Invalid configuration, spec, or argument values."""


class NonFiniteGradientError(PatchBiasError, RuntimeError):
    """A gradient evaluation produced NaN or Inf."""


def is_int(v) -> bool:
    """An int that is not a bool, as a config value must be to count as an integer."""
    return isinstance(v, int) and not isinstance(v, bool)


def is_number(v) -> bool:
    """A finite int or float that is not a bool; JSON's NaN and Infinity are not numbers here."""
    return is_int(v) or (isinstance(v, float) and math.isfinite(v))
