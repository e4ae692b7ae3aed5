"""Exception types raised by the modradon package."""

import numpy as np


class ModRadonError(Exception):
    """Base class for all package errors."""


class DomainError(ModRadonError, ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class SizeError(ModRadonError, ValueError):
    """A sequence or grid is too short / mismatched for the requested operation."""


class ConfigError(ModRadonError, ValueError):
    """A configuration value violates a structural requirement."""


def check_positive(**values) -> None:
    """Raise :class:`ConfigError` naming the first value that is given (not
    None) but is not a positive finite number."""
    for name, v in values.items():
        if v is not None and not (np.isfinite(v) and v > 0):
            raise ConfigError(f"{name} must be positive and finite, got {v}")


def check_counts(**values) -> None:
    """Raise :class:`ConfigError` naming the first given count below 1."""
    for name, n in values.items():
        if n is not None and n < 1:
            raise ConfigError(f"{name} must be at least 1, got {n}")


def indexable(count) -> bool:
    """Whether numpy can index ``count`` float64 values (8*count bytes)."""
    return count <= np.iinfo(np.intp).max // 8


class ConditionError(ModRadonError, ValueError):
    """A sampling condition required by a guarantee does not hold."""


class MarginError(ModRadonError, ValueError):
    """The left sample margin is too small.

    Recoverable: the caller may retry with a larger margin or a higher
    difference order.
    """


class ParseError(ModRadonError, ValueError):
    """A file could not be parsed; the message names the offending location."""
