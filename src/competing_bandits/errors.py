"""Exception types shared across the package, and the integer, real-number
and choice checks that raise one."""

import math
import numbers
import operator
from typing import Optional


class CompetingBanditsError(Exception):
    """Base class for all errors raised by this package."""


class InputError(CompetingBanditsError, ValueError):
    """Malformed or mutually inconsistent inputs. ``field``, if given, names
    the rejected input: an object's field, a ``[section] key`` or a flag."""

    def __init__(self, message: str, field: Optional[str] = None):
        super().__init__(f"{field}: {message}" if field else message)
        self.message, self.field = message, field


class CapacityError(CompetingBanditsError):
    """An exhaustive-enumeration size guard was exceeded."""


class AssumptionError(InputError):
    """A timeline violates the boundedness / minimum-gap assumptions."""


class ConfigError(InputError):
    """An experiment configuration file failed to parse or validate."""


def _check_integer(name: str, value, error: type = InputError,
                   least: Optional[int] = None, most: Optional[int] = None) -> int:
    """``value`` as a Python int if it is an integer (numpy integers
    included, booleans not) within the inclusive bounds given; else
    ``error`` naming ``name``."""
    try:
        if isinstance(value, bool):  # operator.index(True) is 1
            raise TypeError
        value = operator.index(value)
    except TypeError:
        raise error(f"expected an integer, got {value!r}", name) from None
    if least is not None and value < least:
        raise error(f"must be at least {least}, got {value}", name)
    if most is not None and value > most:
        raise error(f"must be at most {most}, got {value}", name)
    return value


def _check_real(name: str, value, error: type = InputError, finite: bool = True) -> float:
    """``value`` as a Python float if it is a real number, numpy's included and booleans
    not, and finite unless ``finite`` is False (the caller's range check rejects nan)."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise error(f"expected a real number, got {value!r}", name)
    if finite and not math.isfinite(value):
        raise error(f"must be finite, got {value}", name)
    return float(value)


def _check_choice(name: str, value, choices: tuple, error: type = InputError):
    """``value`` if it is one of ``choices``; else ``error`` naming ``name``."""
    if value not in choices:
        raise error(f"must be one of {choices}, got {value!r}", name)
    return value
