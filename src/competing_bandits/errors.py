"""Exception types shared across the package, and the integer check that
raises one."""

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


def _check_integer(name: str, value, error: type = InputError) -> int:
    """``value`` as a Python int if it is an integer (numpy integers
    included, booleans not); else ``error`` naming ``name``."""
    try:
        if isinstance(value, bool):  # operator.index(True) is 1
            raise TypeError
        return operator.index(value)
    except TypeError:
        raise error(f"expected an integer, got {value!r}", name) from None
