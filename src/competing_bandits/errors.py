"""Exception types shared across the package, and the integer check that
raises one."""

import operator


class CompetingBanditsError(Exception):
    """Base class for all errors raised by this package."""


class InputError(CompetingBanditsError, ValueError):
    """Malformed or mutually inconsistent inputs."""


class CapacityError(CompetingBanditsError):
    """An exhaustive-enumeration size guard was exceeded."""


class AssumptionError(InputError):
    """A timeline violates the boundedness / minimum-gap assumptions."""


class ConfigError(InputError):
    """An experiment configuration file failed to parse or validate."""


def _check_integer(name: str, value) -> None:
    """InputError naming ``name`` unless ``value`` is an integer (numpy
    integers included)."""
    try:
        operator.index(value)
    except TypeError:
        raise InputError(f"{name}: expected an integer, got {value!r}") from None
