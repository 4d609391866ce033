"""The one rule for a number read from a config or topology file."""

import math


class ConfigError(ValueError):
    """Invalid experiment configuration; message names the offending key."""


def check_number(name, value, low=-math.inf, *, strict=True, integer=False, finite=True):
    """Raise a ``ConfigError`` that starts with ``name`` unless ``value`` is
    an int (when ``integer``) or a number, but never a bool, that is not NaN,
    is above ``low`` (or equal to it when not ``strict``) and is finite
    unless ``finite`` is false."""
    if not (
        isinstance(value, int if integer else (int, float))
        and not isinstance(value, bool)
        and (value > low if strict else value >= low)
        and (value < math.inf or not finite)
    ):
        kind = "an integer" if integer else "a finite number" if finite else "a number"
        bound = f" {'>' if strict else '>='} {low:g}" if low > -math.inf else ""
        raise ConfigError(f"{name}: must be {kind}{bound}, got {value!r}")
