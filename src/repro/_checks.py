"""Number and integer checks shared by every parser of outside input.

Engine specs, grid specs and serve queries arrive as parsed JSON, where
a "number" may be a boolean, a string, ``NaN`` or ``Infinity`` (Python's
``json`` accepts both literals).  Each caller passes the error type it
raises; ``None`` passes through when *optional*.
"""

from __future__ import annotations

import math

import numpy as np


def check_number(
    value, name: str, *, error, minimum=None, positive=False, optional=False
):
    """*value* as a finite ``float`` that is ``>= minimum`` (``> 0`` when
    *positive*); else *error*."""
    if value is None and optional:
        return None
    if isinstance(value, bool) or not isinstance(
        value, (int, float, np.integer, np.floating)
    ):
        raise error(f"{name} must be a number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:  # an int too large for a float
        number = math.inf
    if not math.isfinite(number):
        raise error(f"{name} must be finite, got {value!r}")
    if minimum is not None and number < minimum:
        raise error(f"{name} must be >= {minimum}, got {value!r}")
    if positive and not number > 0:
        raise error(f"{name} must be positive, got {value!r}")
    return number


def check_int(value, name: str, *, error, minimum: int, optional=False):
    """*value* as an ``int`` that is ``>= minimum``; else *error*.

    An integral float such as ``2.0`` (hand-edited JSON) is accepted;
    fractions, ``NaN``, ``±inf``, booleans and strings are not.
    """
    if value is None and optional:
        return None
    if (
        isinstance(value, bool)
        or not isinstance(value, (int, np.integer, float))
        or (isinstance(value, float) and not value.is_integer())
    ):
        raise error(f"{name} must be an integer, got {value!r}")
    if int(value) < minimum:
        raise error(f"{name} must be >= {minimum}, got {int(value)}")
    return int(value)


def check_choice(value, name: str, options: tuple, *, error):
    """*value* if it is one of the string *options*; else *error* naming them."""
    if not isinstance(value, str) or value not in options:
        raise error(f"unknown {name} {value!r}; options: {options}")
    return value
