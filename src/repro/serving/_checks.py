"""The one check of a scalar numeric parameter of the serving layer.

Constructors and entry points of :mod:`repro.serving` check each numeric
argument with :func:`check_number` where it enters, and store the value
unchanged.  Per-request columns (arrival times, ids) are checked in bulk
where they are read, not here.
"""

from __future__ import annotations

import math
import numbers
import sys

from repro.errors import ServingError

_FLOAT_MAX = sys.float_info.max


def check_number(name: str, value, *, low: float | None = None,
                 strict: bool = False, integer: bool = False,
                 allow_inf: bool = False) -> None:
    """Raise :class:`ServingError` unless ``value`` is a valid ``name``.

    A valid value is a real number (never a bool), integral with
    ``integer``, finite (``+inf`` too with ``allow_inf``; an int beyond
    float range is non-finite) and ``>= low`` (``> low`` with ``strict``).
    The message names the whole requirement, e.g. ``"duration must be
    positive and finite, got 0"``.
    """
    kind = numbers.Integral if integer else numbers.Real
    if isinstance(value, bool) or not isinstance(value, kind):
        raise ServingError(
            f"{name} must be {'an integer' if integer else 'a number'}, "
            f"got {value!r}"
        )
    finite = -_FLOAT_MAX <= value <= _FLOAT_MAX  # False for NaN
    if (finite or (allow_inf and value == math.inf)) and (
        low is None or (value > low if strict else value >= low)
    ):
        return
    if low is None:
        bound = []
    elif low == 0:
        bound = ["positive" if strict else "non-negative"]
    else:
        bound = [f"{'>' if strict else '>='} {low}"]
    requirement = " and ".join(bound + ([] if allow_inf else ["finite"]))
    if not (finite or isinstance(value, float)):
        value = "non-finite int beyond float range"
    raise ServingError(f"{name} must be {requirement}, got {value}")


def check_seed(seed) -> None:
    """A seed is a non-negative integer (and not a bool)."""
    check_number("seed", seed, low=0, integer=True)


def check_scales(load_scale, duration_scale) -> None:
    """Load and duration scale factors are positive and finite."""
    check_number("load_scale", load_scale, low=0, strict=True)
    check_number("duration_scale", duration_scale, low=0, strict=True)
