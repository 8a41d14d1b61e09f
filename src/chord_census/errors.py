"""Exception types raised by chord_census.

Everything derives from :class:`ChordCensusError`, so callers can catch the
whole family with one clause.  Input-validation errors additionally derive
from :class:`ValueError`; the two arithmetic sentinels derive from
:class:`ArithmeticError` because they flag implementation bugs rather than
bad inputs.

Every other module imports this one, so it also holds ``_integer``, the one
reader of integer arguments, ``_index``, its integer rule, ``_flag``, the one
reader of flag arguments, and ``_shown``, which puts a value in an error
message.
"""

from __future__ import annotations

import operator
import sys
from typing import Optional

__all__ = [
    "ChordCensusError",
    "InvalidGluingError",
    "InvalidArgumentError",
    "DuplicateIndexError",
    "MissingIndexError",
    "SelfPairError",
    "GluingParseError",
    "SizeMismatchError",
    "InvalidSpinError",
    "EvenInputError",
    "NonDivisorError",
    "NotPrimeError",
    "DivisibilityError",
    "InconsistentTopologyError",
    "BudgetExceededError",
]


class ChordCensusError(Exception):
    """Base class for all errors raised by this package."""


class InvalidGluingError(ChordCensusError, ValueError):
    """A set of point pairs does not describe a valid gluing."""


class DuplicateIndexError(InvalidGluingError):
    """Some point index appears in more than one pair."""


class MissingIndexError(InvalidGluingError):
    """The pairs do not cover {1..2n} exactly."""


class SelfPairError(InvalidGluingError):
    """A pair joins a point to itself."""


class GluingParseError(InvalidGluingError):
    """Malformed gluing text or JSON."""


class SizeMismatchError(ChordCensusError, ValueError):
    """Two diagrams of different order were compared."""


class InvalidArgumentError(ChordCensusError, ValueError):
    """An argument is not an integer or is out of range: an order, divisor,
    shift, worker count or budget."""


class InvalidSpinError(ChordCensusError, ValueError):
    """A spin graph violates the pairing or alternation rules."""


class EvenInputError(ChordCensusError, ValueError):
    """double_factorial was called with an even argument."""


class NonDivisorError(ChordCensusError, ValueError):
    """A fixed-point formula was called outside its divisor domain."""


class NotPrimeError(ChordCensusError, ValueError):
    """A prime-only shortcut was called with a non-prime (or p < 3)."""


class DivisibilityError(ChordCensusError, ArithmeticError):
    """A Burnside sum was not divisible by the group order.

    This cannot happen for correct formulas; it signals a bug, never a bad
    input, and is raised instead of silently rounding.
    """


class InconsistentTopologyError(ChordCensusError, ArithmeticError):
    """The genus equation had no admissible integer solution (a bug sentinel)."""


class BudgetExceededError(ChordCensusError, RuntimeError):
    """A brute-force run would enumerate more gluings than the work budget."""


def _index(value) -> int:
    """``value`` as a Python int through ``operator.index``, which Python
    and numpy integers pass; a bool, an int subclass, raises TypeError."""
    if isinstance(value, bool):
        raise TypeError
    return operator.index(value)


def _shown(value) -> str:
    """``repr(value)``, or past the int-to-str digit limit an int's bit length
    or another value's type: an error message never lifts the limit."""
    try:
        return repr(value)
    except ValueError:
        if isinstance(value, int):
            return f"<{value.bit_length()}-bit integer>"
        return f"<{type(value).__name__} too long to show>"


def _integer(value, what: str, least: Optional[int] = None, most: Optional[int] = None) -> int:
    """``value`` as a Python int, at least ``least`` and at most ``most`` where given.

    Python and numpy integers pass through ``_index``; bools, floats,
    strings and values out of bounds raise :class:`InvalidArgumentError`,
    so every count computed from the result stays an exact integer.
    """
    try:
        value = _index(value)
    except TypeError:
        raise InvalidArgumentError(f"{what} must be an integer, got {_shown(value)}") from None
    if least is not None and value < least or most is not None and value > most:
        bound = f">= {least}" if most is None else f"in {least}..{_shown(most)}"
        raise InvalidArgumentError(f"{what} must be {bound}, got {_shown(value)}")
    return value


def _flag(value, what: str) -> bool:
    """``value`` as a Python bool: Python and numpy bools pass, anything else
    (an int, a string, ``None``) raises :class:`InvalidArgumentError`, so a
    truthy ``"no"`` never switches a flag on.  A numpy bool exists only once
    numpy is imported, so reading one never imports it."""
    np = sys.modules.get("numpy")
    if isinstance(value, bool) or np is not None and isinstance(value, np.bool_):
        return bool(value)
    raise InvalidArgumentError(f"{what} must be a bool, got {_shown(value)}")
