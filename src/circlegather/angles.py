"""Exact angular arithmetic on the unit circle.

Angles are rational numbers of turns, normalised to [0, 1). One turn is 1,
so the half turn is exactly 1/2 and every derived quantity stays closed
under rational arithmetic.
Nothing in here touches floating point: antipodality, coincidence and
symmetry must be decidable exactly.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Union

from .errors import ParseError

Rational = Union[Fraction, int, str]

HALF_TURN = Fraction(1, 2)
QUARTER_TURN = Fraction(1, 4)

#: The one grammar of angle and time literals: ASCII digits, then an
#: optional ``/q`` with q >= 1. An angle needs the ``/q``.
_RATIONAL_RE = re.compile(r"^\s*(\d+)\s*(?:/\s*([1-9]\d*)\s*)?$", re.ASCII)


def norm(x: Rational) -> Fraction:
    """Canonical representative of ``x`` in [0, 1).

    A ``Fraction`` already in [0, 1) is returned as it is (most callers pass
    positions and offsets that are), so it costs no new ``Fraction``.
    """
    if type(x) is Fraction and 0 <= x.numerator < x.denominator:
        return x
    return Fraction(x) % 1


def cw_angle(a: Rational, b: Rational) -> Fraction:
    """Angular distance travelled clockwise from ``a`` to ``b``."""
    return (Fraction(b) - Fraction(a)) % 1


def format_angle(a: Rational) -> str:
    """Serialise an angle as ``"p/q"`` in lowest terms with 0 <= p < q."""
    f = norm(a)
    return f"{f.numerator}/{f.denominator}"


def _parse_rational(text, noun: str, expected: str, whole: bool) -> Fraction:
    """``text`` as a nonnegative rational, unreduced; ``whole`` admits ``"p"``."""
    m = _RATIONAL_RE.match(text) if isinstance(text, str) else None
    if m is None or not (whole or m.group(2)):
        raise ParseError(f"expected {expected}, got {text!r}")
    try:
        return Fraction(int(m.group(1)), int(m.group(2) or 1))
    except ValueError as exc:
        # Python refuses to convert an integer string over its digit limit.
        raise ParseError(f"{noun} out of range: {exc}")


def parse_angle(text: str) -> Fraction:
    """Parse a ``"p/q"`` angle literal; anything else is a :class:`ParseError`."""
    return norm(_parse_rational(text, "angle", "an angle of the form 'p/q'", whole=False))


def parse_time(text: str) -> Fraction:
    """Parse a ``"p/q"`` or ``"p"`` time literal; anything else is a :class:`ParseError`."""
    return _parse_rational(text, "time", "a time of the form 'p/q' or 'p'", whole=True)
