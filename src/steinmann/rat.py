"""Exact rational arithmetic support.

Everything in this library is computed over exact rationals; there is no
floating point anywhere.  We use ``gmpy2.mpq`` when it is installed (it is a
drop-in exact rational with much faster arithmetic, which matters for chamber
enumeration at n >= 5) and fall back to ``fractions.Fraction`` otherwise.
Both types normalize automatically, hash identically for equal values, and
print as ``p/q`` (or ``p`` when the denominator is 1).
"""

from __future__ import annotations

from fractions import Fraction

try:
    from gmpy2 import mpq as _mpq

    def rat(num=0, den=1):
        return _mpq(num, den)

    RAT_BACKEND = "gmpy2"
except ImportError:  # pragma: no cover - exercised only without gmpy2
    def rat(num=0, den=1):
        return Fraction(num, den)

    RAT_BACKEND = "fractions"

ZERO = rat(0)
ONE = rat(1)


def rat_str(x) -> str:
    """Serialize a rational as ``p/q``, eliding ``/1``."""
    f = Fraction(x)
    return f"{f.numerator}/{f.denominator}" if f.denominator != 1 else str(f.numerator)


def parse_rat(s: str):
    """Parse ``p/q`` or ``p`` (with optional sign) into an exact rational."""
    s = s.strip()
    if "/" in s:
        num, den = s.split("/", 1)
        return rat(int(num), int(den))
    return rat(int(s))


_RAT_TYPE = type(ZERO)


def as_rat(x):
    """Coerce ints, Fractions, mpqs and ``p/q`` strings to the rational backend.

    A value already of the backend's type is returned as it is.
    """
    if type(x) is _RAT_TYPE:
        return x
    if isinstance(x, str):
        return parse_rat(x)
    if isinstance(x, Fraction):
        return rat(x.numerator, x.denominator)
    return rat(x)
