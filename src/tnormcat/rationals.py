"""Exact truth values: rationals in [0,1].

All hom values and t-norm arguments in this package are `fractions.Fraction`
instances.  Fraction already guarantees the representation invariants
(reduced, positive denominator); this module adds the [0,1] range checks and
the "num/den" text form used by every JSON schema and CLI flag.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .errors import InputError

ZERO = Fraction(0)
ONE = Fraction(1)
# the exponent part of Fraction's string form: E, an optional sign, a digit
_EXPONENT = re.compile(r"e[-+]?\d", re.IGNORECASE)


def check_unit(value: Fraction, where: str = "value") -> Fraction:
    """Return value unchanged, or raise InputError if it lies outside [0,1]."""
    num, den = value.as_integer_ratio()
    if not 0 <= num <= den:
        raise InputError(f"{where} must lie in [0,1], got {value}")
    return value


def parse_rational(text, where: str = "rational") -> Fraction:
    """Parse a truth value from its text form.

    Accepts "num/den" and plain "num" strings (also bare ints, a leniency for
    hand-written JSON), and the other forms of ``Fraction(str)``: decimals
    ("0.25"), a sign, ``_`` between digits and surrounding whitespace.
    Exponent forms ("1e-3") raise InputError before ``Fraction`` sees them:
    it computes ``10**exp`` first, so "1E5000" could not even be printed in
    the range error, and "1e999999999" would build a billion-digit integer.
    Rejects anything outside [0,1].

    A "num" or "num/den" string of decimal digits, the form of every value
    a report writes, skips ``Fraction``'s regular expression: ``int()``
    takes the same digits (its ``\\d``) at about a third of the cost.  On
    every string without an exponent the value, its type and each error
    message are those of ``Fraction(text.strip())``, which
    ``tests/oracles.py`` keeps as the test reference.
    """
    if isinstance(text, bool):
        raise InputError(f"{where}: expected a rational string, got {text!r}")
    if isinstance(text, int):
        return check_unit(Fraction(text), where)
    if not isinstance(text, str):
        raise InputError(f"{where}: expected a rational string, got {text!r}")
    num, slash, den = text.partition("/")
    plain = num.isdecimal() and (den.isdecimal() or not slash)
    if not plain and _EXPONENT.search(text):
        raise InputError(
            f"{where}: cannot parse rational {text!r}: exponent forms are not accepted"
        )
    try:
        value = Fraction(int(num), int(den) if slash else 1) if plain else Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise InputError(f"{where}: cannot parse rational {text!r}: {exc}") from exc
    return check_unit(value, where)


def format_rational(value: Fraction) -> str:
    """Render as "num/den", or plain "num" for integers (so 1 stays "1")."""
    return str(value)
