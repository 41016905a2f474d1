"""Parsing of exact rationals for the CLI."""

from __future__ import annotations

import sys
from fractions import Fraction


def parse_rational(text: str) -> Fraction:
    """Parse "p" or "p/q" into a Fraction; q must be positive.

    A zero denominator raises ValueError, which argparse reports as a usage
    error like any other malformed rational. So does an exponent form whose
    numerator or denominator, written out, would have more digits than
    Python's integer-string limit, which a plain literal already meets; it is
    refused before Fraction expands the power of ten.
    """
    text = text.strip()
    mantissa, exponent_mark, exponent = text.lower().replace("_", "").partition("e")
    limit = sys.get_int_max_str_digits()
    if exponent_mark and limit:
        whole, _, decimals = mantissa.lstrip("+-").partition(".")
        shift = int(exponent) - len(decimals)
        digits = max(len(whole + decimals) + max(shift, 0), 1 + max(-shift, 0))
        if digits > limit:
            raise ValueError(f"a {digits}-digit numerator or denominator is past the {limit}-digit limit of integer input")
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {text!r}") from None
