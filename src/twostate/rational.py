"""Parsing of exact rationals for the CLI."""

from __future__ import annotations

from fractions import Fraction


def parse_rational(text: str) -> Fraction:
    """Parse "p" or "p/q" into a Fraction; q must be positive.

    A zero denominator raises ValueError, which argparse reports as a usage
    error like any other malformed rational.
    """
    try:
        return Fraction(text.strip())
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {text!r}") from None
