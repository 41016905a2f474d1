"""Parsing and formatting of exact rationals for the CLI and JSON interfaces."""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Sequence


def parse_rational(text: str) -> Fraction:
    """Parse "p" or "p/q" into a Fraction; q must be positive.

    A zero denominator raises ValueError, which argparse reports as a usage
    error like any other malformed rational.
    """
    try:
        return Fraction(text.strip())
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {text!r}") from None


def format_rational(value: Fraction) -> str:
    return str(Fraction(value))


def parse_rationals(items: Iterable[str]) -> tuple[Fraction, ...]:
    return tuple(parse_rational(item) for item in items)


def format_rationals(values: Sequence[Fraction]) -> list[str]:
    return [format_rational(v) for v in values]
