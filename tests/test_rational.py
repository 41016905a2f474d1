import sys
from fractions import Fraction as F

import pytest

from twostate.rational import parse_rational


def test_parse_integer():
    assert parse_rational("7") == 7


def test_parse_fraction():
    assert parse_rational("-3/4") == F(-3, 4)
    assert parse_rational(" 1/2 ") == F(1, 2)


def test_parse_rejects_garbage():
    with pytest.raises(ValueError):
        parse_rational("x/y")


@pytest.mark.parametrize("text,value", [
    ("1e4299", F(10) ** 4299), ("-1e-4299", -F(1, 10**4299)), ("1.5e4298", 15 * F(10) ** 4297), ("3e-4299", F(3, 10**4299)),
])
def test_exponent_form_at_the_digit_limit_is_read(text, value):
    # 4,300 digits written out: the numerator 10^4299, the denominator 10^4299
    assert sys.get_int_max_str_digits() == 4300
    assert parse_rational(text) == value


@pytest.mark.parametrize("text", ["1e4300", "-1e-4300", "1.5e4300", "3e-4300", "0e4300"])
def test_exponent_form_past_the_digit_limit_is_refused(text):
    # one digit more is refused before Fraction builds the power of ten
    with pytest.raises(ValueError, match="^a 4301-digit numerator or denominator is past the 4300-digit limit"):
        parse_rational(text)


def test_format_roundtrip():
    # the CLI prints str() of a Fraction, which the parser reads back
    values = (F(0), F(5), F(-7, 3), F(1, 2), F(6, 4))
    encoded = [str(v) for v in values]
    assert encoded == ["0", "5", "-7/3", "1/2", "3/2"]
    assert tuple(map(parse_rational, encoded)) == values
