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


def test_format_roundtrip():
    # the CLI prints str() of a Fraction, which the parser reads back
    values = (F(0), F(5), F(-7, 3), F(1, 2), F(6, 4))
    encoded = [str(v) for v in values]
    assert encoded == ["0", "5", "-7/3", "1/2", "3/2"]
    assert tuple(map(parse_rational, encoded)) == values
