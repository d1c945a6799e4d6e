from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from circlegather.angles import (
    cw_angle,
    format_angle,
    norm,
    parse_angle,
    parse_time,
)
from circlegather.errors import ParseError


angles = st.builds(
    Fraction,
    st.integers(min_value=0, max_value=1000),
    st.integers(min_value=1, max_value=64),
).map(lambda f: f % 1)


def test_norm_wraps_into_unit_interval():
    assert norm(Fraction(5, 4)) == Fraction(1, 4)
    assert norm(Fraction(-1, 4)) == Fraction(3, 4)
    assert norm(Fraction(0)) == 0
    assert norm(Fraction(2)) == 0


@given(angles)
def test_norm_returns_an_in_range_fraction_itself(a):
    assert norm(a) is a


@pytest.mark.parametrize(
    "x, expected",
    [
        (Fraction(-1, 4), Fraction(3, 4)),
        (Fraction(1), Fraction(0)),
        (Fraction(7, 3), Fraction(1, 3)),
        (3, Fraction(0)),
        (-1, Fraction(0)),
        ("5/4", Fraction(1, 4)),
        ("-1/3", Fraction(2, 3)),
        ("1/3", Fraction(1, 3)),
    ],
)
def test_norm_still_normalises_every_other_input(x, expected):
    result = norm(x)
    assert type(result) is Fraction and result == expected


def test_cw_and_ccw_angles():
    a, b = Fraction(1, 10), Fraction(4, 10)
    assert cw_angle(a, b) == Fraction(3, 10)
    assert cw_angle(b, a) == Fraction(7, 10)


@given(angles, angles)
def test_cw_plus_ccw_is_full_turn_or_both_zero(a, b):
    # The counter-clockwise angle from a to b is the clockwise one from b to a.
    cw, ccw = cw_angle(a, b), cw_angle(b, a)
    if a == b:
        assert cw == ccw == 0
    else:
        assert cw + ccw == 1




def test_format_and_parse_roundtrip():
    assert format_angle(Fraction(2, 20)) == "1/10"
    assert format_angle(Fraction(0)) == "0/1"
    assert format_angle(Fraction(5, 4)) == "1/4"
    assert format_angle(Fraction(-1, 4)) == "3/4"
    assert parse_angle("3/4") == Fraction(3, 4)
    assert parse_angle(" 3 / 4 ") == Fraction(3, 4)


@given(angles)
def test_parse_inverts_format(a):
    assert parse_angle(format_angle(a)) == a


@pytest.mark.parametrize("bad", ["", "3/0", "-1/4", "0.25", "5/4x", "1", "a/b", "\u0663/4"])
def test_parse_rejects_malformed(bad):
    with pytest.raises(ParseError):
        parse_angle(bad)


def test_parse_time_reads_the_angle_grammar_unreduced():
    assert parse_time("10") == 10
    assert parse_time("5/4") == Fraction(5, 4)
    assert parse_time(" 3 / 4 ") == Fraction(3, 4)
    assert parse_time("0") == 0


@pytest.mark.parametrize(
    "bad",
    ["", "3/0", "0.25", "5/4x", "a/b", "1/", "/4", None, 3]
    + ["-1", "3/-4", "+11", "1_0", "1/1_0", "1\u0660"],
)
def test_parse_time_rejects_what_parse_angle_rejects(bad):
    with pytest.raises(ParseError) as exc:
        parse_time(bad)
    assert str(exc.value) == f"expected a time of the form 'p/q' or 'p', got {bad!r}"
    with pytest.raises(ParseError):
        parse_angle(bad)


def test_literals_over_the_digit_limit_are_parse_errors():
    huge = "7" * 5000
    for parse, literal in ((parse_time, huge), (parse_angle, f"{huge}/3")):
        with pytest.raises(ParseError) as exc:
            parse(literal)
        assert "out of range" in str(exc.value)
