"""The exact elements of the rational field: an integral value of the
constants, `of`, `inv` and `div` is a plain int, any other is a Fraction,
and no operation yields a float."""

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from quiverhom.fields import QQ


def assert_canonical_value(x, value):
    assert x == value
    assert type(x) is (int if value.denominator == 1 else Fraction), (x, value)


def test_constants_are_ints():
    assert type(QQ.zero) is int and QQ.zero == 0
    assert type(QQ.one) is int and QQ.one == 1


@pytest.mark.parametrize("x", [3, -2, Fraction(4, 2), Fraction(1, 2), "5/3", True])
def test_of_is_canonical(x):
    assert_canonical_value(QQ.of(x), Fraction(x))


def test_div_and_inv_of_ints_stay_exact():
    assert_canonical_value(QQ.div(1, 2), Fraction(1, 2))
    assert_canonical_value(QQ.div(4, 2), Fraction(2))
    assert_canonical_value(QQ.div(-3, 2), Fraction(-3, 2))
    assert_canonical_value(QQ.div(3, -1), Fraction(-3))
    assert_canonical_value(QQ.inv(2), Fraction(1, 2))
    assert_canonical_value(QQ.inv(-1), Fraction(-1))
    assert_canonical_value(QQ.inv(Fraction(1, 3)), Fraction(3))
    assert_canonical_value(QQ.inv(Fraction(-2, 3)), Fraction(-3, 2))
    with pytest.raises(ZeroDivisionError):
        QQ.inv(0)
    with pytest.raises(ZeroDivisionError):
        QQ.div(1, Fraction(0))


def test_an_int_formats_as_its_fraction():
    for x in (0, 7, -3):
        assert QQ.fmt(x) == QQ.fmt(Fraction(x)) == str(x)
    assert QQ.fmt(Fraction(-3, 4)) == "-3/4"


rationals = st.one_of(st.integers(-50, 50), st.fractions(max_denominator=12))


@given(rationals, rationals)
def test_arithmetic_is_exact(a, b):
    exact = (int, Fraction)
    for x in (QQ.add(a, b), QQ.sub(a, b), QQ.mul(a, b), QQ.neg(a)):
        assert type(x) in exact
    if b:
        assert_canonical_value(QQ.div(a, b), Fraction(a) / Fraction(b))
        assert_canonical_value(QQ.inv(b), 1 / Fraction(b))
