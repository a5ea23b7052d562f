"""Scalar parsing, FiniteSet construction and dilation."""

from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, strategies as st

from sumprod import (
    DomainError,
    FiniteSet,
    ParseError,
    dilate,
    format_scalar,
    parse_scalar,
    parse_set_text,
)
from sumprod.exactset import as_scalar, scaled_integers

rationals = st.fractions(
    min_value=-1000, max_value=1000,
    max_denominator=50)
rational_sets = st.sets(rationals, min_size=1, max_size=12).map(FiniteSet)


def test_parse_scalar():
    assert parse_scalar("3/4") == Fraction(3, 4)
    assert parse_scalar("-7") == Fraction(-7)
    assert parse_scalar(" 5/10 ") == Fraction(1, 2)
    with pytest.raises(ParseError):
        parse_scalar("abc")
    with pytest.raises(DomainError):
        parse_scalar("1/-2")
    with pytest.raises(DomainError, match=r"not an exact scalar: 1\.5"):
        as_scalar(1.5)


def test_format_scalar_round_trip():
    for s in ["0", "-3", "7/2", "-11/13"]:
        assert format_scalar(parse_scalar(s)) == s


def test_empty_set_rejected():
    with pytest.raises(DomainError, match="empty set"):
        FiniteSet([])
    with pytest.raises(DomainError, match="empty set"):
        FiniteSet.from_sorted([])


def test_finite_set_basics():
    A = FiniteSet([1, 2, 3])
    assert 2 in A and 4 not in A
    assert A.min() == 1 and A.max() == 3
    assert not A.has_zero() and A.is_positive()
    assert A.inverse() == FiniteSet([1, Fraction(1, 2), Fraction(1, 3)])


def test_inverse_rejects_zero():
    with pytest.raises(DomainError):
        FiniteSet([0, 1]).inverse()


def test_lexicographic_order():
    assert FiniteSet([1, 2]) < FiniteSet([1, 3])
    assert FiniteSet([1, 2]) < FiniteSet([1, 2, 3])


def test_affine_image():
    A = FiniteSet([1, 2, 3])
    assert dilate(A, 2) == FiniteSet([2, 4, 6])
    assert dilate(A, "-1/2") == FiniteSet([Fraction(-3, 2), -1, Fraction(-1, 2)])
    with pytest.raises(DomainError, match="degenerate dilation"):
        dilate(A, 0)


@given(rational_sets, rationals.filter(lambda a: a != 0))
def test_dilation_preserves_cardinality(A, alpha):
    assert len(dilate(A, alpha)) == len(A)


@given(st.lists(rational_sets, min_size=1, max_size=4))
def test_scaled_integers_round_trip(sets):
    *ints, m = scaled_integers(*sets)
    assert m == lcm(*(a.denominator for A in sets for a in A))
    assert len(ints) == len(sets)
    for A, xs in zip(sets, ints):
        assert FiniteSet(Fraction(v, m) for v in xs) == A


class _CountedFraction(Fraction):
    hashes = 0

    def __hash__(self):
        type(self).hashes += 1
        return super().__hash__()


def test_a_finite_set_hashes_each_element_once():
    values = [_CountedFraction(v, 3) for v in (5, 1, 4, 2, 1, 7)]
    _CountedFraction.hashes = 0
    A = FiniteSet(values)
    assert _CountedFraction.hashes == len(values)
    assert A.elements == tuple(Fraction(v, 3) for v in (1, 2, 4, 5, 7))


def test_parse_set_text():
    A, dropped = parse_set_text("# header\n1\n2\n\n3\n")
    assert A == FiniteSet([1, 2, 3]) and dropped == 0
    A, dropped = parse_set_text("1/2\n2/4\n")
    assert A == FiniteSet([Fraction(1, 2)]) and dropped == 1


def test_parse_set_text_errors():
    with pytest.raises(ParseError, match="line 2"):
        parse_set_text("1\nxyz\n")
    with pytest.raises(ParseError, match="no values"):
        parse_set_text("# only a comment\n")
