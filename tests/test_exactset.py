"""Scalar parsing, FiniteSet construction and dilation."""

from fractions import Fraction
from math import lcm

import pytest
from hypothesis import example, given, settings, strategies as st

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


def test_constructing_a_finite_set_hashes_no_element():
    # duplicates are dropped and the order found on the scaled integers
    values = [_CountedFraction(v, 3) for v in (5, 1, 4, 2, 1, 7)]
    _CountedFraction.hashes = 0
    A = FiniteSet(values)
    assert _CountedFraction.hashes == 0
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


# -- every FiniteSet operation against a sorted list of distinct Fractions ---

def reference(values) -> list[Fraction]:
    return sorted(set(map(Fraction, values)))


def spelled(x: Fraction):
    """x as an int, a Fraction or an unreduced 'p/q' string."""
    return st.sampled_from([x, f"{x.numerator * 2}/{x.denominator * 2}"]
                           + ([int(x)] if x.denominator == 1 else []))


oracle_fractions = st.fractions(min_value=-20, max_value=20, max_denominator=8)
spelled_lists = st.lists(oracle_fractions.flatmap(spelled), min_size=1, max_size=8)


@st.composite
def related_value_lists(draw):
    """Two value lists with duplicates in each, the second often sharing the first's values."""
    xs = draw(spelled_lists)
    ys = draw(st.lists(st.sampled_from(xs), max_size=len(xs)))
    ys += draw(st.lists(oracle_fractions.flatmap(spelled), min_size=0 if ys else 1, max_size=4))
    return xs, ys


@settings(max_examples=150, deadline=None)
@given(related_value_lists(), oracle_fractions, st.integers(1, 3))
@example(([1, 3], [Fraction(1, 2), "3/2"]), Fraction(3, 2), 2)  # equal integers, other m
def test_finite_set_matches_a_sorted_fraction_list(values, probe, k):
    xs, ys = values
    ra, rb = reference(xs), reference(ys)
    A, B = FiniteSet(xs), FiniteSet(ys)
    for S, r in ((A, ra), (B, rb), (FiniteSet.from_sorted(ra), ra)):
        assert S.elements == tuple(r) and list(S) == r and len(S) == len(r)
        assert all(type(x) is Fraction for x in S)
        assert all(x in S for x in r) and (probe in S) == (probe in r)
        assert (format_scalar(probe) in S) == (probe in r)
        assert S.has_zero() == (0 in r) and S.is_positive() == (r[0] > 0)
        assert (S.min(), S.max()) == (r[0], r[-1])
        assert (S == A) == (r == ra)
    assert FiniteSet.from_sorted(ra) == A and hash(FiniteSet.from_sorted(ra)) == hash(A)
    assert (A == B) == (ra == rb) and (A <= B) == set(ra).issubset(rb)
    assert (B <= A) == set(rb).issubset(ra) and (A < B) == (ra < rb)
    if ra == rb:
        assert hash(A) == hash(B)

    union, common = sorted(set(ra) | set(rb)), sorted(set(ra) & set(rb))
    for got, r in ((A.union(B), union), (A.intersect(B), common)):
        if not r:
            assert got is None
            continue
        assert got.elements == tuple(r)
        fresh = FiniteSet(r)
        assert got == fresh and hash(got) == hash(fresh) and got <= FiniteSet(union)
    if 0 in ra:
        with pytest.raises(DomainError):
            A.inverse()
    else:
        assert A.inverse() == FiniteSet(reference(1 / x for x in ra))
        assert A.inverse().elements == tuple(reference(1 / x for x in ra))
    if probe:
        assert dilate(A, probe).elements == tuple(reference(probe * x for x in ra))

    # scaled_integers of 1-3 sets, rebuilt from scratch
    sets = [A, B, A.union(B)][:k]
    refs = [ra, rb, union][:k]
    m = lcm(*(x.denominator for r in refs for x in r))
    *ints, got_m = scaled_integers(*sets)
    assert got_m == m
    assert ints == [[x.numerator * (m // x.denominator) for x in r] for r in refs]
