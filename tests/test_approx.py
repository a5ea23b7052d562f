"""The renderings of `_approx` against independent references.

`int_nth_root_oracle` and the exact branch of `product_pow_oracle` are the
earlier forms of `int_nth_root` and `product_pow`: Newton from a power of
two above the root, and an exact `Fraction` product of the d-th powers.
For exponent denominators above 512 and for logarithms, the library
floors an 80-digit `decimal` value; the reference here is mpmath at 120
digits, which the library does not import.
"""

import decimal
from fractions import Fraction
from math import lcm

import mpmath
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from sumprod import _approx
from sumprod._approx import DISPLAY_DIGITS, int_nth_root, log2_frac, product_pow
from sumprod.verify import SOLPLUS_C

ORACLE_DIGITS = 120


def int_nth_root_oracle(n: int, k: int) -> int:
    if n == 0:
        return 0
    if k == 1:
        return n
    x = 1 << (n.bit_length() // k + 1)
    while True:
        y = ((k - 1) * x + n // x ** (k - 1)) // k
        if y >= x:
            break
        x = y
    while x ** k > n:
        x -= 1
    return x


def reference_floor(x) -> Fraction | None:
    """The 120-digit mpmath value x floored to DISPLAY_DIGITS places, or None
    when x lies within 10^-70 max(1, x) of a multiple of 10^-DISPLAY_DIGITS.

    The library floors an 80-digit value, whose relative error is of order
    10^-78.  Within that distance of a multiple of 10^-40 the 80-digit floor
    may fall on either side, so such a draw (an exact power such as
    (2^513)^(1/513) = 2 among them) says nothing about the rendering and is
    skipped.  The margin scales with x because the error does.
    """
    scaled = x * 10**DISPLAY_DIGITS
    below = mpmath.floor(scaled)
    margin = mpmath.mpf(10) ** -30 * max(1, x)
    if min(scaled - below, below + 1 - scaled) < margin:
        return None
    return Fraction(int(below), 10**DISPLAY_DIGITS)


def product_pow_oracle(factors) -> Fraction | None:
    factors = [(Fraction(b), Fraction(e)) for b, e in factors]
    assert all(b > 0 for b, _ in factors)
    d = lcm(*(e.denominator for _, e in factors)) if factors else 1
    scale = 10 ** DISPLAY_DIGITS
    if d <= 512:
        acc = Fraction(1)
        for b, e in factors:
            acc *= b ** int(e * d)
        return Fraction(int_nth_root_oracle(acc.numerator * scale**d // acc.denominator, d),
                        scale)
    with mpmath.workdps(ORACLE_DIGITS):
        acc = mpmath.mpf(1)
        for b, e in factors:
            acc *= mpmath.power(mpmath.mpf(b.numerator) / b.denominator,
                                mpmath.mpf(e.numerator) / e.denominator)
        return reference_floor(acc)


def log2_oracle(n: int) -> Fraction | None:
    with mpmath.workdps(ORACLE_DIGITS):
        return reference_floor(mpmath.log(n, 2))


@st.composite
def radicands(draw):
    """(n, k): an integer of up to 4000 bits, or a perfect k-th power, or one off it."""
    k = draw(st.integers(1, 24))
    if draw(st.booleans()):
        return draw(st.integers(0, 1 << draw(st.integers(1, 4000)))), k
    root = draw(st.integers(1, 1 << draw(st.integers(1, 160))))
    return max(0, root**k + draw(st.integers(-1, 1))), k


@settings(max_examples=300, deadline=None)
@given(radicands())
def test_int_nth_root_matches_the_oracle(nk):
    n, k = nk
    r = int_nth_root(n, k)
    assert r == int_nth_root_oracle(n, k)
    assert r**k <= n < (r + 1) ** k


positive_bases = st.one_of(
    st.fractions(min_value=Fraction(1, 10**6), max_value=10**6, max_denominator=10**6),
    # the shape of a log2 rendering: 40 decimal digits
    st.integers(1, 10**42).map(lambda p: Fraction(p, 10**DISPLAY_DIGITS)),
    st.integers(1, 2**40))


@st.composite
def factor_lists(draw):
    """Up to four (base, exponent) pairs whose exponent denominators all
    divide one d <= 512, with exponents in [-2, 2]: negative, zero and integer
    exponents among them."""
    d = draw(st.integers(1, 512))
    divisors = [q for q in range(1, d + 1) if d % q == 0]
    factors = []
    for _ in range(draw(st.integers(0, 4))):
        q = draw(st.sampled_from(divisors))
        e = Fraction(draw(st.integers(-2 * q, 2 * q)), q)
        base = draw(positive_bases)
        factors.append((base, e if e.denominator > 1 or draw(st.booleans()) else int(e)))
    return factors


@settings(max_examples=150, deadline=None)
@given(factor_lists())
def test_product_pow_matches_the_fraction_form(factors):
    assert product_pow(factors) == product_pow_oracle(factors)


def test_product_pow_of_no_factors_and_a_nonpositive_base():
    assert product_pow([]) == 1
    with pytest.raises(ValueError, match="bases must be positive"):
        product_pow([(Fraction(-1, 2), Fraction(1, 3))])


def test_int_nth_root_refuses_a_negative_radicand():
    with pytest.raises(ValueError, match="negative radicand"):
        int_nth_root(-1, 2)


def test_exponent_lcm_513_takes_the_decimal_route(monkeypatch):
    def no_root(n, k):
        raise AssertionError("integer root taken")

    monkeypatch.setattr(_approx, "int_nth_root", no_root)
    factors = [(Fraction(7, 3), Fraction(1, 27)), (Fraction(11), Fraction(-2, 19))]
    assert lcm(27, 19) == 513
    assert product_pow(factors) == product_pow_oracle(factors)
    with pytest.raises(AssertionError, match="integer root taken"):
        product_pow([(Fraction(7, 3), Fraction(1, 512)), (Fraction(11), Fraction(-2, 256))])


SOLPLUS_EXPONENT = Fraction(4, 3) + SOLPLUS_C


@st.composite
def fallback_factor_lists(draw):
    """One to four (base, exponent) pairs whose exponent denominators have an
    lcm above 512: bases p/q with p, q <= 10^12, and exponents in [-2, 2],
    the first of them often SOLPLUS's 4/3 + c or its negative."""
    def base():
        return draw(st.one_of(st.integers(2, 10**12),
                              st.builds(Fraction, st.integers(1, 10**12), st.integers(1, 10**12))))

    q = draw(st.integers(513, 10**6))
    first = draw(st.one_of(st.sampled_from([SOLPLUS_EXPONENT, -SOLPLUS_EXPONENT]),
                           st.integers(-2 * q, 2 * q).map(lambda p: Fraction(p, q))))
    factors = [(base(), first)]
    for _ in range(draw(st.integers(0, 3))):
        factors.append((base(), draw(st.fractions(-2, 2, max_denominator=1000))))
    assume(lcm(*(e.denominator for _, e in factors)) > 512)
    return factors


@settings(max_examples=300, deadline=None)
@given(fallback_factor_lists())
@example([(3001, SOLPLUS_EXPONENT)])  # SOLPLUS's rhs and ratio, as the registry asks them
@example([(3001 * 3002 // 2, 1), (3001, -SOLPLUS_EXPONENT)])
def test_fallback_products_are_the_floor_of_the_value(factors):
    expected = product_pow_oracle(factors)
    assume(expected is not None)
    assert product_pow(factors) == expected


@settings(max_examples=300, deadline=None)
@given(st.integers(3, 10**12).filter(lambda n: n & (n - 1)))
def test_log2_is_the_floor_of_the_value(n):
    expected = log2_oracle(n)
    assume(expected is not None)
    assert log2_frac(n) == expected


def test_log2_of_a_power_of_two_and_of_a_nonpositive_integer():
    assert log2_frac(1) == 0 and log2_frac(2**40) == 40
    for n in (0, -4):
        with pytest.raises(ValueError, match="log of nonpositive value"):
            log2_frac(n)


def test_renderings_ignore_and_keep_the_callers_decimal_context():
    factors = [(Fraction(7, 3), Fraction(1, 27)), (Fraction(11), Fraction(-2, 19))]
    before = repr(decimal.getcontext())
    expected = product_pow(factors), log2_frac(3)
    assert repr(decimal.getcontext()) == before
    with decimal.localcontext(decimal.Context(prec=6, rounding=decimal.ROUND_CEILING)) as ctx:
        before = repr(ctx)
        assert (product_pow(factors), log2_frac(3)) == expected
        assert repr(decimal.getcontext()) == before
