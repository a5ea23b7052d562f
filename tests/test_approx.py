"""The integer renderings of `_approx` against their `Fraction` forms.

`int_nth_root_oracle` and `product_pow_oracle` are the earlier forms of
`int_nth_root` and `product_pow`: Newton from a power of two above the
root, and an exact `Fraction` product of the d-th powers.  They stay here
as the references the integer code is compared with.
"""

from fractions import Fraction
from math import lcm

import mpmath
import pytest
from hypothesis import given, settings, strategies as st

from sumprod import _approx
from sumprod._approx import DISPLAY_DIGITS, int_nth_root, product_pow


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


def product_pow_oracle(factors) -> Fraction:
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
    with mpmath.workdps(80):
        acc = mpmath.mpf(1)
        for b, e in factors:
            acc *= mpmath.power(mpmath.mpf(b.numerator) / b.denominator,
                                mpmath.mpf(e.numerator) / e.denominator)
        return Fraction(int(mpmath.floor(acc * scale)), scale)


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


def test_exponent_lcm_513_takes_the_mpmath_route(monkeypatch):
    def no_root(n, k):
        raise AssertionError("integer root taken")

    monkeypatch.setattr(_approx, "int_nth_root", no_root)
    factors = [(Fraction(7, 3), Fraction(1, 27)), (Fraction(11), Fraction(-2, 19))]
    assert lcm(27, 19) == 513
    assert product_pow(factors) == product_pow_oracle(factors)
    with pytest.raises(AssertionError, match="integer root taken"):
        product_pow([(Fraction(7, 3), Fraction(1, 512)), (Fraction(11), Fraction(-2, 256))])
