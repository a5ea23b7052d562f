"""Deterministic numeric helpers for rational-power arithmetic.

Pass/fail comparisons elsewhere are always exact (cross-exponentiation of
integers); the helpers here only produce reproducible decimal *renderings*
of irrational quantities such as |A|^{19/12} or log2|A|.  All outputs are
Fractions with a power-of-ten denominator, so repeated runs agree bit for
bit.  When the exponents' common denominator d is at most 512, a product
of powers is rendered all in integers: the numerator and denominator of
the d-th power, then one floor of an integer d-th root.  Larger d, and
logarithms, are the floor of an 80-digit approximation in the standard
library's `decimal`, whose `ln` and `**` follow the General Decimal
Arithmetic specification.
"""

from __future__ import annotations

from decimal import ROUND_FLOOR, Context, Decimal, localcontext
from fractions import Fraction
from math import isqrt, lcm, log2

DISPLAY_DIGITS = 40

# Above this common exponent denominator, exact cross-exponentiation is
# hopeless (e.g. the 4/3 + 1/20598 - 1e-6 exponent) and we fall back to
# fixed-precision decimal arithmetic.
_EXACT_ROOT_LIMIT = 512

_DECIMAL_DIGITS = 80


def int_nth_root(n: int, k: int) -> int:
    """Floor of the k-th root of a nonnegative integer."""
    if n < 0:
        raise ValueError("negative radicand")
    if n == 0:
        return 0
    if k == 1:
        return n
    if k == 2:
        return isqrt(n)
    # Newton from above.  Write n = m·2^(ke) + r with r < 2^(ke).  The float
    # 2^(log2(m)/k) is within a relative 2^-45 of m^(1/k), and when e > 0, m
    # has at least 53k bits, so (m+1)^(1/k) is no further off: the 2^-40
    # margin puts x above n^(1/k).  By AM-GM each step stays at or above
    # the floor of the root, and it falls strictly until it gets there.
    e = max(0, n.bit_length() // k - 53)
    x = (int(2 ** (log2(n >> (k * e)) / k) * (1 + 2**-40)) + 1) << e
    while True:
        y = ((k - 1) * x + n // x ** (k - 1)) // k
        if y >= x:
            return x
        x = y


def _decimal_floor(x: Decimal) -> Fraction:
    """x floored to DISPLAY_DIGITS places; call it inside the working context."""
    scaled = x.scaleb(DISPLAY_DIGITS).to_integral_value(ROUND_FLOOR)
    return Fraction(int(scaled), 10 ** DISPLAY_DIGITS)


def product_pow(factors: list[tuple[Fraction, Fraction]]) -> Fraction:
    """Deterministic approximation of prod base_i^{exp_i} for positive bases.

    Bases and exponents are ints or Fractions.  When the common
    denominator d of the exponents is small the value is the floor of the
    d-th root of num/den, where num/den (not reduced) is the product of
    the d-th powers; otherwise it is the floor of an 80-digit decimal
    product.
    """
    for b, _ in factors:
        if b <= 0:
            raise ValueError("bases must be positive")
    d = lcm(*(e.denominator for _, e in factors))
    if d <= _EXACT_ROOT_LIMIT:
        num = den = 1
        for b, e in factors:
            k = e.numerator * (d // e.denominator)
            p, q = (b.numerator, b.denominator) if k >= 0 else (b.denominator, b.numerator)
            num *= p ** abs(k)
            den *= q ** abs(k)
        scale = 10 ** DISPLAY_DIGITS
        return Fraction(int_nth_root(num * scale**d // den, d), scale)
    with localcontext(Context(prec=_DECIMAL_DIGITS)):
        acc = Decimal(1)
        for b, e in factors:
            acc *= (Decimal(b.numerator) / b.denominator) ** (Decimal(e.numerator) / e.denominator)
        return _decimal_floor(acc)


def sqrt_frac(value: Fraction) -> Fraction:
    """sqrt(value) for value > 0, floor-rounded: the integer-root `product_pow`."""
    return product_pow([(value, Fraction(1, 2))])


def log2_frac(n: int) -> Fraction:
    """Deterministic decimal approximation of log2(n) for an integer n > 0."""
    if n <= 0:
        raise ValueError("log of nonpositive value")
    if n & (n - 1) == 0:
        return Fraction(n.bit_length() - 1)
    with localcontext(Context(prec=_DECIMAL_DIGITS)):
        return _decimal_floor(Decimal(n).ln() / Decimal(2).ln())
