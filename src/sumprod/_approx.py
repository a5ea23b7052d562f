"""Deterministic numeric helpers for rational-power arithmetic.

Pass/fail comparisons elsewhere are always exact (cross-exponentiation of
integers); the helpers here only produce reproducible decimal *renderings*
of irrational quantities such as |A|^{19/12} or log2|A|.  All outputs are
Fractions with a power-of-ten denominator, computed by integer floor
operations (or fixed-precision mpmath for oversized exponents), so repeated
runs agree bit for bit.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

import mpmath

DISPLAY_DIGITS = 40

# Above this common exponent denominator, exact cross-exponentiation is
# hopeless (e.g. the 4/3 + 1/20598 - 1e-6 exponent) and we fall back to
# fixed-precision mpmath.
_EXACT_ROOT_LIMIT = 512

_MPMATH_DPS = 80


def int_nth_root(n: int, k: int) -> int:
    """Floor of the k-th root of a nonnegative integer."""
    if n < 0:
        raise ValueError("negative radicand")
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


def nth_root_frac(value: Fraction, k: int) -> Fraction:
    """Deterministic decimal approximation of value^(1/k), floor-rounded."""
    if value < 0:
        raise ValueError("negative radicand")
    scale = 10 ** DISPLAY_DIGITS
    scaled = value.numerator * scale**k // value.denominator
    return Fraction(int_nth_root(scaled, k), scale)


def sqrt_frac(value: Fraction) -> Fraction:
    return nth_root_frac(value, 2)


def _mpmath_decimal(x) -> Fraction:
    scale = 10 ** DISPLAY_DIGITS
    return Fraction(int(mpmath.floor(x * scale)), scale)


def product_pow(factors: list[tuple[Fraction, Fraction]]) -> Fraction:
    """Deterministic approximation of prod base_i^{exp_i} for positive bases.

    When the common denominator of the exponents is small the value is
    computed as an exact rational power followed by one integer root;
    otherwise fixed-precision mpmath is used.
    """
    factors = [(Fraction(b), Fraction(e)) for b, e in factors]
    for b, _ in factors:
        if b <= 0:
            raise ValueError("bases must be positive")
    d = lcm(*(e.denominator for _, e in factors)) if factors else 1
    if d <= _EXACT_ROOT_LIMIT:
        acc = Fraction(1)
        for b, e in factors:
            acc *= b ** int(e * d)
        return nth_root_frac(acc, d)
    with mpmath.workdps(_MPMATH_DPS):
        acc = mpmath.mpf(1)
        for b, e in factors:
            bb = mpmath.mpf(b.numerator) / b.denominator
            ee = mpmath.mpf(e.numerator) / e.denominator
            acc *= mpmath.power(bb, ee)
        return _mpmath_decimal(acc)


def log2_frac(value: Fraction) -> Fraction:
    """Deterministic decimal approximation of log2(value), value > 0."""
    value = Fraction(value)
    if value <= 0:
        raise ValueError("log of nonpositive value")
    num, den = value.numerator, value.denominator
    if den == 1 and num & (num - 1) == 0:
        return Fraction(num.bit_length() - 1)
    with mpmath.workdps(_MPMATH_DPS):
        x = mpmath.mpf(num) / den
        return _mpmath_decimal(mpmath.log(x, 2))
