"""Arithmetic statistics of finite rational sets.

Sumsets, product/quotient sets, representation functions, additive and
multiplicative energies, the fiber decomposition A_lambda = A ∩ lambda*A
with its dyadic spectrum, and certified upper bounds for the doubling
functional min_C |AC|^2/(|A||C|).

All counting is exact and goes through one kernel, `pair_counts`, which
keys each pair a∘b by an integer (scaled sums, differences and products,
or a reduced quotient packed into one integer) and counts the keys with
numpy int64 when that is safe, with a Python-int Counter otherwise.
Fractions are built only for the distinct values a caller gets back.
`SetContext` holds the A+A, AA and A/A kernel results of one set and is
the only reader of their format; every per-set statistic reads one.
"""

from __future__ import annotations

import operator
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import combinations
from math import floor, gcd

import numpy as np

from ._approx import log2_frac
from .exactset import (DomainError, FiniteSet, ResourceError, Scalar, as_scalar, dilate,
                       scaled_integers)

# numpy runs when every integer entering a key, and the number of pairs,
# is below this: sums and products of two stay below 2^62, a packed
# quotient below 2^63, and the sum of squared counts below 2^62.
_INT64_SAFE = 1 << 31
_OUTER = {"add": np.add.outer, "sub": np.subtract.outer, "mul": np.multiply.outer}
_D_UPPER_PAIR_BUDGET = 4_000_000
QUADRUPLE_LIMIT = 250_000


def _counted(keys) -> tuple[np.ndarray, np.ndarray]:
    """The distinct keys and their counts: numpy for an int64 array, a Counter for Python ints."""
    if isinstance(keys, np.ndarray) and keys.dtype != object:
        return np.unique(keys, return_counts=True)
    counts = Counter(keys)
    return np.array(list(counts), dtype=object), np.array(list(counts.values()), dtype=object)


def _quotient_key(p: int, q: int, shift: int) -> int:
    g = gcd(p, q) if q > 0 else -gcd(p, q)
    return ((p // g) << shift) + q // g


def _quotient_keys(left, right):
    """Row-major keys of the quotients (u·v)/(w·z) over (u, w) in left, (v, z)
    in right, and their shift: an int64 array, or Python ints past 2^31."""
    (u, w), (v, z) = left, right
    p_max = max(map(abs, u)) * max(map(abs, v))
    q_max = max(map(abs, w)) * max(map(abs, z))
    if max(p_max, q_max, len(u) * len(v)) < _INT64_SAFE:
        p = np.multiply.outer(np.array(u, np.int64), np.array(v, np.int64))
        q = np.multiply.outer(np.array(w, np.int64), np.array(z, np.int64))
        g = np.gcd(p, q) * np.sign(q)
        return (((p // g) << 32) + q // g).ravel(), 32
    shift = q_max.bit_length()
    return (_quotient_key(a * c, b * d, shift) for a, b in zip(u, w) for c, d in zip(v, z)), shift


def _pair_keys(A, B, op: str):
    """(keys, counts, pairs, den, shift) of a∘b over A×B.

    With shift None the key k stands for k/den, so key order is value
    order; otherwise k packs the reduced quotient p/q, q > 0, as
    p·2^shift + q.  The numpy path returns the keys sorted.  For 'div',
    pairs holds the key of every pair, row-major; it is None for the other ops.
    """
    if op not in ("add", "sub", "mul", "div"):
        raise DomainError(f"unknown mode {op!r}")
    if op == "div":
        B = [b for b in B if b != 0]
        if not B:
            raise DomainError("no nonzero divisors")
    if op == "mul":
        (x, ma), (y, mb) = scaled_integers(A), scaled_integers(B)
        den = ma * mb
    else:
        x, y, den = scaled_integers(A, B)
        if op == "div":
            # a quotient does not change when both sides are scaled alike
            keys, shift = _quotient_keys((x, [1] * len(x)), ([1] * len(y), y))
            pairs = keys if isinstance(keys, np.ndarray) else np.array(list(keys), dtype=object)
            return (*_counted(pairs), pairs, None, shift)
    if max(*map(abs, x), *map(abs, y), len(x) * len(y)) < _INT64_SAFE:
        keys = _OUTER[op](np.array(x, np.int64), np.array(y, np.int64))
        return (*np.unique(keys, return_counts=True), None, den, None)
    if op == "mul" and den > 1:
        # A large common denominator (that of A/A, say) blows the scaled
        # integers up; key on the reduced products of the element pairs.
        keys, shift = _quotient_keys(([a.numerator for a in A], [a.denominator for a in A]),
                                     ([b.numerator for b in B], [b.denominator for b in B]))
        return (*_counted(keys), None, None, shift)
    combine = getattr(operator, op)
    return (*_counted(combine(a, b) for a in x for b in y), None, den, None)


def pair_counts(A: FiniteSet, B: FiniteSet, op: str) -> tuple[np.ndarray, np.ndarray]:
    """Integer keys of the values a∘b over A×B, and how many pairs give each.

    op is 'add', 'sub', 'mul' or 'div' ('div' skips b = 0).  The keys are
    distinct and equal exactly when the values are, so |A∘B| = len(keys)
    and the energy is sum(counts²).  Both arrays are int64 on the numpy path
    and of Python ints otherwise.
    """
    return _pair_keys(A, B, op)[:2]


def _ordered(result, idx=None) -> tuple[list[Fraction], list[int], list[int]]:
    """The distinct values of a `_pair_keys` result, or of its keys at the
    indices idx, in increasing order, with their counts and key indices."""
    keys, counts, _, den, shift = result
    idx = np.arange(len(keys)) if idx is None else idx
    triples = zip(keys[idx].tolist(), counts[idx].tolist(), idx.tolist())
    if shift is None:
        triples = sorted(triples)
        values = [Fraction(k, den) for k, _, _ in triples]
    else:
        mask = (1 << shift) - 1
        # distinct p/q with q < 2^shift differ by more than 2^(-2 shift), so
        # floor(p 2^(2 shift) / q) orders them
        triples = sorted(triples, key=lambda t: ((t[0] >> shift) << 2 * shift) // (t[0] & mask))
        values = [Fraction(k >> shift, k & mask) for k, _, _ in triples]
    return values, [c for _, c, _ in triples], [i for _, _, i in triples]


# -- pairwise operation sets ----------------------------------------------

def sumset(A: FiniteSet, B: FiniteSet) -> FiniteSet:
    """{a+b : a in A, b in B}."""
    return FiniteSet.from_sorted(_ordered(_pair_keys(A, B, "add"))[0])


def differenceset(A: FiniteSet, B: FiniteSet) -> FiniteSet:
    """{a-b : a in A, b in B}."""
    return FiniteSet.from_sorted(_ordered(_pair_keys(A, B, "sub"))[0])


def productset(A: FiniteSet, B: FiniteSet) -> FiniteSet:
    """{ab : a in A, b in B}."""
    return FiniteSet.from_sorted(_ordered(_pair_keys(A, B, "mul"))[0])


def quotientset(A: FiniteSet, B: FiniteSet) -> FiniteSet:
    """{a/b : a in A, b in B, b != 0}."""
    return FiniteSet.from_sorted(_ordered(_pair_keys(A, B, "div"))[0])


def rep_counts(A: FiniteSet, B: FiniteSet, mode: str) -> Counter:
    """Representation function of a o b: counts[x] = #{(a,b) : a o b = x}.

    mode 'div' skips pairs with b = 0 (mirrors the b != 0 in A/B).
    """
    return Counter(dict(zip(*_ordered(_pair_keys(A, B, mode))[:2])))


def _energy_sets(A: FiniteSet, B: FiniteSet | None, mode: str) -> FiniteSet:
    """B (A when None), after the argument checks of `energy` and its oracle."""
    B = A if B is None else B
    if mode not in ("add", "mul"):
        raise DomainError(f"energy mode must be add or mul, got {mode!r}")
    if mode == "mul" and (A.has_zero() or B.has_zero()):
        raise DomainError("zero element in multiplicative energy")
    return B


def energy(A: FiniteSet, B: FiniteSet | None = None, mode: str = "add") -> int:
    """E = sum_x r(x)^2 where r is the add/mul representation function.

    This equals the number of quadruples (a1,b1,a2,b2) with
    a1 o b1 = a2 o b2.  mode 'mul' requires 0 outside both sets.
    """
    _, counts = pair_counts(A, _energy_sets(A, B, mode), mode)
    return int(counts @ counts)


def energy_by_quadruples(A: FiniteSet, B: FiniteSet | None = None,
                         mode: str = "add") -> int:
    """Independent O(|A|^2|B|^2) oracle for `energy`: enumerate quadruples."""
    B = _energy_sets(A, B, mode)
    if (len(A) * len(B)) ** 2 > QUADRUPLE_LIMIT:
        raise ResourceError("quadruple enumeration too large")
    count = 0
    for a1 in A:
        for b1 in B:
            v = a1 + b1 if mode == "add" else a1 * b1
            for a2 in A:
                for b2 in B:
                    w = a2 + b2 if mode == "add" else a2 * b2
                    if v == w:
                        count += 1
    return count


# -- fiber decomposition ---------------------------------------------------

def lambda_set(A: FiniteSet, lam) -> FiniteSet | None:
    """A_lambda = A ∩ lambda*A, or None when the intersection is empty."""
    lam = as_scalar(lam)
    if lam == 0:
        raise DomainError("lambda must be nonzero")
    if A.has_zero():
        raise DomainError("fiber decomposition requires 0 not in A")
    return A.intersect(dilate(A, lam))


def spectrum(A: FiniteSet) -> list[tuple[Scalar, int]]:
    """All (lambda, |A_lambda|) for lambda in A/A, sorted by lambda.

    |A_lambda| equals the representation count of lambda in A/A, so the
    whole spectrum is one pass over |A|^2 quotients.  The sizes satisfy
    sum = |A|^2 and sum of squares = multiplicative energy.
    """
    return list(SetContext(A).fiber_sizes().items())


@dataclass(frozen=True)
class SpectrumSlice:
    """One dyadic window of the fiber-size spectrum: tau < |A_lambda| <= 2*tau."""

    tau: Scalar
    lambdas: FiniteSet
    sizes: dict


def dyadic_slices(A: FiniteSet) -> list[SpectrumSlice]:
    """Partition the spectrum into windows (2^{j-1}, 2^j], j = 0..ceil(log2 |A|).

    Every lambda in A/A lands in exactly one slice; the j = 0 window
    (1/2, 1] captures the size-1 fibers.  Empty slices are kept so slice
    indices line up with j.
    """
    ctx, out = SetContext(A), []
    for tau, _ in ctx.slices:
        sizes = ctx.fiber_sizes(tau)
        lambdas = FiniteSet.from_sorted(list(sizes)) if sizes else None
        out.append(SpectrumSlice(tau=tau, lambdas=lambdas, sizes=sizes))
    return out


# -- doubling functional ---------------------------------------------------

@dataclass(frozen=True)
class DoublingProfile:
    """Certified upper bound on min_C |AC|^2/(|A||C|) with its witness."""

    K_mul: Scalar
    d_upper: Scalar
    witness_C: FiniteSet


def _ratio_for(A: FiniteSet, C: FiniteSet) -> Fraction:
    return Fraction(len(pair_counts(A, C, "mul")[0]) ** 2, len(A) * len(C))


def d_upper(A: FiniteSet) -> DoublingProfile:
    """Best upper bound on the doubling functional over the candidate sets
    {1}, A, A^{-1} and A/A.

    A candidate whose |A||C| exceeds 4 000 000 pairs is skipped (this only
    weakens the bound, never unsound), and so is A/A when a lower bound on
    its ratio reaches that of an earlier candidate, which wins the tie.
    The {1} and {A, A^{-1}} candidates guarantee d_upper <= min(|A|, K_mul^2).
    """
    return SetContext(A).dhat


def _doubling(ctx: SetContext) -> DoublingProfile:
    """`d_upper(ctx.A)` from the context's |AA|, |A/A| and A/A."""
    A, n = ctx.A, ctx.n
    if A.has_zero():
        raise DomainError("doubling profile requires 0 not in A")
    # |A·{1}| = |A|, |A·A| = |AA| and A·A^{-1} = A/A: no new pairs to count
    scored = [(Fraction(size**2, n * len(C)), C) for C, size in
              ((FiniteSet([1]), n), (A, ctx.nprod), (A.inverse(), ctx.nquot))
              if n * len(C) <= _D_UPPER_PAIR_BUDGET]
    q = ctx.nquot
    # |AC| >= |A| + |C| - 1 for positive A and C, and >= max(|A|, |C|) for
    # any A without 0; min keeps the first of equal ratios, so A/A is skipped
    # once this lower bound on its ratio reaches the best so far
    aq_bound = Fraction((n + q - 1 if A.is_positive() else max(n, q)) ** 2, n * q)
    if n * q <= _D_UPPER_PAIR_BUDGET and not any(r <= aq_bound for r, _ in scored):
        AQ = FiniteSet.from_sorted(list(ctx.rep_counts("div")))
        scored.append((_ratio_for(A, AQ), AQ))
    best, witness = min(scored, key=lambda rc: rc[0], default=(None, None))
    return DoublingProfile(K_mul=ctx.K, d_upper=best, witness_C=witness)


def d_exhaustive(A: FiniteSet, ground: FiniteSet, max_size: int) -> DoublingProfile:
    """Exact minimum of |AC|^2/(|A||C|) over nonempty C ⊆ ground, |C| <= max_size.

    Brute-force subset enumeration; the ground set is capped at 20 elements.
    """
    if A.has_zero() or ground.has_zero():
        raise DomainError("doubling profile requires 0 not in the sets")
    if len(ground) > 20:
        raise ResourceError("ground set too large for exhaustive d(A)")
    max_size = min(max_size, len(ground))
    if max_size < 1:
        raise DomainError("max_size must be positive")
    # ties go to the lexicographically smallest C
    best, witness = min((_ratio_for(A, C), C) for k in range(1, max_size + 1)
                        for C in map(FiniteSet, combinations(ground.elements, k)))
    return DoublingProfile(K_mul=SetContext(A).K, d_upper=best, witness_C=witness)


# -- the statistics of one set ---------------------------------------------

class SetContext:
    """The statistics of one set A, each derived once from at most one pair-kernel
    run for each of add, mul and div on A×A.  Only this class reads a kernel
    result.  A context serves one top-level call, so no statistic outlives
    the call that derived it."""

    def __init__(self, A: FiniteSet):
        self.A = A
        self.n = len(A)
        self._kernel = {}

    def _result(self, op: str):
        """The pair-kernel result for A∘A, computed on first use."""
        if op not in self._kernel:
            self._kernel[op] = _pair_keys(self.A, self.A, op)
        return self._kernel[op]

    def _quots(self, tau=None):
        """A/A's kernel result, and the key indices of the window tau < |A_lambda|
        <= 2*tau (None: every key).  The fiber reads need 0 outside A."""
        if self.A.has_zero():
            raise DomainError("spectrum requires 0 not in A")
        quots = self._result("div")
        if tau is None:
            return quots, None
        idx = np.flatnonzero(quots[1] > floor(tau))
        return quots, idx[quots[1][idx] <= floor(2 * tau)]

    def counts(self, X: FiniteSet, Y: FiniteSet, op: str):
        """The counts of `pair_counts(X, Y, op)`, from the context when X and Y are A."""
        return self._result(op)[1] if X is self.A and Y is self.A else pair_counts(X, Y, op)[1]

    def rep_counts(self, op: str) -> Counter:
        """`rep_counts(A, A, op)`: the distinct values of A∘A, in increasing order,
        with their counts."""
        return Counter(dict(zip(*_ordered(self._result(op))[:2])))

    @cached_property
    def nsum(self) -> int:
        return len(self._result("add")[1])

    @cached_property
    def nprod(self) -> int:
        return len(self._result("mul")[1])

    @cached_property
    def nquot(self) -> int:
        return len(self._result("div")[1])

    @cached_property
    def K(self) -> Fraction:
        return Fraction(min(self.nprod, self.nquot), self.n)

    @cached_property
    def Ex(self) -> int:
        if self.A.has_zero():
            raise DomainError("zero element in multiplicative energy")
        c = self._result("mul")[1]
        return int(c @ c)

    @cached_property
    def Ep(self) -> int:
        c = self._result("add")[1]
        return int(c @ c)

    @cached_property
    def max_fiber(self) -> int:
        """The largest |A_lambda|."""
        quots, _ = self._quots()
        return int(quots[1].max())

    @cached_property
    def slices(self) -> list[tuple[Fraction, int]]:
        """(tau, number of lambda in the window) of each slice of `dyadic_slices(A)`."""
        return [(tau, len(self._quots(tau)[1]))
                for tau in (Fraction(1, 2) * 2**j for j in range(self.ceil_log2n + 1))]

    def fiber_sizes(self, tau=None) -> dict:
        """lambda -> |A_lambda| over A/A, or over the window tau < |A_lambda| <= 2*tau,
        in increasing order of lambda."""
        values, counts, _ = _ordered(*self._quots(tau))
        return dict(zip(values, counts))

    def fibers(self, tau=None) -> dict:
        """lambda -> A_lambda = A ∩ lambda*A over A/A, or over the window
        tau < |A_lambda| <= 2*tau, in increasing order of lambda.

        A_lambda holds the a_i with a_i/a_j = lambda, the rows of lambda's pairs;
        one pass over the pairs in row order gathers them, ascending.
        """
        quots, idx = self._quots(tau)
        n, pairs, rows = self.n, quots[2].tolist(), {}
        for i, a in enumerate(self.A.elements):
            for key in pairs[i * n:(i + 1) * n]:
                rows.setdefault(key, []).append(a)
        keys = quots[0].tolist()
        lams, _, idx = _ordered(quots, idx)
        return {lam: FiniteSet.from_sorted(rows[keys[k]]) for lam, k in zip(lams, idx)}

    @cached_property
    def dhat(self) -> DoublingProfile:
        """`d_upper(A)`, without counting |AA|, |A/A| or A/A again."""
        return _doubling(self)

    @cached_property
    def log2n(self) -> Fraction:
        return log2_frac(self.n)

    @cached_property
    def ceil_log2n(self) -> int:
        return (self.n - 1).bit_length()

    @cached_property
    def L_quot(self) -> Fraction:
        return max(Fraction(1),
                   Fraction(self.nsum) ** 2 * self.nquot / Fraction(self.n) ** 4)

    @cached_property
    def L_prod(self) -> Fraction:
        return max(Fraction(1),
                   Fraction(self.nsum) ** 2 * self.nprod / Fraction(self.n) ** 4)
