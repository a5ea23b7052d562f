"""Arithmetic statistics of finite rational sets.

Sumsets, product/quotient sets, representation functions, additive and
multiplicative energies, the fiber decomposition A_lambda = A ∩ lambda*A
with its dyadic spectrum, and certified upper bounds for the doubling
functional min_C |AC|^2/(|A||C|).

All counting is exact and goes through one kernel, `pair_counts`, which
keys each pair a∘b by an integer (scaled sums, differences and products,
or a reduced quotient packed into one integer) and counts the keys with
numpy int64 when they are int64-safe and with a Counter over Python ints
otherwise.  Fractions are built only for the distinct values a caller gets
back.  `SetContext` holds the A+A, AA and A/A kernel results of one set and
is the only reader of their format; every per-set statistic reads one.
"""

from __future__ import annotations

import hashlib
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
                       format_scalar, scaled_integers)

# numpy runs when every integer entering a key, and the number of pairs,
# is below this: sums and products of two stay below 2^62, a packed
# quotient below 2^63, and the sum of squared counts below 2^62.
_INT64_SAFE = 1 << 31
_GRID_PAIRS = 1 << 16  # the most pairs of a grid that a context keeps: 256 elements
_OUTER = {"add": np.add.outer, "sub": np.subtract.outer, "mul": np.multiply.outer}
_D_UPPER_PAIR_BUDGET = 4_000_000
QUADRUPLE_LIMIT = 250_000


def _counted(keys) -> tuple[np.ndarray, np.ndarray]:
    """The distinct keys and their counts: ascending int64 arrays by numpy for an
    int64 array, object arrays by a Counter for an iterable of Python ints."""
    if isinstance(keys, np.ndarray):
        return np.unique(keys, return_counts=True)
    counts = Counter(keys)
    size = len(counts)
    return np.fromiter(counts, object, size), np.fromiter(counts.values(), object, size)


def _quotient_key(p: int, q: int, shift: int) -> int:
    g = gcd(p, q) if q > 0 else -gcd(p, q)
    return ((p // g) << shift) + q // g


def _quotient_keys(left, right):
    """Row-major keys of the quotients (u·v)/(w·z) over (u, w) in left, (v, z)
    in right, and their shift: an int64 array when they are int64-safe, a lazy
    iterable of Python ints otherwise."""
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


def _pair_grid(A, B, op: str):
    """(keys, shift, den): the key of a∘b for each pair of A×B, row-major ('div'
    skips b = 0): an int64 array when the keys are int64-safe, else a lazy
    iterable of Python ints.  With shift None the key k stands for k/den, so key
    order is value order; otherwise k packs the reduced p/q, q > 0, as p·2^shift + q."""
    if op not in ("add", "sub", "mul", "div"):
        raise DomainError(f"unknown mode {op!r}")
    if op == "mul":
        (x, ma), (y, mb) = scaled_integers(A), scaled_integers(B)
        den = ma * mb
    else:
        x, y, den = scaled_integers(A, B)
        if op == "div":
            y = [b for b in y if b]
            if not y:
                raise DomainError("no nonzero divisors")
            # a quotient does not change when both sides are scaled alike
            return (*_quotient_keys((x, [1] * len(x)), ([1] * len(y), y)), None)
    if max(*map(abs, x), *map(abs, y), len(x) * len(y)) < _INT64_SAFE:
        return _OUTER[op](np.array(x, np.int64), np.array(y, np.int64)), None, den
    if op == "mul" and den > 1:
        # A large common denominator (that of A/A, say) blows the scaled
        # integers up; key on the reduced products of the element pairs.
        return (*_quotient_keys(([a.numerator for a in A], [a.denominator for a in A]),
                                ([b.numerator for b in B], [b.denominator for b in B])), None)
    combine = getattr(operator, op)
    return (combine(a, b) for a in x for b in y), None, den


def _pair_keys(A, B, op: str):
    """(keys, counts, den, shift): `_pair_grid(A, B, op)` counted."""
    keys, shift, den = _pair_grid(A, B, op)
    return (*_counted(keys), den, shift)


def pair_counts(A: FiniteSet, B: FiniteSet, op: str) -> tuple[np.ndarray, np.ndarray]:
    """Integer keys of the values a∘b over A×B, and how many pairs give each.

    op is 'add', 'sub', 'mul' or 'div' ('div' skips b = 0).  The keys are
    distinct and equal exactly when the values are, so |A∘B| = len(keys)
    and the energy is sum(counts²).  Both arrays are int64 when the keys are
    int64-safe and of Python ints otherwise.
    """
    return _pair_keys(A, B, op)[:2]


def _ordered(result) -> tuple[list[Fraction], list[int], list[int]]:
    """The distinct values of a `_pair_keys` result in increasing order, with
    their counts and keys."""
    keys, counts, den, shift = result
    items = zip(keys.tolist(), counts.tolist())
    if shift is None:
        items = sorted(items)
        values = [Fraction(k, den) for k, _ in items]
    else:
        mask = (1 << shift) - 1
        # distinct p/q with q < 2^shift differ by more than 2^(-2 shift), so
        # floor(p 2^(2 shift) / q) orders them
        items = sorted(items, key=lambda t: ((t[0] >> shift) << 2 * shift) // (t[0] & mask))
        values = [Fraction(k >> shift, k & mask) for k, _ in items]
    return values, [c for _, c in items], [k for k, _ in items]


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
    run for each of add, mul and div on A×A, or of a subset of A from A's grids.
    Only this class reads a kernel result.  A context serves one top-level
    call, so no statistic or grid outlives the call that derived it."""

    def __init__(self, A: FiniteSet, ground=None):
        self.A = A
        self.n = len(A)
        self._kernel, self._raw, self._grids, self._ground = {}, {}, {}, ground  # see `subset`

    def subset(self, idx) -> SetContext:
        """The context of A's elements at the ascending indices idx.  When A has at
        most `_GRID_PAIRS` pairs, its kernel results and fibers read A∘A's grid at
        idx × idx; otherwise they run the kernel on the subset."""
        A = FiniteSet.from_sorted(list(map(self.A.elements.__getitem__, idx)))
        return SetContext(A, (self, idx) if self.n ** 2 <= _GRID_PAIRS else None)

    def _grid(self, op: str):
        """A∘A's keys as a list of rows of Python ints, den, shift and the column of
        0, which 'div' skips (else None)."""
        if op not in self._grids:
            keys, shift, den = self._raw.pop(op, None) or _pair_grid(self.A, self.A, op)
            keys = keys.ravel().tolist() if isinstance(keys, np.ndarray) else list(keys)
            width = len(keys) // self.n
            skip = self.A.elements.index(0) if width < self.n else None
            rows = [keys[i:i + width] for i in range(0, len(keys), width)]
            self._grids[op] = rows, den, shift, skip
        return self._grids[op]

    def _rows(self, op: str):
        """The grid rows that hold A∘A's keys, one per element of A, the columns of A's
        elements in them, den and shift: of A's own grid, or of a subset's ground's."""
        ground, idx = self._ground or (self, range(self.n))
        rows, den, shift, skip = ground._grid(op)
        cols = idx if skip is None else [j - (j > skip) for j in idx if j != skip]
        if not cols:
            raise DomainError("no nonzero divisors")
        return map(rows.__getitem__, idx), cols, den, shift

    def _result(self, op: str):
        """The pair-kernel result (keys, counts, den, shift) for A∘A, computed on
        first use: A's own `_pair_grid` counted, or a subset's ground's grid at
        idx × idx.  A/A's grid of at most `_GRID_PAIRS` keys is kept until `fibers`
        reads its rows, so that one run serves both; a larger one is run again then."""
        if op not in self._kernel:
            if self._ground is None:
                keys, shift, den = _pair_grid(self.A, self.A, op)
                if op == "div" and self.n ** 2 <= _GRID_PAIRS:
                    keys = keys if isinstance(keys, np.ndarray) else list(keys)
                    self._raw[op] = keys, shift, den
            else:
                rows, cols, den, shift = self._rows(op)
                keys = [row[c] for row in rows for c in cols]
            self._kernel[op] = (*_counted(keys), den, shift)
        return self._kernel[op]

    def _quots(self, tau=None):
        """A/A's kernel result, with its keys and counts cut to the window
        tau < |A_lambda| <= 2*tau (None: every key).  The fiber reads need 0 outside A."""
        if self.A.has_zero():
            raise DomainError("spectrum requires 0 not in A")
        keys, counts, den, shift = quots = self._result("div")
        if tau is None:
            return quots
        window = (counts > floor(tau)) & (counts <= floor(2 * tau))
        return keys[window], counts[window], den, shift

    def counts(self, X: FiniteSet, Y: FiniteSet, op: str):
        """The counts of `pair_counts(X, Y, op)`, from the context when X and Y are A."""
        return self._result(op)[1] if X is self.A and Y is self.A else pair_counts(X, Y, op)[1]

    def rep_counts(self, op: str) -> Counter:
        """`rep_counts(A, A, op)`: the distinct values of A∘A, in increasing order,
        with their counts."""
        return Counter(dict(zip(*_ordered(self._result(op))[:2])))

    @cached_property
    def digest(self) -> str:
        """The `inputs` of a report on A: its size, extremes and the head of
        the SHA-256 of its repr."""
        A, h = self.A, hashlib.sha256(repr(self.A).encode()).hexdigest()[:10]
        return f"|A|={self.n};min={format_scalar(A.min())};max={format_scalar(A.max())};{h}"

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
    def nmin(self) -> int:
        """min(|AA|, |A/A|)."""
        return min(self.nprod, self.nquot)

    @cached_property
    def K(self) -> Fraction:
        return Fraction(self.nmin, self.n)

    @cached_property
    def sum_keys(self) -> tuple[frozenset, int]:
        """(keys, den): A+A is exactly {k/den : k in keys}."""
        keys, _, den, _ = self._result("add")
        return frozenset(keys.tolist()), den

    @cached_property
    def sums_in_A(self) -> int:
        """#{(a, b) in A×A : a + b in A}, the count of `sigma_count(1, A, 1, A, -1, A)`:
        the counts of the A+A keys k/den that are elements of A."""
        keys, counts, den, _ = self._result("add")
        members = {a.numerator * (den // a.denominator) for a in self.A}  # a's key: a·den
        return sum(c for k, c in zip(keys.tolist(), counts.tolist()) if k in members)

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
        return int(self._quots()[1].max())

    @cached_property
    def slices(self) -> list[tuple[Fraction, int]]:
        """(tau, number of lambda in the window) of each slice of `dyadic_slices(A)`."""
        return [(tau, len(self._quots(tau)[0]))
                for tau in (Fraction(1, 2) * 2**j for j in range(self.ceil_log2n + 1))]

    def fiber_sizes(self, tau=None) -> dict:
        """lambda -> |A_lambda| over A/A, or over the window tau < |A_lambda| <= 2*tau,
        in increasing order of lambda."""
        values, counts, _ = _ordered(self._quots(tau))
        return dict(zip(values, counts))

    def fibers(self, tau=None) -> dict:
        """lambda -> A_lambda = A ∩ lambda*A over A/A, or over the window
        tau < |A_lambda| <= 2*tau, in increasing order of lambda.

        A_lambda holds the a_i with a_i/a_j = lambda, the rows of lambda's keys in
        A/A's grid; one pass over the rows in order gathers them, ascending.
        """
        lams, _, keys = _ordered(self._quots(tau))
        fibers, (rows, cols, _, _) = {k: [] for k in keys}, self._rows("div")
        for a, row in zip(self.A.elements, rows):
            for key in map(row.__getitem__, cols):
                if key in fibers:
                    fibers[key].append(a)
        return {lam: FiniteSet.from_sorted(fibers[k]) for lam, k in zip(lams, keys)}

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
