"""Pairwise operation sets, energies, the fiber spectrum and doubling bounds."""

import operator
import random
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from sumprod import (
    DomainError,
    FiniteSet,
    ResourceError,
    d_exhaustive,
    d_upper,
    differenceset,
    dilate,
    dyadic_slices,
    energy,
    energy_by_quadruples,
    lambda_set,
    pair_counts,
    productset,
    quotientset,
    rep_counts,
    spectrum,
    stats,
    sumset,
)
from sumprod.stats import DoublingProfile
from sumprod.verify import SetContext

A123 = FiniteSet([1, 2, 3])

positive_rationals = st.fractions(min_value=Fraction(1, 12), max_value=50,
                                  max_denominator=12)
positive_sets = st.sets(positive_rationals, min_size=2, max_size=8).map(FiniteSet)


def test_sumset_examples():
    assert sumset(A123, A123) == FiniteSet([2, 3, 4, 5, 6])
    assert sumset(FiniteSet([0]), A123) == A123
    powers = FiniteSet([1, 2, 4, 8])
    assert len(sumset(powers, powers)) == 10


def test_productset_examples():
    assert productset(A123, A123) == FiniteSet([1, 2, 3, 4, 6, 9])
    assert productset(FiniteSet([1]), A123) == A123


def test_differenceset():
    assert differenceset(A123, A123) == FiniteSet([-2, -1, 0, 1, 2])


def test_quotientset():
    assert len(quotientset(A123, A123)) == 7
    # zero divisors are skipped, not fatal
    assert quotientset(A123, FiniteSet([0, 1])) == A123
    with pytest.raises(DomainError, match="no nonzero divisors"):
        quotientset(A123, FiniteSet([0]))


def test_fraction_fallback_agrees_with_fast_path():
    # elements past the int64 guard exercise the hashed-Fraction path
    big = FiniteSet([2**40, 2**40 + 1, 3])
    small = FiniteSet([1, 5, 9])
    assert sumset(big, big) == FiniteSet({a + b for a in big for b in big})
    assert productset(big, small) == FiniteSet({a * b for a in big for b in small})
    assert energy(big, mode="add") == energy_by_quadruples(big, mode="add")


def test_rep_counts():
    counts = rep_counts(A123, A123, "add")
    assert counts == {2: 1, 3: 2, 4: 3, 5: 2, 6: 1}
    assert sum(rep_counts(A123, A123, "div").values()) == 9
    with pytest.raises(DomainError, match="unknown mode"):
        rep_counts(A123, A123, "xor")


def test_energy_fixtures():
    assert energy(A123, mode="add") == 19
    assert energy(A123, mode="mul") == 15
    assert energy(FiniteSet([1, 2]), mode="add") == 6


def test_energy_rejects_zero_in_mul():
    with pytest.raises(DomainError, match="zero element"):
        energy(FiniteSet([0, 1]), mode="mul")


@pytest.mark.parametrize("fn", [energy, energy_by_quadruples])
@pytest.mark.parametrize("B, mode, message", [
    (None, "sub", "energy mode must be add or mul, got 'sub'"),
    (FiniteSet([0, 1]), "mul", "zero element in multiplicative energy"),
    (None, "mul", "zero element in multiplicative energy"),
])
def test_energy_and_its_oracle_refuse_alike(fn, B, mode, message):
    A = FiniteSet([1, 2]) if B is not None else FiniteSet([0, 2])
    with pytest.raises(DomainError, match=message):
        fn(A, B, mode)


def test_energy_matches_quadruple_oracle():
    for A in [A123, FiniteSet([1, 2, 4, 8]),
              FiniteSet([Fraction(1, 2), Fraction(2, 3), 5, 7])]:
        for mode in ("add", "mul"):
            assert energy(A, mode=mode) == energy_by_quadruples(A, mode=mode)
    # 22^4 quadruples fit in the limit and 23^4 do not
    assert 22**4 <= stats.QUADRUPLE_LIMIT < 23**4
    with pytest.raises(ResourceError, match="quadruple enumeration too large"):
        energy_by_quadruples(FiniteSet(range(1, 24)))


@given(positive_sets)
@settings(max_examples=40, deadline=None)
def test_energy_lower_bound_and_dilation_invariance(A):
    n = len(A)
    assert energy(A, mode="add") >= n * n
    assert energy(dilate(A, Fraction(3, 7)), mode="mul") == energy(A, mode="mul")


def test_lambda_set():
    assert lambda_set(A123, 1) == A123
    assert lambda_set(A123, 2) == FiniteSet([2])
    assert lambda_set(A123, Fraction(2, 3)) == FiniteSet([2])
    with pytest.raises(DomainError, match="lambda must be nonzero"):
        lambda_set(A123, 0)
    with pytest.raises(DomainError, match="fiber decomposition requires 0 not in A"):
        lambda_set(FiniteSet([0, 1, 2]), 2)


def test_spectrum_fixture():
    spec = dict(spectrum(FiniteSet([1, 2, 4, 8])))
    assert spec[Fraction(1)] == 4
    assert spec[Fraction(2)] == 3 and spec[Fraction(1, 2)] == 3
    assert spec[Fraction(8)] == 1
    assert sorted(spec.values()) == [1, 1, 2, 2, 3, 3, 4]
    for fn in (spectrum, dyadic_slices):
        with pytest.raises(DomainError, match="spectrum requires 0 not in A"):
            fn(FiniteSet([0, 1, 2]))


@given(positive_sets)
@settings(max_examples=40, deadline=None)
def test_spectrum_moment_identities(A):
    sizes = [s for _, s in spectrum(A)]
    assert sum(sizes) == len(A) ** 2
    assert sum(s * s for s in sizes) == energy(A, mode="mul")


@pytest.mark.parametrize("k", [2, 3, 5])
def test_dyadic_slice_count_around_powers_of_two(k):
    # windows j = 0..ceil(log2 n); the last holds lambda = 1, whose fiber is A
    for n, count in ((2**k - 1, k + 1), (2**k, k + 1), (2**k + 1, k + 2)):
        slices = dyadic_slices(FiniteSet(range(1, n + 1)))
        assert len(slices) == count
        assert slices[-1].sizes[1] == n
    assert len(dyadic_slices(FiniteSet([5]))) == 1


@given(positive_sets)
@settings(max_examples=40, deadline=None)
def test_dyadic_slices_partition(A):
    slices = dyadic_slices(A)
    seen = {}
    for s in slices:
        for lam, size in s.sizes.items():
            assert s.tau < size <= 2 * s.tau
            assert lam not in seen
            seen[lam] = size
    assert seen == dict(spectrum(A))


def test_d_upper_fixture():
    prof = d_upper(A123)
    assert prof.K_mul == 2
    assert prof.d_upper <= min(len(A123), prof.K_mul ** 2)
    assert prof.d_upper == 3  # singleton witness is optimal here
    with pytest.raises(DomainError):
        d_upper(FiniteSet([0, 1]))


def test_d_exhaustive_fixture():
    A = FiniteSet([1, 2, 4])
    prof = d_exhaustive(A, A, 3)
    assert prof.d_upper == Fraction(8, 3)
    assert prof.witness_C == FiniteSet([1, 2])


@pytest.mark.parametrize("A, ground, max_size, error, message", [
    (FiniteSet([0, 1]), FiniteSet([1, 2]), 2, DomainError,
     "doubling profile requires 0 not in the sets"),
    (FiniteSet([1, 2]), FiniteSet([0, 1]), 2, DomainError,
     "doubling profile requires 0 not in the sets"),
    (FiniteSet([1, 2]), FiniteSet(range(1, 22)), 2, ResourceError,
     "ground set too large for exhaustive d"),
    (FiniteSet([1, 2]), FiniteSet([1, 2]), 0, DomainError, "max_size must be positive"),
])
def test_d_exhaustive_refusals(A, ground, max_size, error, message):
    with pytest.raises(error, match=message):
        d_exhaustive(A, ground, max_size)


def test_d_exhaustive_dominates_default_bounds():
    A = FiniteSet([1, 2, 3, 5])
    assert d_exhaustive(A, A, 4).d_upper <= d_upper(A).d_upper


def doubling_oracle(A):
    """K_mul, d_upper and the witness of the {1}, A, A^-1 and A/A candidates,
    by Fraction enumeration (first minimum wins, as in `d_upper`)."""
    els, n = list(A), len(A)
    quots = {a / b for a in els for b in els}
    K = Fraction(min(len({a * b for a in els for b in els}), len(quots)), n)
    candidates = [FiniteSet([1]), A, FiniteSet(1 / a for a in els), FiniteSet(quots)]
    best, witness = min(((Fraction(len({a * c for a in els for c in C}) ** 2, n * len(C)), C)
                         for C in candidates), key=lambda rc: rc[0])
    return K, best, witness


signed_nonzero = st.fractions(min_value=-6, max_value=6, max_denominator=5).filter(bool)


@pytest.mark.parametrize("top, path", [(None, None), (2**31 - 1, np.int64), (2**31, object)])
@given(rationals=st.sets(signed_nonzero, min_size=1, max_size=6),
       integers=st.sets(st.one_of(st.integers(-40, 40).filter(bool),
                                  st.sampled_from([2**30, -(2**30) + 1, 2**29 - 1])), max_size=5))
@settings(max_examples=30, deadline=None)
def test_doubling_bound_of_the_context_and_of_d_upper(top, path, rationals, integers):
    # signed rationals with mixed denominators, or integers whose largest element
    # decides between the int64 and the Python-int path of AA
    A = FiniteSet(rationals if top is None else integers | {top})
    if path is not None:
        assert pair_counts(A, A, "mul")[0].dtype == path
    profiles = [d_upper(A), SetContext(A).dhat]
    expected = doubling_oracle(A)
    for prof in profiles:
        assert (prof.K_mul, prof.d_upper, prof.witness_C) == expected


def doubling_unpruned(ctx):
    """`stats._doubling` as it was before the A/A candidate could be skipped."""
    A, n = ctx.A, ctx.n
    scored = [(Fraction(size**2, n * len(C)), C) for C, size in
              ((FiniteSet([1]), n), (A, ctx.nprod), (A.inverse(), ctx.nquot))
              if n * len(C) <= stats._D_UPPER_PAIR_BUDGET]
    if n * ctx.nquot <= stats._D_UPPER_PAIR_BUDGET:
        AQ = FiniteSet.from_sorted(list(ctx.rep_counts("div")))
        scored.append((stats._ratio_for(A, AQ), AQ))
    best, witness = min(scored, key=lambda rc: rc[0], default=(None, None))
    return DoublingProfile(K_mul=ctx.K, d_upper=best, witness_C=witness)


@given(st.one_of(st.sets(st.fractions(min_value=-30, max_value=30, max_denominator=7)
                         .filter(bool), min_size=1, max_size=12),
                 st.sets(st.integers(2**31 + 1, 2**40), min_size=1, max_size=12),
                 positive_sets).map(FiniteSet))
@example(FiniteSet([1, 2, 4, 16, 32]))  # A/A wins, 256/55 against 121/25
@example(FiniteSet([-8, -2, 2, 4, 8]))  # A/A wins at its lower bound, 98/25 against 4
@settings(max_examples=80, deadline=None)
def test_d_upper_matches_the_unpruned_candidates(A):
    # signed sets, where only |AC| >= max(|A|, |C|) holds, and positive sets
    # (above 2^31 among them) whose A/A candidate the lower bound often skips
    assert d_upper(A) == doubling_unpruned(SetContext(A))


def test_d_upper_skips_the_quotient_candidate_of_150_integers_above_2_31(monkeypatch):
    def ratio_for(A, C):
        raise AssertionError("the A/A candidate was keyed")

    monkeypatch.setattr(stats, "_ratio_for", ratio_for)
    A = FiniteSet(random.Random(150).sample(range(2**31 + 1, 2**32), 150))
    # its ratio is at least (150 + 22350 - 1)^2 / (150 * 22351) > 150, that of {1}
    assert SetContext(A).nquot == 22351
    prof = d_upper(A)
    assert (prof.d_upper, prof.witness_C) == (150, FiniteSet([1]))


# -- the integer pair kernel against Fraction brute force -------------------

SET_OF = {"add": sumset, "sub": differenceset, "mul": productset, "div": quotientset}


def brute_counts(A, B, op):
    f = {"add": operator.add, "sub": operator.sub,
         "mul": operator.mul, "div": operator.truediv}[op]
    return Counter(f(a, b) for a in A for b in B if op != "div" or b != 0)


def check_kernel(A, B):
    """Every pairwise statistic of A, B equals its Fraction brute force."""
    for op in SET_OF:
        C = B.union(FiniteSet([0])) if op == "div" else B
        brute = brute_counts(A, C, op)
        if not brute:  # C = {0}
            for f in (SET_OF[op], lambda A, C: rep_counts(A, C, op),
                      lambda A, C: pair_counts(A, C, op)):
                with pytest.raises(DomainError, match="no nonzero divisors"):
                    f(A, C)
            continue
        assert SET_OF[op](A, C) == FiniteSet(brute)
        assert rep_counts(A, C, op) == brute
        keys, counts = pair_counts(A, C, op)
        assert len(keys) == len(brute)
        assert sorted(counts.tolist()) == sorted(brute.values())
    for mode in ("add", "mul"):
        if mode == "mul" and (A.has_zero() or B.has_zero()):
            continue
        squares = sum(c * c for c in brute_counts(A, B, mode).values())
        assert energy(A, B, mode) == energy_by_quadruples(A, B, mode) == squares


signed_rationals = st.fractions(min_value=-20, max_value=20, max_denominator=9)
signed_sets = st.sets(signed_rationals, min_size=1, max_size=6).map(FiniteSet)


@given(signed_sets, signed_sets)
@settings(max_examples=80, deadline=None)
def test_pair_kernel_matches_fraction_brute_force(A, B):
    check_kernel(A, B)


ALL_OPS = {"add", "sub", "mul", "div"}
HALVES = FiniteSet([Fraction(1, 2), Fraction(3, 2)])
# 1/p for the first ten primes: their common denominator exceeds 2^31
PRIME_RECIPROCALS = FiniteSet(Fraction(1, p) for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29))


@pytest.mark.parametrize("A, B, numpy_ops", [
    # largest scaled integer 2^31 - 1: every op takes the int64 path
    (FiniteSet([2**31 - 1, 1, 5]), FiniteSet([3, 7]), ALL_OPS),
    (FiniteSet([-(2**31 - 1), 1, 5]), FiniteSet([-3, 7]), ALL_OPS),
    (FiniteSet([Fraction(2**31 - 1, 6), Fraction(1, 2), Fraction(1, 3)]),
     FiniteSet([Fraction(5, 6), 1]), ALL_OPS),
    # largest scaled integer 2^31: the Python-int path
    (FiniteSet([2**31, 1, 5]), FiniteSet([3, 7]), set()),
    (FiniteSet([-(2**31), 1, 5]), FiniteSet([-3, 7]), set()),
    (FiniteSet([Fraction(2**30, 3), Fraction(1, 2), Fraction(1, 3)]),
     FiniteSet([Fraction(5, 6), 1]), set()),
    # the joint denominator 2 scales 2^30 - 1/2 to 2^31 - 1 but 2^30 to 2^31;
    # products scale each set on its own, so mul stays on int64
    (FiniteSet([Fraction(2**31 - 1, 2), 1, 3]), HALVES, ALL_OPS),
    (FiniteSet([2**30, 1, 3]), HALVES, {"mul"}),
    # products of small p/q whose common denominator is past 2^31 key on
    # the reduced element pairs, on int64
    (PRIME_RECIPROCALS, PRIME_RECIPROCALS, {"mul"}),
])
def test_pair_kernel_at_the_int64_boundary(A, B, numpy_ops):
    check_kernel(A, B)
    for op in ALL_OPS:
        keys, counts = pair_counts(A, B, op)
        expected = np.int64 if op in numpy_ops else object
        assert keys.dtype == expected and counts.dtype == expected, op


kernel_values = st.one_of(
    st.integers(-(2**31 - 1), 2**31 - 1),  # int64-safe integers
    st.fractions(min_value=-30, max_value=30, max_denominator=12),  # small rationals
    st.builds(Fraction, st.integers(-10**4, 10**4), st.integers(1, 3000)))  # mixed denominators
kernel_sets = st.sets(kernel_values, min_size=1, max_size=7).map(FiniteSet)


@given(st.sampled_from(sorted(ALL_OPS)), kernel_sets, kernel_sets)
@example("mul", PRIME_RECIPROCALS, PRIME_RECIPROCALS)
@example("div", FiniteSet([2**31 - 1, -3, 5]), FiniteSet([-(2**31 - 1), 7, 0]))
@settings(max_examples=200, deadline=None)
def test_the_counter_engine_matches_numpy(op, A, B):
    # a subset counts its ground's keys as Python ints, whatever their size: the
    # Counter over a grid's keys gives the values and counts of the kernel's engine
    try:
        keys, shift, den = stats._pair_grid(A, B, op)
    except DomainError:
        return  # no nonzero divisors: check_kernel covers the refusal
    kernel = stats._pair_keys(A, B, op)
    assert (kernel[0].dtype == np.int64) == isinstance(keys, np.ndarray)
    keys = keys.ravel().tolist() if isinstance(keys, np.ndarray) else list(keys)
    counter = stats._counted(keys)
    assert counter[0].dtype == counter[1].dtype == object
    assert stats._ordered((*counter, den, shift)) == stats._ordered(kernel)


# nonzero, with fibers of several sizes; a set is {top} and the first size - 1 of these
_BELOW_TOP = [3, 6, 12, -24, 2**29, 2**30, -5, 1]


@pytest.mark.parametrize("op", sorted(ALL_OPS))
def test_the_threshold_decides_the_engine(op):
    # the largest element decides the engine for every op and every size: below
    # 2^31 the keys are numpy int64, from 2^31 on Python ints in object arrays
    for top, dtype in ((2**31 - 1, np.int64), (2**31, object)):
        for size in (1, 2, 5, 9):
            A = FiniteSet([top, *_BELOW_TOP[:size - 1]])
            keys, counts = pair_counts(A, A, op)
            assert keys.dtype == counts.dtype == dtype, (top, size)
            assert rep_counts(A, A, op) == brute_counts(A, A, op)
            if op == "div":
                oracle = {lam: lambda_set(A, lam) for lam in sorted({a / b for a in A for b in A})}
                assert list(SetContext(A).fibers().items()) == list(oracle.items())


@pytest.mark.parametrize("k", [20, 40])
def test_close_quotients_come_out_in_order(k):
    # 2^k/(2^k - 1) and (2^k + 1)/2^k differ by 1/(2^k (2^k - 1)), far less
    # than one over the largest denominator a quotient key can hold
    check_kernel(FiniteSet([2**k, 2**k + 1]), FiniteSet([2**k - 1, 2**k]))


# -- fibers from the quotient kernel ---------------------------------------

def check_fibers(A):
    """Every kernel fiber, the slice sizes and the slice slopes of A against
    `lambda_set` on a Fraction enumeration of A/A."""
    oracle = {lam: lambda_set(A, lam) for lam in sorted({a / b for a in A for b in A})}
    quots = stats._pair_keys(A, A, "div")
    assert list(SetContext(A).fibers().items()) == list(oracle.items())
    assert sorted(quots[1].tolist()) == sorted(len(f) for f in oracle.values())
    assert spectrum(A) == [(lam, len(f)) for lam, f in oracle.items()]
    slices, ctx_slices = dyadic_slices(A), SetContext(A).slices
    assert len(slices) == len(ctx_slices) == (len(A) - 1).bit_length() + 1
    for j, (s, (tau, count)) in enumerate(zip(slices, ctx_slices)):
        expected = {lam: len(f) for lam, f in oracle.items() if 2**j < 2 * len(f) <= 2**(j + 1)}
        assert s.tau == tau == Fraction(2**j, 2)
        assert list(s.sizes.items()) == list(expected.items()) and count == len(expected)
        assert s.lambdas == (FiniteSet(expected) if expected else None)
    for tau in (0, Fraction(1, 2), 1, Fraction(3, 2), 2, Fraction(7, 3), 4, len(A)):
        expected = [(lam, f) for lam, f in oracle.items() if tau < len(f) <= 2 * tau]
        assert list(SetContext(A).fibers(tau).items()) == expected


nonzero_rationals = signed_rationals.filter(bool)
# random sets, and unions with a dilated progression for larger fibers
fiber_sets = st.one_of(
    st.sets(nonzero_rationals, min_size=1, max_size=7).map(FiniteSet),
    st.builds(lambda extra, c, r, k: FiniteSet(extra | {c * r**i for i in range(k)}),
              st.sets(nonzero_rationals, max_size=3), nonzero_rationals,
              st.sampled_from([2, -3, Fraction(1, 2), Fraction(-3, 2)]), st.integers(1, 6)))


@given(fiber_sets)
@settings(max_examples=100, deadline=None)
def test_kernel_fibers_match_lambda_set(A):
    check_fibers(A)


@pytest.mark.parametrize("top, path", [(2**31 - 1, np.int64), (2**31, object)])
@given(values=st.sets(st.one_of(st.integers(-40, 40).filter(bool),
                                st.sampled_from([2**30, 2**29 - 1, -(2**28), 3 * 2**27])),
                      max_size=6))
@settings(max_examples=25, deadline=None)
def test_kernel_fibers_at_the_int64_boundary(top, path, values):
    # the largest element decides between the int64 and the Python-int path
    A = FiniteSet(values | {top})
    keys, counts, _, _ = stats._pair_keys(A, A, "div")
    assert keys.dtype == counts.dtype == path
    check_fibers(A)


@pytest.mark.parametrize("low, n, div_runs", [(1, 256, 1), (2**31 + 1, 256, 1), (1, 257, 2)])
def test_a_context_keeps_a_small_div_grid_for_its_fibers(low, n, div_runs, monkeypatch):
    # the quotient kernel and the rows of the fibers read one 'div' grid of at
    # most 2^16 keys, on the int64 path and past it; a larger grid is not kept
    # and runs again for the rows.  No row list is built before the fibers are read
    runs, pair_grid = Counter(), stats._pair_grid
    monkeypatch.setattr(stats, "_pair_grid", lambda A, B, op: runs.update([op]) or pair_grid(A, B, op))
    rows, grid = [], SetContext._grid
    monkeypatch.setattr(SetContext, "_grid", lambda ctx, op: rows.append(op) or grid(ctx, op))
    A = FiniteSet(random.Random(256).sample(range(low, low + 10**6), n))
    ctx = SetContext(A)
    ctx.nquot, ctx.nsum, ctx.Ex, ctx.slices
    assert rows == [] and runs == {"add": 1, "mul": 1, "div": 1}
    ctx.fibers(8)
    assert ctx.fibers(Fraction(n, 2)) == {1: A}  # the window of |A_1| = n alone
    assert rows == ["div", "div"] and runs == {"add": 1, "mul": 1, "div": div_runs}
