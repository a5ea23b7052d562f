"""Solution counts, collinear triples, slope clusters and the energy chain."""

import random
from collections import Counter
from fractions import Fraction
from itertools import combinations, product
from math import comb, lcm

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sumprod import (
    DomainError,
    FiniteSet,
    ResourceError,
    SigmaResult,
    collinear_triples,
    collinear_triples_brute,
    er_chain,
    evaluate,
    sigma_count,
    sigma_max,
    solymosi_cluster_report,
)
from sumprod import counting
from sumprod.counting import cluster_sigma
from sumprod.stats import SetContext

A123 = FiniteSet([1, 2, 3])


def sigma_brute(a1, A1, a2, A2, a3, A3):
    return sum(1 for x1, x2, x3 in product(A1, A2, A3)
               if a1 * x1 + a2 * x2 + a3 * x3 == 0)


# -- sigma_count -----------------------------------------------------------

def test_sigma_count_fixtures():
    assert sigma_count(1, A123, 1, A123, -1, A123).count == 3
    assert sigma_count(1, FiniteSet([1]), 1, FiniteSet([1]), -1,
                       FiniteSet([2])).count == 1
    two = FiniteSet([1, 2])
    assert sigma_count(1, two, 1, two, 1, two).count == 0


def test_sigma_count_rejects_zero_coefficient():
    with pytest.raises(DomainError):
        sigma_count(0, A123, 1, A123, 1, A123)


def test_sigma_count_matches_brute():
    rng = random.Random(5)
    for _ in range(20):
        sets = [FiniteSet(rng.sample(range(-10, 11), 4) or [1]) for _ in range(3)]
        coeffs = [Fraction(rng.randint(-5, 5) or 1, rng.randint(1, 5))
                  for _ in range(3)]
        got = sigma_count(coeffs[0], sets[0], coeffs[1], sets[1],
                          coeffs[2], sets[2]).count
        assert got == sigma_brute(coeffs[0], sets[0], coeffs[1], sets[1],
                                  coeffs[2], sets[2])


@given(st.fractions(min_value=Fraction(1, 9), max_value=9, max_denominator=9))
@settings(max_examples=25, deadline=None)
def test_sigma_count_scaling_invariance(c):
    base = sigma_count(1, A123, 2, A123, -3, A123).count
    assert sigma_count(c, A123, 2 * c, A123, -3 * c, A123).count == base


signed_terms = st.one_of(
    st.fractions(min_value=-12, max_value=12, max_denominator=6),
    st.integers(2**31 - 3, 2**31 + 3).map(Fraction),
    st.integers(-2**40, 2**40).map(lambda v: Fraction(v, 7)))
sigma_sets = st.sets(signed_terms, min_size=1, max_size=5).map(FiniteSet)
coefficients = st.fractions(min_value=-5, max_value=5, max_denominator=5).filter(bool)


@given(sigma_sets, sigma_sets, sigma_sets, st.tuples(coefficients, coefficients, coefficients),
       st.booleans())
@settings(max_examples=150, deadline=None)
def test_sigma_count_matches_brute_on_signed_rationals(A1, A2, A3, coeffs, solvable):
    a1, a2, a3 = coeffs
    if solvable:
        # put a solution in: x3 = -(a1 x1 + a2 x2) / a3
        x1, x2 = A1.min(), A2.max()
        A3 = A3.union(FiniteSet([-(a1 * x1 + a2 * x2) / a3]))
    got = sigma_count(a1, A1, a2, A2, a3, A3)
    assert got == SigmaResult(count=sigma_brute(a1, A1, a2, A2, a3, A3),
                              coefficients=(a1, a2, a3))
    assert not solvable or got.count >= 1


# -- sigma_max -------------------------------------------------------------

def test_sigma_max_pair_fixture():
    two = FiniteSet([1, 2])
    res = sigma_max(two, two, two)
    assert res.count == 2
    # the reported maximizer really attains the maximum
    a1, a2, a3 = res.coefficients
    assert sigma_count(a1, two, a2, two, a3, two).count == 2
    # (-1/2, -1/2) hits the diagonal triples (1,1,1), (2,2,2)
    assert sigma_count(1, two, Fraction(-1, 2), two,
                       Fraction(-1, 2), two).count == 2


def test_sigma_max_singleton():
    one = FiniteSet([1])
    res = sigma_max(one, one, one)
    assert res.count == 1
    a1, a2, a3 = res.coefficients
    assert a1 * 1 + a2 * 1 + a3 * 1 == 0


def test_sigma_max_counts_all_zero_triple_once():
    # (0, 0, 0) holds for every coefficient pair and must be counted once
    A, Z = FiniteSet([0, 1, 2]), FiniteSet([0])
    res = sigma_max(A, A, Z)
    assert res == SigmaResult(count=3, coefficients=(1, -1, -2))
    assert sigma_count(1, A, -1, A, -2, Z).count == 3


def _line_of_triple(t1: Fraction, t2: Fraction, t3: Fraction):
    """Normalised {(b, c) : t2*b + t3*c = -t1}; None if it is the whole
    plane, 'empty' if no point satisfies it."""
    if t2 == 0 and t3 == 0:
        return None if t1 == 0 else "empty"
    if t2 != 0:
        return (Fraction(1), t3 / t2, -t1 / t2)
    return (Fraction(0), Fraction(1), -t1 / t3)


def _line_points(p: Fraction, q: Fraction, r: Fraction) -> set:
    """The points of the line p*b + q*c = r that break sigma_max's ties: its
    diagonal point b = c, and its points at b = 1, -1, 2, -2 (at c = 1, -1,
    2, -2 if q = 0); those with b, c != 0."""
    pts = {(r / (p + q), r / (p + q))} if p + q != 0 else set()
    if q != 0:
        pts |= {(Fraction(t), (r - p * t) / q) for t in (1, -1, 2, -2)}
    else:
        pts |= {(r / p, Fraction(t)) for t in (1, -1, 2, -2)}
    return {(b, c) for b, c in pts if b != 0 and c != 0}


def _sigma_max_direct(A1, A2, A3):
    """Oracle for sigma_max: every pairwise intersection of the triples'
    lines, and representative points of each line, counted directly."""
    size = len(A1) * len(A2) * len(A3)
    if size > counting.SIGMA_SIZE_LIMIT:
        raise ResourceError(f"sigma_max input too large: {size}")
    lines = Counter(_line_of_triple(*t) for t in product(A1, A2, A3))
    base = lines.pop(None, 0)
    lines.pop("empty", None)
    distinct = sorted(lines)
    if comb(len(distinct), 2) > counting.SIGMA_PAIR_BUDGET:
        raise ResourceError(
            f"sigma_max candidate enumeration too large: {len(distinct)} lines")
    candidates = set().union(*(_line_points(*ln) for ln in distinct))
    for la, lb in combinations(distinct, 2):
        det = la[0] * lb[1] - lb[0] * la[1]
        if det == 0:
            continue
        c = (la[0] * lb[2] - lb[0] * la[2]) / det
        b = (la[2] - la[1] * c) / la[0] if la[0] != 0 else (lb[2] - lb[1] * c) / lb[0]
        if b != 0 and c != 0:
            candidates.add((b, c))
    if not candidates:
        return SigmaResult(count=base, coefficients=(1, 1, 1))
    # over a common denominator m, x1 + b*x2 + c*x3 = 0 becomes
    # qb*qc*x1 + pb*qc*x2 + pc*qb*x3 = 0 in integers; the all-zero triple
    # is counted here, so base is not added again
    m = lcm(*(x.denominator for S in (A1, A2, A3) for x in S))
    pairs = [(int(x1 * m), int(x2 * m)) for x1 in A1 for x2 in A2]
    targets3 = {int(x3 * m) for x3 in A3}
    best = None
    for b, c in sorted(candidates):
        qb, qc = b.denominator, c.denominator
        f1, f2, d = qb * qc, b.numerator * qc, c.numerator * qb
        count = 0
        for x1, x2 in pairs:
            v = -(f1 * x1 + f2 * x2)
            if v % d == 0 and v // d in targets3:
                count += 1
        if best is None or count > best.count:
            best = SigmaResult(count=count, coefficients=(1, b, c))
    return best


SMALL_SIGNED = sorted({Fraction(p, q) for p in range(-4, 5) for q in (1, 2, 3)},
                      key=lambda x: (x != 0, abs(x), x))
small_sets = st.sets(st.sampled_from(SMALL_SIGNED), min_size=1, max_size=5).map(FiniteSet)


@given(small_sets, small_sets, small_sets)
@settings(max_examples=100, deadline=None)
def test_sigma_max_matches_direct_evaluation(A1, A2, A3):
    assert sigma_max(A1, A2, A3) == _sigma_max_direct(A1, A2, A3)
    # both refuse with the same line count, hence at the same pair budget
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(counting, "SIGMA_PAIR_BUDGET", -1)
        with pytest.raises(ResourceError) as fast:
            sigma_max(A1, A2, A3)
        with pytest.raises(ResourceError) as direct:
            _sigma_max_direct(A1, A2, A3)
    assert str(fast.value) == str(direct.value)


tie_sets = st.sets(signed_terms, min_size=1, max_size=4).map(FiniteSet)


@given(tie_sets, tie_sets, tie_sets)
@settings(max_examples=60, deadline=None)
def test_sigma_max_matches_direct_evaluation_on_signed_rationals(A1, A2, A3):
    # generic values put few triples on one line, so most maxima are ties
    # and the whole result pins the tie-break
    assert sigma_max(A1, A2, A3) == _sigma_max_direct(A1, A2, A3)


def test_sigma_max_refusal_thresholds(monkeypatch):
    one, three = FiniteSet([1]), FiniteSet([1, 2, 3])  # 9 lines x2*b + x3*c = -1
    monkeypatch.setattr(counting, "SIGMA_PAIR_BUDGET", comb(9, 2))
    for fn in (sigma_max, _sigma_max_direct):
        assert fn(one, three, three).count >= 1
    monkeypatch.setattr(counting, "SIGMA_PAIR_BUDGET", comb(9, 2) - 1)
    for fn in (sigma_max, _sigma_max_direct):
        with pytest.raises(ResourceError, match="too large: 9 lines"):
            fn(one, three, three)
    # 101 * 9901 = 1_000_001, one triple over the limit
    with pytest.raises(ResourceError, match="input too large: 1000001"):
        sigma_max(FiniteSet(range(101)), FiniteSet(range(9901)), one)
    monkeypatch.setattr(counting, "SIGMA_SIZE_LIMIT", 8)
    two = FiniteSet([1, 2])
    for fn in (sigma_max, _sigma_max_direct):
        assert fn(two, two, two).count == 2
        with pytest.raises(ResourceError, match="input too large: 9"):
            fn(three, three, one)


def test_sigma_max_dominates_fixed_coefficients():
    rng = random.Random(9)
    for _ in range(5):
        sets = [FiniteSet(rng.sample(range(1, 20), 4)) for _ in range(3)]
        best = sigma_max(*sets).count
        assert best >= sigma_count(1, sets[0], 1, sets[1], -1, sets[2]).count


# -- collinear triples -----------------------------------------------------

def test_collinear_fixtures():
    grid = [(x, y) for x in (0, 1) for y in (0, 1)]
    assert collinear_triples(grid) == 40
    assert collinear_triples([(0, 0)]) == 1
    assert collinear_triples([(0, 0), (1, 1), (2, 2)]) == 27
    with pytest.raises(DomainError, match="empty point set"):
        collinear_triples([])


def test_collinear_matches_brute_on_grids():
    for w in range(1, 5):
        for h in range(1, 5):
            pts = [(x, y) for x in range(w) for y in range(h)]
            assert collinear_triples(pts) == collinear_triples_brute(pts)


def test_collinear_matches_brute_on_random_rational_points():
    rng = random.Random(11)
    for _ in range(10):
        pts = {(Fraction(rng.randint(-6, 6), rng.randint(1, 3)),
                Fraction(rng.randint(-6, 6), rng.randint(1, 3)))
               for _ in range(rng.randint(1, 12))}
        assert collinear_triples(pts) == collinear_triples_brute(pts)


def test_collinear_python_fallback_agrees():
    # huge coordinates force the non-numpy direction counter
    pts = [(0, 0), (2**40, 2**40), (2**41, 2**41), (1, 0)]
    assert collinear_triples(pts) == collinear_triples_brute(pts)


def tile_dtypes(monkeypatch) -> list:
    """Records the dtype of the arrays each call of the tile routine gets."""
    seen, tiles = [], counting._distinct_collinear

    def spy(X, Y):
        seen.append((X.dtype, Y.dtype))
        return tiles(X, Y)

    monkeypatch.setattr(counting, "_distinct_collinear", spy)
    return seen


@pytest.mark.parametrize("span, dtype", [(2**30 - 1, np.int64), (2**30, object)])
def test_collinear_direction_keys_at_the_int64_boundary(span, dtype, monkeypatch):
    # The int64 tiles key a reduced direction (dx, dy) as dx*(4*span+3) + dy.
    # From (s, s-1) to (-s, -s) the direction is (2s, 2s-1), already reduced,
    # so at s = 2^30 - 1 the key is 8s^2 + 8s - 1 = 2^63 - 2^33 - 1.
    s = span
    pts = [(-s, -s), (s, s - 1), (0, 0), (s, s), (s, -s), (-s, s), (1, s), (0, -s)]
    seen = tile_dtypes(monkeypatch)
    assert collinear_triples(pts) == collinear_triples_brute(pts)
    assert seen == [(np.dtype(dtype), np.dtype(dtype))]


def test_collinear_python_path_on_a_span_2_31_grid(monkeypatch):
    # 5x5 grid of step 2^29 with a few points removed, so span 2^31; the
    # column a = 0, the row b = 0 and the main diagonal keep 4 or 5 points
    s = 2**29
    pts = [(a * s, b * s) for a in range(5) for b in range(5) if a * b % 3 != 1]
    seen = tile_dtypes(monkeypatch)
    assert collinear_triples(pts) == collinear_triples_brute(pts)
    assert seen == [(np.dtype(object), np.dtype(object))]


def tile_keys(monkeypatch) -> list:
    """Records which key, float slope or reduced integer, each tile used."""
    seen = []
    for name in ("_slope_keys", "_reduced_keys"):
        def spy(*args, name=name, keys=getattr(counting, name)):
            seen.append(name)
            return keys(*args)
        monkeypatch.setattr(counting, name, spy)
    return seen


@pytest.mark.parametrize("span, key, dtype", [(2**24 - 1, "_slope_keys", np.float64),
                                              (2**24, "_reduced_keys", np.int64)])
def test_collinear_direction_keys_at_the_float_boundary(span, key, dtype, monkeypatch):
    # The float key t = dy / (dx + |dy|) is exact while dx + |dy| < 2^26.
    # From (-s, -s) to (s, s-1) that sum is 4s - 1, next to the 4s that a span
    # s allows, and the direction (2s, 2s-1) is within 1/(8s) of the diagonal's.
    s = span
    pts = [(-s, -s), (s, s - 1), (0, 0), (s, s), (s, -s), (-s, s), (1, s), (0, -s)]
    keys, dtypes = tile_keys(monkeypatch), tile_dtypes(monkeypatch)
    assert collinear_triples(pts) == collinear_triples_brute(pts)
    assert keys == [key]
    assert dtypes == [(np.dtype(dtype), np.dtype(dtype))]


def test_collinear_directions_that_one_double_would_merge(monkeypatch):
    # From (0, 0) the two later points have t = a/b and (a+1)/(b+2), with
    # a = 2^27 + 1 and b = 2^28 + 1: distinct, 1/(b(b+2)) apart, one double.
    # So the three points are not collinear, and only an integer key shows it.
    a, b = 2**27 + 1, 2**28 + 1
    assert a / b == (a + 1) / (b + 2)
    pts = [(0, 0), (2**27, 2**27 + 1), (2**27 + 1, 2**27 + 2)]
    keys = tile_keys(monkeypatch)
    assert collinear_triples(pts) == collinear_triples_brute(pts) == 3 + 3 * 3 * 2
    assert keys == ["_reduced_keys"]


@given(pts=st.lists(st.tuples(st.integers(-4, 4), st.integers(-4, 4)), min_size=1, max_size=10),
       k=st.integers(22, 25), d=st.integers(-3, 3),
       jitter=st.lists(st.tuples(st.integers(-1, 1), st.integers(-1, 1)), min_size=10, max_size=10))
@settings(max_examples=100, deadline=None)
def test_collinear_matches_brute_on_dilations_around_the_float_bound(pts, k, d, jitter):
    # spans from 2^22 to 2^27, on both sides of 2^24; the dilation keeps
    # every line, and a jitter of one unit bends some of them very slightly
    f = 2**k + d
    pts = [(x * f + u, y * f + v) for (x, y), (u, v) in zip(pts, jitter)]
    assert collinear_triples(pts) == collinear_triples_brute(pts)


def _respell(v):
    """An integral value spelled as the other of int and Fraction."""
    if isinstance(v, int):
        return Fraction(v)
    return int(v) if v.denominator == 1 else v


coords = st.builds(lambda v, as_int: int(v) if as_int and v.denominator == 1 else v,
                   st.sampled_from(SMALL_SIGNED), st.booleans())


@st.composite
def point_lists(draw):
    pts = draw(st.lists(st.tuples(coords, coords), min_size=1, max_size=8))
    if draw(st.booleans()):
        # a line of 4 to 6 points, vertical when dx = 0
        x0, y0 = draw(coords), draw(coords)
        dx = draw(st.sampled_from([0, 1, -1, Fraction(1, 2)]))
        dy = draw(st.sampled_from([0, 1, -2, Fraction(1, 3)]) if dx else st.just(1))
        pts += [(x0 + k * dx, y0 + k * dy) for k in range(draw(st.integers(4, 6)))]
    pts += [(_respell(x), _respell(y)) for x, y in draw(st.lists(st.sampled_from(pts)))]
    return draw(st.permutations(pts))


def _collinear_triples_fractions(points) -> int:
    """The ordered collinear triples by Fraction cross products, repetition allowed."""
    pts = {(Fraction(x), Fraction(y)) for x, y in points}
    count = 0
    for p, q, r in product(pts, repeat=3):
        count += len({p, q, r}) <= 2 or ((q[0] - p[0]) * (r[1] - p[1])
                                         - (q[1] - p[1]) * (r[0] - p[0])) == 0
    return count


@given(pts=point_lists())
@settings(max_examples=100, deadline=None)
def test_collinear_brute_matches_the_fraction_oracle(pts):
    # signed rationals of mixed denominators, duplicates spelled as int and Fraction
    assert collinear_triples_brute(pts) == _collinear_triples_fractions(pts)


def test_collinear_brute_refusal_threshold():
    # 144^3 distinct-point triples fit in the limit and 169^3 do not
    assert 144**3 <= counting.BRUTE_TRIPLE_LIMIT < 169**3
    grid = [(x, y) for x in range(12) for y in range(12)]
    assert collinear_triples_brute(grid) == collinear_triples(grid)
    with pytest.raises(ResourceError, match="brute-force triple enumeration too large"):
        collinear_triples_brute([(x, y) for x in range(13) for y in range(13)])


@pytest.mark.parametrize("block", [1, 7, counting._COLLINEAR_BLOCK])
@given(pts=point_lists())
@settings(max_examples=60, deadline=None)
def test_collinear_matches_brute_in_any_tiling(block, pts):
    # blocks of one row, and row blocks that end partway along a line
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(counting, "_COLLINEAR_BLOCK", block)
        assert collinear_triples(pts) == collinear_triples_brute(pts)


# -- cluster construction --------------------------------------------------

DIVISOR_RICH = FiniteSet([1, 2, 3, 4, 6, 9, 12, 18, 36])


def test_cluster_report_divisor_rich():
    rep = solymosi_cluster_report(DIVISOR_RICH, 2, 2)
    assert rep.sums_in_box
    assert rep.group_count == len(rep.slopes) // 2
    assert rep.sums_total == sum(d for d, _ in rep.per_group)
    if all(rep.conditions_ok):
        assert rep.lemma_pass
        for distinct, rho in rep.per_group:
            assert distinct >= max(0, rho)


def test_cluster_window_bound():
    rep = solymosi_cluster_report(DIVISOR_RICH, 2, 2)
    # each pair of fibers contributes at most |A_a||A_b| <= 4 tau^2 points
    from math import comb, lcm
    for distinct, _ in rep.per_group:
        assert distinct <= 4 * 4 * comb(rep.M, 2)


def test_cluster_errors():
    with pytest.raises(DomainError, match="cluster needs two slopes"):
        solymosi_cluster_report(A123, 2, 1)
    with pytest.raises(DomainError, match="positive"):
        solymosi_cluster_report(FiniteSet([-1, 2, 3]), 2, 2)
    with pytest.raises(DomainError, match="available slopes"):
        solymosi_cluster_report(A123, 2, 2)  # window holds a single slope
    with pytest.raises(DomainError, match="empty slice window"):
        solymosi_cluster_report(DIVISOR_RICH, 100, 2)  # no fiber has more than 9 elements


def test_cluster_box_check_sees_a_wrong_fiber_element(monkeypatch):
    assert solymosi_cluster_report(DIVISOR_RICH, 2, 2).sums_in_box
    fibers = SetContext.fibers

    def grouping(ctx, tau=None):
        # 36000 is in no fiber; its sums are integers past max(A+A) = 72
        return {lam: f.union(FiniteSet([36000])) for lam, f in fibers(ctx, tau).items()}

    monkeypatch.setattr(SetContext, "fibers", grouping)
    assert not solymosi_cluster_report(DIVISOR_RICH, 2, 2).sums_in_box


def test_cluster_sigma_small_window():
    fibers = SetContext(DIVISOR_RICH).fibers(2)
    assert len(fibers) >= 3
    want = max(sigma_max(*t).count for t in combinations(fibers.values(), 3))
    assert cluster_sigma(fibers, counting.SIGMA_PAIR_BUDGET) == want


def test_cluster_refuses_an_oversized_fiber_triple_with_its_size(monkeypatch):
    # DIVISOR_RICH's tau = 2 window: its first slope triple has fibers of 3, 4
    # and 3 elements, its second 3, 4 and 4
    monkeypatch.setattr(counting, "SIGMA_SIZE_LIMIT", 47)
    with pytest.raises(ResourceError, match="sigma_max input too large: 48"):
        solymosi_cluster_report(DIVISOR_RICH, 2, 2)
    # LEMMA3's window of this set holds fibers of 6, 8 and 6 elements
    monkeypatch.setattr(counting, "SIGMA_SIZE_LIMIT", 287)
    with pytest.raises(ResourceError, match="sigma_max input too large: 288"):
        evaluate("LEMMA3", FiniteSet([1, 2, 3, 4, 6, 8, 12, 16]))


# -- the energy chain ------------------------------------------------------

def test_er_chain_fixture_123():
    ch = er_chain(A123)
    assert ch.F == FiniteSet([3, 4, 5])
    assert ch.U == 7
    assert dict(ch.N) == {2: 1, 3: 2, 4: 3, 5: 2, 6: 1}
    assert all(ch.checks.values())


def test_er_chain_fixture_12():
    ch = er_chain(FiniteSet([1, 2]))
    assert ch.F == FiniteSet([2, 3, 4])
    assert ch.U == 4
    assert all(ch.checks.values())


def test_er_chain_moment_identities():
    A = FiniteSet([1, 2, 4, 8, 9])
    ch = er_chain(A)
    assert sum(ch.N.values()) == len(A) ** 2
    from sumprod import energy
    assert sum(v * v for v in ch.N.values()) == energy(A, mode="add")
    assert ch.U == sum(ch.N[x] for x in ch.F)


def test_er_chain_rejects_bad_inputs():
    with pytest.raises(DomainError):
        er_chain(FiniteSet([5]))
    with pytest.raises(DomainError):
        er_chain(FiniteSet([-1, 2]))


def test_er_chain_random_positive_sets():
    rng = random.Random(21)
    for _ in range(15):
        A = FiniteSet(rng.sample(range(1, 60), rng.randint(2, 9)))
        ch = er_chain(A)
        assert all(ch.checks.values()), ch.checks
        X = A.union(ch.F)
        assert ch.T == collinear_triples([(x, y) for x in X for y in X])


def test_er_chain_triples_match_brute_on_the_fraction_grid():
    rng = random.Random(23)
    # every A u F here has at most 9 elements, so the brute force sees at most 81 points
    sets = [FiniteSet([Fraction(1, 2), Fraction(2, 3), Fraction(5, 6), 1])]
    for k in range(10):
        dens = (1,) if k % 3 == 0 else (1, 2, 3, 4, 6)
        sets.append(FiniteSet({Fraction(rng.randint(1, 30), rng.choice(dens))
                               for _ in range(rng.randint(1, 2))} | {Fraction(1)}))
    for A in sets:
        ch = er_chain(A)
        X = A.union(ch.F)
        assert ch.T == collinear_triples_brute([(x, y) for x in X for y in X]), A


@pytest.mark.parametrize("A", [FiniteSet([1, 2, 3, 5, 8]),
                               FiniteSet([Fraction(1, 2), Fraction(2, 3), 1])])
def test_er_chain_builds_no_fraction_points(A, monkeypatch):
    X = A.union(er_chain(A).F)
    want = collinear_triples_brute([(x, y) for x in X for y in X])

    def refuse(x):
        raise AssertionError(f"as_scalar({x!r}) in the collinear path")

    monkeypatch.setattr(counting, "as_scalar", refuse)
    assert er_chain(A).T == want
