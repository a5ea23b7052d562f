"""Counting kernels: three-variable linear equations, collinear triples,
the consecutive-slope cluster construction, and the energy/triples chain
relating E+(A) to the quotient and product sets.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import comb, gcd

import numpy as np

from ._approx import sqrt_frac
from .exactset import (
    DomainError,
    FiniteSet,
    ResourceError,
    Scalar,
    as_scalar,
    scaled_integers,
)
from .stats import SetContext

SIGMA_SIZE_LIMIT = 1_000_000
SIGMA_PAIR_BUDGET = 5_000_000
CLUSTER_TRIPLE_BUDGET = 2_000


@dataclass(frozen=True)
class SigmaResult:
    """Solution count of a1*x1 + a2*x2 + a3*x3 = 0 with the coefficients used."""

    count: int
    coefficients: tuple[Scalar, Scalar, Scalar]


def sigma_count(a1, A1: FiniteSet, a2, A2: FiniteSet, a3, A3: FiniteSet) -> SigmaResult:
    """Count solutions of a1*x1 + a2*x2 + a3*x3 = 0, x_i in A_i.

    Scales a1*A1, a2*A2 and -a3*A3 to integers over one denominator and
    counts the pairs of the first two whose sum lies in the third: O(|A1||A2|).
    """
    a1, a2, a3 = as_scalar(a1), as_scalar(a2), as_scalar(a3)
    if a1 == 0 or a2 == 0 or a3 == 0:
        raise DomainError("sigma coefficients must be nonzero")
    s1, s2, s3, _ = scaled_integers(*([a * x for x in S]
                                      for a, S in ((a1, A1), (a2, A2), (-a3, A3))))
    targets = set(s3)
    count = sum(u + v in targets for u in s1 for v in s2)
    return SigmaResult(count=count, coefficients=(a1, a2, a3))


def _line_candidates(line) -> list[tuple[Fraction, Fraction]]:
    """Representative points of the line p*b + q*c = r with b, c != 0."""
    p, q, r = line
    out = []
    if p + q != 0:
        v = Fraction(r, p + q)
        if v != 0:
            out.append((v, v))
    for t in (1, -1, 2, -2):
        if q != 0:
            c = Fraction(r - p * t, q)
            if c != 0:
                out.append((Fraction(t), c))
        elif r != 0:
            out.append((Fraction(r, p), Fraction(t)))
    return out


def sigma_max(A1: FiniteSet, A2: FiniteSet, A3: FiniteSet,
              pair_budget: int = SIGMA_PAIR_BUDGET) -> SigmaResult:
    """Exact max over nonzero (a2, a3) of sigma_count(1, A1, a2, A2, a3, A3).

    Over a common denominator the sets become integers, and a triple
    (x1, x2, x3) with (x2, x3) != (0, 0) holds exactly on the line
    x2*b + x3*c = -x1 of coefficient pairs (b, c); lines are stored
    gcd-reduced and weighted by how many triples give them.  The all-zero
    triple holds everywhere and is counted once, as `base`; a triple with
    x2 = x3 = 0 != x1 holds nowhere and is dropped.  The count at (b, c)
    is base plus the weight of the lines through it, so the maximum is
    found by integer incidence counting: for each line, the weights of the
    later lines meeting it at a point with b, c != 0 are summed per
    gcd-reduced homogeneous point, and a point's full weight appears at
    its first line.  Every line except the axes b = 0 and c = 0 also has
    points on no other line, which attain its own weight.  Ties go to the
    lexicographically smallest (a2, a3) among the maximal intersections
    and the `_line_candidates` points of maximal lines.
    """
    return _sigma_incidences(*_sigma_lines(A1, A2, A3, pair_budget))


def _sigma_lines(A1: FiniteSet, A2: FiniteSet, A3: FiniteSet,
                 pair_budget: int) -> tuple[Counter, int]:
    """The weighted lines and the all-zero count `base` of `sigma_max`, after
    both of its refusals; no incidence is counted yet."""
    size = len(A1) * len(A2) * len(A3)
    if size > SIGMA_SIZE_LIMIT:
        raise ResourceError(f"sigma_max input too large: {size}")

    s1, s2, s3, _ = scaled_integers(A1, A2, A3)
    lines: Counter = Counter()
    base = 0
    for x1 in s1:
        for x2 in s2:
            for x3 in s3:
                if x2 == 0 and x3 == 0:
                    base += x1 == 0
                    continue
                g = gcd(x1, x2, x3)
                if x2 < 0 or (x2 == 0 and x3 < 0):
                    g = -g
                lines[(x2 // g, x3 // g, -x1 // g)] += 1

    if comb(len(lines), 2) > pair_budget:
        raise ResourceError(
            f"sigma_max candidate enumeration too large: {len(lines)} lines")
    return lines, base


def _sigma_incidences(lines: Counter, base: int) -> SigmaResult:
    """`sigma_max` from its weighted lines by integer incidence counting."""
    # the axes meet every other line at b = 0 or c = 0, so they drop out
    free = [(ln, w) for ln, w in lines.items() if ln not in ((1, 0, 0), (0, 1, 0))]
    best = max((w for _, w in free), default=0)
    points = []
    for i, ((p1, q1, r1), w1) in enumerate(free):
        hits: dict[tuple[int, int, int], int] = {}
        for (p2, q2, r2), w2 in free[i + 1:]:
            d = p1 * q2 - p2 * q1
            b = r1 * q2 - r2 * q1
            c = p1 * r2 - p2 * r1
            if d == 0 or b == 0 or c == 0:
                continue
            if d < 0:
                b, c, d = -b, -c, -d
            g = gcd(b, c, d)
            key = (b // g, c // g, d // g)
            hits[key] = hits.get(key, 0) + w2
        for key, w in hits.items():
            if w1 + w > best:
                best, points = w1 + w, [key]
            elif w1 + w == best:
                points.append(key)

    candidates = [(Fraction(b, d), Fraction(c, d)) for b, c, d in points]
    candidates += [pt for ln, w in free if w == best for pt in _line_candidates(ln)]
    if not candidates:
        return SigmaResult(count=base, coefficients=(Fraction(1), Fraction(1), Fraction(1)))
    b, c = min(candidates)
    return SigmaResult(count=base + best, coefficients=(Fraction(1), b, c))


# -- collinear triples -----------------------------------------------------

def _canonical_points(points) -> set[tuple[Fraction, Fraction]]:
    pts = {(as_scalar(x), as_scalar(y)) for x, y in points}
    if not pts:
        raise DomainError("empty point set")
    return pts


def _scaled_point_ints(pts) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The points times their joint denominator, in lexicographic order."""
    ints, _ = scaled_integers([c for p in pts for c in p])
    return tuple(zip(*sorted(zip(ints[0::2], ints[1::2]))))


_GRID_INT64_SAFE = 1 << 30
_COLLINEAR_BLOCK = 1 << 13  # pairs per numpy tile


def collinear_triples(points) -> int:
    """Ordered collinear triples of a planar point set, repetition allowed.

    Any triple with at most two distinct points counts as collinear, so
    with D3 = sum over maximal lines of m(m-1)(m-2):

        T = n + 3n(n-1) + D3.

    D3 is computed from each unordered pair of points once.  In
    lexicographic order, the later points on a line through point i all
    lie in its one direction with dx > 0, or dx = 0 and dy > 0; if c of
    them share a direction, the c(c-1) summed over the points of a line
    of m points is m(m-1)(m-2)/3, so D3 is three times that sum.
    """
    pts = _canonical_points(points)
    n = len(pts)
    degenerate = n + 3 * n * (n - 1)
    if n <= 2:
        return degenerate
    xs, ys = _scaled_point_ints(pts)
    dtype = np.int64 if max(map(abs, xs + ys)) < _GRID_INT64_SAFE else object
    return degenerate + _distinct_collinear(np.array(xs, dtype), np.array(ys, dtype))


def _distinct_collinear(X, Y) -> int:
    """D3 of lexicographically sorted points, in tiles of the arrays' type:
    int64 below span 2^30, Python ints (an object array) above.

    A tile holds at most `_COLLINEAR_BLOCK` pairs: rows i = s..e-1 against
    the columns j > s.  The direction key dx*(4*span+3) + dy of a later
    point j > i is positive; the entries j <= i get the distinct negative
    keys -j, runs of length one that add nothing.
    """
    n = len(X)
    key_base = 4 * int(max(np.max(np.abs(X)), np.max(np.abs(Y)))) + 3
    total = 0
    s = 0
    while s < n - 1:
        cols = np.arange(s + 1, n)
        e = min(n - 1, s + max(1, _COLLINEAR_BLOCK // len(cols)))
        dx = X[s + 1:] - X[s:e, None]
        dy = Y[s + 1:] - Y[s:e, None]
        g = np.maximum(np.gcd(dx, dy), 1)  # g = 0 at j = i
        key = np.where(cols > np.arange(s, e)[:, None],
                       dx // g * key_base + dy // g, -cols)
        key.sort(axis=1)
        run_start = np.ones(key.shape, dtype=bool)
        np.not_equal(key[:, 1:], key[:, :-1], out=run_start[:, 1:])
        c = np.diff(np.flatnonzero(run_start), append=key.size)
        total += int(c @ (c - 1))
        s = e
    return 3 * total


BRUTE_TRIPLE_LIMIT = 3_000_000


def collinear_triples_brute(points) -> int:
    """O(|P|^3) oracle for collinear_triples."""
    pts = _canonical_points(points)
    n = len(pts)
    if n**3 > BRUTE_TRIPLE_LIMIT:
        raise ResourceError("brute-force triple enumeration too large")
    count = 0
    for p in pts:
        for q in pts:
            for r in pts:
                if len({p, q, r}) <= 2:
                    count += 1
                elif ((q[0] - p[0]) * (r[1] - p[1])
                      - (q[1] - p[1]) * (r[0] - p[0])) == 0:
                    count += 1
    return count


# -- consecutive-slope clusters -------------------------------------------

@dataclass(frozen=True)
class ClusterReport:
    """Distinct vector sums across clusters of consecutive slope fibers.

    per_group entries are (distinct_sums, rho_lower) with
    rho_lower = tau^2 * C(M,2) - sigma * M^4, the inclusion-exclusion
    lower bound.  lemma_pass records |A+A|^2 >= tau^3 |S'| / (128 sqrt(sigma))
    and is only meaningful when both conditions hold.
    """

    tau: Scalar
    M: int
    group_count: int
    per_group: list[tuple[int, Fraction]]
    sigma_used: int | None
    conditions_ok: tuple[bool, bool]
    sums_total: int
    sums_in_box: bool
    lemma_rhs: Fraction | None
    lemma_pass: bool | None
    slopes: FiniteSet


def cluster_sigma(fibers: dict, slopes, pair_budget: int = SIGMA_PAIR_BUDGET) -> int | None:
    """max sigma_max over distinct slope triples; None if fewer than 3 slopes.

    The lines of every triple are built, and refused if too many, before
    any incidence is counted.
    """
    slopes = sorted(slopes)
    if len(slopes) < 3:
        return None
    if comb(len(slopes), 3) > CLUSTER_TRIPLE_BUDGET:
        raise ResourceError(
            f"cluster sigma: {comb(len(slopes), 3)} slope triples exceed "
            f"the budget {CLUSTER_TRIPLE_BUDGET}")
    line_sets = []
    for l1, l2, l3 in combinations(slopes, 3):
        f1, f2, f3 = fibers[l1], fibers[l2], fibers[l3]
        if len(f1) * len(f2) * len(f3) > SIGMA_SIZE_LIMIT:
            raise ResourceError("cluster sigma fibers too large")
        line_sets.append(_sigma_lines(f1, f2, f3, pair_budget))
    return max(_sigma_incidences(*lines).count for lines in line_sets)


def solymosi_cluster_report(A: FiniteSet, tau, M: int) -> ClusterReport:
    """Cluster construction over M consecutive slopes of one dyadic window.

    Sorts the chosen slopes ascending, splits them into groups of M, and
    for each group counts the exact number of distinct vector sums of the
    point fibers {(x, lambda*x) : x in A_lambda} over distinct slope pairs.
    All sums are verified to land in (A+A) x (A+A).
    """
    return _cluster_report(SetContext(A), tau, M, SIGMA_PAIR_BUDGET)


def _cluster_report(ctx: SetContext, tau, M: int, pair_budget: int) -> ClusterReport:
    """`solymosi_cluster_report` on the context's A, reading the fibers and A+A
    from it only once the slopes pass their checks."""
    tau, A = as_scalar(tau), ctx.A
    if A.has_zero() or not A.is_positive():
        raise DomainError("cluster construction requires positive elements")
    if M < 2:
        raise DomainError("cluster needs two slopes")

    lams = list(ctx.fiber_sizes(tau))
    if not lams:
        raise DomainError("empty slice window")
    slopes = FiniteSet.from_sorted(lams)
    if M > len(slopes):
        raise DomainError("M exceeds the number of available slopes")

    fibers = ctx.fibers(tau)
    sigma = cluster_sigma(fibers, slopes.elements, pair_budget=pair_budget)

    nsum, box = ctx.nsum, ctx.rep_counts("add")
    ordered = list(slopes.elements)
    k = len(ordered) // M
    per_group: list[tuple[int, Fraction]] = []
    sums_total = 0
    in_box = True
    for j in range(k):
        group = ordered[j * M:(j + 1) * M]
        pts = set()
        for la, lb in combinations(group, 2):
            # the grid points on the slope-la line are (x/la, x), x in A_la:
            # both coordinates then lie in A, so every pair sum lands in
            # (A+A) x (A+A)
            for x in fibers[la]:
                for y in fibers[lb]:
                    pts.add((x / la + y / lb, x + y))
        in_box = in_box and all(c in box for p in pts for c in p)
        rho = (tau**2 * comb(M, 2) - sigma * Fraction(M) ** 4
               if sigma is not None else None)
        per_group.append((len(pts), rho))
        sums_total += len(pts)

    if sigma is None:
        conditions = (False, False)
        lemma_rhs = None
        lemma_pass = None
    else:
        cond1 = 32 * sigma <= tau**2
        cond2 = tau**4 <= Fraction(nsum) ** 2 * sigma
        conditions = (cond1, cond2)
        if sigma > 0:
            lemma_rhs = tau**3 * len(slopes) / (128 * sqrt_frac(Fraction(sigma)))
            # exact: |A+A|^2 >= tau^3 |S'| / (128 sqrt(sigma))
            lemma_pass = ((Fraction(nsum) ** 2 * 128) ** 2 * sigma
                          >= (tau**3 * len(slopes)) ** 2)
        else:
            lemma_rhs = Fraction(0)
            lemma_pass = True

    return ClusterReport(tau=tau, M=M, group_count=k, per_group=per_group,
                         sigma_used=sigma, conditions_ok=conditions,
                         sums_total=sums_total, sums_in_box=in_box,
                         lemma_rhs=lemma_rhs, lemma_pass=lemma_pass,
                         slopes=slopes)


# -- the E+(A) versus |A/A|, |AA| chain ------------------------------------

TRIPLES_POINT_LIMIT = 25_000


@dataclass(frozen=True)
class ErChain:
    """Popular-sum chain: N(x) = |A ∩ (x-A)|, the popular set F, and the
    collinear triples of (A ∪ F) x (A ∪ F).

    T is None when the grid exceeds the triples limit; the dependent check
    and ratios are then omitted.
    """

    N: Counter
    F: FiniteSet
    U: int
    T: int | None
    checks: dict
    ratios: dict


def er_chain(A: FiniteSet, triples_limit: int = TRIPLES_POINT_LIMIT) -> ErChain:
    if len(A) < 2:
        raise DomainError("chain requires |A| >= 2")
    if A.has_zero() or not A.is_positive():
        raise DomainError("chain requires positive elements")

    ctx = SetContext(A)
    n, N, Ep = ctx.n, ctx.rep_counts("add"), ctx.Ep
    threshold = Fraction(Ep, 2 * n * n)
    F = FiniteSet(x for x, c in N.items() if c > threshold)
    U = sum(N[x] for x in F)
    sumsq_F = sum(N[x] ** 2 for x in F)

    m = min(ctx.nprod, ctx.nquot)

    X = A.union(F)
    T = None
    if len(X) ** 2 <= triples_limit:
        pts = [(x, y) for x in X for y in X]
        T = collinear_triples(pts)

    checks = {
        "sum_F": 2 * sumsq_F >= Ep,
        "est_U": 2 * n * U >= Ep,
        "est_F+A": (len(F) + n) * Ep <= 4 * n * n * U,
    }
    if T is not None:
        checks["tripple_low"] = T * m * n * n >= U**4

    ratios = {"er_log2": Fraction(Ep) ** 4 / (m * Fraction(n) ** 10 * ctx.log2n)}
    if T is not None:
        ratios["triples_upper_log2"] = T / (Fraction(len(X)) ** 4 * ctx.log2n)

    return ErChain(N=N, F=F, U=U, T=T, checks=checks, ratios=ratios)
