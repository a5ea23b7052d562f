"""Counting kernels: three-variable linear equations, collinear triples,
the consecutive-slope cluster construction, and the energy/triples chain
relating E+(A) to the quotient and product sets.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
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


def _line_candidates(line) -> list[tuple[int, int, int]]:
    """Representative points of the line p*b + q*c = r with b, c != 0, each
    as homogeneous integers (b, c, d) with d > 0 for the point (b/d, c/d)."""
    p, q, r = line
    out = [(r, r, p + q)] if p + q != 0 and r != 0 else []
    for t in (1, -1, 2, -2):
        if q != 0:
            if r != p * t:
                out.append((q * t, r - p * t, q))
        elif r != 0:
            out.append((r, p * t, p))
    return [(b, c, d) if d > 0 else (-b, -c, -d) for b, c, d in out]


def sigma_max(A1: FiniteSet, A2: FiniteSet, A3: FiniteSet) -> SigmaResult:
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
    and the `_line_candidates` points of maximal lines.  More than
    `SIGMA_PAIR_BUDGET` line pairs are refused.
    """
    return _sigma_incidences(*_sigma_lines(A1, A2, A3, SIGMA_PAIR_BUDGET))


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


def _precedes(u, v) -> bool:
    """Whether the homogeneous point u = (b, c, d), d > 0, is lexicographically
    before v, or v is None; compared by integer cross-multiplication."""
    return v is None or (u[0] * v[2], u[1] * v[2]) < (v[0] * u[2], v[1] * u[2])


def _sigma_incidences(lines: Counter, base: int) -> SigmaResult:
    """`sigma_max` from its weighted lines by integer incidence counting,
    keeping one maximizer `top`: the lexicographically first maximal point so far."""
    # the axes meet every other line at b = 0 or c = 0, so they drop out
    free = [(ln, w) for ln, w in lines.items() if ln not in ((1, 0, 0), (0, 1, 0))]
    best = max((w for _, w in free), default=0)
    top = None
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
                best, top = w1 + w, key
            elif w1 + w == best and _precedes(key, top):
                top = key

    for pt in (pt for ln, w in free if w == best for pt in _line_candidates(ln)):
        if _precedes(pt, top):
            top = pt
    if top is None:
        return SigmaResult(count=base, coefficients=(Fraction(1), Fraction(1), Fraction(1)))
    b, c, d = top
    return SigmaResult(count=base + best,
                       coefficients=(Fraction(1), Fraction(b, d), Fraction(c, d)))


# -- collinear triples -----------------------------------------------------

_FLOAT_KEY_SPAN = 1 << 24  # below it, float64 direction keys are exact
_GRID_INT64_SAFE = 1 << 30
_COLLINEAR_BLOCK = 1 << 13  # pairs per numpy tile


def collinear_triples(points) -> int:
    """Ordered collinear triples of a planar point set, repetition allowed.

    When the distinct points form a full grid X x Y, of kx and ky values
    and span below 2^24, the count comes from the triples of X and of Y
    alone.  A triple of grid points is collinear when
    (x2-x1)(y3-y1) = (x3-x1)(y2-y1), that is when (x2-x1, x3-x1) and
    (y2-y1, y3-y1) are parallel or one of them is zero.  With cX(d) the
    number of triples of X^3 whose difference vector has the direction d:

        T = kx*ky^3 + (kx^3 - kx)*ky + sum_d cX(d)*cY(d).

    The directions 0, 1 and infinity of r = (x3-x1)/(x2-x1) each have
    c = k(k-1).  Permuting a triple of distinct values moves r through its
    anharmonic orbit {r, 1/r, 1-r, 1/(1-r), r/(r-1), (r-1)/r}, which meets
    (0, 1/2] in one shape s = min(y-x, z-y)/(z-x) of the set x < y < z; so
    with M(s) the number of 3-subsets of shape s,

        sum_d cX*cY = 3*kx(kx-1)*ky(ky-1) + 6*sum_s MX(s)*MY(s)
                      + 6*MX(1/2)*MY(1/2),

    the last term because the orbit of 1/2 has 3 members, each reached
    twice.  The key of a shape p/q is its float64: 0 < p < q < 2^25, so
    distinct shapes lie more than 2^-50 apart, while each correctly
    rounded quotient errs by at most 2^-54.

    Any other point set is counted by its point pairs, as is a grid whose
    C(kx,3) + C(ky,3) keys would outnumber its C(kx*ky, 2) pairs.  Any
    triple with at most two distinct points counts as collinear, so with
    D3 = sum over maximal lines of m(m-1)(m-2):

        T = n + 3n(n-1) + D3.

    D3 is computed from each unordered pair of points once.  In
    lexicographic order, the later points on a line through point i all
    lie in its one direction with dx > 0, or dx = 0 and dy > 0; if c of
    them share a direction, the c(c-1) summed over the points of a line
    of m points is m(m-1)(m-2)/3, so D3 is three times that sum.
    """
    # an int is its own scaled form: no coordinate but a 'p/q' string becomes a Fraction
    ints, _ = scaled_integers([c if isinstance(c, int) else as_scalar(c)
                               for x, y in points for c in (x, y)])
    if not ints:
        raise DomainError("empty point set")
    pts = set(zip(ints[0::2], ints[1::2]))
    xs, ys = sorted({x for x, _ in pts}), sorted({y for _, y in pts})
    if len(pts) == len(xs) * len(ys):
        return _grid_collinear(xs, ys)
    return _collinear_ints(*zip(*sorted(pts)))


def _grid_collinear(xs: list[int], ys: list[int]) -> int:
    """`collinear_triples` of the grid xs x ys of ascending ints: by the
    shapes of their 3-subsets below span 2^24, unless those outnumber the
    grid's point pairs, and by the pair tiles otherwise."""
    kx, ky = len(xs), len(ys)
    span = max(-xs[0], xs[-1], -ys[0], ys[-1])
    if span >= _FLOAT_KEY_SPAN or comb(kx, 3) + comb(ky, 3) > comb(kx * ky, 2):
        return _collinear_ints([x for x in xs for _ in ys], ys * kx)
    shapes, mx = _shape_counts(xs)
    if ys == xs:
        my = mx
    else:
        keys = _shape_keys(ys)
        my = np.searchsorted(keys, shapes, "right") - np.searchsorted(keys, shapes)
    # the shapes ascend, so 1/2, the largest possible, is the last if present
    half = int(mx[-1]) * int(my[-1]) if shapes.size and shapes[-1] == 0.5 else 0
    # mx @ my <= C(kx,3)*C(ky,3) stays below 2^63 for any keys that fit in memory
    return (kx * ky**3 + (kx**3 - kx) * ky + 3 * kx * (kx - 1) * ky * (ky - 1)
            + 6 * (int(mx @ my) + half))


def _shape_counts(s: list[int]):
    """The distinct shapes of `_shape_keys(s)`, ascending, and each one's count."""
    keys = _shape_keys(s)
    run_start = np.ones(keys.size + 1, dtype=bool)  # the last entry closes the last run
    np.not_equal(keys[1:], keys[:-1], out=run_start[1:-1])
    keys = keys[run_start[:-1]]
    return keys, np.diff(np.flatnonzero(run_start))


def _shape_keys(s: list[int]) -> np.ndarray:
    """The shapes min(y-x, z-y)/(z-x) of the 3-subsets x < y < z of the
    ascending ints s, as sorted float64 keys.

    The j(k-1-j) subsets with middle element s[j] fill the next block of
    one preallocated array, as the table of y - x against z - y.
    """
    k = len(s)
    v = np.array(s, dtype=np.float64)
    keys = np.empty(comb(k, 3))
    end = 0
    for j in range(1, k - 1):
        left, right = v[j] - v[:j, None], v[j + 1:] - v[j]
        out = keys[end:end + j * (k - 1 - j)].reshape(j, -1)
        np.minimum(left, right, out=out)
        out /= left + right
        end += out.size
    keys.sort()
    return keys


def _collinear_ints(xs, ys) -> int:
    """`collinear_triples` of the distinct integer points (xs[k], ys[k]),
    given in lexicographic order, with the tiles' type chosen by the span."""
    n = len(xs)
    degenerate = n + 3 * n * (n - 1)
    if n <= 2:
        return degenerate
    span = max(max(map(abs, xs)), max(map(abs, ys)))
    dtype = (np.float64 if span < _FLOAT_KEY_SPAN
             else np.int64 if span < _GRID_INT64_SAFE else object)
    return degenerate + _distinct_collinear(np.array(xs, dtype), np.array(ys, dtype))


def _distinct_collinear(X, Y) -> int:
    """D3 of distinct, lexicographically sorted integer points, in tiles.

    A tile holds at most `_COLLINEAR_BLOCK` pairs: rows i = s..e-1 against
    the columns j > s.  Each later point j > i is keyed by its direction
    (dx, dy) from i, with dx > 0, or dx = 0 and dy > 0; the cells j <= i
    get distinct keys that no direction has, runs of length one that add
    nothing.  The key follows the arrays' type, which the span sets:

    * float64, span below 2^24: t = dy / (dx + |dy|), in [-1, 1] and
      strictly increasing in the slope, so one value per direction; the
      cells j <= i get -2 - j.  Float equality is exact equality here.
      dx, dy and dx + |dy| < 2^26 are exact doubles, and IEEE division is
      correctly rounded, so equal slopes give the same double.  Two
      distinct values p1/q1 != p2/q2 with q1, q2 < 2^26 differ by at least
      1/(q1*q2) > 2^-52, while each rounding of a |t| <= 1 errs by at
      most 2^-54, so they stay distinct.
    * int64, span below 2^30: dx/g*(4*span+3) + dy/g with g = gcd(dx, dy),
      a positive key below 2^63; the cells j <= i get -j.
    * object arrays of Python ints, above: the same reduced key, unbounded.
    """
    n = len(X)
    if X.dtype == np.float64:
        keys = _slope_keys
    else:
        key_base = 4 * int(max(np.max(np.abs(X)), np.max(np.abs(Y)))) + 3
        keys = partial(_reduced_keys, key_base)
    total = 0
    s = 0
    while s < n - 1:
        cols = np.arange(s + 1, n)
        e = min(n - 1, s + max(1, _COLLINEAR_BLOCK // len(cols)))
        later = cols > np.arange(s, e)[:, None]
        key = keys(X[s + 1:] - X[s:e, None], Y[s + 1:] - Y[s:e, None], later, cols)
        key.sort(axis=1)
        run_start = np.ones(key.shape, dtype=bool)
        np.not_equal(key[:, 1:], key[:, :-1], out=run_start[:, 1:])
        c = np.diff(np.flatnonzero(run_start), append=key.size)
        total += int(c @ (c - 1))
        s = e
    return 3 * total


def _slope_keys(dx, dy, later, cols):
    """The float64 keys of one tile, built in dy's buffer."""
    den = np.abs(dy)
    den += dx
    np.divide(dy, den, out=dy, where=later)
    np.copyto(dy, -2.0 - cols, where=~later)
    return dy


def _reduced_keys(key_base, dx, dy, later, cols):
    """The gcd-reduced integer keys of one tile."""
    g = np.maximum(np.gcd(dx, dy), 1)  # g = 0 at j = i
    return np.where(later, dx // g * key_base + dy // g, -cols)


BRUTE_TRIPLE_LIMIT = 3_000_000


def collinear_triples_brute(points) -> int:
    """O(|P|^3) oracle for collinear_triples.

    Each distinct point (x, y) becomes the homogeneous integer point
    (xn*yd, yn*xd, xd*yd), with x = xn/xd and y = yn/yd; an ordered
    triple is collinear when the 3x3 determinant of its points is zero,
    which holds whenever two of them are equal.
    """
    pts = {(as_scalar(x), as_scalar(y)) for x, y in points}
    if not pts:
        raise DomainError("empty point set")
    if len(pts) ** 3 > BRUTE_TRIPLE_LIMIT:
        raise ResourceError("brute-force triple enumeration too large")
    hom = [(x.numerator * y.denominator, y.numerator * x.denominator,
            x.denominator * y.denominator) for x, y in pts]
    count = 0
    for p0, p1, p2 in hom:
        for q0, q1, q2 in hom:
            # the determinant expanded along its third row r
            a, b, c = p1 * q2 - p2 * q1, p2 * q0 - p0 * q2, p0 * q1 - p1 * q0
            count += sum(a * r0 + b * r1 + c * r2 == 0 for r0, r1, r2 in hom)
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


def cluster_sigma(fibers: dict, pair_budget: int) -> int | None:
    """max sigma_max over the triples of distinct slopes of the fibers, which
    are keyed by slope in increasing order; None if fewer than 3 slopes.

    sigma_max's count, its input size and its number of lines are unchanged
    when one of the three sets is dilated by a nonzero rational, and, when no
    set holds 0, when the sets are permuted.  So the count is taken once per
    key: the triple's primitive integer shapes (each fiber's scaled integers
    over their gcd), sorted unless a fiber holds 0.  The lines of every key's
    first triple are built, and refused if too many, before any incidence is
    counted.
    """
    if len(fibers) < 3:
        return None
    if comb(len(fibers), 3) > CLUSTER_TRIPLE_BUDGET:
        raise ResourceError(
            f"cluster sigma: {comb(len(fibers), 3)} slope triples exceed "
            f"the budget {CLUSTER_TRIPLE_BUDGET}")
    shapes = []
    for F in fibers.values():
        ints, _ = scaled_integers(F)
        g = gcd(*ints) or 1
        shapes.append(tuple(i // g for i in ints))
    ordered = any(0 in s for s in shapes)  # 0 makes the line count depend on the order
    firsts: dict = {}
    for triple in combinations(zip(shapes, fibers.values()), 3):
        key = tuple(s for s, _ in triple)
        firsts.setdefault(key if ordered else tuple(sorted(key)), triple)
    line_sets = [_sigma_lines(*(F for _, F in triple), pair_budget)
                 for triple in firsts.values()]
    return max(_sigma_incidences(*lines).count for lines in line_sets)


def solymosi_cluster_report(A: FiniteSet, tau, M: int) -> ClusterReport:
    """Cluster construction over M consecutive slopes of one dyadic window.

    Takes the window's slopes in increasing order, splits them into groups
    of M, and for each group counts the exact number of distinct vector sums
    of the point fibers {(x, lambda*x) : x in A_lambda} over distinct slope pairs.
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
    if M > len(lams):
        raise DomainError("M exceeds the number of available slopes")

    fibers = ctx.fibers(tau)
    sigma = cluster_sigma(fibers, pair_budget)

    nsum, (sums, den) = ctx.nsum, ctx.sum_keys
    k = len(lams) // M
    rho = tau**2 * comb(M, 2) - sigma * Fraction(M) ** 4 if sigma is not None else None
    # the grid points on the slope-la line are (x/la, x), x in A_la: both
    # coordinates then lie in A, so every pair sum lands in (A+A) x (A+A).  With
    # x = X/m and 1/la = s/D over common denominators, the sum of (x/la, x) and
    # (y/lb, y) is ((X s + Y t)/(m D), (X + Y)/m): one integer pair per point.
    *ints, m = scaled_integers(*fibers.values())
    inv, D = scaled_integers([1 / lam for lam in fibers])
    points = [[(X, X * s) for X in row] for row, s in zip(ints, inv)]
    # the values q/den of A+A as numerators over m*D and over m, where they have one
    box_u, box_v = ({q * s // den for q in sums if q * s % den == 0} for s in (m * D, m))
    per_group: list[tuple[int, Fraction]] = []
    in_box = True
    for j in range(k):
        pts = set()
        for a, b in combinations(points[j * M:(j + 1) * M], 2):
            pts.update((u + w, x + y) for x, u in a for y, w in b)
        in_box = in_box and all(u in box_u and v in box_v for u, v in pts)
        per_group.append((len(pts), rho))

    if sigma is None:
        conditions, lemma_rhs, lemma_pass = (False, False), None, None
    else:
        # sigma >= 1: A > 0, so each fiber triple gives a line x2*b + x3*c = -x1 off the axes
        conditions = (32 * sigma <= tau**2, tau**4 <= Fraction(nsum) ** 2 * sigma)
        lemma_rhs = tau**3 * len(lams) / (128 * sqrt_frac(Fraction(sigma)))
        # exact: |A+A|^2 >= tau^3 |S'| / (128 sqrt(sigma))
        lemma_pass = (Fraction(nsum) ** 2 * 128) ** 2 * sigma >= (tau**3 * len(lams)) ** 2

    return ClusterReport(tau=tau, M=M, group_count=k, per_group=per_group,
                         sigma_used=sigma, conditions_ok=conditions,
                         sums_total=sum(n for n, _ in per_group), sums_in_box=in_box,
                         lemma_rhs=lemma_rhs, lemma_pass=lemma_pass,
                         slopes=FiniteSet.from_sorted(lams))


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

    m = ctx.nmin

    X = A.union(F)
    T = None
    if len(X) ** 2 <= triples_limit:
        s, _ = scaled_integers(X)  # ascending, as X is
        T = _grid_collinear(s, s)

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
