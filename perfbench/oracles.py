"""Output checks that do not use the program under test.

Everything here is plain integer Python: a rational is a reduced
``(numerator, denominator)`` pair with a positive denominator, and sets are
scaled to integers before counting.  Nothing is imported from ``sumprod``;
`self_test` compares these functions with the program's brute-force
oracles on tiny inputs, the other direction being the point of the file.
"""

from __future__ import annotations

from collections import Counter
from functools import cmp_to_key
from itertools import combinations
from math import comb, gcd, isqrt, lcm

DIGITS = 40  # decimal digits of the program's rendered irrational values
D_UPPER_PAIR_BUDGET = 4_000_000  # d_upper skips the A/A candidate above this
PROP_CRIT_CAP = 2000
LEMMA3_M = 2
REGISTRY_IDS = (
    "COR-SOL", "CS-SUBS", "DA-LEVEL", "ENERGY-SUMSET", "ER", "GEN-SIGMA",
    "LEMMA3", "LEVELSET", "MAIN-A", "MAIN-B", "PREV", "PREV-DA",
    "PROP-CRIT-P", "PROP-CRIT-Q", "SMALL2", "SMALLMD", "SMALLMD-ENERGY",
    "SOLPLUS", "SOLY-MAX", "SOLY-PROD", "SOLY-QUOT",
)


class CheckError(AssertionError):
    """A program output disagrees with the independent computation."""


def check(cond: bool, what: str) -> None:
    if not cond:
        raise CheckError(what)


# -- rationals as integer pairs --------------------------------------------

def rat(p: int, q: int = 1) -> tuple[int, int]:
    if q == 0:
        raise ZeroDivisionError("zero denominator")
    if q < 0:
        p, q = -p, -q
    g = gcd(p, q)
    return p // g, q // g


def parse_rat(text: str) -> tuple[int, int]:
    p, _, q = text.partition("/")
    return rat(int(p), int(q) if q else 1)


def fmt_rat(x: tuple[int, int]) -> str:
    return str(x[0]) if x[1] == 1 else f"{x[0]}/{x[1]}"


def rat_cmp(x, y) -> int:
    a, b = x[0] * y[1], y[0] * x[1]
    return (a > b) - (a < b)


rat_key = cmp_to_key(rat_cmp)


def rat_pow(x, e: int):
    """x**e for an integer exponent, negative allowed."""
    p, q = x
    return rat(p ** e, q ** e) if e >= 0 else rat(q ** -e, p ** -e)


def rat_mul(*xs):
    p, q = 1, 1
    for a, b in xs:
        p, q = p * a, q * b
    return rat(p, q)


def iroot(n: int, k: int) -> int:
    """Floor of the k-th root of n >= 0, by bisection on the bit length."""
    if n < 0:
        raise ValueError("negative radicand")
    lo, hi = 0, 1 << (n.bit_length() // k + 1)
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if mid ** k <= n:
            lo = mid
        else:
            hi = mid - 1
    return lo


def floor_root(x, k: int) -> tuple[int, int]:
    """x**(1/k) floored to DIGITS decimals, as the program renders it."""
    scale = 10 ** DIGITS
    return rat(iroot(x[0] * scale ** k // x[1], k), scale)


def ceil_log2(n: int) -> int:
    return (n - 1).bit_length()


def exact_log2(n: int) -> int:
    """log2 n for a power of two; the verified sets have 16 elements."""
    if n & (n - 1):
        raise ValueError(f"log2 of {n} is irrational; not checked")
    return n.bit_length() - 1


# -- set statistics --------------------------------------------------------

def scale(values) -> list[int]:
    """Rationals -> integers m*a with m the lcm of the denominators."""
    m = lcm(*(q for _, q in values))
    return [p * (m // q) for p, q in values]


class SetFacts:
    """Representation counts of A+A, AA and A/A for a set without 0."""

    def __init__(self, values):
        a = scale(values)
        check(len(set(a)) == len(a) and 0 not in a, "input set not distinct and nonzero")
        self.ints = a
        self.n = len(a)
        self.sums = Counter(x + y for x in a for y in a)
        self.prods = Counter(x * y for x in a for y in a)
        self.quots = Counter(rat(x, y) for x in a for y in a)
        self.nsum, self.nprod, self.nquot = len(self.sums), len(self.prods), len(self.quots)
        self.Ep = sum(c * c for c in self.sums.values())
        self.Ex = sum(c * c for c in self.prods.values())
        self.K = rat(min(self.nprod, self.nquot), self.n)

    def fibers(self) -> dict:
        """lambda -> the pairs (x, x/lambda) with x in A_lambda = A ∩ lambda*A."""
        out: dict = {}
        for x in self.ints:
            for y in self.ints:
                out.setdefault(rat(x, y), []).append((x, y))
        return out

    def slices(self) -> list[tuple[int, tuple[int, int], list]]:
        """Nonempty dyadic windows (j, tau, sorted slopes), tau = 2^j / 2."""
        buckets: dict = {}
        for lam, size in self.quots.items():
            j = 0 if size == 1 else (size - 1).bit_length()
            buckets.setdefault(j, []).append(lam)
        return [(j, rat(2 ** j, 2), sorted(buckets[j], key=rat_key))
                for j in sorted(buckets)]

    def d_upper(self):
        """(d_upper, witness size) over the defaults {1}, A, A^-1 and A/A."""
        n = self.n
        cands = [(rat(n * n, n), 1), (rat(self.nprod ** 2, n * n), n),
                 (rat(self.nquot ** 2, n * n), n)]
        if n * self.nquot <= D_UPPER_PAIR_BUDGET:
            aq = {rat(x * p, q) for x in self.ints for p, q in self.quots}
            cands.append((rat(len(aq) ** 2, n * self.nquot), self.nquot))
        best = cands[0]
        for c in cands[1:]:
            if rat_cmp(c[0], best[0]) < 0:
                best = c
        return best


def expected_stats(values) -> dict:
    """Every field of `sumprod stats --json` for a set without 0."""
    f = SetFacts(values)
    d, witness = f.d_upper()
    return {
        "n": f.n, "sumset": f.nsum, "productset": f.nprod, "quotientset": f.nquot,
        "energy_add": f.Ep, "energy_mul": f.Ex,
        "spectrum": {
            "lambdas": f.nquot,
            "max_fiber": max(f.quots.values()),
            "slices": [{"tau": fmt_rat(tau), "count": len(lams)}
                       for _, tau, lams in f.slices()],
        },
        "doubling": {"K_mul": fmt_rat(f.K), "d_upper": fmt_rat(d),
                     "witness_size": witness},
    }


def check_stats(values, out: dict) -> None:
    d, K = parse_rat(out["doubling"]["d_upper"]), parse_rat(out["doubling"]["K_mul"])
    check(rat_cmp(d, rat(out["n"])) <= 0 and rat_cmp(d, rat_pow(K, 2)) <= 0,
          "reported d_upper exceeds min(|A|, K_mul^2)")
    exp = expected_stats(values)
    check(out == exp, f"stats --json differs from the oracle: {out} != {exp}")


# -- verify --json ---------------------------------------------------------

def _same(report: dict, key: str, value, rid: str) -> None:
    check(parse_rat(report[key]) == value,
          f"{rid}.{key} = {report[key]}, oracle {fmt_rat(value)}")


def check_verify(values, reports: list) -> None:
    f = SetFacts(values)
    n, L2 = f.n, exact_log2(f.n)
    by_id = {r["id"]: r for r in reports}
    check([r["id"] for r in reports] == sorted(REGISTRY_IDS),
          "verify --json does not list the 21 registry ids in order")
    for r in reports:
        if "error" not in r and r["explicit"]:
            check(r["pass"] is True, f"explicit entry {r['id']} fails")
    m = min(f.nprod, f.nquot)
    cl = ceil_log2(n)
    explicit = {
        "SOLY-PROD": (rat(f.nsum ** 2 * f.nprod), rat(n ** 4, 4 * cl)),
        "SOLY-QUOT": (rat(f.nsum ** 2 * f.nquot), rat(n ** 4, 4 * cl)),
        "CS-SUBS": (rat(f.Ex * m), rat(n ** 4)),
    }
    for rid, (lhs, rhs) in explicit.items():
        r = by_id[rid]
        _same(r, "lhs", lhs, rid)
        _same(r, "rhs", rhs, rid)
        _same(r, "ratio", rat_mul(lhs, rat_pow(rhs, -1)), rid)
        check(r["explicit"] is True and r["pass"] is (rat_cmp(lhs, rhs) >= 0),
              f"{rid} pass flag")
    # hidden-constant entries: rhs = prod base^exp, rendered to DIGITS
    K, nr, ns = f.K, rat(n), rat(f.nsum)
    hidden = {
        # n^{3/2} K^{-1/2}
        "COR-SOL": (ns, floor_root(rat_mul(rat_pow(nr, 3), rat_pow(K, -1)), 2),
                    floor_root(rat_mul(rat_pow(ns, 2), K, rat_pow(nr, -3)), 2)),
        # min(|AA|,|A/A|) n^10 log2 n
        "ER": (rat(f.Ep ** 4), rat(m * n ** 10 * L2),
               floor_root(rat(f.Ep ** 4, m * n ** 10 * L2), 1)),
        # K^{1/4} n^{5/8} |A+A|^{3/2} (log2 n)^{3/4}
        "SMALLMD-ENERGY": (
            rat(f.Ex),
            floor_root(rat_mul(rat_pow(K, 2), rat_pow(nr, 5), rat_pow(ns, 12),
                               rat(L2 ** 6)), 8),
            floor_root(rat_mul(rat(f.Ex ** 8), rat_pow(K, -2), rat_pow(nr, -5),
                               rat_pow(ns, -12), rat(1, L2 ** 6)), 8)),
    }
    for rid, (lhs, rhs, ratio) in hidden.items():
        r = by_id[rid]
        check(r.get("explicit") is False and r.get("pass") is None, f"{rid} flags")
        _same(r, "lhs", lhs, rid)
        _same(r, "rhs", rhs, rid)
        _same(r, "ratio", ratio, rid)
    # Capped and slope-starved entries must refuse, not report; below the
    # cap PROP-CRIT's lhs is the multiplicative energy of AA or A/A.
    for rid, derived in (("PROP-CRIT-P", f.prods), ("PROP-CRIT-Q", f.quots)):
        size = len(derived)
        if size > PROP_CRIT_CAP:
            err = by_id[rid].get("error", "")
            check(str(size) in err and str(PROP_CRIT_CAP) in err,
                  f"{rid} should refuse |derived set| = {size}: {by_id[rid]}")
        else:
            _same(by_id[rid], "lhs", rat(mul_energy(derived)), rid)
    slopes = lemma3_slopes(f)
    if slopes is not None and slopes < LEMMA3_M:
        check("error" in by_id["LEMMA3"],
              f"LEMMA3 should refuse a window of {slopes} slope(s)")


def mul_energy(elems) -> int:
    """E_x of a set of integers or reduced pairs: sum of r_{XX}(x)^2."""
    pairs = [e if isinstance(e, tuple) else (e, 1) for e in elems]
    return sum(c * c for c in Counter(rat_mul(x, y) for x in pairs for y in pairs).values())


def lemma3_slopes(f: SetFacts) -> int | None:
    """Slopes in the window smallL_construction picks, None if none qualifies.

    The window of largest |S_tau| tau^2 (then tau) among those with
    tau >= E_x / (2 |A|^2).
    """
    threshold = rat(f.Ex, 2 * f.n ** 2)
    best = None
    for _, tau, lams in f.slices():
        if rat_cmp(tau, threshold) < 0:
            continue
        key = (rat_key(rat_mul(rat(len(lams)), tau, tau)), rat_key(tau))
        if best is None or key > best[0]:
            best = (key, len(lams))
    return None if best is None else best[1]


# -- counting --------------------------------------------------------------

def check_cluster(values, tau_text: str, M: int, rep: dict) -> None:
    """One solymosi_cluster_report against sums recounted from own fibers."""
    f = SetFacts(values)
    tau = parse_rat(tau_text)
    fibers = f.fibers()
    window = [lam for lam in sorted(fibers, key=rat_key)
              if rat_cmp(tau, rat(len(fibers[lam]))) < 0
              and rat_cmp(rat(len(fibers[lam])), rat_mul(rat(2), tau)) <= 0]
    what = f"cluster tau={tau_text} M={M}"
    check([parse_rat(s) for s in rep["slopes"]] == window, f"{what}: slopes")
    k = len(window) // M
    check(rep["group_count"] == k, f"{what}: group_count")
    box = set(f.sums)
    counts, in_box = [], True
    for j in range(k):
        pts = set()
        for la, lb in combinations(window[j * M:(j + 1) * M], 2):
            # a fiber point (x/lambda, x) is the pair (y, x) with x/y = lambda
            for x1, y1 in fibers[la]:
                for x2, y2 in fibers[lb]:
                    p = (y1 + y2, x1 + x2)
                    pts.add(p)
                    in_box = in_box and p[0] in box and p[1] in box
        counts.append(len(pts))
    check([g[0] for g in rep["per_group"]] == counts, f"{what}: distinct sums")
    check(rep["sums_total"] == sum(counts), f"{what}: sums_total")
    check(rep["sums_in_box"] is in_box is True, f"{what}: sums_in_box")
    sigma = rep["sigma_used"]
    if len(window) < 3:
        check(sigma is None and rep["conditions_ok"] == [False, False],
              f"{what}: sigma with fewer than three slopes")
        return
    t2 = rat_mul(tau, tau)
    for count, rho in rep["per_group"]:
        check(parse_rat(rho) == rat(t2[0] * comb(M, 2) - sigma * M ** 4 * t2[1], t2[1]),
              f"{what}: rho")
    cond1 = rat_cmp(rat(32 * sigma), t2) <= 0
    cond2 = rat_cmp(rat_pow(tau, 4), rat(f.nsum ** 2 * sigma)) <= 0
    check(rep["conditions_ok"] == [cond1, cond2], f"{what}: side conditions")
    if sigma > 0:
        t3 = rat_pow(tau, 3)
        lhs = (f.nsum ** 2 * 128) ** 2 * sigma * t3[1] ** 2
        check(rep["lemma_pass"] is (lhs >= (t3[0] * len(window)) ** 2), f"{what}: lemma_pass")
    if cond1 and cond2:
        check(rep["lemma_pass"] is True, f"{what}: lemma fails under its conditions")
        for count, rho in rep["per_group"]:
            check(rat_cmp(rat(count), parse_rat(rho)) >= 0, f"{what}: sums below rho")


def sigma_solutions(A1, A2, A3, b, c) -> int:
    """#{x_i in A_i (integers) : x1 + b x2 + c x3 = 0} for rationals b, c."""
    (pb, qb), (pc, qc) = b, c
    targets = Counter(pc * qb * x for x in A3)
    return sum(targets[-(qb * qc * x1 + pb * qc * x2)] for x1 in A1 for x2 in A2)


def check_sigma_max(A1, A2, A3, rep: dict, rng) -> None:
    """Attained at its coefficients and not beaten by a seeded sample."""
    coeffs = [parse_rat(s) for s in rep["coefficients"]]
    check(coeffs[0] == (1, 1), "sigma_max leading coefficient")
    got = sigma_solutions(A1, A2, A3, coeffs[1], coeffs[2])
    check(got == rep["count"], f"sigma_max {rep['count']} not attained ({got})")
    for _ in range(150):
        # a random small pair, and a pair forced through one random triple
        b = rat(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 9))
        c = rat(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 9))
        x1, x2, x3 = rng.choice(A1), rng.choice(A2), rng.choice(A3)
        bb = rat(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 9))
        num = -(x1 * bb[1] + bb[0] * x2)
        for pair in ((b, c), (bb, rat(num, bb[1] * x3))):
            if pair[1][0] != 0:
                check(sigma_solutions(A1, A2, A3, *pair) <= rep["count"],
                      f"sigma_max beaten at {pair}")


def collinear_count(points) -> int:
    """Ordered collinear triples of integer points by counting pairs per line."""
    pts = sorted(set(points))
    n = len(pts)
    lines: Counter = Counter()
    for i, (x1, y1) in enumerate(pts):
        for x2, y2 in pts[i + 1:]:
            a, b = y2 - y1, x1 - x2
            g = gcd(a, b)
            a, b = a // g, b // g
            if a < 0 or (a == 0 and b < 0):
                a, b = -a, -b
            lines[(a, b, a * x1 + b * y1)] += 1
    d3 = 0
    for pairs in lines.values():
        m = (1 + isqrt(1 + 8 * pairs)) // 2  # pairs = m(m-1)/2
        d3 += m * (m - 1) * (m - 2)
    return n + 3 * n * (n - 1) + d3


def check_er_chain(values, rep: dict, triples_limit: int = 25_000) -> None:
    f = SetFacts(values)
    n, N = f.n, f.sums
    F = sorted(x for x, c in N.items() if 2 * n * n * c > f.Ep)
    U = sum(N[x] for x in F)
    m = min(f.nprod, f.nquot)
    X = sorted(set(f.ints) | set(F))
    T = collinear_count([(x, y) for x in X for y in X]) if len(X) ** 2 <= triples_limit else None
    check([parse_rat(x) for x in rep["F"]] == [(x, 1) for x in F]
          and rep["U"] == U and rep["T"] == T, "er_chain F, U or T")
    checks = {
        "sum_F": 2 * sum(N[x] ** 2 for x in F) >= f.Ep,
        "est_U": 2 * n * U >= f.Ep,
        "est_F+A": (len(F) + n) * f.Ep <= 4 * n * n * U,
    }
    if T is not None:
        checks["tripple_low"] = T * m * n * n >= U ** 4
    check(rep["checks"] == checks, f"er_chain checks {rep['checks']} != {checks}")


# -- extremal search -------------------------------------------------------

def registry_ratio(rid: str, ints) -> tuple[int, int]:
    """The registry ratio of a small integer set, for the ids searched."""
    f = SetFacts([(x, 1) for x in ints])
    n, nr, ns = f.n, rat(f.n), rat(f.nsum)
    if rid == "SOLY-PROD":
        return rat(f.nsum ** 2 * f.nprod * 4 * ceil_log2(n), n ** 4)
    if rid == "SOLY-QUOT":
        return rat(f.nsum ** 2 * f.nquot * 4 * ceil_log2(n), n ** 4)
    if rid == "CS-SUBS":
        return rat(f.Ex * min(f.nprod, f.nquot), n ** 4)
    if rid == "COR-SOL":  # |A+A| n^{-3/2} K^{1/2}
        return floor_root(rat_mul(rat_pow(ns, 2), f.K, rat_pow(nr, -3)), 2)
    if rid == "MAIN-A":  # |A+A| n^{-19/12} K^{5/6}
        return floor_root(rat_mul(rat_pow(ns, 12), rat_pow(nr, -19),
                                  rat_pow(f.K, 10)), 12)
    raise ValueError(f"no oracle for {rid}")


def exhaustive_best(rid: str, ground, n: int, maximize: bool):
    """(ratio, set) of the lexicographically first extremal n-subset."""
    best = None
    for combo in combinations(sorted(ground), n):
        r = registry_ratio(rid, combo)
        if best is None or rat_cmp(r, best[0]) * (-1 if maximize else 1) < 0:
            best = (r, list(combo))
    return best


def self_test(program: dict, sets, points) -> None:
    """Compare these oracles with the program's brute-force oracles.

    `program` holds energy_by_quadruples and collinear_triples_brute values
    for the same tiny `sets` and `points`, computed by the program.
    """
    for values, (e_add, e_mul) in zip(sets, program["energies"]):
        f = SetFacts(values)
        check((f.Ep, f.Ex) == (e_add, e_mul),
              f"oracle energies {(f.Ep, f.Ex)} != quadruple count {(e_add, e_mul)}")
    for pts, brute in zip(points, program["triples"]):
        check(collinear_count(pts) == brute,
              f"oracle collinear count != brute force {brute}")
