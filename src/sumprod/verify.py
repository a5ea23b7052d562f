"""The inequality registry.

Every labelled sum-product bound is evaluated on a concrete set: exact
pass/fail where the constant is explicit, an exact-rational tightness
ratio where the statement hides a constant.  Each entry reads one
`SetContext` and returns numbers; `evaluate` builds the report.  Also
houses the executable low-L construction, the Katz-Koester inclusion test
and the trace of the |A|^{4/3+c} argument at toy scale, with the exhaustive
subset oracle that stands in for its Balog-Szemeredi-Gowers step.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial
from itertools import combinations
from operator import attrgetter

from ._approx import product_pow
from .counting import _cluster_report
from .exactset import (
    DomainError,
    FiniteSet,
    ResourceError,
    Scalar,
    canonical_json,
    format_scalar,
)
from .stats import SetContext, pair_counts

#: exponent bump of the max{|A+A|,|AA|} >= |A|^{4/3+c} bound, just under
#: the admissible supremum 1/20598
SOLPLUS_C = Fraction(1, 20598) - Fraction(1, 10**6)

QUOTIENT_ENERGY_CAP = 2000
LEVEL_TAU = 2  # LEVELSET and DA-LEVEL count the values with at least this many representations
LEMMA3_M = 2  # slopes per cluster group
LEMMA3_PAIR_BUDGET = 200_000
BSG_MAX_SIZE = 14  # the subset oracle enumerates all 2^|S| subsets


@dataclass(frozen=True)
class InequalityReport:
    """One evaluated registry entry.

    For hidden-constant entries `passed` is None and lhs/rhs/ratio are
    deterministic decimal renderings of the (possibly irrational) values.
    """

    id: str
    lhs: Fraction | None
    rhs: Fraction | None
    ratio: Fraction | None
    explicit: bool
    passed: bool | None
    inputs: str
    error: str | None = None

    def to_json_dict(self) -> dict:
        if self.error is not None:
            return {"id": self.id, "error": self.error}
        return {
            "id": self.id,
            "lhs": format_scalar(self.lhs),
            "rhs": format_scalar(self.rhs),
            "ratio": format_scalar(self.ratio),
            "explicit": self.explicit,
            "pass": self.passed,
            "inputs": self.inputs,
        }


def report_json(reports) -> str:
    """Canonical JSON rendering (stable key order, compact separators)."""
    return canonical_json([r.to_json_dict() for r in reports])


def _need(ctx: SetContext, nonzero=False, positive=False):
    if ctx.n < 2:
        raise DomainError("entry requires |A| >= 2")
    if nonzero and ctx.A.has_zero():
        raise DomainError("entry requires 0 not in A")
    if positive and not ctx.A.is_positive():
        raise DomainError("entry requires positive elements")


# Each entry reads the context and returns (lhs, rhs, ratio, explicit, passed).

def _ratio(lhs, factors):
    """lhs over prod base^exp, rendered; a zero lhs has ratio 0."""
    return product_pow([(lhs, 1)] + [(b, -e) for b, e in factors]) if lhs else lhs


def _bound(lhs, *factors, nonzero=False):
    """The entry for lhs against the product of the factors (name, exponent):
    lhs is a `SetContext` attribute name or a function of the context, each
    name a `SetContext` attribute and each exponent as the paper states it."""
    lhs = attrgetter(lhs) if isinstance(lhs, str) else lhs
    factors = [(attrgetter(name), Fraction(e)) for name, e in factors]

    def values(ctx):
        _need(ctx, nonzero=nonzero)
        return Fraction(lhs(ctx)), [(base(ctx), e) for base, e in factors]

    def entry(ctx):
        left, bases = values(ctx)
        return left, product_pow(bases), _ratio(left, bases), False, None
    entry.ratio = lambda ctx: _ratio(*values(ctx))  # the ratio alone, for `entry_ratio`
    return entry


def _exact(lhs, rhs, explicit=False, nonzero=False):
    """The entry for lhs against rhs, both exact functions of the context,
    evaluated in that order: asserted as lhs >= rhs where the constant is
    explicit, a tightness ratio where it is hidden."""
    def entry(ctx):
        _need(ctx, nonzero=nonzero)
        left, right = Fraction(lhs(ctx)), Fraction(rhs(ctx))
        return left, right, left / right, explicit, left >= right if explicit else None
    return entry


# -- registry entries ------------------------------------------------------

def _level_count(op, ctx):
    """How many values of A∘A have at least `LEVEL_TAU` representations."""
    # a mask and its length: a `.sum()` of the mask runs numpy code that no
    # other path of a CLI run touches, and raised its peak RSS by 128 KiB
    counts = ctx.counts(ctx.A, ctx.A, op)
    return len(counts[counts >= LEVEL_TAU])


def _solymosi_rhs(ctx):
    """|A|^4 / (4 ceil(log2 |A|)), against |A+A|^2 |AA| and |A+A|^2 |A/A|."""
    return Fraction(ctx.n**4, 4 * ctx.ceil_log2n)


def _derived_energy(op, ctx):
    """E× of AA (op "mul") or of A/A ("div"), refused before the set is built
    when it has more than `QUOTIENT_ENERGY_CAP` elements."""
    size = ctx.nprod if op == "mul" else ctx.nquot
    if size > QUOTIENT_ENERGY_CAP:
        raise ResourceError(f"PROP-CRIT-{'P' if op == 'mul' else 'Q'}: |derived set| = {size} "
                            f"exceeds cap {QUOTIENT_ENERGY_CAP}")
    return SetContext(FiniteSet.from_sorted(list(ctx.rep_counts(op)))).Ex


def _cs_subs(ctx, A1=None, A2=None):
    _need(ctx, nonzero=True)
    A1 = ctx.A if A1 is None else A1
    A2 = ctx.A if A2 is None else A2
    if not (A1 <= ctx.A and A2 <= ctx.A):
        raise DomainError("CS-SUBS requires A1, A2 subsets of A")
    c = ctx.counts(A1, A2, "mul")
    lhs = Fraction(int(c @ c)) * ctx.nmin
    rhs = Fraction(len(A1)) ** 2 * Fraction(len(A2)) ** 2
    return lhs, rhs, lhs / rhs, True, lhs >= rhs


def _lemma3(ctx):
    _need(ctx, nonzero=True, positive=True)
    cluster = _cluster_report(ctx, _choose_slice(ctx)[2][0], LEMMA3_M, LEMMA3_PAIR_BUDGET)
    lhs = Fraction(ctx.nsum) ** 2
    both = all(cluster.conditions_ok)  # both hold only when sigma, and so lemma_rhs, exists
    rhs = cluster.lemma_rhs if both else Fraction(0)
    passed = True
    if both:
        passed = bool(cluster.lemma_pass) and cluster.sums_total <= ctx.nsum**2
    if not cluster.sums_in_box:
        passed = False
    return lhs, rhs, lhs / rhs if rhs > 0 else lhs, True, passed


#: the rendered bounds are rows (lhs, factors), with the paper's exponents,
#: and the exact comparisons rows (lhs, rhs); MAIN-B and SMALL2 carry the same bound
REGISTRY = {
    "SOLY-PROD": _exact(lambda ctx: ctx.nsum**2 * ctx.nprod, _solymosi_rhs, explicit=True),
    "SOLY-QUOT": _exact(lambda ctx: ctx.nsum**2 * ctx.nquot, _solymosi_rhs, explicit=True),
    "SOLY-MAX": _bound(lambda ctx: max(ctx.nsum, ctx.nprod), ("n", "4/3"), ("log2n", "-1/3")),
    "COR-SOL": _bound("nsum", ("n", "3/2"), ("K", "-1/2")),
    "PREV": _bound("nsum", ("n", "58/37"), ("K", "-42/37")),
    "PREV-DA": _bound("nsum", ("n", "58/37"), ("dhat.d_upper", "-21/37"), nonzero=True),
    "MAIN-A": _bound("nsum", ("n", "19/12"), ("K", "-5/6")),
    "MAIN-B": _bound("nsum", ("n", "49/32"), ("K", "-19/32")),
    "CS-SUBS": _cs_subs,
    "LEVELSET": _exact(partial(_level_count, "div"),
                       lambda ctx: Fraction(ctx.nsum**2, LEVEL_TAU**2)),
    "ENERGY-SUMSET": _bound("Ex", ("nsum", 2), ("log2n", 1), nonzero=True),
    "DA-LEVEL": _exact(partial(_level_count, "add"),
                       lambda ctx: ctx.dhat.d_upper * ctx.n**3 / LEVEL_TAU**3, nonzero=True),
    "GEN-SIGMA": _bound("sums_in_A", ("dhat.d_upper", "1/3"), ("n", "5/3"), nonzero=True),
    "ER": _bound(lambda ctx: ctx.Ep**4, ("nmin", 1), ("n", 10), ("log2n", 1)),
    "SMALLMD-ENERGY": _bound("Ex", ("K", "1/4"), ("n", "5/8"), ("nsum", "3/2"), ("log2n", "3/4"),
                             nonzero=True),
    "SMALLMD": _bound("nsum", ("n", "19/12"), ("K", "-5/6"), ("log2n", "-1/2")),
    "SMALL2": _bound("nsum", ("n", "49/32"), ("K", "-19/32")),
    "PROP-CRIT-Q": _exact(partial(_derived_energy, "div"),
                          lambda ctx: ctx.Ex**3 / (ctx.L_quot**32 * ctx.n**4), nonzero=True),
    "PROP-CRIT-P": _exact(partial(_derived_energy, "mul"),
                          lambda ctx: ctx.Ex**3 / (ctx.L_prod**32 * ctx.n**4), nonzero=True),
    "SOLPLUS": _bound(lambda ctx: max(ctx.nsum, ctx.nmin), ("n", Fraction(4, 3) + SOLPLUS_C)),
    "LEMMA3": _lemma3,
}


def evaluate(rid: str, A: FiniteSet, params: dict | None = None,
             ctx: SetContext | None = None) -> InequalityReport:
    """Evaluate one registry entry on A; a given ctx must be A's.  params are
    keyword arguments of the entry: only CS-SUBS takes any, its subsets A1 and A2."""
    entry = _entry(rid)
    if ctx is None:
        ctx = SetContext(A)
    elif ctx.A != A:
        raise DomainError("the context is for another set")
    lhs, rhs, ratio, explicit, passed = entry(ctx, **(params or {}))
    return InequalityReport(id=rid, lhs=lhs, rhs=rhs, ratio=ratio, explicit=explicit,
                            passed=passed, inputs=ctx.digest)


def entry_ratio(rid: str, ctx: SetContext) -> Fraction:
    """The ratio of `evaluate(rid, ctx.A, ctx=ctx)` alone, from the same row:
    no rhs of a bound is rendered, and no digest or report is made."""
    entry = _entry(rid)
    return entry.ratio(ctx) if hasattr(entry, "ratio") else entry(ctx)[2]


def _entry(rid: str):
    if rid not in REGISTRY:
        raise DomainError(f"unknown registry id {rid!r}")
    return REGISTRY[rid]


def verify_suite(A: FiniteSet, ids: list[str] | None = None) -> list[InequalityReport]:
    """Evaluate all (or selected) entries, aggregating per-entry errors."""
    ids = sorted(REGISTRY) if ids is None else list(ids)
    ctx = SetContext(A)
    reports = []
    for rid in ids:
        try:
            reports.append(evaluate(rid, A, ctx=ctx))
        except (DomainError, ResourceError) as exc:
            reports.append(InequalityReport(id=rid, lhs=None, rhs=None,
                                            ratio=None, explicit=False,
                                            passed=None, inputs=ctx.digest,
                                            error=str(exc)))
    return reports


# -- low-L construction (Dirichlet slice + energy split) -------------------

@dataclass(frozen=True)
class SmallLReport:
    """Selected dyadic slice and the per-fiber lower-bound ratios.

    A slice is always selected (see `_choose_slice`), so no field is None.
    S_doubleprime holds the floor(|S_tau|/2) slopes of smallest fiber
    additive energy; S_prime is the rest (both equal S_tau when it is a
    singleton).  The *_ratio fields compare against the tau^3 / tau^2
    scales of the fiber bounds; they carry no hidden constants.
    """

    L: Fraction
    L_prod: Fraction
    tau: Scalar
    S_tau: FiniteSet
    S_prime: FiniteSet
    S_doubleprime: FiniteSet
    min_additive_energy_ratio: Fraction
    min_quotient_ratio: Fraction
    min_product_ratio: Fraction
    diagnostics: dict = field(default_factory=dict)


def _choose_slice(ctx: SetContext):
    """The threshold E×(A)/(2|A|^2), the nonempty slices (tau, |S_tau|) at or
    above it, and the one of maximal |S_tau| tau^2 (then tau) among them.

    One slice always qualifies: with s the largest |A_lambda|, E×(A) = sum
    |A_lambda|^2 <= s sum |A_lambda| = s |A|^2, and the window tau < s <= 2 tau
    holding s has tau >= s/2 >= E×(A)/(2|A|^2)."""
    if ctx.n < 2:
        raise DomainError("construction requires |A| >= 2")
    if ctx.A.has_zero():
        raise DomainError("construction requires 0 not in A")
    threshold = Fraction(ctx.Ex, 2 * ctx.n**2)
    qualifying = [(tau, size) for tau, size in ctx.slices if size and tau >= threshold]
    chosen = max(qualifying, key=lambda s: (s[1] * s[0]**2, s[0]))
    return threshold, qualifying, chosen


def smallL_construction(A: FiniteSet) -> SmallLReport:
    """Pick the dyadic slice of maximal |S_tau| tau^2 above the energy
    threshold and split it by fiber additive energy."""
    return _smallL(SetContext(A))


def _smallL(ctx: SetContext) -> SmallLReport:
    threshold, qualifying, (tau, _) = _choose_slice(ctx)
    diagnostics = {
        "threshold": threshold,
        "energy_mul": ctx.Ex,
        "slice_mass_all": sum(size * t**2 for t, size in ctx.slices),
        "slice_mass_qualifying": sum(size * t**2 for t, size in qualifying),
        "n_slices": len(ctx.slices),
    }
    fibers = {lam: SetContext(fiber) for lam, fiber in ctx.fibers(tau).items()}
    S_tau = FiniteSet.from_sorted(list(fibers))

    if len(S_tau) == 1:
        S_prime = S_dprime = S_tau
    else:
        half = len(S_tau) // 2
        by_energy = sorted(S_tau, key=lambda lam: (fibers[lam].Ep, lam))
        S_dprime = FiniteSet(by_energy[:half])
        S_prime = FiniteSet(by_energy[half:])

    add_ratio = min(Fraction(fibers[lam].Ep) / tau**3 for lam in S_prime)
    quot_ratio = min(Fraction(fibers[lam].nquot) / tau**2 for lam in S_prime)
    prod_ratio = min(Fraction(fibers[lam].nprod) / tau**2 for lam in S_prime)
    return SmallLReport(L=ctx.L_quot, L_prod=ctx.L_prod, tau=tau, S_tau=S_tau,
                        S_prime=S_prime, S_doubleprime=S_dprime,
                        min_additive_energy_ratio=add_ratio,
                        min_quotient_ratio=quot_ratio,
                        min_product_ratio=prod_ratio,
                        diagnostics=diagnostics)


# -- Katz-Koester inclusions ----------------------------------------------

def katz_koester_check(A: FiniteSet) -> list[tuple[Scalar, str, Scalar]]:
    """Verify A_l/A_l ⊆ Π ∩ lΠ and A_l A_l ⊆ Π' ∩ lΠ' for every fiber.

    Π = A/A, Π' = AA.  Returns violating (lambda, which, element) triples;
    an empty list is the expected outcome.
    """
    if A.has_zero():
        raise DomainError("inclusion check requires 0 not in A")
    ctx = SetContext(A)
    Pi, PiP = ctx.fibers(), ctx.rep_counts("mul")  # keyed by A/A and by AA
    violations = []
    for lam, fiber in Pi.items():
        for q in sorted({x / y for x in fiber for y in fiber}):
            if q not in Pi or q / lam not in Pi:
                violations.append((lam, "quot", q))
        for p in sorted({x * y for x in fiber for y in fiber}):
            if p not in PiP or p / lam not in PiP:
                violations.append((lam, "prod", p))
    return violations


# -- toy-scale trace of the |A|^{4/3+c} argument ---------------------------

@dataclass(frozen=True)
class SolPlusTrace:
    """Diagnostic quantities of the improved-Solymosi argument; no pass flag."""

    L: Fraction
    L_prime: Fraction
    eta: Fraction
    tau: Scalar
    S_prime: FiniteSet
    S_doubleprime: FiniteSet
    a_witness: Scalar
    A_prime: FiniteSet


def solplus_trace(A: FiniteSet) -> SolPlusTrace:
    """Trace L, L', eta and the dense-subset/dilation step on a small set."""
    ctx = SetContext(A)
    chosen = _choose_slice(ctx)[2]
    size = chosen[1] - chosen[1] // 2  # S''_tau takes floor(|S_tau|/2) slopes, S'_tau the rest
    if size > BSG_MAX_SIZE:
        raise ResourceError(f"|S'_tau| = {size} exceeds the subset-oracle cap {BSG_MAX_SIZE}")
    rep = _smallL(ctx)
    L_prime = max(Fraction(1), Fraction(ctx.nquot) ** 3 / Fraction(ctx.n) ** 4)
    eta = rep.L**-64 * ctx.Ex * rep.tau**6 / Fraction(ctx.nquot) ** 5

    S_prime = rep.S_prime
    S_dprime = S_prime if len(S_prime) < 2 else bsg_subset_oracle(S_prime)[0]

    best_a, best_set = None, None
    for a in A:
        hit = [x for x in A if x / a in S_dprime]
        if best_set is None or len(hit) > len(best_set):
            best_a, best_set = a, hit
    return SolPlusTrace(L=rep.L, L_prime=L_prime, eta=eta, tau=rep.tau,
                        S_prime=S_prime, S_doubleprime=S_dprime,
                        a_witness=best_a, A_prime=FiniteSet(best_set))


def bsg_subset_oracle(S: FiniteSet) -> tuple[FiniteSet, Fraction]:
    """Minimizer of |S''/S''| * |S|^2 / |S''|^3 over nonempty S'' ⊆ S.

    Ties go to the larger subset, then lexicographically.  Exhaustive, so
    |S| is capped at `BSG_MAX_SIZE`.
    """
    if len(S) < 2:
        raise DomainError("oracle requires |S| >= 2")
    if S.has_zero():
        raise DomainError("oracle requires 0 not in S")
    if len(S) > BSG_MAX_SIZE:
        raise ResourceError(f"|S| = {len(S)} exceeds max_size {BSG_MAX_SIZE}")
    n2 = Fraction(len(S)) ** 2
    best = None
    for k in range(len(S), 0, -1):
        for combo in combinations(S.elements, k):
            sub = FiniteSet(combo)
            obj = len(pair_counts(sub, sub, "div")[0]) * n2 / Fraction(k) ** 3
            if best is None or obj < best[0] or (
                    obj == best[0] and (k > len(best[1]) or
                                        (k == len(best[1]) and sub < best[1]))):
                best = (obj, sub)
    return best[1], best[0]
