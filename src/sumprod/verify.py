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

import hashlib
from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial
from itertools import combinations
from math import ceil

from ._approx import product_pow
from .counting import _cluster_report, sigma_count
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


def _digest(A: FiniteSet) -> str:
    h = hashlib.sha256(repr(A).encode()).hexdigest()[:10]
    return f"|A|={len(A)};min={format_scalar(A.min())};max={format_scalar(A.max())};{h}"


def _need(ctx: SetContext, min_size=2, nonzero=False, positive=False):
    if ctx.n < min_size:
        raise DomainError(f"entry requires |A| >= {min_size}")
    if nonzero and ctx.A.has_zero():
        raise DomainError("entry requires 0 not in A")
    if positive and not ctx.A.is_positive():
        raise DomainError("entry requires positive elements")


# Each entry reads the context and returns (lhs, rhs, ratio, explicit, passed).

def _explicit(lhs, rhs):
    lhs, rhs = Fraction(lhs), Fraction(rhs)
    return lhs, rhs, lhs / rhs, True, lhs >= rhs


def _hidden(lhs: Fraction, rhs: Fraction):
    return lhs, rhs, lhs / rhs, False, None


def _ratio(lhs, factors):
    """Hidden-constant entry: rhs = prod base^exp, rendered not asserted."""
    lhs = Fraction(lhs)
    rhs = product_pow(factors)
    ratio = product_pow([(lhs, 1)] + [(b, -Fraction(e)) for b, e in factors])
    return lhs, rhs, ratio, False, None


def _level_count(counts, tau) -> Fraction:
    """How many of the counts reach tau."""
    level = ceil(tau)  # integer counts against an integer level
    return Fraction(sum(1 for c in counts.tolist() if c >= level))


# -- registry entries ------------------------------------------------------

def _solymosi(size, ctx, params):
    """|A+A|^2 |AA| >= |A|^4 / (4 ceil(log2 |A|)), or with |A/A|; size names which."""
    _need(ctx)
    return _explicit(Fraction(ctx.nsum) ** 2 * getattr(ctx, size),
                     Fraction(ctx.n**4, 4 * ctx.ceil_log2n))


def _sumset_bound(*exponents):
    """The entry for |A+A| against |A|^a K^b, times (log2 |A|)^c when a c is given."""
    a, b, *c = map(Fraction, exponents)

    def entry(ctx, params):
        _need(ctx)
        return _ratio(ctx.nsum, [(ctx.n, a), (ctx.K, b)] + [(ctx.log2n, e) for e in c])
    return entry


def _soly_max(ctx, params):
    _need(ctx)
    return _ratio(max(ctx.nsum, ctx.nprod),
                  [(ctx.n, Fraction(4, 3)), (ctx.log2n, Fraction(-1, 3))])


def _prev_da(ctx, params):
    _need(ctx, nonzero=True)
    return _ratio(ctx.nsum, [(ctx.n, Fraction(58, 37)),
                             (ctx.dhat.d_upper, Fraction(-21, 37))])


def _cs_subs(ctx, params):
    _need(ctx, nonzero=True)
    A1 = params.get("A1", ctx.A)
    A2 = params.get("A2", ctx.A)
    if not (A1 <= ctx.A and A2 <= ctx.A):
        raise DomainError("CS-SUBS requires A1, A2 subsets of A")
    c = ctx.counts(A1, A2, "mul")
    lhs = Fraction(int(c @ c)) * min(ctx.nquot, ctx.nprod)
    return _explicit(lhs, Fraction(len(A1)) ** 2 * Fraction(len(A2)) ** 2)


def _levelset(ctx, params):
    tau = Fraction(params.get("tau", 2))
    if ctx.n < 2:
        raise DomainError("LEVELSET requires min size 2")
    if tau < 1:
        raise DomainError("LEVELSET requires tau >= 1")
    lhs = _level_count(ctx.counts(ctx.A, ctx.A, "div"), tau)
    return _hidden(lhs, Fraction(ctx.nsum**2) / tau**2)


def _energy_sumset(ctx, params):
    _need(ctx, nonzero=True)
    return _ratio(ctx.Ex, [(ctx.nsum**2, 1), (ctx.log2n, 1)])


def _da_level(ctx, params):
    _need(ctx, nonzero=True)
    tau = Fraction(params.get("tau", 2))
    if tau < 1:
        raise DomainError("DA-LEVEL requires tau >= 1")
    lhs = _level_count(ctx.counts(ctx.A, ctx.A, "add"), tau)
    return _hidden(lhs, ctx.dhat.d_upper * ctx.n**3 / tau**3)


def _gen_sigma(ctx, params):
    """The solutions of x + y = z in A against d(A)^{1/3} |A|^{5/3}."""
    _need(ctx, nonzero=True)
    lhs = Fraction(sigma_count(1, ctx.A, 1, ctx.A, -1, ctx.A).count)
    _, rhs, ratio, _, _ = _ratio(max(lhs, Fraction(1)),
                                 [(ctx.dhat.d_upper, Fraction(1, 3)), (ctx.n, Fraction(5, 3))])
    # keep the genuine (possibly zero) solution count in the report
    return lhs, rhs, ratio if lhs > 0 else Fraction(0), False, None


def _er(ctx, params):
    _need(ctx)
    return _ratio(Fraction(ctx.Ep) ** 4,
                  [(min(ctx.nprod, ctx.nquot), Fraction(1)),
                   (ctx.n, Fraction(10)),
                   (ctx.log2n, Fraction(1))])


def _smallmd_energy(ctx, params):
    _need(ctx, nonzero=True)
    return _ratio(ctx.Ex, [(ctx.K, Fraction(1, 4)),
                           (ctx.n, Fraction(5, 8)),
                           (ctx.nsum, Fraction(3, 2)),
                           (ctx.log2n, Fraction(3, 4))])


def _prop_crit(product: bool, ctx, params):
    """E× of AA (product) or of A/A against E×(A)^3 / (L^32 |A|^4)."""
    _need(ctx, nonzero=True)
    size = ctx.nprod if product else ctx.nquot
    if size > QUOTIENT_ENERGY_CAP:
        raise ResourceError(f"PROP-CRIT-{'P' if product else 'Q'}: |derived set| = {size} "
                            f"exceeds cap {QUOTIENT_ENERGY_CAP}")
    big = FiniteSet.from_sorted(list(ctx.rep_counts("mul" if product else "div")))
    L = ctx.L_prod if product else ctx.L_quot
    return _hidden(Fraction(SetContext(big).Ex),
                   Fraction(ctx.Ex) ** 3 / (L**32 * Fraction(ctx.n) ** 4))


def _solplus(ctx, params):
    _need(ctx)
    return _ratio(max(ctx.nsum, min(ctx.nprod, ctx.nquot)),
                  [(ctx.n, Fraction(4, 3) + SOLPLUS_C)])


def _lemma3(ctx, params):
    _need(ctx, nonzero=True, positive=True)
    chosen = _choose_slice(ctx)[2]
    if chosen is None:
        raise DomainError("LEMMA3: no qualifying dyadic slice")
    cluster = _cluster_report(ctx, chosen[0], params.get("M", 2), LEMMA3_PAIR_BUDGET)
    lhs = Fraction(ctx.nsum) ** 2
    both = all(cluster.conditions_ok)
    rhs = cluster.lemma_rhs if (both and cluster.lemma_rhs is not None) else Fraction(0)
    passed = True
    if both:
        passed = bool(cluster.lemma_pass) and cluster.sums_total <= ctx.nsum**2
    if not cluster.sums_in_box:
        passed = False
    return lhs, rhs, lhs / rhs if rhs > 0 else lhs, True, passed


#: the |A+A| >= |A|^a K^b (log2 |A|)^c bounds carry their exponents (a, b[, c])
REGISTRY = {
    "SOLY-PROD": partial(_solymosi, "nprod"),
    "SOLY-QUOT": partial(_solymosi, "nquot"),
    "SOLY-MAX": _soly_max,
    "COR-SOL": _sumset_bound("3/2", "-1/2"),
    "PREV": _sumset_bound("58/37", "-42/37"),
    "PREV-DA": _prev_da,
    "MAIN-A": _sumset_bound("19/12", "-5/6"),
    "MAIN-B": _sumset_bound("49/32", "-19/32"),
    "CS-SUBS": _cs_subs,
    "LEVELSET": _levelset,
    "ENERGY-SUMSET": _energy_sumset,
    "DA-LEVEL": _da_level,
    "GEN-SIGMA": _gen_sigma,
    "ER": _er,
    "SMALLMD-ENERGY": _smallmd_energy,
    "SMALLMD": _sumset_bound("19/12", "-5/6", "-1/2"),
    "SMALL2": _sumset_bound("49/32", "-19/32"),
    "PROP-CRIT-Q": partial(_prop_crit, False),
    "PROP-CRIT-P": partial(_prop_crit, True),
    "SOLPLUS": _solplus,
    "LEMMA3": _lemma3,
}


def evaluate(rid: str, A: FiniteSet, params: dict | None = None,
             ctx: SetContext | None = None) -> InequalityReport:
    """Evaluate one registry entry on A; a given ctx must be A's."""
    if rid not in REGISTRY:
        raise DomainError(f"unknown registry id {rid!r}")
    if ctx is None:
        ctx = SetContext(A)
    elif ctx.A != A:
        raise DomainError("the context is for another set")
    lhs, rhs, ratio, explicit, passed = REGISTRY[rid](ctx, params or {})
    return InequalityReport(id=rid, lhs=lhs, rhs=rhs, ratio=ratio, explicit=explicit,
                            passed=passed, inputs=_digest(A))


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
                                            passed=None, inputs=_digest(A),
                                            error=str(exc)))
    return reports


# -- low-L construction (Dirichlet slice + energy split) -------------------

@dataclass(frozen=True)
class SmallLReport:
    """Selected dyadic slice and the per-fiber lower-bound ratios.

    S_doubleprime holds the floor(|S_tau|/2) slopes of smallest fiber
    additive energy; S_prime is the rest (both equal S_tau when it is a
    singleton).  The *_ratio fields compare against the tau^3 / tau^2
    scales of the fiber bounds; they carry no hidden constants.
    """

    L: Fraction
    L_prod: Fraction
    tau: Scalar | None
    S_tau: FiniteSet | None
    S_prime: FiniteSet | None
    S_doubleprime: FiniteSet | None
    min_additive_energy_ratio: Fraction | None
    min_quotient_ratio: Fraction | None
    min_product_ratio: Fraction | None
    diagnostics: dict = field(default_factory=dict)


def _choose_slice(ctx: SetContext):
    """The threshold E×(A)/(2|A|^2), the nonempty slices (tau, |S_tau|) at or
    above it, and the one of maximal |S_tau| tau^2 (then tau) among them, or None."""
    if ctx.n < 2:
        raise DomainError("construction requires |A| >= 2")
    if ctx.A.has_zero():
        raise DomainError("construction requires 0 not in A")
    threshold = Fraction(ctx.Ex, 2 * ctx.n**2)
    qualifying = [(tau, size) for tau, size in ctx.slices if size and tau >= threshold]
    chosen = max(qualifying, key=lambda s: (s[1] * s[0]**2, s[0]), default=None)
    return threshold, qualifying, chosen


def smallL_construction(A: FiniteSet) -> SmallLReport:
    """Pick the dyadic slice of maximal |S_tau| tau^2 above the energy
    threshold and split it by fiber additive energy."""
    return _smallL(SetContext(A))


def _smallL(ctx: SetContext) -> SmallLReport:
    threshold, qualifying, chosen = _choose_slice(ctx)
    diagnostics = {
        "threshold": threshold,
        "energy_mul": ctx.Ex,
        "slice_mass_all": sum(size * tau**2 for tau, size in ctx.slices),
        "slice_mass_qualifying": sum(size * tau**2 for tau, size in qualifying),
        "n_slices": len(ctx.slices),
    }
    if chosen is None:
        return SmallLReport(L=ctx.L_quot, L_prod=ctx.L_prod, tau=None,
                            S_tau=None, S_prime=None, S_doubleprime=None,
                            min_additive_energy_ratio=None,
                            min_quotient_ratio=None, min_product_ratio=None,
                            diagnostics=diagnostics)

    tau = chosen[0]
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
    if chosen is None:
        raise DomainError("no qualifying dyadic slice")
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
