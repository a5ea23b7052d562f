"""Registry evaluation, the low-L slice construction and the trace steps."""

import json
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from sumprod import (
    DomainError,
    FiniteSet,
    ResourceError,
    dilate,
    evaluate,
    katz_koester_check,
    report_json,
    smallL_construction,
    solplus_trace,
    verify_suite,
)
from sumprod import counting, d_upper, stats, verify
from sumprod.verify import REGISTRY, SetContext
from test_approx import product_pow_oracle

A123 = FiniteSet([1, 2, 3])
POWERS4 = FiniteSet([1, 2, 4, 8])
GP16 = FiniteSet([2**i for i in range(16)])


def test_soly_prod_fixture():
    r = evaluate("SOLY-PROD", A123)
    assert (r.lhs, r.rhs, r.passed) == (150, Fraction(81, 8), True)
    assert r.ratio == Fraction(400, 27)


def test_soly_quot_fixture():
    r = evaluate("SOLY-QUOT", A123)
    assert r.lhs == 25 * 7 and r.passed


def test_cs_subs_fixture():
    r = evaluate("CS-SUBS", A123)
    assert (r.lhs, r.rhs, r.passed) == (90, 81, True)
    r = evaluate("CS-SUBS", A123, {"A1": FiniteSet([1, 2]), "A2": A123})
    assert r.passed
    with pytest.raises(DomainError, match="subsets"):
        evaluate("CS-SUBS", A123, {"A1": FiniteSet([7])})


def test_levelset_fixture():
    r = evaluate("LEVELSET", A123, {"tau": 2})
    assert (r.lhs, r.rhs, r.ratio) == (1, Fraction(25, 4), Fraction(4, 25))
    assert r.passed is None and not r.explicit


@pytest.mark.parametrize("tau", [1, Fraction(3, 2), 2, Fraction(5, 2), 10**20])
def test_level_counts_at_rational_tau(tau):
    A = FiniteSet([1, 2, 3, 4, 6, 8, 12])
    quotients = Counter(a / b for a in A for b in A)
    sums = Counter(a + b for a in A for b in A)
    assert evaluate("LEVELSET", A, {"tau": tau}).lhs == sum(c >= tau for c in quotients.values())
    assert evaluate("DA-LEVEL", A, {"tau": tau}).lhs == sum(c >= tau for c in sums.values())


def test_main_a_gp16():
    ctx = SetContext(GP16)
    assert (ctx.nsum, ctx.nprod) == (136, 31)
    r = evaluate("MAIN-A", GP16)
    expected = product_pow_oracle([(Fraction(136), Fraction(1)),
                                   (Fraction(16), Fraction(-19, 12)),
                                   (Fraction(31, 16), Fraction(5, 6))])
    assert r.ratio == expected


def test_unknown_id():
    with pytest.raises(DomainError, match="unknown registry id"):
        evaluate("NO-SUCH", A123)


def test_a_context_for_another_set_is_refused():
    with pytest.raises(DomainError, match="the context is for another set"):
        evaluate("SOLY-PROD", A123, ctx=SetContext(POWERS4))
    # an equal set is the same set
    assert evaluate("SOLY-PROD", A123, ctx=SetContext(FiniteSet([3, 2, 1]))) \
        == evaluate("SOLY-PROD", A123)


def test_dilation_equivariance():
    B = dilate(A123, Fraction(5, 3))
    for rid in ("SOLY-PROD", "SOLY-QUOT", "SOLY-MAX", "COR-SOL", "MAIN-A",
                "CS-SUBS", "ER", "SMALLMD-ENERGY"):
        ra, rb = evaluate(rid, A123), evaluate(rid, B)
        assert (ra.lhs, ra.rhs, ra.ratio) == (rb.lhs, rb.rhs, rb.ratio), rid


def test_verify_suite_reports():
    reports = verify_suite(A123)
    assert len(reports) == len(REGISTRY) >= 14
    assert [r.id for r in reports] == sorted(REGISTRY)
    for r in reports:
        if r.explicit and r.error is None:
            assert r.passed, r.id
        if not r.explicit:
            assert r.passed is None


def test_verify_suite_selected_ids():
    reports = verify_suite(FiniteSet(range(1, 65)), ids=["SOLY-PROD"])
    assert len(reports) == 1 and reports[0].passed


def test_report_json_round_trip():
    text = report_json(verify_suite(A123, ids=["SOLY-PROD", "LEVELSET"]))
    parsed = json.loads(text)
    assert json.dumps(parsed, sort_keys=True, separators=(",", ":")) == text
    by_id = {d["id"]: d for d in parsed}
    assert by_id["SOLY-PROD"]["rhs"] == "81/8"
    assert by_id["SOLY-PROD"]["pass"] is True
    assert by_id["LEVELSET"]["pass"] is None


# the canonical report of the whole suite on four sets, byte for byte
GOLDEN_REPORTS = json.loads((Path(__file__).parent / "golden_reports.json")
                            .read_text(encoding="utf-8"))


@pytest.mark.parametrize("values", sorted(GOLDEN_REPORTS))
def test_verify_suite_reports_are_pinned(values):
    A = FiniteSet(Fraction(v) for v in values.split(","))
    expected = json.dumps(GOLDEN_REPORTS[values], sort_keys=True, separators=(",", ":"))
    assert report_json(verify_suite(A)) == expected


def test_error_aggregation():
    reports = verify_suite(FiniteSet([0, 1, 2]))
    by_id = {r.id: r for r in reports}
    assert by_id["SOLY-PROD"].error is None
    assert by_id["SMALLMD-ENERGY"].error is not None  # needs 0 outside A


# -- low-L construction ----------------------------------------------------

def test_smallL_123():
    rep = smallL_construction(A123)
    assert rep.tau == 2
    assert rep.S_tau == FiniteSet([1])
    assert rep.S_prime == rep.S_doubleprime == rep.S_tau
    assert rep.min_additive_energy_ratio == Fraction(19, 8)
    assert rep.diagnostics["energy_mul"] == 15
    assert rep.diagnostics["threshold"] == Fraction(5, 6)


def test_smallL_powers():
    rep = smallL_construction(POWERS4)
    assert rep.diagnostics["energy_mul"] == 44
    assert rep.tau == 2
    assert rep.S_tau == FiniteSet([Fraction(1, 2), 1, 2])
    assert len(rep.S_doubleprime) == 1 and len(rep.S_prime) == 2
    assert rep.S_doubleprime <= rep.S_tau and rep.S_prime <= rep.S_tau


def test_smallL_dyadic_accounting():
    # the slice masses obey the factor-4 window bound; the selected slice
    # carries at least its share of the qualifying mass
    for A in (A123, POWERS4, GP16, FiniteSet([3, 5, 7, 11, 13])):
        rep = smallL_construction(A)
        d = rep.diagnostics
        assert 4 * d["slice_mass_all"] >= d["energy_mul"]
        if rep.tau is not None:
            selected_mass = len(rep.S_tau) * rep.tau**2
            assert selected_mass * d["n_slices"] >= d["slice_mass_qualifying"]
            assert rep.tau >= d["threshold"]


def test_smallL_preconditions():
    with pytest.raises(DomainError):
        smallL_construction(FiniteSet([5]))
    with pytest.raises(DomainError):
        smallL_construction(FiniteSet([0, 1]))


# -- inclusion test --------------------------------------------------------

def test_katz_koester_clean_sets():
    assert katz_koester_check(A123) == []
    assert katz_koester_check(POWERS4) == []
    assert katz_koester_check(FiniteSet([1])) == []
    assert katz_koester_check(FiniteSet([Fraction(1, 2), 3, 7])) == []


def test_katz_koester_reports_a_wrong_fiber_element(monkeypatch):
    A = FiniteSet(range(1, 9))
    assert katz_koester_check(A) == []
    fibers = SetContext.fibers

    def grouping(ctx, tau=None):
        # A_2 = {2, 4, 6, 8}; 3 is not in it
        return {lam: f.union(FiniteSet([3])) if lam == 2 else f
                for lam, f in fibers(ctx, tau).items()}

    monkeypatch.setattr(SetContext, "fibers", grouping)
    violations = katz_koester_check(A)
    assert (2, "quot", Fraction(3, 8)) in violations and (2, "prod", 9) in violations
    assert {lam for lam, _, _ in violations} == {2}


def test_katz_koester_rejects_zero():
    with pytest.raises(DomainError):
        katz_koester_check(FiniteSet([0, 1]))


# -- improved-exponent trace ----------------------------------------------

def test_solplus_trace_123():
    tr = solplus_trace(A123)
    assert tr.tau == 2
    assert tr.S_prime == FiniteSet([1])
    assert tr.S_doubleprime == FiniteSet([1])
    assert len(tr.A_prime) == 1 and tr.A_prime <= A123
    assert tr.L == max(1, Fraction(25 * 7, 81))
    assert tr.L_prime == max(1, Fraction(7**3, 3**4))


def test_solplus_trace_powers():
    tr = solplus_trace(POWERS4)
    assert tr.eta > 0
    assert tr.A_prime <= POWERS4
    assert tr.S_doubleprime <= tr.S_prime


def test_solplus_trace_refuses_an_oversized_slice_before_any_fiber_work(monkeypatch):
    def construction(ctx):
        raise AssertionError("the fibers were built before the size check")

    monkeypatch.setattr(verify, "_smallL", construction)
    with pytest.raises(ResourceError, match=r"\|S'_tau\| = 16 exceeds the subset-oracle cap 14"):
        solplus_trace(FiniteSet([2**i for i in range(32)]))


PRIMES64 = FiniteSet(p for p in range(2, 312) if all(p % d for d in range(2, p)))


@pytest.mark.parametrize("rid", ["PROP-CRIT-P", "PROP-CRIT-Q"])
def test_prop_crit_checks_the_cap_before_building(rid, monkeypatch):
    def build(ctx, op):
        raise AssertionError("the derived set was built before the cap check")

    monkeypatch.setattr(SetContext, "rep_counts", build)
    assert len(PRIMES64) == 64
    size = 2080 if rid == "PROP-CRIT-P" else 4033  # |AA| and |A/A| of the primes
    with pytest.raises(ResourceError, match=rf"{rid}: \|derived set\| = {size} exceeds cap 2000"):
        evaluate(rid, PRIMES64)


def test_gen_sigma_reuses_the_context_doubling_bound(monkeypatch):
    calls = []
    doubling = stats._doubling
    monkeypatch.setattr(stats, "_doubling", lambda ctx, *a: calls.append(ctx.A) or doubling(ctx, *a))
    ctx = SetContext(POWERS4)
    for rid in ("PREV-DA", "GEN-SIGMA", "DA-LEVEL"):
        evaluate(rid, POWERS4, ctx=ctx)
    assert calls == [POWERS4]


# -- one derivation per statistic -----------------------------------------

signed_rationals = st.fractions(min_value=-6, max_value=6, max_denominator=4)


@given(st.sets(signed_rationals, min_size=1, max_size=5), st.booleans())
@settings(max_examples=60, deadline=None)
def test_suite_context_matches_fresh_contexts(values, with_zero):
    A = FiniteSet(values | {Fraction(0)} if with_zero else values)
    expected = []
    for rid in sorted(REGISTRY):
        try:
            expected.append(evaluate(rid, A))  # a fresh context per entry
        except (DomainError, ResourceError) as exc:
            expected.append((rid, str(exc)))
    got = [r if r.error is None else (r.id, r.error) for r in verify_suite(A)]
    assert got == expected


S8 = FiniteSet([1, 2, 3, 4, 6, 8, 12, 16])  # LEMMA3 runs its cluster report


@pytest.fixture
def kernel_calls(monkeypatch):
    """Counts stats._pair_keys calls by op, and whether both sides were S8."""
    calls = Counter()
    pair_keys = stats._pair_keys

    def counting(A, B, op):
        calls[op, A == S8 and B == S8] += 1
        return pair_keys(A, B, op)

    monkeypatch.setattr(stats, "_pair_keys", counting)
    return calls


def test_context_runs_each_pair_product_once(kernel_calls):
    ctx = SetContext(S8)
    for _ in range(2):
        (ctx.nsum, ctx.nprod, ctx.nquot, ctx.K, ctx.Ep, ctx.Ex, ctx.L_quot, ctx.L_prod,
         ctx.slices, ctx.max_fiber, ctx.dhat, ctx.fibers(2), ctx.rep_counts("add"))
        for rid in ("LEVELSET", "DA-LEVEL", "ENERGY-SUMSET", "CS-SUBS",
                    "PROP-CRIT-P", "PROP-CRIT-Q"):
            evaluate(rid, S8, ctx=ctx)
    # A·(A/A) for the doubling bound once, then E_x of AA and of A/A per evaluation
    assert kernel_calls == {("add", True): 1, ("mul", True): 1, ("div", True): 1,
                            ("mul", False): 5}


def test_d_upper_counts_the_quotient_and_product_sets_once(kernel_calls):
    d_upper(S8)
    assert kernel_calls == {("div", True): 1, ("mul", True): 1, ("mul", False): 1}


def test_verify_suite_kernel_calls(kernel_calls):
    verify_suite(S8)
    # the context (3), A·(A/A) for its doubling bound and E_x of AA and of A/A;
    # the LEMMA3 cluster report reads its fibers and A+A from the context
    assert kernel_calls == {("add", True): 1, ("mul", True): 1, ("div", True): 1,
                            ("mul", False): 3}


def test_lemma3_checks_M_before_any_cluster_work(kernel_calls, monkeypatch):
    def fail(*args, **kwargs):
        raise AssertionError("cluster work ran before the M check")

    for module, name in ((counting, "sigma_max"), (SetContext, "fibers"),
                         (stats, "sumset"), (stats, "lambda_set")):
        monkeypatch.setattr(module, name, fail)
    with pytest.raises(DomainError, match="M exceeds the number of available slopes"):
        evaluate("LEMMA3", S8, {"M": 50})
    # E_x for the slice choice and A/A for the window; A+A is not counted
    assert kernel_calls == {("mul", True): 1, ("div", True): 1}


def test_lemma3_refuses_a_slope_triple_before_any_incidence_count(monkeypatch):
    def fail(*args, **kwargs):
        raise AssertionError("incidences were counted before every line set passed")

    monkeypatch.setattr(counting, "_sigma_incidences", fail)
    # the tau = 8 window has 455 slope triples; one of them has 660 lines
    with pytest.raises(ResourceError, match="sigma_max candidate enumeration too large: 660 lines"):
        evaluate("LEMMA3", GP16)
