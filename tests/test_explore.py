"""Generators, mutation, extremal search, the subset oracle and the corpus."""

import json
import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from sumprod import (
    DomainError,
    FiniteSet,
    GeneratorSpec,
    ParseError,
    ResourceError,
    bsg_subset_oracle,
    corpus_load,
    corpus_store,
    generate,
    mutate,
    search_extremal,
)
from sumprod import evaluate, explore, stats


def test_ap_gp_generators():
    assert generate(GeneratorSpec("ap", {"n": 4, "start": 1, "step": 1})) \
        == FiniteSet([1, 2, 3, 4])
    assert generate(GeneratorSpec("gp", {"n": 4, "start": 1, "ratio": 2})) \
        == FiniteSet([1, 2, 4, 8])
    assert generate(GeneratorSpec("ap", {"n": 3, "start": "1/2", "step": "1/3"})) \
        == FiniteSet([Fraction(1, 2), Fraction(5, 6), Fraction(7, 6)])


def test_generator_guards():
    with pytest.raises(DomainError):
        generate(GeneratorSpec("gp", {"n": 4, "ratio": 1}))
    with pytest.raises(DomainError):
        generate(GeneratorSpec("ap", {"n": 1}))
    with pytest.raises(DomainError, match="seed"):
        generate(GeneratorSpec("random_integer", {"n": 5, "range": 50}))
    with pytest.raises(DomainError, match="unknown generator"):
        generate(GeneratorSpec("fibonacci", {"n": 5}))
    with pytest.raises(DomainError, match="random generators require n >= 2"):
        generate(GeneratorSpec("random_rational", {"n": 1, "seed": 1}))
    with pytest.raises(DomainError, match="range too small for n distinct integers"):
        generate(GeneratorSpec("random_integer", {"n": 5, "range": 4, "seed": 1}))
    with pytest.raises(DomainError, match="range too small for n distinct rationals"):
        generate(GeneratorSpec("random_rational", {"n": 5, "range": 2, "seed": 1}))


def test_random_generators_deterministic():
    spec = GeneratorSpec("random_integer", {"n": 5, "range": 100, "seed": 7})
    assert generate(spec) == generate(spec)
    spec = GeneratorSpec("random_rational", {"n": 6, "range": 30, "seed": 3})
    A = generate(spec)
    assert A == generate(spec) and len(A) == 6 and A.is_positive()


def test_composite_generators():
    spec = GeneratorSpec("ap_times_gp", {
        "ap": GeneratorSpec("ap", {"n": 3, "start": 1, "step": 1}),
        "gp": GeneratorSpec("gp", {"n": 2, "start": 1, "ratio": 4})})
    assert generate(spec) == FiniteSet([1, 2, 3, 4, 8, 12])


def test_mutate():
    A = FiniteSet([1, 2, 3])
    ground = FiniteSet(range(1, 11))
    B, moved = mutate(A, ground, seed=4)
    assert moved and len(B) == 3 and B != A
    assert len(set(B.elements) ^ set(A.elements)) == 2
    assert mutate(A, ground, seed=4) == (B, True)  # deterministic
    same, moved = mutate(A, A, seed=4)
    assert same == A and not moved


def mutate_oracle(A, ground, seed):
    """The set-difference form of `mutate`."""
    pool = sorted(set(ground.elements) - set(A.elements))
    if not pool:
        return A, False
    rng = random.Random(seed)
    out = rng.choice(pool)
    dropped = rng.choice(A.elements)
    return FiniteSet([x for x in A if x != dropped] + [out]), True


@st.composite
def grounds_and_subsets(draw):
    """A ground of signed rationals and a subset of it: any, all of it, or all but one."""
    ground = draw(st.sets(st.fractions(min_value=-40, max_value=40, max_denominator=9),
                          min_size=1, max_size=12).map(FiniteSet))
    shape = draw(st.sampled_from(["any", "all", "all but one"]))
    if shape == "all":
        return ground, ground
    if shape == "all but one" and len(ground) > 1:
        gone = draw(st.sampled_from(ground.elements))
        return ground, FiniteSet([x for x in ground if x != gone])
    return ground, FiniteSet(draw(st.sets(st.sampled_from(ground.elements), min_size=1)))


@settings(max_examples=200, deadline=None)
@given(grounds_and_subsets(), st.integers(0, (1 << 30) - 1))
def test_mutate_matches_the_set_difference_form(ground_and_A, seed):
    ground, A = ground_and_A
    B, moved = mutate(A, ground, seed)
    C, oracle_moved = mutate_oracle(A, ground, seed)
    assert (B, moved) == (C, oracle_moved)


def test_bsg_oracle_fixtures():
    S, obj = bsg_subset_oracle(FiniteSet([1, 2, 4, 8]))
    assert S == FiniteSet([1, 2, 4, 8]) and obj == Fraction(7, 4)
    S, obj = bsg_subset_oracle(FiniteSet([1, 2]))
    assert S == FiniteSet([1, 2]) and obj == Fraction(3, 2)


def test_bsg_oracle_guards():
    with pytest.raises(DomainError):
        bsg_subset_oracle(FiniteSet([5]))
    with pytest.raises(ResourceError):
        bsg_subset_oracle(FiniteSet(range(1, 16)))
    with pytest.raises(DomainError):
        bsg_subset_oracle(FiniteSet([0, 1]))


def test_search_exhaustive_soly_prod():
    rec = search_extremal("SOLY-PROD", 3, "exhaustive",
                          {"ground": FiniteSet(range(1, 9)), "budget": 100})
    assert rec.ratio > 1  # the explicit bound holds on every subset
    assert not rec.truncated
    # exhaustive brute-force confirmation over all 56 subsets
    from itertools import combinations
    from sumprod import evaluate
    ratios = [(evaluate("SOLY-PROD", FiniteSet(c)).ratio, FiniteSet(c))
              for c in combinations(range(1, 9), 3)]
    best = min(ratios)
    assert (rec.ratio, rec.set) == best


@pytest.mark.parametrize("n, mode, message", [
    (1, "exhaustive", r"need 2 <= n <= \|ground\|"),
    (9, "exhaustive", r"need 2 <= n <= \|ground\|"),
    (3, "annealing", "unknown search mode 'annealing'"),
])
def test_search_refusals(n, mode, message):
    with pytest.raises(DomainError, match=message):
        search_extremal("SOLY-PROD", n, mode, {"ground": FiniteSet(range(1, 9)), "seed": 1})


def test_search_truncation_flag():
    rec = search_extremal("SOLY-PROD", 3, "exhaustive",
                          {"ground": FiniteSet(range(1, 9)), "budget": 5})
    assert rec.truncated


def test_search_hillclimb_deterministic():
    cfg = {"ground": FiniteSet(range(1, 13)), "budget": 15, "seed": 2,
           "restarts": 2}
    r1 = search_extremal("COR-SOL", 4, "hillclimb", cfg)
    r2 = search_extremal("COR-SOL", 4, "hillclimb", cfg)
    assert r1 == r2  # timestamps are excluded from equality


def test_exhaustive_dominates_hillclimb():
    ground = FiniteSet(range(1, 11))
    ex = search_extremal("COR-SOL", 3, "exhaustive",
                         {"ground": ground, "budget": 1000})
    hc = search_extremal("COR-SOL", 3, "hillclimb",
                         {"ground": ground, "budget": 10, "seed": 5})
    assert ex.ratio <= hc.ratio


def test_hillclimb_zero_budget_returns_seed_set():
    cfg = {"ground": FiniteSet(range(1, 9)), "budget": 0, "seed": 11}
    rec = search_extremal("SOLY-PROD", 3, "hillclimb", cfg)
    import random
    rng = random.Random(11)
    expected = FiniteSet(rng.sample(FiniteSet(range(1, 9)).elements, 3))
    assert rec.set == expected


def test_hillclimb_negative_budget_is_refused(monkeypatch):
    def ratio_of(*args):
        raise AssertionError("a set was evaluated before the budget check")

    monkeypatch.setattr(explore, "entry_ratio", ratio_of)
    cfg = {"ground": FiniteSet(range(1, 9)), "budget": -5, "seed": 11}
    with pytest.raises(DomainError, match=r"hillclimb search needs budget >= 0, got -5"):
        search_extremal("SOLY-PROD", 3, "hillclimb", cfg)


def _counting_ratio_of(monkeypatch):
    """Spy on explore.entry_ratio: the list of sets it is asked to evaluate."""
    calls, entry_ratio = [], explore.entry_ratio

    def spy(inequality_id, ctx):
        calls.append(ctx.A)
        return entry_ratio(inequality_id, ctx)

    monkeypatch.setattr(explore, "entry_ratio", spy)
    return calls


def test_hillclimb_evaluates_each_set_once_per_call(monkeypatch):
    calls = _counting_ratio_of(monkeypatch)
    cfg = {"ground": FiniteSet(range(1, 13)), "budget": 40, "seed": 7, "restarts": 3}
    first = search_extremal("COR-SOL", 4, "hillclimb", cfg)
    assert len(calls) == len(set(calls)) == 62  # the walks visit 123 sets
    # nothing outlives the call: the same search evaluates every set again
    second = search_extremal("COR-SOL", 4, "hillclimb", cfg)
    assert calls[62:] == calls[:62] and first == second


@pytest.fixture
def kernel_runs(monkeypatch):
    """The (A, op) of every stats._pair_grid call: every kernel run, the ground's
    grid and `_pair_keys` alike, starts with one."""
    calls, pair_grid = [], stats._pair_grid

    def spy(A, B, op):
        assert A is B
        calls.append((A, op))
        return pair_grid(A, B, op)

    monkeypatch.setattr(stats, "_pair_grid", spy)
    return calls


def _evaluated_ratio(rid, ctx):
    """The ratio of a fresh `evaluate` on the candidate, which reads no ground grid."""
    return evaluate(rid, ctx.A).ratio


THIRDS = FiniteSet([Fraction(k, 3) for k in range(-6, 7)])  # holds 0, which 'div' skips


@pytest.mark.parametrize("budget", [11, 200])
@pytest.mark.parametrize("rid, mode, ground, ops", [
    ("COR-SOL", "hillclimb", THIRDS, ["add", "div", "mul"]),
    ("MAIN-A", "exhaustive", THIRDS, ["add", "div", "mul"]),
    ("SOLY-QUOT", "hillclimb", THIRDS, ["add", "div"]),
    ("CS-SUBS", "exhaustive", FiniteSet(range(1, 14)), ["div", "mul"]),
], ids=["COR-SOL", "MAIN-A", "SOLY-QUOT", "CS-SUBS"])
def test_a_search_runs_the_kernel_only_on_its_ground(kernel_runs, rid, mode, ground, ops,
                                                      budget):
    search_extremal(rid, 4, mode, {"ground": ground, "budget": budget, "seed": 9})
    assert all(A is ground for A, _ in kernel_runs)
    assert sorted(op for _, op in kernel_runs) == ops


@pytest.mark.parametrize("size, grid", [(256, True), (257, False)])
def test_a_ground_grid_holds_at_most_grid_pairs_keys(kernel_runs, monkeypatch, size, grid):
    # whatever the budget, a ground of at most 2^16 pairs runs the kernel only on
    # itself, and a larger one only on each candidate
    assert stats._GRID_PAIRS == 256**2
    ground = FiniteSet(range(1, size + 1))
    for mode, budget in (("exhaustive", 1), ("exhaustive", 4), ("hillclimb", 0),
                         ("hillclimb", 3)):
        cfg = {"ground": ground, "budget": budget, "seed": 5}
        kernel_runs.clear()
        record = search_extremal("SOLY-QUOT", 4, mode, cfg)
        on_ground = sorted(op for A, op in kernel_runs if A is ground)
        candidates = {A for A, _ in kernel_runs if A is not ground}
        assert on_ground == (["add", "div"] if grid else []) and (not candidates) == grid
        assert all(len(A) == 4 for A in candidates)
        with monkeypatch.context() as mp:
            mp.setattr(explore, "entry_ratio", _evaluated_ratio)
            assert search_extremal("SOLY-QUOT", 4, mode, cfg) == record


def test_a_large_ground_and_a_small_budget_run_no_ground_sized_kernel(kernel_runs):
    ground = FiniteSet(range(1, 2001))
    for mode in ("exhaustive", "hillclimb"):
        search_extremal("MAIN-A", 4, mode, {"ground": ground, "budget": 5, "seed": 1})
    assert kernel_runs and all(len(A) == 4 for A, _ in kernel_runs)


@pytest.mark.parametrize("top, safe", [(2**31 - 1, True), (2**31, False)])
@pytest.mark.parametrize("mode", ["hillclimb", "exhaustive"])
def test_the_int64_boundary_routes_a_search(kernel_runs, monkeypatch, top, safe, mode):
    ground = FiniteSet([top - d for d in (0, 1, 2, 4, 8, 16, 32, 64, 128)])
    cfg = {"ground": ground, "budget": 100, "seed": 4, "restarts": 2}
    quotient_keys, quotient_key = [], stats._quotient_key
    monkeypatch.setattr(stats, "_quotient_key",
                        lambda *a: quotient_keys.append(a) or quotient_key(*a))
    record = search_extremal("COR-SOL", 4, mode, cfg)
    # either side of int64 the kernel runs once per op on the ground, never on a candidate
    assert sorted(op for A, op in kernel_runs if A is ground) == ["add", "div", "mul"]
    assert len(kernel_runs) == 3
    # past int64 the ground's A/A keys are Python ints: one gcd per ground pair
    assert len(quotient_keys) == (0 if safe else len(ground) ** 2)
    monkeypatch.setattr(explore, "entry_ratio", _evaluated_ratio)
    assert search_extremal("COR-SOL", 4, mode, cfg) == record


# Records of fixed-seed hill climbs, written before the per-call memo
# and the integer renderings; the searches must reproduce them byte for byte.
PINNED_HILLCLIMBS = [
    ("COR-SOL", 4, {"ground": list(range(1, 13)), "budget": 40, "seed": 7, "restarts": 3},
     '{"artifact_version":"0.1.0","generator":{"budget":40,"ground":["1","2","3","4","5",'
     '"6","7","8","9","10","11","12"],"mode":"hillclimb","n":4,"restarts":3,"seed":7},'
     '"inequality_id":"COR-SOL","ratio":"21/16","set":["2","4","6","8"],"truncated":false}'),
    ("MAIN-A", 5, {"ground": [1, 2, 3, 4, 5, 6, 8, 9, 10, 12, 15, 16, 18, 20], "budget": 30,
                   "seed": 3},
     '{"artifact_version":"0.1.0","generator":{"budget":30,"ground":["1","2","3","4","5",'
     '"6","8","9","10","12","15","16","18","20"],"mode":"hillclimb","n":5,"restarts":1,'
     '"seed":3},"inequality_id":"MAIN-A","ratio":"1660243143504587120756138441962697472451'
     '3/10000000000000000000000000000000000000000","set":["2","4","6","8","10"],'
     '"truncated":false}'),
    ("SOLY-QUOT", 6, {"ground": [1, 2, 3, 4, 6, 8, 9, 12, 16, 18, 24, 27, 32], "budget": 30,
                      "seed": 5, "restarts": 2, "maximize": True},
     '{"artifact_version":"0.1.0","generator":{"budget":30,"ground":["1","2","3","4","6",'
     '"8","9","12","16","18","24","27","32"],"mode":"hillclimb","n":6,"restarts":2,'
     '"seed":5},"inequality_id":"SOLY-QUOT","ratio":"1421/12","set":["1","2","8","18",'
     '"27","32"],"truncated":false}'),
]


@pytest.mark.parametrize("rid, n, cfg, pinned", PINNED_HILLCLIMBS,
                         ids=[case[0] for case in PINNED_HILLCLIMBS])
def test_hillclimb_records_are_pinned(rid, n, cfg, pinned):
    rec = search_extremal(rid, n, "hillclimb", dict(cfg, ground=FiniteSet(cfg["ground"])))
    record = rec.to_json_dict()
    del record["timestamp"]
    assert json.dumps(record, sort_keys=True, separators=(",", ":")) == pinned


def test_corpus_round_trip(tmp_path):
    path = tmp_path / "corpus.jsonl"
    rec = search_extremal("SOLY-PROD", 3, "exhaustive",
                          {"ground": FiniteSet(range(1, 7)), "budget": 100})
    corpus_store(rec, path)
    loaded = corpus_load(path)
    assert loaded == [rec]
    assert not loaded[0].drift


def test_corpus_detects_tampering(tmp_path):
    path = tmp_path / "corpus.jsonl"
    rec = search_extremal("SOLY-PROD", 3, "exhaustive",
                          {"ground": FiniteSet(range(1, 7)), "budget": 100})
    corpus_store(rec, path)
    lines = path.read_text().splitlines()
    obj = json.loads(lines[0])
    obj["ratio"] = "999/1"
    path.write_text(json.dumps(obj) + "\n")
    loaded = corpus_load(path)
    assert loaded[0].drift


def test_corpus_empty_file(tmp_path):
    path = tmp_path / "corpus.jsonl"
    path.write_text("")
    assert corpus_load(path) == []


@pytest.mark.parametrize("bad", [
    "{not json", '{"set": ["1", "2"]}', '{"set": [1, 2]}', "[]",
    '{"set": "123", "inequality_id": "SOLY-PROD", "ratio": "1"}',
    '{"set": ["1", "2", "3"], "inequality_id": "NOPE", "ratio": "1"}',
    # sets that the entry refuses on re-verification
    '{"set": ["3"], "inequality_id": "COR-SOL", "ratio": "1"}',
    '{"set": ["0", "1", "2"], "inequality_id": "PREV-DA", "ratio": "1"}'])
def test_corpus_malformed_line_is_a_parse_error(tmp_path, bad):
    path = tmp_path / "corpus.jsonl"
    rec = search_extremal("SOLY-PROD", 3, "exhaustive",
                          {"ground": FiniteSet(range(1, 7)), "budget": 100})
    corpus_store(rec, path)
    with open(path, "a", encoding="utf-8") as fh:
        fh.write("\n" + bad + "\n")
    with pytest.raises(ParseError, match=re.escape(f"{path}, line 3: not a corpus record")):
        corpus_load(path)
