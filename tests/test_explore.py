"""Generators, mutation, extremal search, the subset oracle and the corpus."""

import json
import re
from fractions import Fraction

import pytest

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
from sumprod import explore


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

    monkeypatch.setattr(explore, "_ratio_of", ratio_of)
    cfg = {"ground": FiniteSet(range(1, 9)), "budget": -5, "seed": 11}
    with pytest.raises(DomainError, match=r"hillclimb search needs budget >= 0, got -5"):
        search_extremal("SOLY-PROD", 3, "hillclimb", cfg)


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


@pytest.mark.parametrize("bad", ["{not json", '{"set": ["1", "2"]}', '{"set": [1, 2]}', "[]"])
def test_corpus_malformed_line_is_a_parse_error(tmp_path, bad):
    path = tmp_path / "corpus.jsonl"
    rec = search_extremal("SOLY-PROD", 3, "exhaustive",
                          {"ground": FiniteSet(range(1, 7)), "budget": 100})
    corpus_store(rec, path)
    with open(path, "a", encoding="utf-8") as fh:
        fh.write("\n" + bad + "\n")
    with pytest.raises(ParseError, match=re.escape(f"{path}, line 3: not a corpus record")):
        corpus_load(path)
