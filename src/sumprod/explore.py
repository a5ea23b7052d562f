"""Structured-set generators, extremal search and the persisted corpus.

Generators cover the canonical tightness witnesses (arithmetic and
geometric progressions and their products) plus seeded random families.
`search_extremal` hunts for sets where a registry ratio is extremal, and
best-known records persist to an append-only JSONL corpus that re-verifies
itself on load.  Every ratio comes from `verify.evaluate`.
"""

from __future__ import annotations

import datetime
import json
import random
from bisect import insort
from dataclasses import dataclass, field, replace
from fractions import Fraction
from itertools import combinations
from math import comb

from .exactset import (DomainError, FiniteSet, ParseError, canonical_json, format_scalar,
                       parse_scalar)
from .stats import productset
from .verify import evaluate

ARTIFACT_VERSION = "0.1.0"

_RANDOM_KINDS = ("random_integer", "random_rational")
_KINDS = ("ap", "gp", "ap_times_gp") + _RANDOM_KINDS


@dataclass(frozen=True)
class GeneratorSpec:
    """Recipe for a structured or random set; deterministic given its seed."""

    kind: str
    params: dict


def generate(spec: GeneratorSpec) -> FiniteSet:
    """Materialize a GeneratorSpec; identical specs yield identical sets."""
    kind, p = spec.kind, spec.params
    if kind not in _KINDS:
        raise DomainError(f"unknown generator kind {spec.kind!r}")
    if kind in _RANDOM_KINDS and "seed" not in p:
        raise DomainError(f"{kind} requires a seed")

    if kind == "ap":
        n, start, step = int(p["n"]), parse_scalar(str(p.get("start", 1))), \
            parse_scalar(str(p.get("step", 1)))
        if n < 2 or step == 0:
            raise DomainError("ap requires n >= 2 and step != 0")
        return FiniteSet(start + i * step for i in range(n))

    if kind == "gp":
        n, start, ratio = int(p["n"]), parse_scalar(str(p.get("start", 1))), \
            parse_scalar(str(p.get("ratio", 2)))
        if n < 2 or start == 0 or ratio in (0, 1, -1):
            raise DomainError("gp requires n >= 2, start != 0, ratio not in {0,1,-1}")
        return FiniteSet(start * ratio**i for i in range(n))

    if kind == "ap_times_gp":
        return productset(generate(p["ap"]), generate(p["gp"]))

    n, span = int(p["n"]), int(p.get("range", 100))
    if n < 2:
        raise DomainError("random generators require n >= 2")
    rng = random.Random(p["seed"])
    values: set = set()
    if kind == "random_integer":
        if span < n:
            raise DomainError("range too small for n distinct integers")
        while len(values) < n:
            values.add(Fraction(rng.randint(1, span)))
    else:
        if span * span < n:
            raise DomainError("range too small for n distinct rationals")
        while len(values) < n:
            values.add(Fraction(rng.randint(1, span), rng.randint(1, span)))
    return FiniteSet(values)


def mutate(A: FiniteSet, ground: FiniteSet, seed: int) -> tuple[FiniteSet, bool]:
    """Swap one element of A for one of ground minus A, deterministically.

    Returns (set, moved); moved is False when no legal swap exists.
    """
    pool = [x for x in ground.elements if x not in A._members]  # in order, as ground is
    if not pool:
        return A, False
    rng = random.Random(seed)
    out = rng.choice(pool)
    dropped = rng.choice(A.elements)
    kept = [x for x in A.elements if x != dropped]
    insort(kept, out)
    return FiniteSet.from_sorted(kept), True


# -- extremal search -------------------------------------------------------

@dataclass(frozen=True)
class ExtremalRecord:
    """Best-known set for one registry ratio, with enough provenance to
    reproduce it.  Timestamps are excluded from equality so fixed-seed
    searches compare identical across runs."""

    set: FiniteSet
    inequality_id: str
    ratio: Fraction
    generator: dict
    timestamp: str = field(compare=False, default="")
    artifact_version: str = ARTIFACT_VERSION
    truncated: bool = False
    drift: bool = False

    def to_json_dict(self) -> dict:
        return {
            "set": [format_scalar(x) for x in self.set],
            "inequality_id": self.inequality_id,
            "ratio": format_scalar(self.ratio),
            "generator": self.generator,
            "timestamp": self.timestamp,
            "artifact_version": self.artifact_version,
            "truncated": self.truncated,
        }


def _now() -> str:
    return datetime.datetime.now(datetime.timezone.utc).isoformat()


def _ratio_of(inequality_id: str, A: FiniteSet) -> Fraction:
    return evaluate(inequality_id, A).ratio


def _better(maximize: bool, cand, best) -> bool:
    """cand/best are (ratio, set); lexicographically smallest set wins ties."""
    if best is None:
        return True
    if cand[0] != best[0]:
        return cand[0] > best[0] if maximize else cand[0] < best[0]
    return cand[1] < best[1]


def search_extremal(inequality_id: str, n: int, mode: str,
                    config: dict) -> ExtremalRecord:
    """Minimize (or maximize) a registry ratio over n-element sets.

    Exhaustive mode enumerates n-subsets of config['ground'] in
    lexicographic order, stopping (with a truncation flag) at
    config['budget'] evaluations.  Hillclimb mode runs
    config.get('restarts', 1) >= 1 seeded mutate-and-accept walks;
    equal-ratio moves are accepted with probability 1/2 to drift along
    plateaus.  The walks of one call evaluate each set at most once.
    """
    ground: FiniteSet = config["ground"]
    budget = int(config.get("budget", 10_000))
    maximize = bool(config.get("maximize", False))
    if n < 2 or n > len(ground):
        raise DomainError("need 2 <= n <= |ground|")

    best = None
    truncated = False
    if mode == "exhaustive":
        if budget < 1:
            raise DomainError(f"exhaustive search needs budget >= 1, got {budget}")
        evaluated = 0
        for combo in combinations(ground.elements, n):
            if evaluated >= budget:
                truncated = True
                break
            A = FiniteSet(combo)
            evaluated += 1
            cand = (_ratio_of(inequality_id, A), A)
            if _better(maximize, cand, best):
                best = cand
        generator = {"mode": "exhaustive", "ground": [format_scalar(x) for x in ground],
                     "n": n, "budget": budget,
                     "total_subsets": comb(len(ground), n)}
    elif mode == "hillclimb":
        if budget < 0:
            raise DomainError(f"hillclimb search needs budget >= 0, got {budget}")
        seed = int(config["seed"])
        restarts = int(config.get("restarts", 1))
        if restarts < 1:
            raise DomainError(f"hillclimb search needs restarts >= 1, got {restarts}")
        rng = random.Random(seed)
        # the ratio of each set evaluated in this call, keyed by the set's own
        # element tuple, so that a set held here keeps no membership table
        seen = {}

        def ratio(A):
            r = seen.get(A.elements)
            if r is None:
                r = seen[A.elements] = _ratio_of(inequality_id, A)
            return r

        for _ in range(restarts):
            A = FiniteSet(rng.sample(ground.elements, n))
            cur = (ratio(A), A)
            if _better(maximize, cur, best):
                best = cur
            for _ in range(budget):
                B, moved = mutate(cur[1], ground, rng.randrange(1 << 30))
                if not moved:
                    break
                cand = (ratio(B), B)
                accept = _better(maximize, cand, cur) or (
                    cand[0] == cur[0] and rng.random() < 0.5)
                if accept:
                    cur = cand
                if _better(maximize, cur, best):
                    best = cur
        generator = {"mode": "hillclimb", "ground": [format_scalar(x) for x in ground],
                     "n": n, "budget": budget, "seed": seed, "restarts": restarts}
    else:
        raise DomainError(f"unknown search mode {mode!r}")

    return ExtremalRecord(set=best[1], inequality_id=inequality_id,
                          ratio=best[0], generator=generator,
                          timestamp=_now(), truncated=truncated)


# -- corpus ----------------------------------------------------------------

def corpus_store(record: ExtremalRecord, path) -> None:
    """Append one record to the JSONL corpus."""
    with open(path, "a", encoding="utf-8") as fh:
        fh.write(canonical_json(record.to_json_dict()) + "\n")


def corpus_load(path) -> list[ExtremalRecord]:
    """Load the corpus, re-verifying every stored ratio.

    A record whose stored ratio no longer matches recomputation is kept
    but flagged with drift=True.  A line that is not a record raises
    ParseError naming the path and the line number.
    """
    records = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
                A = FiniteSet(parse_scalar(s) for s in obj["set"])
                stored = parse_scalar(obj["ratio"])
                inequality_id = obj["inequality_id"]
            except (ValueError, KeyError, TypeError, AttributeError) as exc:
                raise ParseError(f"{path}, line {lineno}: not a corpus record "
                                 f"({type(exc).__name__}: {exc})") from exc
            rec = ExtremalRecord(
                set=A, inequality_id=inequality_id, ratio=stored,
                generator=obj.get("generator", {}),
                timestamp=obj.get("timestamp", ""),
                artifact_version=obj.get("artifact_version", ARTIFACT_VERSION),
                truncated=bool(obj.get("truncated", False)))
            if _ratio_of(rec.inequality_id, A) != stored:
                rec = replace(rec, drift=True)
            records.append(rec)
    return records
