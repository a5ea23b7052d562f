"""Seeded inputs for each workload.

The seed only chooses inputs; each workload keeps the same shape and amount
of work for every seed, so run-to-run spread measures the program and not
the draw.  The program sees only the files and plans written here.
"""

from __future__ import annotations

import random
from math import comb
from pathlib import Path

from oracles import SetFacts, fmt_rat, rat, rat_cmp

# Above this many slope triples cluster_sigma refuses (ResourceError); such
# windows are left out so every operation can succeed.
TRIPLE_BUDGET = 2000


# Every class is a set of fixed base sets, each times a seeded factor.
# Dilation keeps every count the program computes (A+A, AA, A/A, energies,
# fibers), so the work is the same for every seed and the spread between
# seeds is the machine's; random draws of small rationals differ in |A/A|
# by 10 % or more between seeds.  The sizes keep one `sumprod` command
# well under a second, so a run repeats each one many times (README.md).
STATS_N, STATS_DRAWS = 16, 4
VERIFY_N, VERIFY_DRAWS = 8, 4  # a power of two: ER and SMALLMD-ENERGY take log2 |A|


def int64_safe(n: int, draw: int) -> list[int]:
    """n distinct integers below 10^6."""
    return random.Random(f"int64-{draw}").sample(range(1, 10**6), n)


def small_rationals(n: int, draw: int, top: int = 60) -> list[tuple[int, int]]:
    """n distinct p/q with 1 <= p, q <= top."""
    rng = random.Random(f"rationals-{draw}")
    out: set = set()
    while len(out) < n:
        out.add(rat(rng.randint(1, top), rng.randint(1, top)))
    return sorted(out, key=lambda x: x[0] / x[1])


def large_integers(n: int, draw: int) -> list[int]:
    """n distinct integers above 2^31, outside the int64 kernels' range."""
    rng = random.Random(f"large-{draw}")
    out: set = set()
    while len(out) < n:
        out.add(rng.randint(2**31 + 1, 2**40))
    return sorted(out)


def classes(n: int, draws: int, rng) -> list[tuple[str, list]]:
    """The three input classes, `draws` base sets each, dilated by seeded factors.

    Integers below 10^6 times at most 2000 stay below 2^31, the bound of
    the numpy int64 kernels; the rationals' factor p/q has p, q <= 60.
    """
    out = []
    for k in range(draws):
        c = rng.randint(1, 2000)
        r = rat(rng.randint(1, 60), rng.randint(1, 60))
        d = rng.randint(1, 2000)
        out += [(f"int64-{k}", [c * x for x in int64_safe(n, k)]),
                (f"rationals-{k}", [rat(p * r[0], q * r[1]) for p, q in small_rationals(n, k)]),
                (f"large-{k}", [d * x for x in large_integers(n, k)])]
    return out


def write_set(path: Path, values, rng) -> None:
    """One value per line, in a seeded order (the program sorts anyway)."""
    lines = [fmt_rat(v) if isinstance(v, tuple) else str(v) for v in values]
    rng.shuffle(lines)
    path.write_text("# generated by perfbench/inputs.py\n" + "\n".join(lines) + "\n",
                    encoding="utf-8")


def _pairs(values):
    return [v if isinstance(v, tuple) else (v, 1) for v in values]


def cli_plan(seed: int, work: Path) -> list[dict]:
    """Operations of the CLI workload: argv after `sumprod` and what to check."""
    rng = random.Random(f"cli-classes-{seed}")
    ops = []
    for cmd, n, draws in (("verify", VERIFY_N, VERIFY_DRAWS), ("stats", STATS_N, STATS_DRAWS)):
        for name, values in classes(n, draws, rng):
            path = work / f"{cmd}-{name}.txt"
            write_set(path, values, rng)
            ops.append({"name": f"{cmd} {name}", "check": cmd, "values": _pairs(values),
                        "argv": [cmd, "--json", "--input", str(path)]})
    (work / "a_directory").mkdir()
    (work / "latin1.txt").write_bytes(b"1\n2\n\xe9\xff\n3\n")
    for name in ("a_directory", "latin1.txt"):
        ops.append({"name": f"stats {name}", "check": "malformed", "values": None,
                    "argv": ["stats", "--json", "--input", str(work / name)]})
    return ops


# Structured integer sets whose fibers are rich, each with the largest
# window tau it is swept to (None: every window).  The first two stop at
# tau = 1: their reports on the tau = 2 and tau = 4 windows took 0.23 to 2 s
# each, 11 s of a 13.5 s round, too long to repeat often within a run.
CLUSTER_SETS = (((1, 2, 3, 4, 6, 9, 12, 18, 36), (1, 1)), ((1, 2, 3, 4, 6, 8, 12), (1, 1)),
                ((2, 3, 4, 6, 9), None), ((1, 2, 4, 8, 16), None))
# sigma_max on {1,...,6}^3 took 0.75 s, a quarter of the round, and is left
# out so that the round repeats more often; the cluster reports call
# sigma_max hundreds of times.
SIGMA_SETS = ((1, 2, 3, 4, 6), (1, 2, 3, 4, 5))
ER_SETS = (tuple(range(1, 13)), (1, 2, 3, 4, 6, 8, 12, 16, 24))
GRID_SIDES = (20, 30)  # a 40x40 grid took 0.26 s, the longest operation


def cluster_plan(seed: int) -> dict:
    """Dilating a set by a seeded factor keeps every fiber, sigma and
    coefficient, and an affine image of a grid keeps its lines, so the work
    is the same for every seed while the numbers change."""
    rng = random.Random(f"counting-{seed}")

    def dilate(base):
        c = rng.randint(2, 999)
        return [c * x for x in base]

    ops = []
    for base, max_tau in CLUSTER_SETS:
        A = dilate(base)
        for _, tau, slopes in SetFacts(_pairs(A)).slices():
            if max_tau is not None and rat_cmp(tau, max_tau) > 0:
                continue
            k = len(slopes)
            for M in range(2, 5):
                if M <= k and comb(k, 3) <= TRIPLE_BUDGET:
                    ops.append({"kind": "cluster", "A": A, "tau": fmt_rat(tau), "M": M})
    for base in SIGMA_SETS:
        D = dilate(base)
        ops.append({"kind": "sigma", "sets": [D, D, D]})
    for base in ER_SETS:
        ops.append({"kind": "er", "A": dilate(base)})
    grid_rng = random.Random(400)
    for side in GRID_SIDES:
        xs = dilate(sorted(grid_rng.sample(range(1, 400), side)))
        shift = rng.randint(0, 999)
        ops.append({"kind": "collinear", "xs": [x + shift for x in xs]})
    return {"ops": ops}


def _three_smooth(limit):
    return sorted({2**i * 3**j for i in range(9) for j in range(6) if 2**i * 3**j <= limit})


def search_plan(seed: int, work: Path) -> dict:
    rng = random.Random(f"search-{seed}")
    s = [rng.randrange(1 << 30) for _ in range(3)]
    hill = {"id": "COR-SOL", "n": 4, "mode": "hillclimb",
            "config": {"ground": list(range(1, 13)), "budget": 200, "seed": s[0], "restarts": 1}}
    searches = [
        hill,
        dict(hill, config=dict(hill["config"])),  # the same search again: must repeat
        {"id": "MAIN-A", "n": 6, "mode": "hillclimb",
         "config": {"ground": sorted(rng.sample(range(1, 41), 18)), "budget": 150,
                    "seed": s[1], "restarts": 1}},
        {"id": "SOLY-QUOT", "n": 8, "mode": "hillclimb",
         "config": {"ground": _three_smooth(200), "budget": 150, "seed": s[2], "restarts": 1}},
        {"id": "SOLY-PROD", "n": 4, "mode": "exhaustive",
         "config": {"ground": sorted(rng.sample(range(1, 31), 10)), "budget": 1000}},
        {"id": "CS-SUBS", "n": 5, "mode": "exhaustive",
         "config": {"ground": sorted(rng.sample(range(1, 31), 10)), "budget": 1000,
                    "maximize": True}},
    ]
    return {"searches": searches, "corpus": str(work / "corpus.jsonl")}
