"""Batch command surface: stats, verify, explore and oracle subcommands.

All reports go to stdout (JSON is canonical: sorted keys, rationals as
"p/q" strings); diagnostics go to stderr.  Exit codes: 0 success,
1 usage, 2 parse, 3 explicit-inequality failure, 4 oracle mismatch,
5 resource budget exceeded.
"""

from __future__ import annotations

import argparse
import os
import random
import sys
from fractions import Fraction
from functools import cache

from . import explore as explore_mod
from . import verify as verify_mod
from .counting import (
    collinear_triples,
    collinear_triples_brute,
    sigma_count,
    sigma_max,
)
from .exactset import (
    DomainError,
    FiniteSet,
    ParseError,
    ResourceError,
    canonical_json,
    format_scalar,
    load_set_file,
)
from .stats import SetContext, energy_by_quadruples

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_PARSE = 2
EXIT_FAIL = 3
EXIT_MISMATCH = 4
EXIT_RESOURCE = 5


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


# a function of its own, which perfbench times as the CLI's rendering
def _dump(obj) -> str:
    return canonical_json(obj)


def _human(x: Fraction) -> str:
    """Exact 'p/q' with a 6-significant-digit decimal courtesy rendering."""
    if x.denominator == 1:
        return str(x.numerator)
    return f"{format_scalar(x)} (~{float(x):.6g})"


# -- stats -----------------------------------------------------------------

def _cmd_stats(args) -> int:
    ctx = SetContext(load_set_file(args.input))
    zero = ctx.A.has_zero()
    out = {
        "n": ctx.n,
        "sumset": ctx.nsum,
        "productset": ctx.nprod,
        "quotientset": ctx.nquot if ctx.n > 1 or not zero else None,
        "energy_add": ctx.Ep,
        "energy_mul": None if zero else ctx.Ex,
    }
    if not zero:
        out["spectrum"] = {
            "lambdas": ctx.nquot,
            "max_fiber": ctx.max_fiber,
            "slices": [{"tau": format_scalar(tau), "count": count}
                       for tau, count in ctx.slices if count],
        }
        prof = ctx.dhat
        out["doubling"] = {
            "K_mul": format_scalar(prof.K_mul),
            "d_upper": format_scalar(prof.d_upper),
            "witness_size": len(prof.witness_C),
        }
    else:
        out["spectrum"] = None
        out["doubling"] = None

    if args.json:
        print(_dump(out))
        return EXIT_OK
    print(f"|A|      = {out['n']}")
    print(f"|A+A|    = {out['sumset']}")
    print(f"|AA|     = {out['productset']}")
    print(f"|A/A|    = {out['quotientset']}")
    print(f"E+(A)    = {out['energy_add']}")
    print(f"Ex(A)    = {out['energy_mul']}")
    if out["spectrum"]:
        sp = out["spectrum"]
        print(f"spectrum : {sp['lambdas']} lambdas, max fiber {sp['max_fiber']}, "
              + ", ".join(f"tau={s['tau']}:{s['count']}" for s in sp["slices"]))
        print(f"doubling : K = {_human(prof.K_mul)}, "
              f"d_upper <= {_human(prof.d_upper)} "
              f"(witness |C| = {len(prof.witness_C)})")
    return EXIT_OK


# -- verify ----------------------------------------------------------------

def _cmd_verify(args) -> int:
    ids = args.ids.split(",") if args.ids else None
    unknown = [rid for rid in ids or () if rid not in verify_mod.REGISTRY]
    if unknown:
        raise _UsageError(f"unknown registry id(s): {', '.join(unknown)}")
    A = load_set_file(args.input)
    reports = verify_mod.verify_suite(A, ids=ids)
    if args.json:
        print(verify_mod.report_json(reports))
    else:
        for r in reports:
            if r.error is not None:
                print(f"{r.id:16s} ERROR  {r.error}")
            elif r.explicit:
                verdict = "pass" if r.passed else "FAIL"
                print(f"{r.id:16s} {verdict}   lhs {_human(r.lhs)}  "
                      f"rhs {_human(r.rhs)}  ratio {_human(r.ratio)}")
            else:
                print(f"{r.id:16s} ratio  {_human(r.ratio)}")
    failed = [r for r in reports if r.explicit and r.passed is False]
    return EXIT_FAIL if failed else EXIT_OK


# -- explore ---------------------------------------------------------------

def _cmd_explore(args) -> int:
    if args.ground:
        ground = load_set_file(args.ground)
    else:
        ground = FiniteSet(range(1, max(12, 3 * args.n) + 1))
    config = {"ground": ground, "budget": args.budget, "maximize": args.maximize}
    if args.mode == "hillclimb":
        if args.seed is None:
            raise _UsageError("--seed is required for hillclimb mode")
        config["seed"] = args.seed
        config["restarts"] = args.restarts
    corpus = args.corpus or os.environ.get("SUMPROD_CORPUS")
    if corpus:
        # fail before the search, not after it, and leave no new file behind
        created = not os.path.exists(corpus)
        try:
            with open(corpus, "a", encoding="utf-8"):
                pass
        except OSError as exc:
            raise _UsageError(f"cannot append to corpus {corpus}: {exc.strerror}") from exc
        if created:
            os.remove(corpus)
    record = explore_mod.search_extremal(args.ineq, args.n, args.mode, config)
    if corpus:
        explore_mod.corpus_store(record, corpus)
        print(f"stored record in {corpus}", file=sys.stderr)
    if args.json:
        print(_dump(record.to_json_dict()))
    else:
        print(f"{args.ineq}: best ratio {_human(record.ratio)} at {record.set}"
              + ("  [truncated]" if record.truncated else ""))
    return EXIT_OK


# -- oracle ----------------------------------------------------------------

def _cmd_oracle(args) -> int:
    if args.samples < 0:
        raise _UsageError(f"--samples must be >= 0, got {args.samples}")
    A = load_set_file(args.input)
    results = {}
    if args.op == "energy-brute":
        ctx = SetContext(A)
        modes = ["add"] if A.has_zero() else ["add", "mul"]
        for mode in modes:
            fast = ctx.Ep if mode == "add" else ctx.Ex
            brute = energy_by_quadruples(A, mode=mode)
            results[f"energy_{mode}"] = {"fast": fast, "brute": brute,
                                         "match": fast == brute}
    elif args.op == "triples-brute":
        pts = [(x, y) for x in A for y in A]
        brute = collinear_triples_brute(pts)  # first: it refuses large sets at once
        fast = collinear_triples(pts)
        results["collinear_triples"] = {"fast": fast, "brute": brute,
                                        "match": fast == brute}
    else:  # sigma-max-sample
        res = sigma_max(A, A, A)
        rng = random.Random(args.seed or 0)
        worst = 0
        ok = True
        for _ in range(args.samples):
            a2 = Fraction(rng.randint(-9, 9) or 1, rng.randint(1, 9))
            a3 = Fraction(rng.randint(-9, 9) or 1, rng.randint(1, 9))
            c = sigma_count(1, A, a2, A, a3, A).count
            worst = max(worst, c)
            if c > res.count:
                ok = False
        check = sigma_count(*sum(((res.coefficients[i], A) for i in range(3)), ()))
        results["sigma_max"] = {
            "enumerated": res.count,
            "coefficients": [format_scalar(Fraction(c)) for c in res.coefficients],
            "attained": check.count == res.count,
            "sample_max": worst,
            "match": ok and check.count == res.count,
        }
    print(_dump(results))
    return EXIT_OK if all(r["match"] for r in results.values()) else EXIT_MISMATCH


# -- entry point -----------------------------------------------------------

def build_parser() -> _Parser:
    p = _Parser(prog="sumprod",
                description="Exact arithmetic statistics of finite rational sets")
    sub = p.add_subparsers(dest="cmd", required=True)

    ps = sub.add_parser("stats", help="basic statistics of a set file")
    ps.add_argument("--input", required=True)
    ps.add_argument("--json", action="store_true")

    pv = sub.add_parser("verify", help="run the inequality registry")
    pv.add_argument("--input", required=True)
    pv.add_argument("--ids", help="comma-separated registry ids")
    pv.add_argument("--json", action="store_true")

    pe = sub.add_parser("explore", help="extremal search over a ratio")
    pe.add_argument("--ineq", required=True)
    pe.add_argument("--n", type=int, required=True)
    pe.add_argument("--mode", choices=["exhaustive", "hillclimb"],
                    default="exhaustive")
    pe.add_argument("--budget", type=int, default=10_000)
    pe.add_argument("--seed", type=int)
    pe.add_argument("--restarts", type=int, default=1)
    pe.add_argument("--maximize", action="store_true")
    pe.add_argument("--ground")
    pe.add_argument("--corpus")
    pe.add_argument("--json", action="store_true")

    po = sub.add_parser("oracle", help="diff fast paths against brute force")
    po.add_argument("--input", required=True)
    po.add_argument("--op", required=True,
                    choices=["energy-brute", "triples-brute", "sigma-max-sample"])
    po.add_argument("--seed", type=int, default=0)
    po.add_argument("--samples", type=int, default=200)

    return p


# built on the first call, not at import, so that a process which imports the
# module without running a command does not hold the parser (about 190 KB)
_parser = cache(build_parser)
_DISPATCH = {"stats": _cmd_stats, "verify": _cmd_verify,
             "explore": _cmd_explore, "oracle": _cmd_oracle}


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
        return _DISPATCH[args.cmd](args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except DomainError as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ResourceError as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return EXIT_RESOURCE


if __name__ == "__main__":
    sys.exit(main())
