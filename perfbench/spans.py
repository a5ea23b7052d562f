"""Spans around the public functions of each sumprod module.

`Tracer.install` replaces every public function of the seven layer modules
with a wrapper, in every sumprod namespace that binds it, so nested calls
(verify -> stats -> exactset) record their own spans.  A span is
``(layer, op, parent, start_ns, end_ns, sizes)``; spans stay in memory until
`take` hands them out, and `layer_metrics` turns one round of them into the
per-layer metrics named in BENCHMARK.json.
"""

from __future__ import annotations

import importlib
import inspect
from time import perf_counter_ns

LAYERS = ("exactset", "stats", "counting", "verify", "_approx", "explore", "cli")

# Element-level scalar helpers run once per set element (millions of calls
# on the 256-element set); their time stays in the calling span.
UNWRAPPED = {"as_scalar", "parse_scalar", "format_scalar", "rational_normalize"}

PAIRWISE = {"sumset", "differenceset", "productset", "quotientset", "rep_counts", "energy"}
STATS_FNS = ("sumset", "productset", "quotientset", "rep_counts", "energy",
             "spectrum", "dyadic_slices", "d_upper", "lambda_set")


def _sizes(layer, op, args, kwargs, ok: bool):
    """Sizes recorded with a span; a call that raised is marked "error"."""
    if op == "build":
        sizes = {"n": len(args[0])} if ok else {}
    elif layer == "stats" and op in PAIRWISE:
        B = args[1] if len(args) > 1 and not isinstance(args[1], str) else kwargs.get("B")
        sizes = {"pairs": len(args[0]) * len(args[0] if B is None else B)}
    elif op == "evaluate":
        sizes = {"rid": args[0], "n": len(args[1]), "key": hash(args[1])}
    elif op in ("collinear_triples", "collinear_triples_brute"):
        sizes = {"n": len(args[0])}
    else:
        sizes = {}
    if not ok:
        sizes["error"] = True
    return sizes or None


class Tracer:
    """Collects spans of the calls into sumprod made while it is installed."""

    def __init__(self):
        self.spans: list = []
        self.stack: list[int] = []
        self.swaps: list = []  # (namespace or class, attribute, original, wrapper)

    def wrap(self, layer: str, op: str, fn):
        spans, stack = self.spans, self.stack

        def wrapper(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            ok = False
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                end = perf_counter_ns()
                stack.pop()
                spans[sid] = (layer, op, parent, start, end,
                              _sizes(layer, op, args, kwargs, ok))

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", op)
        wrapper.__doc__ = fn.__doc__
        return wrapper

    def install(self) -> None:
        """Put the wrappers in place (built on the first call)."""
        if not self.swaps:
            self._build()
        for owner, attr, _, wrapper in self.swaps:
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        """Put the original functions back."""
        for owner, attr, original, _ in self.swaps:
            setattr(owner, attr, original)

    def _build(self) -> None:
        mods = {name: importlib.import_module(f"sumprod.{name}") for name in LAYERS}
        namespaces = [importlib.import_module("sumprod")] + list(mods.values())
        targets = []
        for layer, mod in mods.items():
            for name, obj in vars(mod).items():
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not name.startswith("_") and name not in UNWRAPPED):
                    targets.append((layer, name, obj))
        targets.append(("cli", "render", mods["cli"]._dump))
        for layer, name, obj in targets:
            w = self.wrap(layer, name, obj)
            for ns in namespaces:
                for attr in [a for a, v in vars(ns).items() if v is obj]:
                    self.swaps.append((ns, attr, obj, w))
        for cls, layer, op in ((mods["exactset"].FiniteSet, "exactset", "build"),
                               (mods["verify"].SetContext, "verify", "context")):
            self.swaps.append((cls, "__init__", cls.__init__,
                               self.wrap(layer, op, cls.__init__)))

    def take(self) -> list:
        """The spans recorded since the last call; call between rounds only."""
        out = list(self.spans)
        self.spans.clear()
        return out


def layer_metrics(spans: list, registry_ids) -> dict:
    """Per-layer metrics of one round of spans (times in seconds)."""
    n = len(spans)
    dur = [s[4] - s[3] for s in spans]
    child = [0] * n
    for i, s in enumerate(spans):
        if s[2] >= 0:
            child[s[2]] += dur[i]

    def ancestors(i):
        p = spans[i][2]
        while p >= 0:
            yield spans[p]
            p = spans[p][2]

    self_ns = {layer: 0 for layer in LAYERS}
    incl = {}      # (layer, op) -> ns over spans not nested in the same op
    calls = {}     # (layer, op) -> count
    pairs = pair_ns = 0
    build_elems = 0
    search_keys, search_evals = set(), 0
    for i, (layer, op, _, _, _, sizes) in enumerate(spans):
        self_ns[layer] += dur[i] - child[i]
        calls[(layer, op)] = calls.get((layer, op), 0) + 1
        anc = list(ancestors(i))
        if not any(a[0] == layer and a[1] == op for a in anc):
            incl[(layer, op)] = incl.get((layer, op), 0) + dur[i]
        if not sizes or "error" in sizes:
            continue
        if layer == "stats" and op in PAIRWISE and not any(
                a[0] == "stats" and a[1] in PAIRWISE for a in anc):
            pairs += sizes["pairs"]
            pair_ns += dur[i]
        elif op == "build":
            build_elems += sizes["n"]
        elif op == "evaluate" and any(a[1] == "search_extremal" for a in anc):
            search_evals += 1
            search_keys.add(sizes["key"])

    def s(layer, op):
        return incl.get((layer, op), 0) / 1e9

    def c(layer, op):
        return calls.get((layer, op), 0)

    entry_ns = {rid: 0 for rid in registry_ids}
    for i, sp in enumerate(spans):
        if sp[1] == "evaluate" and sp[5] and "rid" in sp[5]:
            entry_ns[sp[5]["rid"]] = entry_ns.get(sp[5]["rid"], 0) + dur[i]
    collinear_points = sum(sp[5]["n"] for sp in spans
                           if sp[1] == "collinear_triples" and sp[5] and sp[5].get("n"))
    out = {
        "exactset.build_calls": c("exactset", "build"),
        "exactset.build_elems": build_elems,
        "exactset.build_s": s("exactset", "build"),
        "exactset.parse_s": s("exactset", "load_set_file") + s("exactset", "parse_set_text"),
        "exactset.self_s": self_ns["exactset"] / 1e9,
        "stats.calls": sum(v for (layer, _), v in calls.items() if layer == "stats"),
        "stats.pairs": pairs,
        "stats.self_s": self_ns["stats"] / 1e9,
        "stats.ns_per_pair": pair_ns / pairs if pairs else 0.0,
    }
    for fn in STATS_FNS:
        out[f"stats.{fn}_s"] = s("stats", fn)
    out.update({
        "counting.sigma_max_calls": c("counting", "sigma_max"),
        "counting.sigma_max_s": s("counting", "sigma_max"),
        "counting.sigma_count_s": s("counting", "sigma_count"),
        "counting.cluster_sigma_calls": c("counting", "cluster_sigma"),
        "counting.cluster_sigma_s": s("counting", "cluster_sigma"),
        "counting.cluster_report_s": s("counting", "solymosi_cluster_report"),
        "counting.collinear_points": collinear_points,
        "counting.collinear_s": s("counting", "collinear_triples"),
        "counting.er_chain_s": s("counting", "er_chain"),
        "counting.self_s": self_ns["counting"] / 1e9,
    })
    for rid in registry_ids:
        out[f"verify.entry_s.{rid}"] = entry_ns[rid] / 1e9
    out.update({
        "verify.context_builds": c("verify", "context"),
        "verify.evaluate_calls": c("verify", "evaluate"),
        "verify.smallL_s": s("verify", "smallL_construction"),
        "verify.self_s": self_ns["verify"] / 1e9,
        "approx.product_pow_calls": c("_approx", "product_pow"),
        "approx.product_pow_s": s("_approx", "product_pow"),
        "approx.self_s": self_ns["_approx"] / 1e9,
        "explore.search_s": s("explore", "search_extremal"),
        "explore.corpus_store_s": s("explore", "corpus_store"),
        "explore.corpus_load_s": s("explore", "corpus_load"),
        "explore.self_s": self_ns["explore"] / 1e9,
        "explore.distinct_eval_ratio": (len(search_keys) / search_evals
                                        if search_evals else 0.0),
        "cli.render_s": s("cli", "render") + s("verify", "report_json"),
        "cli.self_s": self_ns["cli"] / 1e9,
        "trace.spans": n,
    })
    return out
