"""Warm interpreter that runs the benchmark's in-process operations.

Started by run.py with ``src`` on PYTHONPATH.  It imports sumprod, answers
``{"ready": true}`` and then serves one JSON request per stdin line with
one JSON reply per stdout line, strictly one at a time (a closed loop with
a single client).  Anything sumprod prints goes to stderr or, for the
in-process CLI, into the reply.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import sys
import traceback
from time import perf_counter

import sumprod as sp  # called through the package so traced wrappers apply
import sumprod.cli  # noqa: F401 (binds sp.cli)

from oracles import REGISTRY_IDS
from spans import Tracer, layer_metrics


def _fmt(x):
    return None if x is None else sp.format_scalar(x)


def _cluster(op):
    r = sp.solymosi_cluster_report(op["A"], op["tau"], op["M"])
    return {"slopes": [_fmt(x) for x in r.slopes], "group_count": r.group_count,
            "per_group": [[c, _fmt(rho)] for c, rho in r.per_group],
            "sums_total": r.sums_total, "sums_in_box": r.sums_in_box,
            "sigma_used": r.sigma_used, "conditions_ok": list(r.conditions_ok),
            "lemma_pass": r.lemma_pass}


def _sigma(op):
    r = sp.sigma_max(*op["sets"])
    return {"count": r.count, "coefficients": [_fmt(c) for c in r.coefficients]}


def _er(op):
    r = sp.er_chain(op["A"])
    return {"F": [_fmt(x) for x in r.F], "U": r.U, "T": r.T, "checks": r.checks}


def _collinear(op):
    return sp.collinear_triples(op["points"])


RUNNERS = {"cluster": _cluster, "sigma": _sigma, "er": _er, "collinear": _collinear}


class Worker:
    def __init__(self):
        self.plan = None
        self.tracer = Tracer()
        self.rounds: list = []

    # -- requests -----------------------------------------------------------

    def load(self, req):
        """Convert a plan's inputs once, outside every timed round."""
        plan = req["plan"]
        for op in plan["ops"]:
            if "A" in op:
                op["A"] = sp.FiniteSet(op["A"])
            if "sets" in op:
                op["sets"] = [sp.FiniteSet(s) for s in op["sets"]]
            if "xs" in op:
                op["points"] = [(x, y) for x in op["xs"] for y in op["xs"]]
        for cfg in plan["searches"]:
            cfg["config"]["ground"] = sp.FiniteSet(cfg["config"]["ground"])
        self.plan = plan
        return {}

    def trace(self, req):
        """Install the span wrappers (on=True) or restore the originals."""
        if req["on"]:
            self.tracer.install()
        else:
            self.tracer.uninstall()
        return {}

    def round(self, req):
        """Run the plan once; each operation is timed on its own."""
        walls, counting = [], []
        for op in self.plan["ops"]:
            t0 = perf_counter()
            counting.append(RUNNERS[op["kind"]](op))
            walls.append(perf_counter() - t0)
        corpus = self.plan["corpus"]
        if os.path.exists(corpus):
            os.remove(corpus)
        records = []
        for cfg in self.plan["searches"]:
            t0 = perf_counter()
            rec = sp.search_extremal(cfg["id"], cfg["n"], cfg["mode"], dict(cfg["config"]))
            sp.corpus_store(rec, corpus)
            walls.append(perf_counter() - t0)
            records.append(rec)
        t0 = perf_counter()
        loaded = sp.corpus_load(corpus)
        walls.append(perf_counter() - t0)
        results = {"counting": counting,
                   "records": [r.to_json_dict() for r in records],
                   "loaded": [dict(r.to_json_dict(), drift=r.drift) for r in loaded]}
        return {"walls": walls, "results": results}

    def cli(self, req):
        out, err = io.StringIO(), io.StringIO()
        t0 = perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                rc = sp.cli.main(req["argv"])
            except Exception:  # what an uncaught exception does to the process
                traceback.print_exc()
                rc = 1
        return {"wall": perf_counter() - t0, "rc": rc,
                "stdout": out.getvalue(), "stderr": err.getvalue()}

    def metrics(self, req):
        spans = self.tracer.take()
        self.rounds.append(spans)
        return {"metrics": layer_metrics(spans, REGISTRY_IDS)}

    def dump(self, req):
        """Write every traced round's spans as JSONL."""
        keys = ("layer", "op", "parent", "start_ns", "end_ns", "sizes")
        with open(req["path"], "w", encoding="utf-8") as fh:
            for k, spans in enumerate(self.rounds):
                for sid, sp in enumerate(spans):
                    fh.write(json.dumps(dict(zip(keys, sp), round=k, id=sid)) + "\n")
        return {}

    def selftest(self, req):
        energies = []
        for values in req["sets"]:
            A = sp.FiniteSet(values)
            energies.append([sp.energy_by_quadruples(A, mode="add"),
                             sp.energy_by_quadruples(A, mode="mul")])
        triples = [sp.collinear_triples_brute([tuple(p) for p in pts]) for pts in req["points"]]
        return {"energies": energies, "triples": triples}

    def rss(self, req):
        return {"maxrss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}


def main() -> int:
    proto = sys.stdout
    sys.stdout = sys.stderr
    worker = Worker()
    proto.write(json.dumps({"ready": True, "sumprod": sp.__version__}) + "\n")
    proto.flush()
    for line in sys.stdin:
        req = json.loads(line)
        try:
            reply = getattr(worker, req["cmd"])(req)
        except Exception as exc:  # report and keep serving; run.py decides
            traceback.print_exc()
            reply = {"error": f"{type(exc).__name__}: {exc}"}
        proto.write(json.dumps(reply) + "\n")
        proto.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
