"""Benchmark of the sumprod package: one command, two workloads.

    python3 perfbench/run.py --workload cli-classes --seed 1 --seconds 50 --trace 0

Run from the root of a checkout.  Set-up generates the seeded inputs under
.perfbench_run/ and starts a warm interpreter (worker.py) that has imported
sumprod from ./src; it is repeated SETUP_REPEATS times and the median
reported.  The workload then runs whole rounds of its fixed operation list,
one operation at a time, until --seconds have passed (at least one round).
The cli-classes workload first runs each command once as a real `sumprod`
subprocess, for its peak memory and its stdout; every later round runs
`sumprod.cli.main([...])` in the worker, whose stdout must match byte for
byte.  Each operation is timed on its own, and wall_s is the sum over the
list of each operation's fastest time in the run: on a shared host a
repeat is slowed by what other tenants run, and the fastest repeat is the
closest to the operation's own cost (README.md shows why a median is not
steady here).  Every output is checked against oracles.py.  With --trace 1
rounds alternate untraced and traced with spans.py's wrappers, and the run
prints per-layer metrics instead of end-to-end ones.  The last line of
stdout is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import inputs
import oracles
from oracles import CheckError, check

SETUP_REPEATS = 7
WORKLOADS = ("cli-classes", "cluster-search")
EXIT_PARSE = 2  # the CLI's documented code for unreadable input


class Worker:
    """The warm interpreter; requests are answered one at a time."""

    def __init__(self, root: Path, env: dict):
        self.proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).with_name("worker.py"))],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, cwd=root, env=env, text=True)
        self._read()

    def _read(self) -> dict:
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"worker exited with code {self.proc.wait()}")
        return json.loads(line)

    def call(self, cmd: str, **req) -> dict:
        self.proc.stdin.write(json.dumps(dict(req, cmd=cmd)) + "\n")
        self.proc.stdin.flush()
        reply = self._read()
        if "error" in reply:
            raise RuntimeError(f"worker {cmd}: {reply['error']}")
        return reply

    def close(self) -> None:
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


def run_subprocess(argv, env, root: Path, work: Path):
    """Run one CLI command; return (seconds, rc, stdout, stderr, maxrss KiB)."""
    out_path, err_path = work / "op.stdout", work / "op.stderr"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, cwd=root, env=env)
        _, status, usage = os.wait4(proc.pid, 0)
        dt = perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return (dt, proc.returncode, out_path.read_bytes().decode("utf-8", "replace"),
            err_path.read_text(encoding="utf-8", errors="replace"), usage.ru_maxrss)


class CliWorkload:
    """`sumprod <cmd>` per operation: a subprocess, or cli.main in the worker."""

    def __init__(self, name, seed, work, root, env):
        self.ops = inputs.cli_plan(seed, work)
        self.root, self.work, self.env = root, work, env
        self.reference = {}  # op index -> first stdout seen

    def round(self, worker, in_process: bool):
        walls, outcomes, rss = [], [], 0
        for op in self.ops:
            if in_process:
                r = worker.call("cli", argv=op["argv"])
                dt, rc, out, err = r["wall"], r["rc"], r["stdout"], r["stderr"]
            else:
                argv = [sys.executable, "-m", "sumprod.cli"] + op["argv"]
                dt, rc, out, err, kib = run_subprocess(argv, self.env, self.root, self.work)
                rss = max(rss, kib)
            walls.append(dt)
            outcomes.append((rc, out, err))
        return walls, outcomes, rss

    def check(self, outcomes) -> int:
        """Check one round's outputs; return the number of failed operations."""
        failed = 0
        for i, (op, (rc, out, err)) in enumerate(zip(self.ops, outcomes)):
            if op["check"] == "malformed":
                if rc != EXIT_PARSE or out:
                    failed += 1
                    _note(f"{op['name']}: exit {rc}, {len(out)} bytes on stdout, "
                          f"expected exit {EXIT_PARSE} and none; stderr ends "
                          f"{err.strip().splitlines()[-1:]}")
                continue
            if rc != 0:
                failed += 1
                _note(f"{op['name']}: exit {rc}: {err.strip()[-400:]}")
                continue
            if i in self.reference:
                check(out == self.reference[i], f"{op['name']}: stdout bytes differ between passes")
                continue
            data = json.loads(out)
            if op["check"] == "stats":
                oracles.check_stats(op["values"], data)
            else:
                oracles.check_verify(op["values"], data)
            self.reference[i] = out
        return failed

    def attempted(self) -> int:
        return len(self.ops)


class InProcessWorkload:
    """The counting operations and then the searches, run inside the worker."""

    def __init__(self, name, seed, work):
        self.seed = seed
        self.plan = dict(inputs.cluster_plan(seed), **inputs.search_plan(seed, work))
        self.reference = None

    def load(self, worker):
        worker.call("load", plan=self.plan)

    def round(self, worker, in_process: bool):
        r = worker.call("round")
        return r["walls"], r["results"], 0

    def attempted(self) -> int:
        # each counting operation, each search with its store, and the load
        return len(self.plan["ops"]) + len(self.plan["searches"]) + 1

    def check(self, results) -> int:
        same = dict(results, records=[dict(r, timestamp="") for r in results["records"]],
                    loaded=[dict(r, timestamp="") for r in results["loaded"]])
        if self.reference is not None:
            check(same == self.reference, "results differ between rounds")
            return 0
        self._check_cluster(results["counting"])
        self._check_search(results)
        self.reference = same
        return 0

    def _check_cluster(self, results):
        rng = random.Random(f"sigma-sample-{self.seed}")
        for op, res in zip(self.plan["ops"], results):
            values = [(x, 1) for x in op.get("A", [])]
            if op["kind"] == "cluster":
                oracles.check_cluster(values, op["tau"], op["M"], res)
            elif op["kind"] == "sigma":
                oracles.check_sigma_max(*op["sets"], res, rng)
            elif op["kind"] == "er":
                oracles.check_er_chain(values, res)
            else:
                pts = [(x, y) for x in op["xs"] for y in op["xs"]]
                check(res == oracles.collinear_count(pts),
                      f"collinear_triples on a {len(op['xs'])}^2 grid")

    def _check_search(self, results):
        records, loaded = results["records"], results["loaded"]
        check(dict(records[0], timestamp="") == dict(records[1], timestamp=""),
              "the same seeded search gave different records")
        check([dict(r, drift=False) for r in records] == loaded,
              "corpus_load records differ from those stored, or drifted")
        for cfg, rec in zip(self.plan["searches"], records):
            ints = [oracles.parse_rat(x) for x in rec["set"]]
            check(all(q == 1 for _, q in ints), f"{cfg['id']}: non-integer set")
            ints = [p for p, _ in ints]
            ground = cfg["config"]["ground"]
            check(len(ints) == cfg["n"] and set(ints) <= set(ground),
                  f"{cfg['id']}: record set is not an n-subset of the ground")
            ratio = oracles.parse_rat(rec["ratio"])
            check(ratio == oracles.registry_ratio(cfg["id"], ints),
                  f"{cfg['id']}: ratio {rec['ratio']} of {ints} disagrees with the oracle")
            if cfg["mode"] == "exhaustive":
                check(rec["truncated"] is False, f"{cfg['id']}: exhaustive search truncated")
                best = oracles.exhaustive_best(cfg["id"], ground, cfg["n"],
                                               cfg["config"].get("maximize", False))
                check((ratio, ints) == best,
                      f"{cfg['id']}: exhaustive optimum {rec['ratio']} at {ints}, "
                      f"oracle {oracles.fmt_rat(best[0])} at {best[1]}")


def _note(msg: str) -> None:
    print(f"perfbench: {msg}", file=sys.stderr)


def self_test(worker) -> None:
    """The oracles against the program's brute-force oracles on tiny inputs."""
    sets = [[(1, 1), (2, 1), (3, 1), (4, 1)], [(1, 1), (2, 1), (4, 1), (8, 1), (3, 1)],
            [(1, 2), (2, 3), (3, 4), (1, 1), (3, 2)]]
    rng = random.Random(5)
    points = [[(x, y) for x in range(4) for y in range(4)],
              [(rng.randint(-4, 4), rng.randint(-4, 4)) for _ in range(25)]]
    program = worker.call("selftest", sets=[[oracles.fmt_rat(v) for v in s] for s in sets],
                          points=points)
    oracles.self_test(program, sets, points)


def cli_startup(env, root) -> float:
    """Median time to start an interpreter and import sumprod.cli."""
    times = []
    for _ in range(3):
        t0 = perf_counter()
        subprocess.run([sys.executable, "-c", "import sumprod.cli"], cwd=root, env=env,
                       check=True)
        times.append(perf_counter() - t0)
    return statistics.median(times)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "sumprod" / "__init__.py").is_file():
        _note(f"no sumprod sources under {root / 'src'}; run from a checkout's root")
        return 2
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    work = root / ".perfbench_run" / args.workload

    setups, worker = [], None
    try:
        for _ in range(SETUP_REPEATS):
            if worker is not None:
                worker.close()
                worker = None
            t0 = perf_counter()
            shutil.rmtree(work, ignore_errors=True)
            work.mkdir(parents=True)
            if args.workload == "cli-classes":
                wl = CliWorkload(args.workload, args.seed, work, root, env)
            else:
                wl = InProcessWorkload(args.workload, args.seed, work)
            worker = Worker(root, env)
            setups.append(perf_counter() - t0)
        if isinstance(wl, InProcessWorkload):
            wl.load(worker)
        return _measure(args, wl, worker, setups, env, root, work)
    finally:
        if worker is not None:
            worker.close()


def fastest_sum(rounds) -> float:
    """Sum over the operations of each one's fastest time in the rounds."""
    return sum(min(times) for times in zip(*rounds))


def _measure(args, wl, worker, setups, env, root, work) -> int:
    walls, plain_walls, traced_walls, layer_rounds = [], [], [], []
    attempted = failed = 0
    peak_kib = 0
    correct = True

    def one_round(in_process):
        nonlocal attempted, failed, peak_kib, correct
        op_walls, outcomes, kib = wl.round(worker, in_process)
        peak_kib = max(peak_kib, kib)
        attempted += wl.attempted()
        try:
            failed += wl.check(outcomes)
        except CheckError as exc:
            correct = False
            _note(f"check failed: {exc}")
        return op_walls

    deadline = perf_counter() + args.seconds
    if isinstance(wl, CliWorkload):
        one_round(False)  # the real CLI once; later rounds must match its stdout
    while True:
        if args.trace:
            # untraced and traced rounds alternate in the same process, so
            # their difference is the tracing overhead
            worker.call("trace", on=False)
            plain_walls.append(one_round(True))
            worker.call("trace", on=True)
            traced_walls.append(one_round(True))
            layer_rounds.append(worker.call("metrics")["metrics"])
        else:
            walls.append(one_round(True))
        if perf_counter() >= deadline:
            break
    worker.call("trace", on=False)
    try:
        self_test(worker)
    except CheckError as exc:
        correct = False
        _note(f"oracle self-test failed: {exc}")

    if args.trace:
        worker.call("dump", path=str(work / "spans.jsonl"))
        metrics = {k: statistics.median(r[k] for r in layer_rounds) for k in layer_rounds[0]}
        metrics["cli.startup_s"] = cli_startup(env, root)
        metrics["trace.wall_s"] = fastest_sum(traced_walls)
        metrics["trace.overhead_s"] = metrics["trace.wall_s"] - fastest_sum(plain_walls)
        units = _units()
        out = {k: {"value": v, "unit": units[k]} for k, v in sorted(metrics.items())}
    else:
        if isinstance(wl, InProcessWorkload):
            peak_kib = worker.call("rss")["maxrss_kib"]
        out = {"wall_s": {"value": fastest_sum(walls), "unit": "s"},
               "setup_s": {"value": statistics.median(setups), "unit": "s"},
               "peak_rss_mib": {"value": peak_kib / 1024, "unit": "MiB"}}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": out}))
    return 0


def _units() -> dict:
    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer"]}


if __name__ == "__main__":
    sys.exit(main())
