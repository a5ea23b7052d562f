"""Exit codes, JSON canonicalization and oracle wiring of the command surface."""

import contextlib
import io
import json
import os
import re
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from sumprod import (FiniteSet, cli, d_upper, dyadic_slices, energy, explore, format_scalar,
                     productset, quotientset, stats, sumset)
from sumprod.cli import main


@pytest.fixture
def three(tmp_path):
    p = tmp_path / "three.txt"
    p.write_text("1\n2\n3\n")
    return str(p)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_stats_json(three, capsys):
    code, out, _ = run(capsys, "stats", "--input", three, "--json")
    assert code == 0
    data = json.loads(out)
    assert data["n"] == 3 and data["sumset"] == 5
    assert data["productset"] == 6 and data["quotientset"] == 7
    assert data["energy_add"] == 19 and data["energy_mul"] == 15
    # canonical form: re-serializing reproduces the emitted bytes
    assert json.dumps(data, sort_keys=True, separators=(",", ":")) == out.strip()


def test_stats_human(three, capsys):
    code, out, _ = run(capsys, "stats", "--input", three)
    assert code == 0 and "|A+A|" in out and "doubling" in out


def test_verify_exit_zero(three, capsys):
    code, out, _ = run(capsys, "verify", "--input", three)
    assert code == 0
    assert "SOLY-PROD" in out and "FAIL" not in out


def test_verify_json_round_trip(three, capsys):
    code, out, _ = run(capsys, "verify", "--input", three, "--json",
                       "--ids", "SOLY-PROD,CS-SUBS")
    assert code == 0
    data = json.loads(out)
    assert {d["id"] for d in data} == {"SOLY-PROD", "CS-SUBS"}
    assert all(d["pass"] for d in data)
    assert json.dumps(data, sort_keys=True, separators=(",", ":")) == out.strip()


def test_stats_warns_of_dropped_duplicates_on_stderr(tmp_path, capsys):
    dup, clean = tmp_path / "dup.txt", tmp_path / "clean.txt"
    dup.write_text("1\n2\n2\n3\n3\n5\n")
    clean.write_text("1\n2\n3\n5\n")
    code, out, err = run(capsys, "stats", "--input", str(dup))
    assert (code, err) == (0, f"{dup}: dropped 2 duplicate value(s)\n")
    assert out == run(capsys, "stats", "--input", str(clean))[1]


def test_parse_error_exit_2(tmp_path, capsys):
    p = tmp_path / "bad.txt"
    p.write_text("abc\n")
    code, _, err = run(capsys, "stats", "--input", str(p))
    assert code == 2 and "line 1" in err


def test_missing_file_exit_2(capsys):
    code, _, _ = run(capsys, "stats", "--input", "/no/such/file")
    assert code == 2


@pytest.mark.parametrize("kind", ["directory", "non-utf8"])
def test_unreadable_input_exit_2(kind, tmp_path, capsys):
    path = tmp_path
    if kind == "non-utf8":
        path = tmp_path / "latin1.txt"
        path.write_bytes(b"1\n\xe9\n")
    code, out, err = run(capsys, "stats", "--input", str(path))
    assert code == 2 and out == ""
    assert err.startswith("parse error:") and "Traceback" not in err


def test_verify_unknown_id_exit_1(three, capsys):
    code, out, err = run(capsys, "verify", "--input", three,
                         "--ids", "SOLY-PROD,NOPE")
    assert code == 1 and out == ""
    assert "NOPE" in err


def test_usage_error_exit_1(capsys):
    assert run(capsys, "frobnicate")[0] == 1
    assert run(capsys, "verify")[0] == 1  # --input missing


def test_oracle_energy(three, capsys):
    code, out, _ = run(capsys, "oracle", "--input", three, "--op", "energy-brute")
    assert code == 0
    data = json.loads(out)
    assert data["energy_add"]["match"] and data["energy_mul"]["match"]


def test_oracle_triples(three, capsys):
    code, out, _ = run(capsys, "oracle", "--input", three, "--op", "triples-brute")
    assert code == 0
    assert json.loads(out)["collinear_triples"]["match"]


def test_oracle_triples_over_the_brute_force_limit_exit_5(tmp_path, capsys, monkeypatch):
    p = tmp_path / "thirteen.txt"
    p.write_text("".join(f"{k}\n" for k in range(1, 14)))  # 169 points, 169^3 > 3 000 000

    def fail(points):
        raise AssertionError("the fast count ran before the brute force refused")

    monkeypatch.setattr(cli, "collinear_triples", fail)
    code, out, err = run(capsys, "oracle", "--input", str(p), "--op", "triples-brute")
    assert code == 5 and out == ""
    assert "resource limit: brute-force triple enumeration too large" in err


def test_main_reuses_one_parser(three, capsys, monkeypatch):
    def fail():
        raise AssertionError("main built a new parser")

    monkeypatch.setattr(cli, "build_parser", fail)
    assert run(capsys, "stats", "--input", three, "--json")[0] == 0
    assert run(capsys, "verify", "--input", three)[0] == 0


def test_oracle_sigma(three, capsys):
    code, out, _ = run(capsys, "oracle", "--input", three,
                       "--op", "sigma-max-sample", "--samples", "50")
    assert code == 0
    data = json.loads(out)["sigma_max"]
    assert data["attained"] and data["sample_max"] <= data["enumerated"]


def test_oracle_sigma_counts_zero_triple_once(tmp_path, capsys):
    p = tmp_path / "zero.txt"
    p.write_text("0\n1\n2\n")
    code, out, _ = run(capsys, "oracle", "--input", str(p),
                       "--op", "sigma-max-sample", "--samples", "20")
    assert code == 0
    assert json.loads(out)["sigma_max"]["attained"]


def test_oracle_sigma_sample_above_the_enumerated_maximum_exit_4(three, capsys, monkeypatch):
    # x + y + z = 0 has no solution in {1, 2, 3}, and the samples find x + y = z ones
    monkeypatch.setattr(cli, "sigma_max", lambda A1, A2, A3: cli.sigma_count(1, A1, 1, A2, 1, A3))
    code, out, _ = run(capsys, "oracle", "--input", three,
                       "--op", "sigma-max-sample", "--samples", "50")
    data = json.loads(out)["sigma_max"]
    assert code == 4
    assert data["attained"] and data["enumerated"] == 0 < data["sample_max"]
    assert data["match"] is False


def test_explore_reads_its_ground_set_and_prints_one_line(tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("SUMPROD_CORPUS", raising=False)
    ground = tmp_path / "ground.txt"
    ground.write_text("2\n4\n8\n16\n32\n")
    code, out, err = run(capsys, "explore", "--ineq", "SOLY-PROD", "--n", "3",
                         "--mode", "exhaustive", "--ground", str(ground))
    assert (code, out, err) == (0, "SOLY-PROD: best ratio 160/9 (~17.7778) at {2, 4, 8}\n", "")


def test_explore_appends_corpus(three, tmp_path, capsys, monkeypatch):
    corpus = tmp_path / "c.jsonl"
    monkeypatch.setenv("SUMPROD_CORPUS", str(corpus))
    code, out, _ = run(capsys, "explore", "--ineq", "SOLY-PROD", "--n", "3",
                       "--mode", "exhaustive", "--budget", "100", "--json")
    assert code == 0
    assert corpus.exists() and len(corpus.read_text().splitlines()) == 1
    rec = json.loads(out)
    assert rec["inequality_id"] == "SOLY-PROD"


def test_explore_hillclimb_requires_seed(capsys):
    code, _, err = run(capsys, "explore", "--ineq", "SOLY-PROD", "--n", "3",
                       "--mode", "hillclimb")
    assert code == 1 and "seed" in err


def test_explore_unwritable_corpus_exit_1(tmp_path, capsys, monkeypatch):
    corpus = tmp_path / "no" / "such" / "dir" / "x.jsonl"

    def search_extremal(*args, **kwargs):
        raise AssertionError("the search ran before the corpus was opened")

    monkeypatch.setattr(explore, "search_extremal", search_extremal)
    code, out, err = run(capsys, "explore", "--ineq", "COR-SOL", "--n", "3",
                         "--corpus", str(corpus))
    assert code == 1 and out == ""
    assert err.startswith("usage error:") and str(corpus) in err


def test_explore_zero_budget_exit_1(capsys, monkeypatch):
    def ratio_of(*args):
        raise AssertionError("a set was evaluated before the budget check")

    monkeypatch.setattr(explore, "entry_ratio", ratio_of)
    code, out, err = run(capsys, "explore", "--ineq", "SOLY-PROD", "--n", "3", "--budget", "0")
    assert code == 1 and out == ""
    assert err == "invalid input: exhaustive search needs budget >= 1, got 0\n"


def test_explore_negative_hillclimb_budget_exit_1(capsys):
    code, out, err = run(capsys, "explore", "--ineq", "SOLY-PROD", "--n", "3", "--mode",
                         "hillclimb", "--seed", "1", "--budget", "-5", "--json")
    assert code == 1 and out == ""
    assert err == "invalid input: hillclimb search needs budget >= 0, got -5\n"


def test_explore_hillclimb_restarts_below_1_exit_1(capsys, monkeypatch):
    def ratio_of(*args):
        raise AssertionError("a set was evaluated before the restarts check")

    monkeypatch.setattr(explore, "entry_ratio", ratio_of)
    code, out, err = run(capsys, "explore", "--ineq", "SOLY-PROD", "--n", "3", "--mode",
                         "hillclimb", "--seed", "1", "--restarts", "-5", "--json")
    assert code == 1 and out == ""
    assert err == "invalid input: hillclimb search needs restarts >= 1, got -5\n"


@pytest.mark.parametrize("before", [None, b"", b'{"kept": "as is"}\n'])
def test_refused_search_leaves_the_corpus_as_it_was(before, tmp_path, capsys):
    corpus = tmp_path / "new.jsonl"
    if before is not None:
        corpus.write_bytes(before)
    code, out, err = run(capsys, "explore", "--ineq", "SOLY-PROD", "--n", "3",
                         "--budget", "0", "--corpus", str(corpus))
    assert code == 1 and out == "" and err.startswith("invalid input:")
    if before is None:
        assert not corpus.exists()
    else:
        assert corpus.read_bytes() == before


def test_oracle_negative_samples_exit_1(three, capsys):
    code, out, err = run(capsys, "oracle", "--input", three,
                         "--op", "sigma-max-sample", "--samples", "-3")
    assert code == 1 and out == ""
    assert err == "usage error: --samples must be >= 0, got -3\n"


# -- the error contract under malformed input ------------------------------

def run_captured(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


value_lines = st.one_of(
    st.integers(-40, 40).map(str),
    st.fractions(min_value=-9, max_value=9, max_denominator=7).map(format_scalar))
garbage_lines = st.one_of(
    st.sampled_from(["abc", "1/0", "2/-3", "1.5", "1e3", "--4", "0x1f", "1//2", "3/", "/3",
                     "\u00bd"]),
    st.text("xyz+-.*", min_size=1, max_size=4))
FILE_COMMANDS = (["stats"], ["stats", "--json"], ["verify"], ["verify", "--json"],
                 ["oracle", "--op", "energy-brute"])
BAD_FLAGS = ([], ["frobnicate"], ["stats"], ["verify", "--input", "{path}", "--json=yes"],
             ["oracle", "--input", "{path}", "--op", "nope"],
             ["oracle", "--input", "{path}", "--op", "energy-brute", "--samples", "many"],
             ["explore", "--ineq", "SOLY-PROD", "--n", "three"],
             ["explore", "--ineq", "SOLY-PROD", "--n", "3", "--mode", "sideways"],
             ["explore", "--ineq", "SOLY-PROD", "--n", "3", "--budget", "1.5"])


@st.composite
def malformed_runs(draw):
    """(argv with {path} for the set file, the file's bytes, exit code, stderr prefix)."""
    kind = draw(st.sampled_from(["garbage", "non-utf8", "flag", "budget", "samples"]))
    lines = draw(st.lists(value_lines, max_size=5, unique=True))
    if kind == "garbage":
        lines.insert(draw(st.integers(0, len(lines))), draw(garbage_lines))
    data = "\n".join(lines or ["1"]).encode()
    if kind in ("garbage", "non-utf8"):
        if kind == "non-utf8":
            at = draw(st.integers(0, len(data)))
            bad = draw(st.sampled_from([b"\xff", b"\xe9", b"\xc3(", b"\x80", b"\xed\xa0\x80"]))
            data = data[:at] + bad + data[at:]
        argv = draw(st.sampled_from(FILE_COMMANDS)) + ["--input", "{path}"]
        return argv, data, 2, "parse error:"
    if kind == "flag":
        argv = draw(st.sampled_from(BAD_FLAGS + (None,)))
        if argv is None:  # a flag no subcommand has
            flag = "--x" + draw(st.text("abcdefghij", max_size=6))
            argv = draw(st.sampled_from(FILE_COMMANDS)) + ["--input", "{path}", flag]
        return argv, data, 1, "usage error:"
    if kind == "budget":
        budget = str(-draw(st.integers(0, 10**6)))
        return (["explore", "--ineq", "SOLY-PROD", "--n", "3", "--budget", budget],
                data, 1, "invalid input:")
    op = draw(st.sampled_from(["energy-brute", "triples-brute", "sigma-max-sample"]))
    samples = str(-draw(st.integers(1, 10**6)))
    return (["oracle", "--input", "{path}", "--op", op, "--samples", samples],
            data, 1, "usage error:")


@given(case=malformed_runs())
@settings(max_examples=120, deadline=None)
def test_malformed_input_keeps_the_error_contract(tmp_path_factory, case):
    argv, data, expected_code, prefix = case
    path = tmp_path_factory.getbasetemp() / "malformed.txt"
    path.write_bytes(data)
    code, out, err = run_captured([a.replace("{path}", str(path)) for a in argv])
    assert code == expected_code and out == ""
    assert err.startswith(prefix) and err.endswith("\n") and err.count("\n") == 1
    assert "Traceback" not in err


def public_stats(A):
    """What `stats --json` reports, from the public functions one by one."""
    zero = A.has_zero()
    out = {"n": len(A), "sumset": len(sumset(A, A)), "productset": len(productset(A, A)),
           "quotientset": None if A == FiniteSet([0]) else len(quotientset(A, A)),
           "energy_add": energy(A), "energy_mul": None if zero else energy(A, mode="mul"),
           "spectrum": None, "doubling": None}
    if not zero:
        slices = [s for s in dyadic_slices(A) if s.sizes]
        out["spectrum"] = {"lambdas": len(quotientset(A, A)),
                           "max_fiber": max(max(s.sizes.values()) for s in slices),
                           "slices": [{"tau": format_scalar(s.tau), "count": len(s.sizes)}
                                      for s in slices]}
        prof = d_upper(A)
        out["doubling"] = {"K_mul": format_scalar(prof.K_mul),
                           "d_upper": format_scalar(prof.d_upper),
                           "witness_size": len(prof.witness_C)}
    return out


@given(values=st.sets(st.fractions(min_value=-6, max_value=6, max_denominator=4),
                      min_size=1, max_size=6),
       with_zero=st.booleans())
@settings(max_examples=60, deadline=None)
def test_stats_json_matches_the_public_functions(tmp_path_factory, values, with_zero):
    A = FiniteSet(values | {Fraction(0)} if with_zero else values)
    path = tmp_path_factory.getbasetemp() / "stats.txt"
    path.write_text("\n".join(format_scalar(x) for x in A) + "\n")
    code, out, err = run_captured(["stats", "--json", "--input", str(path)])
    assert (code, err) == (0, "")
    assert out == json.dumps(public_stats(A), sort_keys=True, separators=(",", ":")) + "\n"


def test_stats_json_runs_each_pair_kernel_once(tmp_path, capsys, monkeypatch):
    calls = Counter()
    pair_keys = stats._pair_keys

    def counting(A, B, op):
        calls[op, A == B] += 1
        return pair_keys(A, B, op)

    monkeypatch.setattr(stats, "_pair_keys", counting)
    path = tmp_path / "sixteen.txt"
    path.write_text("\n".join(str(3 * k * k + 1) for k in range(1, 17)) + "\n")
    assert run(capsys, "stats", "--json", "--input", str(path))[0] == 0
    # A+A, AA and A/A once each; the doubling bound keys no A·(A/A), since
    # |A/A| = 241 puts that candidate's ratio at >= 256²/(16·241) > 16, the ratio of {1}
    assert calls == {("add", True): 1, ("mul", True): 1, ("div", True): 1}


@pytest.mark.parametrize("module", ["mpmath", "logging"])
def test_importing_the_cli_loads_no_module(module):
    src = Path(__file__).resolve().parent.parent / "src"
    probe = f"import sys, sumprod.cli; print({module!r} in sys.modules)"
    done = subprocess.run([sys.executable, "-c", probe], env=dict(os.environ, PYTHONPATH=str(src)),
                          capture_output=True, text=True, timeout=60, check=True)
    assert done.stdout == "False\n"


def test_stdout_does_not_depend_on_the_hash_seed(tmp_path):
    """stats, verify and seeded searches in both modes print the same bytes,
    timestamps aside, whatever PYTHONHASHSEED is."""
    values, ground = tmp_path / "values.txt", tmp_path / "ground.txt"
    values.write_text("1\n2\n3\n5\n8\n1/2\n-3/4\n")
    ground.write_text("\n".join(["-2/3", "-1/2", "0", "1/3", "1", "3/2", "2", "5/2", "3", "4",
                                 "6", "9"]) + "\n")
    search = ["explore", "--ground", str(ground), "--n", "4", "--json"]
    commands = (["stats", "--json", "--input", str(values)],
                ["verify", "--json", "--input", str(values)],
                search + ["--ineq", "COR-SOL", "--mode", "hillclimb", "--seed", "5",
                          "--budget", "40", "--restarts", "2"],
                search + ["--ineq", "SOLY-QUOT", "--mode", "exhaustive", "--budget", "300"])
    src = Path(__file__).resolve().parent.parent / "src"
    for argv in commands:
        outs = set()
        for hash_seed in ("0", "20598"):
            env = dict(os.environ, PYTHONPATH=str(src), PYTHONHASHSEED=hash_seed)
            done = subprocess.run([sys.executable, "-m", "sumprod.cli", *argv], env=env,
                                  capture_output=True, text=True, timeout=120, check=True)
            outs.add(re.sub(r'"timestamp":"[^"]*"', '"timestamp":""', done.stdout))
        assert len(outs) == 1 and outs.pop().startswith(("{", "[")), argv
