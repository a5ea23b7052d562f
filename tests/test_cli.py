"""Exit codes, JSON canonicalization and oracle wiring of the command surface."""

import json

import pytest

from sumprod import explore
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
