"""End-to-end command-line behavior: exit codes, JSON artifacts, determinism."""

import json

import pytest

import c4book as cb
from c4book import ramsey
from c4book.cli import main
from c4book.graphcore import Graph, g6_encode

from oracles import cycle_graph, star_graph


@pytest.fixture
def c6_file(tmp_path):
    path = tmp_path / "c6.g6"
    path.write_bytes(g6_encode(cycle_graph(6)) + b"\n")
    return str(path)


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run_cli(capsys, "--format", "json", *argv)
    return code, json.loads(out) if out.strip() else None


GF9_TABLE_ARTIFACT = {
    "p": 3,
    "e": 2,
    "q": 9,
    "modulus_coefficients_constant_first": [1, 0, 1],
    "add_table": [
        [0, 1, 2, 3, 4, 5, 6, 7, 8],
        [1, 2, 0, 4, 5, 3, 7, 8, 6],
        [2, 0, 1, 5, 3, 4, 8, 6, 7],
        [3, 4, 5, 6, 7, 8, 0, 1, 2],
        [4, 5, 3, 7, 8, 6, 1, 2, 0],
        [5, 3, 4, 8, 6, 7, 2, 0, 1],
        [6, 7, 8, 0, 1, 2, 3, 4, 5],
        [7, 8, 6, 1, 2, 0, 4, 5, 3],
        [8, 6, 7, 2, 0, 1, 5, 3, 4],
    ],
    "mul_table": [
        [0, 0, 0, 0, 0, 0, 0, 0, 0],
        [0, 1, 2, 3, 4, 5, 6, 7, 8],
        [0, 2, 1, 6, 8, 7, 3, 5, 4],
        [0, 3, 6, 2, 5, 8, 1, 4, 7],
        [0, 4, 8, 5, 6, 1, 7, 2, 3],
        [0, 5, 7, 8, 1, 3, 4, 6, 2],
        [0, 6, 3, 1, 7, 4, 2, 8, 5],
        [0, 7, 5, 4, 2, 6, 8, 3, 1],
        [0, 8, 4, 7, 3, 2, 5, 1, 6],
    ],
}


def test_field_table(capsys):
    code, doc = run_json(capsys, "field", "3", "2", "--table")
    assert code == 0
    assert doc["artifact"] == GF9_TABLE_ARTIFACT


def test_field_table_cap(capsys):
    code, out = run_cli(capsys, "field", "2", "7", "--table")
    assert code == 2


def test_er_stats_and_out(capsys, tmp_path):
    out_file = str(tmp_path / "er3.g6")
    code, doc = run_json(capsys, "er", "3", "--stats", "--out", out_file)
    assert code == 0
    art = doc["artifact"]
    assert art["order"] == 13 and art["size"] == 24
    assert art["degree_histogram"] == {"3": 4, "4": 9}
    assert len(art["absolute_points"]) == 4
    data = open(out_file, "rb").read().strip()
    assert cb.g6_decode(data) == cb.er_graph(3)
    assert doc["manifest"]["outputs"][out_file]


def test_check_reports(capsys, c6_file):
    code, doc = run_json(capsys, "check", c6_file, "--c4", "--kst")
    assert code == 0
    art = doc["artifact"]
    assert art["c4_free"] is True
    assert art["kst"]["holds_refined"] is True
    assert "friendship_k" not in art
    code, doc = run_json(capsys, "check", c6_file)
    assert doc["artifact"]["friendship_k"] is None


def test_verify_witness_and_rejection(capsys, c6_file, tmp_path):
    code, doc = run_json(capsys, "verify", c6_file, "--k", "1", "--n", "4")
    assert code == 0
    assert doc["artifact"]["implied_bound"] == "r(C4, B_4^(1)) >= 7"
    # re-check the embedded graph6 independently
    emb = doc["artifact"]["graph6"]
    g = cb.g6_decode(emb)
    assert cb.is_ramsey_witness(g, 1, 4)
    path2 = tmp_path / "embedded.g6"
    path2.write_text(emb + "\n")
    code2, doc2 = run_json(capsys, "verify", str(path2), "--k", "1", "--n", "4")
    assert code2 == 0 and doc2["artifact"]["witness"]

    code, doc = run_json(capsys, "verify", c6_file, "--k", "1", "--n", "3")
    assert code == 1
    assert doc["artifact"]["witness"] is False


def test_certify_and_refusal(capsys, tmp_path, c6_file):
    code, doc = run_json(capsys, "certify", c6_file, "--k", "1")
    assert code == 0
    assert doc["artifact"]["guaranteed_book_free_n"] == 4
    c4 = tmp_path / "c4.g6"
    c4.write_bytes(g6_encode(cycle_graph(4)) + b"\n")
    code, doc = run_json(capsys, "certify", str(c4), "--k", "1")
    assert code == 1
    assert doc["artifact"]["certified"] is False


def test_bounds_report_and_table(capsys):
    code, doc = run_json(capsys, "bounds", "--n", "3", "--k", "2")
    assert code == 0 and doc["artifact"]["exact"] == 9
    code, doc = run_json(capsys, "bounds", "--n", "46", "--k", "3", "--q", "8", "--t", "6", "--eps", "1/4")
    assert code == 0
    assert doc["artifact"]["params"]["ladder"] == [54, 63, 70]
    code, doc = run_json(capsys, "bounds", "--table", "8", "8", "3", "1/4")
    assert code == 0
    assert {row["t"] for row in doc["artifact"]["table"]} == {0, 2, 3, 4, 5, 6}


def test_construct_er_subgraph(capsys, tmp_path):
    out = str(tmp_path / "sub.g6")
    code, doc = run_json(
        capsys, "construct", "er-subgraph", "--q", "4", "--order", "18",
        "--min-deg", "4", "--budget", "1e6", "--out", out,
    )
    assert code == 0
    art = doc["artifact"]
    assert art["order"] == 18 and art["min_degree"] >= 4
    g = cb.g6_decode(open(out, "rb").read().strip())
    assert g.n == 18 and min(g.degrees()) >= 4


def test_construct_random_delete(capsys):
    code, doc = run_json(
        capsys, "construct", "random-delete", "--n", "100", "--k", "2",
        "--m", "7", "--seed", "5",
    )
    assert code == 0
    art = doc["artifact"]
    assert art["run"]["order"] == 133 and art["run"]["d"] == 19
    assert art["certificate"]["guaranteed_book_free_n"] <= 100
    g = cb.g6_decode(art["graph6"])
    assert g.n == 114 and min(g.degrees()) >= 7


def test_construct_random_delete_regime_error(capsys):
    code, doc = run_json(capsys, "construct", "random-delete", "--n", "100", "--k", "2")
    assert code == 1
    assert doc["artifact"]["reason"] == "AsymptoticRegimeNotReached"
    assert doc["artifact"]["min_n_for_defaults"] == 2075


def test_search_exact_witness_and_exhaustion(capsys):
    code, doc = run_json(capsys, "search", "exact", "--k", "2", "--n", "3", "--N", "8")
    assert code == 0
    g = cb.g6_decode(doc["artifact"]["graph6"])
    assert cb.is_ramsey_witness(g, 2, 3)
    code, doc = run_json(capsys, "search", "exact", "--k", "2", "--n", "3", "--N", "9")
    assert code == 1
    proof = doc["artifact"]["exhaustion_proof"]
    assert proof["all_rejected"] is True
    assert doc["artifact"]["implied_bound"] == "r(C4, B_3^(2)) <= 9"


def test_search_gq_failure_exit(capsys):
    code, doc = run_json(capsys, "search", "gq", "--q", "2", "--budget", "2e4", "--seed", "1")
    assert code == 1
    assert doc["artifact"]["witness_found"] is False


def test_deterministic_artifacts(capsys):
    _, doc1 = run_json(capsys, "construct", "random-delete", "--n", "100", "--k", "2", "--m", "7", "--seed", "9")
    _, doc2 = run_json(capsys, "construct", "random-delete", "--n", "100", "--k", "2", "--m", "7", "--seed", "9")
    assert json.dumps(doc1["artifact"], sort_keys=True) == json.dumps(doc2["artifact"], sort_keys=True)
    assert json.dumps(doc1["manifest"], sort_keys=True) == json.dumps(doc2["manifest"], sort_keys=True)


def test_malformed_graph6_exit_2(capsys, tmp_path):
    bad = tmp_path / "bad.g6"
    bad.write_bytes(b"C")  # order 4 with missing edge byte
    code = main(["check", str(bad)])
    err = capsys.readouterr().err
    assert code == 2
    assert "byte offset" in err


def test_missing_file_exit_2(capsys):
    assert main(["check", "/nonexistent/path.g6"]) == 2


def test_usage_error_exit_2(capsys):
    assert main(["bounds"]) == 2  # missing --n/--k and no --table


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_jobs_below_one_exit_2(capsys, jobs):
    code = main(["--jobs", jobs, "search", "exact", "--k", "2", "--n", "3", "--N", "8"])
    assert code == 2
    assert "jobs must be >= 1" in capsys.readouterr().err


def test_internal_inconsistency_exit_2(capsys, monkeypatch, c6_file):
    # a book number above n* - 1 contradicts the counting lemma
    monkeypatch.setattr(ramsey, "complement_book_number", lambda g, k: (g.n, None))
    code = main(["certify", c6_file, "--k", "1"])
    assert code == 2
    assert "certificate unsound" in capsys.readouterr().err


def test_er_cache_env(capsys, tmp_path, monkeypatch):
    cache = tmp_path / "cache"
    monkeypatch.setenv("RAMSEY_BOOK_CACHE", str(cache))
    code, _ = run_json(capsys, "er", "5", "--stats")
    assert code == 0
    cached = cache / "er_5.g6"
    assert cached.exists()
    assert cb.g6_decode(cached.read_bytes().strip()) == cb.er_graph(5)
    # second run loads from the cache file
    code, doc = run_json(capsys, "er", "5", "--stats")
    assert code == 0 and doc["artifact"]["order"] == 31


def test_table_format_output(capsys):
    code, out = run_cli(capsys, "bounds", "--n", "9", "--k", "1")
    assert code == 0
    assert "exact: 13" in out
