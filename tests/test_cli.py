"""End-to-end command-line behavior: exit codes, JSON artifacts, determinism."""

import hashlib
import json
import shlex
import time
from pathlib import Path

import pytest

import c4book as cb
from c4book import _constructions, geometry, gf, ramsey
from c4book.cli import _COMMANDS, _budget_int, _parse, _UsageError, main
from c4book.graphcore import Graph, g6_encode

from oracles import absolute_points_reference, cycle_graph, prime_power_decompose_reference, star_graph


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


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


# Each command's exit code and the sha256 of its JSON artifact+manifest and of
# its table-format stdout, run in a fresh directory with relative file names.
PINNED = [
    pytest.param(
        ("field", "3", "2", "--table"), 0,
        "c1513c30bc1c980023db6d0c8191f40620a53121192aad46bfc7b69bbeb55475",
        "cea3d8d79dc86fec6f881e2430a59daa8d1bbe82f59ac46689ff93d5c95125fb",
        id="field",
    ),
    pytest.param(
        ("er", "5", "--out", "er5.g6"), 0,
        "ad49cc05bf7ecb97e553f4eec1ccebd6d2904635fbd98c41de7d39059b769562",
        "e0e614437deab50de4dd990320119015976177a4161bb1cfcfa4a97c95556370",
        id="er",
    ),
    pytest.param(
        ("check", "er5.g6"), 0,
        "0daf71e87bba53c70a0470ca782e1bb8bf191452de13f6190443691588a859b3",
        "d6c8c630cdb78b1d1c76cbeb299570c3b5119e1994275477dca66b78ce2c67ef",
        id="check",
    ),
    pytest.param(
        ("verify", "er5.g6", "--k", "2", "--n", "20"), 1,
        "ed834547b6ed0917f06ba37834771843ea0a3049de2f55b65def779f55f224e9",
        "6f37560461ce19a2aa69b4896f1c212441ac5de0ad6d10cb0a4d4128b8439147",
        id="verify",
    ),
    pytest.param(
        ("certify", "er5.g6", "--k", "3"), 0,
        "52569bc020eb1437dde7d67540750895e2f9fcf506b6d3f883b726263951a2d2",
        "c331abfd1abacf7b73166e83d1d84c7515fc26ac6d56a2c6f7f5dd31c8f11970",
        id="certify",
    ),
    pytest.param(
        ("certify", "c4.g6", "--k", "1"), 1,
        "321999ed44ec6b19e329f555bf3f441fb45677f34cfbb45c09f709066e1fc580",
        "56e262cf7c33b1b0c7ed19c0d6e78cc70ff6beb588e001f38d0c9205b27d3a40",
        id="certify-c4",
    ),
    pytest.param(
        ("bounds", "--n", "46", "--k", "3", "--q", "8", "--t", "6", "--eps", "1/4"), 0,
        "f63761af23f3e0a6da2e13329dec1c34e3b585726d6d31e89501d56282738416",
        "f086c4950f2979fb120f03ef2d4542e2907a902f1b06f3faab6adb533cf02d19",
        id="bounds-params",
    ),
    pytest.param(
        ("bounds", "--table", "7", "9", "3", "0.25"), 0,
        "a7811232c697fe769722313581a490a3d33cd4af93ac5438b39d4781fe5a0a29",
        "ca68958822c078f461e32d959d52243f42b4ce90109d0ef13bc93380e0f2ad9b",
        id="bounds-table",
    ),
    pytest.param(
        ("construct", "er-subgraph", "--q", "4", "--order", "18", "--min-deg",
         "4", "--budget", "1e6", "--out", "sub.g6"), 0,
        "24d030abf6549a68c5bb63edb45d84c2ac4aa1888c933aa0e0ad9fb94fd5251d",
        "e2398060e0fb11d9ccbb305928995dab8200e651563cfc3738d0e320679086c8",
        id="er-subgraph",
    ),
    pytest.param(
        ("construct", "random-delete", "--n", "100", "--k", "2", "--m",
         "7", "--seed", "5", "--out", "rd.g6"), 0,
        "05bdaa6826e9ec4b39b29483c67bd7b45e4b11177a197b1f966fe55f08357ad3",
        "aa8e2d4273f9d9c0422f7beafa8a559cb602c1cba1b7dc8308103d3dd8f0c746",
        id="random-delete",
    ),
    pytest.param(
        ("construct", "random-delete", "--n", "100", "--k", "2"), 1,
        "de332e16fa6b4ef0e6b5ba69f8ed0a5943d6a7516e470277968ac570689db01f",
        "229bfa730f44989dd8c5f85b1072dea6e714902f1aa9e03f1d4f97495fcc5743",
        id="random-delete-regime",
    ),
    pytest.param(
        ("search", "exact", "--k", "2", "--n", "3", "--N", "8", "--out", "w.g6"), 0,
        "6860c05f1fb7480bb15c356e099cc6653f1e1d58149bff6aa5c53cbd83450596",
        "8d53e3e30cc3f51b6509310778c27db103d0279819cddecde81faf92d4b93482",
        id="exact-witness",
    ),
    pytest.param(
        ("search", "exact", "--k", "2", "--n", "3", "--N", "9"), 1,
        "a4aaec9d0b5128a4283412a4c52da8f08a9a1cc22fb6dd91881406a659a6847b",
        "c761eda1fe7e4b95f74053ebc8c0e0a528aaf1e77fc6ea3681eb656f2956572f",
        id="exact-proof",
    ),
    pytest.param(
        ("search", "gq", "--q", "2", "--budget", "2e4", "--seed", "1"), 1,
        "9c9ec4cf2444be2e545e2b5a175a59e4e91200113b5996db94c3d8f97430615f",
        "5acd4d80ec65bc2d75f56dc2c1b9dea2c44463f69c05b1138791a0fb8f0d75f7",
        id="gq",
    ),
    pytest.param(
        ("search", "gq", "--q", "3", "--budget", "4e5", "--seed", "2", "--out", "gq.g6"), 0,
        "f2c0f6330ce04d826af7c76b9baa662454bc23fd5a5e1a0beb28e136f9ffc6b1",
        "4c5650c9701388ddf7b6e91b4c5413ac62d268ad7b621e2f42cda04e3f2aa7a8",
        id="gq-witness",
    ),
]


@pytest.mark.parametrize("argv, code, json_sha, table_sha", PINNED)
def test_pinned_output(capsys, tmp_path, monkeypatch, argv, code, json_sha, table_sha):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "er5.g6").write_bytes(g6_encode(cb.er_graph(5)) + b"\n")
    (tmp_path / "c4.g6").write_bytes(g6_encode(cycle_graph(4)) + b"\n")
    got_code, out = run_cli(capsys, *argv)
    assert (got_code, _sha(out)) == (code, table_sha)
    got_code, doc = run_json(capsys, *argv)
    pinned = json.dumps({"artifact": doc["artifact"], "manifest": doc["manifest"]}, sort_keys=True)
    assert (got_code, _sha(pinned)) == (code, json_sha)


def test_field_table(capsys):
    code, doc = run_json(capsys, "field", "3", "2", "--table")
    assert code == 0
    assert doc["artifact"] == GF9_TABLE_ARTIFACT


def test_field_table_cap(capsys):
    code, out = run_cli(capsys, "field", "2", "7", "--table")
    assert code == 2


def test_er_stats_and_out(capsys, tmp_path):
    out_file = str(tmp_path / "er3.g6")
    code, doc = run_json(capsys, "er", "3", "--out", out_file)
    assert code == 0
    art = doc["artifact"]
    assert art["order"] == 13 and art["size"] == 24
    assert art["degree_histogram"] == {"3": 4, "4": 9}
    assert len(art["absolute_points"]) == 4
    data = open(out_file, "rb").read().strip()
    assert cb.g6_decode(data) == cb.er_graph(3)
    assert doc["manifest"]["outputs"][out_file]


@pytest.mark.parametrize("q", [q for q in range(2, 65) if prime_power_decompose_reference(q)])
def test_er_absolute_points_match_reference(capsys, q):
    # the artifact reads them off the degrees; the reference solves the conic
    code, doc = run_json(capsys, "er", str(q))
    assert code == 0
    assert doc["artifact"]["absolute_points"] == absolute_points_reference(q)


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


@pytest.mark.parametrize("k", ["3", "4"])
def test_certify_graph_without_independent_k_set(capsys, tmp_path, k):
    c5 = tmp_path / "c5.g6"
    c5.write_bytes(g6_encode(cycle_graph(5)) + b"\n")
    code, doc = run_json(capsys, "certify", str(c5), "--k", k)
    assert code == 0
    assert doc["artifact"]["guaranteed_book_free_n"] == 1


def test_bounds_report_and_table(capsys):
    code, doc = run_json(capsys, "bounds", "--n", "3", "--k", "2")
    assert code == 0 and doc["artifact"]["exact"] == 9
    code, doc = run_json(capsys, "bounds", "--n", "46", "--k", "3", "--q", "8", "--t", "6", "--eps", "1/4")
    assert code == 0
    assert doc["artifact"]["params"]["ladder"] == [54, 63, 70]
    code, doc = run_json(capsys, "bounds", "--table", "8", "8", "3", "1/4")
    assert code == 0
    assert {row["t"] for row in doc["artifact"]["table"]} == {0, 2, 3, 4, 5, 6}


def test_bounds_table_without_an_upper_bound(capsys):
    # every n = 1 report has no upper bound: the table says so, the JSON keeps null
    assert main(["bounds", "--n", "1", "--k", "3"]) == 0
    out = capsys.readouterr().out
    assert "  upper: none known" in out and "None" not in out
    code, doc = run_json(capsys, "bounds", "--n", "1", "--k", "3")
    assert code == 0 and doc["artifact"]["upper"] is None


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


@pytest.mark.parametrize(
    "argv, reason",
    [
        (["er-subgraph", "--q", "3", "--order", "10", "--min-deg", "3", "--budget", "1"],
         "deletion search exceeded 1 nodes"),
        (["er-subgraph", "--q", "2", "--order", "6", "--min-deg", "3"], "search space exhausted"),
    ],
    ids=["budget", "exhausted"],
)
def test_construct_er_subgraph_not_found_exit_1(capsys, argv, reason):
    code, doc = run_json(capsys, "construct", *argv)
    assert code == 1
    assert doc["artifact"]["found"] is False
    assert reason in doc["artifact"]["reason"]


def test_construct_random_delete_attempts_exhausted_exit_1(capsys):
    code, doc = run_json(
        capsys, "construct", "random-delete", "--n", "100", "--k", "2", "--m", "9", "--max-attempts", "2"
    )
    assert code == 1
    art = doc["artifact"]
    assert art["found"] is False and art["reason"] == "AttemptsExhausted"
    assert "in 2 attempts" in art["detail"]


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


@pytest.mark.parametrize(
    "argv",
    [
        ["check", "missing.g6"],
        ["check", "."],
        ["er", "3", "--out", "."],
    ],
    ids=["missing", "dir-input", "dir-out"],
)
def test_missing_file_exit_2(capsys, tmp_path, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err


@pytest.mark.parametrize(
    "argv",
    [
        ["bounds", "--n", "5", "--k", "3", "--q", "8", "--t", "2", "--eps", "abc"],
        ["bounds", "--table", "7", "x", "3", "0.25"],
        ["bounds", "--n", "5", "--k", "3", "--q", "8", "--t", "2", "--eps", "1/0"],
        ["bounds", "--table", "7", "9", "3", "1/0"],
        ["construct", "er-subgraph", "--q", "4", "--order", "18", "--min-deg", "4", "--budget", "1e400"],
        ["construct", "er-subgraph", "--q", "4", "--order", "18", "--min-deg", "4", "--budget", "-1"],
        ["construct", "random-delete", "--n", "100", "--k", "2", "--m", "7", "--max-attempts", "0"],
        ["search", "gq", "--q", "2", "--budget", "-5"],
        ["search", "gq", "--q", "2", "--budget", "0.5"],
        ["search", "gq", "--q", "2", "--budget", "1.9"],
        ["construct", "random-delete", "--n", "100", "--k", "2", "--m", "7", "--max-attempts", "1.5"],
        ["search", "gq", "--q", "-5"],
        ["search", "gq", "--q", "0"],
        ["search", "gq", "--q", "33"],
        ["search", "exact", "--k", "2", "--n", "0", "--N", "5"],
        ["search", "exact", "--k", "2", "--n", "-4", "--N", "6"],
        ["search", "exact", "--k", "0", "--n", "3", "--N", "5"],
        ["verify", "c6.g6", "--k", "3", "--n", "0"],
        ["verify", "c6.g6", "--k", "30", "--n", "0"],
        ["verify", "c6.g6", "--k", "0", "--n", "3"],
        ["construct", "random-delete", "--n", "3", "--k", "6", "--m", "1"],
        ["construct", "random-delete", "--n", "1", "--k", "5", "--m", "1"],
        ["construct", "er-subgraph", "--q", "4", "--order", "0", "--min-deg", "0"],
        ["field", "2", "100000000"],
        ["search", "exact", "--k", "2", "--n", "3", "--N", "8", "--no-prune"],
        ["bounds", "--n", "46", "--k", "400", "--q", "8", "--t", "6"],
        ["--format", "json", "bounds", "--n", "46", "--k", "400", "--q", "8", "--t", "6"],
    ],
    ids=["eps", "table", "eps-zero-denominator", "table-eps-zero-denominator",
         "budget-overflow", "budget-negative", "max-attempts-zero",
         "gq-budget-negative", "gq-budget-fraction", "gq-budget-not-whole",
         "max-attempts-not-whole", "gq-q-negative", "gq-q-zero", "gq-q-over-cap",
         "exact-n-zero", "exact-n-negative", "exact-k-zero", "verify-n-zero",
         "verify-n-zero-k-over-order", "verify-k-zero", "random-delete-order-negative",
         "random-delete-order-zero", "er-subgraph-order-zero", "field-power-over-cap",
         "exact-no-prune", "bounds-threshold-unprintable", "bounds-threshold-unprintable-json"],
)
def test_bad_number_exit_2(capsys, tmp_path, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "c6.g6").write_bytes(g6_encode(cycle_graph(6)) + b"\n")
    assert main(argv) == 2
    assert "Traceback" not in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["er", "10000000000000061"],
        ["construct", "er-subgraph", "--q", "10000000000000061", "--order", "5", "--min-deg", "1"],
    ],
    ids=["er", "er-subgraph"],
)
def test_q_over_cap_refused_before_factoring(capsys, monkeypatch, argv):
    # the cap must hold before q is factored
    real = gf.prime_power_decompose

    def guarded(q):
        if q > geometry.DEFAULT_GRAPH_Q_CAP:
            pytest.fail(f"factored q={q} over the cap")
        return real(q)

    monkeypatch.setattr(gf, "prime_power_decompose", guarded)
    monkeypatch.setattr(geometry, "prime_power_decompose", guarded)
    assert main(argv) == 2
    assert "polarity graph would have" in capsys.readouterr().err


@pytest.mark.parametrize("n", [16257, 10**40, 10**400], ids=["16257", "1e40", "1e400"])
def test_random_delete_n_over_plane_cap_refused_before_prime_search(capsys, monkeypatch, n):
    # n needs a plane of order above 128, so no prime is sought
    monkeypatch.setattr(_constructions, "smallest_admissible_prime", lambda n: pytest.fail("prime search started"))
    assert main(["construct", "random-delete", "--n", str(n), "--k", "2", "--m", "5"]) == 2
    assert main(["construct", "random-delete", "--n", str(n), "--k", "2"]) == 2
    assert "needs a plane of order above 128" in capsys.readouterr().err


def _readme_commands():
    """Argument lists of the `c4book ...` lines in the README's Command line block."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```", 2)[1]
    return [shlex.split(line, comments=True)[1:] for line in block.splitlines() if line.startswith("c4book ")]


# every command word sequence that ends at a handler
LEAVES = [tuple(command.split()) for command, (handler, *_) in _COMMANDS.items() if handler]


def test_readme_commands_match_parser(capsys):
    commands = _readme_commands()
    assert commands and len(LEAVES) == 10
    for argv in commands:
        try:
            _parse(argv)
        except _UsageError as exc:
            pytest.fail(f"README line does not parse: c4book {shlex.join(argv)}: {exc.args[1]}")
    for path in LEAVES:
        assert any(tuple(argv[: len(path)]) == path for argv in commands), path


@pytest.mark.parametrize(
    "path", [(), ("search",), ("construct",), *LEAVES], ids=lambda path: "-".join(path) or "top"
)
@pytest.mark.parametrize("flag", ["-h", "--help"])
def test_help_at_every_level(capsys, path, flag):
    assert main([*path, flag]) == 0
    out = capsys.readouterr().out
    assert out.startswith(" ".join(("usage: c4book",) + path))
    usage_words = out.splitlines()[0].replace("[", " ").replace("]", " ").split()
    for name, *_ in _COMMANDS[" ".join(path)][2:]:
        assert name in usage_words
    for command in _COMMANDS:
        if command and command.rpartition(" ")[0] == " ".join(path):
            assert f"  {command} " in out


@pytest.mark.parametrize(
    "argv, message",
    [
        ([], "a command is required"),
        (["search"], "a command is required"),
        (["frobnicate"], "'frobnicate' is not a command"),
        (["bounds", "--n", "3", "--k", "2", "--bogus"], "unrecognized option --bogus"),
        (["verify", "c6.g6", "--k", "1"], "required: --n"),
        (["field", "3"], "required: e"),
        (["search", "exact", "--k", "2", "--n", "3", "--N"], "argument --N: expected 1 value"),
        (["bounds", "--table", "7", "9", "3"], "argument --table: expected 4 value"),
        (["search", "exact", "--k", "two", "--n", "3", "--N", "8"], "argument --k: invalid literal for int()"),
        (["field", "3", "2", "4"], "unrecognized argument '4'"),
        (["check", "--c4=yes", "c6.g6"], "argument --c4: takes no value"),
        (["--format", "xml", "bounds", "--n", "3", "--k", "2"], "argument --format: invalid choice: 'xml'"),
        (["bounds", "--n", "3", "--k", "2", "--format", "json"], "unrecognized option --format"),
        (["--form", "json", "bounds", "--n", "3", "--k", "2"], "unrecognized option --form"),
        (["search", "gq", "--q", "2", "--budget", "-1e3"], "argument --budget: must be >= 1, got '-1e3'"),
        (["search", "gq", "--q", "2", "--budget", "1.5"], "argument --budget: not a whole number"),
        (["construct", "random-delete", "--n", "100", "--k", "2", "--c", "6"], "unrecognized option --c"),
        (["construct", "random-delete", "--n", "100", "--k", "2", "--alpha", "1/3"],
         "unrecognized option --alpha"),
    ],
    ids=["no-command", "no-subcommand", "unknown-command", "unknown-option", "missing-option",
         "missing-positional", "option-without-value", "table-short", "bad-int", "extra-positional",
         "flag-with-value", "format-xml", "global-option-after-command", "abbreviation",
         "budget-negative-exponent", "budget-fraction", "random-delete-c", "random-delete-alpha"],
)
def test_usage_error_exit_2_with_usage_line(capsys, argv, message):
    assert main(argv) == 2
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert captured.out == "" and len(lines) == 2
    assert lines[0].startswith("usage: c4book") and ": error: " in lines[1] and message in lines[1]


@pytest.mark.parametrize(
    "spaced, joined",
    [
        (["bounds", "--n", "46", "--k", "3"], ["bounds", "--n", "46", "--k=3"]),
        (["--format", "json", "search", "exact", "--k", "2", "--n", "3", "--N", "8"],
         ["--format=json", "search", "exact", "--k=2", "--n=3", "--N=8"]),
        (["bounds", "--table", "7", "9", "3", "0.25"], ["bounds", "--table=7", "9", "3", "0.25"]),
    ],
    ids=["option", "global-and-leaf", "table"],
)
def test_option_equals_value(capsys, spaced, joined):
    assert run_json(capsys, *spaced)[1]["artifact"] == run_json(capsys, *joined)[1]["artifact"]


@pytest.mark.parametrize(
    "text, value",
    [
        ("9007199254740993", 2**53 + 1),  # a float rounds it to 2**53
        ("10000000000000000000001", 10**22 + 1),
        ("1_000", 1000),
        ("1e3", 1000),
        ("2.0", 2),
    ],
)
def test_budget_int_is_exact(text, value):
    assert _budget_int(text) == value
    _, args = _parse(["search", "gq", "--q", "2", "--budget", text])
    assert args.budget == value and type(args.budget) is int


def test_defaults_pass_through_the_converter():
    _, args = _parse(["construct", "random-delete", "--n", "100", "--k", "2"])
    assert (args.seed, args.m, args.max_attempts, args.out) == (0, None, 1000, None)
    _, args = _parse(["construct", "er-subgraph", "--q", "4", "--order", "18", "--min-deg", "4"])
    assert args.budget == 10**7 and type(args.budget) is int
    _, args = _parse(["search", "gq", "--q", "2"])
    assert args.budget == 10**6 and type(args.budget) is int
    _, args = _parse(["bounds", "--n", "3", "--k", "2"])
    assert (args.eps, args.table, args.format, args.jobs) == (None, None, "table", 1)


@pytest.mark.parametrize(
    "argv, message",
    [
        (["bounds", "--n", "2", "--k", "100000000"], "k must be at most 1048576"),
        # n above 16 002 needs the prime 131, over the plane cap of 128: refused
        # before the default floor or the prime is computed
        (["construct", "random-delete", "--n", "16100", "--k", "2", "--m", "5"],
         "n=16100 needs a plane of order above 128"),
        (["construct", "random-delete", "--n", "16003", "--k", "2"],
         "n=16003 needs a plane of order above 128"),
        # a value that starts with "-" is a value, so its range is checked
        (["bounds", "--n", "42", "--k", "3", "--q", "8", "--t", "2", "--eps", "-1/4"],
         "eps must lie strictly in (0, 1), got -1/4"),
    ],
    ids=["bounds-k", "random-delete-prime-over-cap", "random-delete-default-floor-over-cap", "eps-negative"],
)
def test_size_caps_refused_at_once_exit_2(capsys, argv, message):
    start = time.monotonic()
    assert main(argv) == 2
    assert time.monotonic() - start < 1
    err = capsys.readouterr().err
    assert message in err and len(err.splitlines()) == 1


def test_usage_error_exit_2(capsys):
    assert main(["bounds"]) == 2  # missing --n/--k and no --table


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--n", "46", "--k", "3", "--q", "8"], "both --q and --t"),
        (["--n", "46", "--k", "3", "--t", "6", "--eps", "1/4"], "both --q and --t"),
        (["--table", "2", "4097", "3", "1/2"], "stops at q = 4096"),
        (["--table", "2", "1000000000", "3", "1/2"], "stops at q = 4096"),
        (["--table", "6", "6", "2", "1/2"], "k must be >= 3"),
        (["--table", "10", "2", "3", "7/2"], "eps must lie strictly in (0, 1)"),
        (["--k", "1", "--n", str((10**25 + 13) ** 2)], "cannot decide"),
        (["--n", "46", "--k", "3", "--q", "8", "--t", "2"], "describe n = 42, not --n 46"),
        (["--n", "46", "--k", "3", "--q", "8", "--t", "6", "--eps", "-1/4"],
         "eps must lie strictly in (0, 1), got -1/4"),
        # an option the command would not read is refused, not ignored
        (["--n", "3", "--k", "2", "--eps", "7"], "--eps needs --q and --t"),
        (["--table", "7", "9", "3", "0.25", "--eps", "9"], "--table takes no --n, --k, --q, --t or --eps"),
        (["--table", "7", "9", "3", "0.25", "--n", "5"], "--table takes no --n, --k, --q, --t or --eps"),
    ],
    ids=["q-alone", "t-alone", "table-over-cap", "table-far-over-cap", "table-k2-no-prime-power",
         "table-eps-empty-range", "undecided-prime-power", "q-t-other-n", "eps-negative",
         "eps-without-q-t", "table-with-eps", "table-with-n"],
)
def test_bounds_refusals_exit_2(capsys, argv, message):
    assert main(["bounds", *argv]) == 2
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_jobs_below_one_exit_2(capsys, jobs):
    # refused for every command, not only the searches that start workers
    for argv in (["search", "exact", "--k", "2", "--n", "3", "--N", "8"],
                 ["bounds", "--n", "3", "--k", "2"],
                 ["search", "gq", "--q", "2", "--budget", "100"]):
        code = main(["--jobs", jobs, *argv])
        assert code == 2, argv
        assert "jobs must be >= 1" in capsys.readouterr().err


def test_internal_inconsistency_exit_2(capsys, monkeypatch, c6_file):
    # a B_{n*}^(k) in the complement contradicts the counting lemma
    monkeypatch.setattr(ramsey, "_book_free", lambda g, k, n: False)
    code = main(["certify", c6_file, "--k", "1"])
    assert code == 2
    assert "certificate unsound" in capsys.readouterr().err


def test_table_format_output(capsys):
    code, out = run_cli(capsys, "bounds", "--n", "9", "--k", "1")
    assert code == 0
    assert "exact: 13" in out
