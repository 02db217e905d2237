"""Source rules for the package: stdlib-only imports, no assert statements, light imports."""

import ast
import json
import os
import subprocess
import sys
import tokenize
from pathlib import Path

import pytest

import c4book as cb

from oracles import cycle_graph

PACKAGE_DIR = Path(__file__).resolve().parents[1] / "src" / "c4book"


def _sources():
    sources = sorted(PACKAGE_DIR.glob("*.py"))
    assert sources
    return sources


def _nodes(path: Path):
    return ast.walk(ast.parse(path.read_text(), filename=str(path)))


def _absolute_imports(path: Path):
    """(line, top-level module) of every absolute import in one source file."""
    for node in _nodes(path):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.lineno, node.module.split(".")[0]


def test_package_imports_only_stdlib():
    allowed = set(sys.stdlib_module_names) | {"c4book"}
    outside = [
        f"{path.name}:{line}: {module}"
        for path in _sources()
        for line, module in _absolute_imports(path)
        if module not in allowed
    ]
    assert not outside, "non-stdlib runtime imports: " + ", ".join(outside)


def test_package_has_no_assert_statements():
    # python -O strips asserts; broken invariants raise InternalInconsistency
    found = [
        f"{path.name}:{node.lineno}"
        for path in _sources()
        for node in _nodes(path)
        if isinstance(node, ast.Assert)
    ]
    assert not found, "assert statements (raise InternalInconsistency instead): " + ", ".join(found)


def test_package_does_not_import_dataclasses():
    # the records are NamedTuples
    found = [
        f"{path.name}:{line}"
        for path in _sources()
        for line, module in _absolute_imports(path)
        if module == "dataclasses"
    ]
    assert not found, "dataclasses imported at " + ", ".join(found)


# the underscored modules are search's routes, each loaded only by its ops
LAYERS = (
    "_anneal", "_constructions", "_orderly", "bounds", "canon", "geometry", "gf", "graphcore", "ramsey", "search"
)
POOL = ("multiprocessing", "concurrent.futures")
# dataclasses loads inspect, fractions loads decimal, hashlib loads OpenSSL
HEAVY = ("dataclasses", "fractions", "decimal", "hashlib")


def _modules_loaded(*argv):
    """Modules a fresh interpreter adds by importing c4book.cli and, given argv, running it."""
    probe = (
        "import json, sys; before = set(sys.modules); import c4book.cli; "
        "sys.argv[1:] and c4book.cli.main(sys.argv[1:]); "
        "print(json.dumps(sorted(set(sys.modules) - before)))"
    )
    env = dict(os.environ, PYTHONPATH=str(PACKAGE_DIR.parent))
    out = subprocess.run(
        [sys.executable, "-c", probe, *argv], env=env, capture_output=True, text=True, check=True
    ).stdout
    return set(json.loads(out.splitlines()[-1]))


def _loaded(added, names):
    return sorted(m for m in added if m.startswith(tuple(names)))


def test_cli_import_loads_no_process_pool():
    # each handler imports the layers it runs, and a serial run never starts
    # a pool, so start-up pays for neither
    added = _modules_loaded()
    assert "c4book.cli" in added
    layers = _loaded(added, [f"c4book.{name}" for name in LAYERS])
    assert not layers, "layers loaded by import c4book.cli: " + ", ".join(layers)
    heavy = _loaded(added, POOL)
    assert not heavy, "modules loaded by import c4book.cli: " + ", ".join(heavy)


@pytest.fixture
def c6_file(tmp_path):
    path = tmp_path / "c6.g6"
    path.write_bytes(cb.g6_encode(cycle_graph(6)) + b"\n")
    return str(path)


@pytest.mark.parametrize(
    "argv, layers",
    [
        # only a certificate's graph_hash needs a canonical labelling
        (["verify", "{file}", "--k", "1", "--n", "4"], ["graphcore", "ramsey"]),
        (["certify", "{file}", "--k", "2"], ["canon", "graphcore", "ramsey"]),
    ],
    ids=["verify", "certify"],
)
def test_checking_a_graph_loads_no_construction(c6_file, argv, layers):
    added = _modules_loaded(*(a.format(file=c6_file) for a in argv))
    assert _loaded(added, [f"c4book.{name}" for name in LAYERS]) == [f"c4book.{n}" for n in layers]
    # hashlib only for the input file's digest
    assert added & set(HEAVY) == {"hashlib"}


@pytest.mark.parametrize(
    "argv",
    [
        (),
        ("verify", "{file}", "--k", "1", "--n", "4"),
        ("search", "exact", "--k", "2", "--n", "3", "--N", "6"),
        ("search", "gq", "--q", "2", "--budget", "100"),
    ],
    ids=["import", "verify", "search-exact", "search-gq"],
)
def test_cli_loads_no_argparse_or_locale(c6_file, argv):
    # the command table is read without argparse, whose first message
    # lookup loads gettext and locale
    added = _modules_loaded(*(a.format(file=c6_file) for a in argv))
    assert not added & {"argparse", "gettext", "locale"}


def test_er_loads_no_search_or_certificates():
    added = _modules_loaded("er", "5")
    assert _loaded(added, [f"c4book.{name}" for name in LAYERS]) == [
        "c4book.geometry",
        "c4book.gf",
        "c4book.graphcore",
    ]


def test_random_delete_with_given_floor_loads_no_bounds():
    # only the default floor m = floor(sqrt(n) - 6 n^(21/80)) needs bounds;
    # the plane limit is decided from gf, which geometry loads anyway
    added = _modules_loaded("construct", "random-delete", "--n", "100", "--k", "2", "--m", "7")
    # no option of the op takes a fraction, so none is built
    assert not added & {"fractions", "decimal", "numbers"}
    # canon for the certificate's graph_hash, ramsey for the certificate
    assert _loaded(added, [f"c4book.{name}" for name in LAYERS]) == [
        "c4book._constructions",
        "c4book.canon",
        "c4book.geometry",
        "c4book.gf",
        "c4book.graphcore",
        "c4book.ramsey",
        "c4book.search",
    ]


def test_bound_report_loads_only_bounds_and_gf():
    added = _modules_loaded("bounds", "--n", "46", "--k", "3")
    assert _loaded(added, [f"c4book.{name}" for name in LAYERS]) == ["c4book.bounds", "c4book.gf"]
    assert "hashlib" not in added


def test_serial_exact_search_loads_no_construction_or_pool():
    added = _modules_loaded("--jobs", "1", "search", "exact", "--k", "2", "--n", "3", "--N", "6")
    assert _loaded(added, [f"c4book.{name}" for name in LAYERS]) == [
        "c4book._orderly",
        "c4book.canon",
        "c4book.graphcore",
        "c4book.ramsey",
        "c4book.search",
    ]
    assert not _loaded(added, POOL)
    assert not added & set(HEAVY)


def test_annealing_search_loads_no_heavy_stdlib():
    # the budget runs out at q = 2 with seed 0, so no graph is re-verified and
    # neither canon nor ramsey is loaded
    added = _modules_loaded("search", "gq", "--q", "2", "--budget", "100")
    assert _loaded(added, [f"c4book.{name}" for name in LAYERS]) == [
        "c4book._anneal",
        "c4book.geometry",
        "c4book.gf",
        "c4book.graphcore",
        "c4book.search",
    ]
    assert not _loaded(added, POOL)
    assert not added & set(HEAVY)


# CPython's compile peak steps up by about 0.25 MiB once a module passes a
# power of two in parser tokens, and the benchmark compiles every module an
# op loads without a bytecode cache.  The benchmark's bounds are relative:
# peak_rss_mib may rise by 0.1 of the parent's median (perfbench/README.md),
# so one step, about 1.6% of the search workload's 15.75 MiB peak, is a cost
# that adds up across modules and commits rather than a bound crossed alone.
# Each module past 1 024 tokens is listed below at the next step above its
# size, and search.py, the route modules' facade, at its own; cli.py is
# compiled by every op.
COMPILE_STEPS = {
    "search.py": 512,
    "_anneal.py": 2048,
    "_constructions.py": 2048,
    "_orderly.py": 2048,
    "canon.py": 2048,
    "gf.py": 2048,
    "cli.py": 4096,
    "bounds.py": 4096,
    "graphcore.py": 4096,
}


def _parser_tokens(path: Path) -> int:
    """Tokens the parser reads: every token but comments and non-logical newlines."""
    with tokenize.open(path) as fh:
        return sum(
            tok.type not in (tokenize.COMMENT, tokenize.NL) for tok in tokenize.generate_tokens(fh.readline)
        )


@pytest.mark.parametrize("name, step", COMPILE_STEPS.items())
def test_module_below_compile_memory_step(name, step):
    count = _parser_tokens(PACKAGE_DIR / name)
    assert count < step, (
        f"{name} has {count} parser tokens, at or past the {step}-token step where its "
        f"compile peak RSS rises about 0.25 MiB on every op that loads it; shrink or split "
        f"the module instead of growing it"
    )


def test_every_large_module_has_a_compile_step():
    large = {path.name: count for path in _sources() if (count := _parser_tokens(path)) > 1024}
    unlisted = sorted(set(large) - set(COMPILE_STEPS))
    assert not unlisted, "modules past 1 024 tokens without a step in COMPILE_STEPS: " + ", ".join(
        f"{name} ({large[name]})" for name in unlisted
    )


# The public surface: a name added to or removed from the package is a
# deliberate edit here.
PUBLIC_NAMES = [
    "BookWitness",
    "BoundReport",
    "BoundsParams",
    "DeletionRun",
    "ExhaustionProof",
    "Field",
    "Graph",
    "LowerBoundCertificate",
    "bound_report",
    "bounds_params",
    "certify_lower_bound",
    "complement",
    "complement_book_number",
    "enumerate_c4_free",
    "er_graph",
    "exhaust_ramsey",
    "field_new",
    "g6_decode",
    "g6_encode",
    "g_sequence",
    "greedy_min_degree_subgraph",
    "induced_subgraph",
    "is_c4_free",
    "is_friendship",
    "is_ramsey_witness",
    "kst_check",
    "non_two_path_pairs",
    "parsons_upper",
    "probe_script_Gq",
    "projective_points",
    "random_delete_construction",
    "theorem15_admissible",
    "theorem16_lower",
]


def test_package_exports_resolve():
    assert cb.__all__ == PUBLIC_NAMES
    for name in cb.__all__:
        assert getattr(cb, name).__name__ == name
    assert set(cb.__all__) <= set(dir(cb))
    with pytest.raises(AttributeError, match="no_such_name"):
        cb.no_such_name
    from c4book import er_graph, gf

    assert er_graph is cb.er_graph and gf.field_new is cb.field_new
