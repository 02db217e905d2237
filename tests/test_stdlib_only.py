"""Source rules for the package: stdlib-only imports, no assert statements, light imports."""

import ast
import json
import os
import subprocess
import sys
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


LAYERS = ("bounds", "canon", "geometry", "gf", "graphcore", "ramsey", "search")
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


def test_er_loads_no_search_or_certificates():
    added = _modules_loaded("er", "5")
    assert {"c4book.geometry", "c4book.gf"} <= added
    assert not _loaded(added, ["c4book.search", "c4book.ramsey", "c4book.canon", "c4book.bounds"])


def test_serial_exact_search_loads_no_construction_or_pool():
    added = _modules_loaded("--jobs", "1", "search", "exact", "--k", "2", "--n", "3", "--N", "6")
    assert "c4book.search" in added
    assert not _loaded(added, ["c4book.bounds", "c4book.geometry", "c4book.gf", *POOL])
    assert not added & set(HEAVY)


def test_annealing_search_loads_no_heavy_stdlib():
    added = _modules_loaded("search", "gq", "--q", "2", "--budget", "100")
    assert {"c4book.search", "c4book.geometry", "c4book.gf"} <= added
    assert not _loaded(added, ["c4book.bounds", *POOL])
    assert not added & set(HEAVY)


def test_package_exports_resolve():
    for name in cb.__all__:
        assert getattr(cb, name).__name__ == name
    assert set(cb.__all__) <= set(dir(cb))
    with pytest.raises(AttributeError, match="no_such_name"):
        cb.no_such_name
    from c4book import er_graph, gf

    assert er_graph is cb.er_graph and gf.field_new is cb.field_new
