"""Source rules for the package: stdlib-only imports, no assert statements, a light CLI import."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

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


def test_cli_import_loads_no_process_pool():
    # a serial run never starts a pool, so the CLI must not pay for
    # importing multiprocessing at start-up
    probe = (
        "import json, sys; before = set(sys.modules); import c4book.cli; "
        "print(json.dumps(sorted(set(sys.modules) - before)))"
    )
    env = dict(os.environ, PYTHONPATH=str(PACKAGE_DIR.parent))
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    ).stdout
    added = json.loads(out)
    assert "c4book.search" in added
    heavy = [m for m in added if m.startswith(("multiprocessing", "concurrent.futures"))]
    assert not heavy, "modules loaded by import c4book.cli: " + ", ".join(heavy)
