"""Source rules for the package: stdlib-only imports and no assert statements."""

import ast
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
