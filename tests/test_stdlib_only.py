"""The package imports nothing outside the standard library at runtime."""

import ast
import sys
from pathlib import Path

PACKAGE_DIR = Path(__file__).resolve().parents[1] / "src" / "c4book"


def _absolute_imports(path: Path):
    """(line, top-level module) of every absolute import in one source file."""
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.lineno, node.module.split(".")[0]


def test_package_imports_only_stdlib():
    sources = sorted(PACKAGE_DIR.glob("*.py"))
    assert sources
    allowed = set(sys.stdlib_module_names) | {"c4book"}
    outside = [
        f"{path.name}:{line}: {module}"
        for path in sources
        for line, module in _absolute_imports(path)
        if module not in allowed
    ]
    assert not outside, "non-stdlib runtime imports: " + ", ".join(outside)
