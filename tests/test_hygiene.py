"""Imported names that a module never uses.

No linter ships with the toolchain, so this stdlib scan keeps dead imports
out of the library and the tests.  ``src/diagmod/__init__.py`` is skipped:
its imports are the package's public re-exports.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCANNED = [
    path
    for path in sorted((ROOT / "src" / "diagmod").glob("*.py")) + sorted((ROOT / "tests").glob("*.py"))
    if path.name != "__init__.py"
]


def unused_imports(path: Path) -> list[str]:
    """``file:line: name`` for every name an import binds and nothing reads."""
    tree = ast.parse(path.read_text(), filename=str(path))
    bound: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    rel = path.relative_to(ROOT)
    return [f"{rel}:{line}: {name}" for name, line in bound.items() if name not in read]


def test_no_unused_imports():
    unused = [entry for path in SCANNED for entry in unused_imports(path)]
    assert not unused, "imported but unused:\n" + "\n".join(unused)
