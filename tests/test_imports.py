"""Every name a module imports is used in that module, so a deletion
leaves no stale import behind.  The package's `__init__.py` imports to
re-export, so it is left out."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted(
    path.relative_to(ROOT).as_posix()
    for folder in ("src/forestinv", "tests", "tools")
    for path in (ROOT / folder).glob("*.py")
    if path.name != "__init__.py"
)


def imported_names(tree):
    """The name each import binds, with the line it is imported on."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.partition(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    yield alias.asname or alias.name, node.lineno


@pytest.mark.parametrize("module", MODULES)
def test_every_imported_name_is_used(module):
    tree = ast.parse((ROOT / module).read_text(encoding="utf-8"))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert [(name, line) for name, line in imported_names(tree) if name not in used] == []
