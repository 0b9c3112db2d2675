"""Every name a module imports is used in it."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
# the package's __init__ imports names only to re-export them
FILES = sorted(p for p in (ROOT / "src" / "sino").glob("*.py") if p.name != "__init__.py")
FILES += sorted((ROOT / "tests").glob("*.py"))


def unused_imports(source: str) -> list[str]:
    """The names that the module's imports bind and nothing else mentions."""
    tree = ast.parse(source)
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in bound.items() if name not in used]


@pytest.mark.parametrize("path", FILES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_the_scan_sees_an_unused_import():
    source = "import os\nfrom a.b import c as d, e\nimport x.y\n\nprint(e, x.y)\n"
    assert unused_imports(source) == ["line 1: os", "line 2: d"]
