"""Every name a module imports is used in it (package ``__init__`` re-exports aside)."""
import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted(
    p for p in [*(ROOT / "src" / "spincim").glob("*.py"), *(ROOT / "tests").glob("*.py")]
    if p.name != "__init__.py"
)


def unused_imports(source: str) -> list[str]:
    """Names bound by import statements that the module never reads.

    A name is read when it appears as a bare name anywhere in the module,
    including as the root of an attribute chain; ``import a.b`` binds ``a``.
    Names in quoted annotations are not searched.
    """
    tree = ast.parse(source)
    bound: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in sorted(bound.items(), key=lambda kv: kv[1])
            if name not in read]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_checker_flags_unused_imports_only():
    source = "import os\nimport os.path as osp\nimport sys\nfrom a.b import c\nsys.argv = c\n"
    assert unused_imports(source) == ["line 1: os", "line 2: osp"]
