"""Every import in src/ and tests/ is used, and every exported name exists."""

import ast
import importlib
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
# a package's __init__.py imports to re-export, so it is not scanned
SOURCES = sorted(
    path
    for folder in ("src", "tests")
    for path in (ROOT / folder).rglob("*.py")
    if path.name != "__init__.py"
)
# every module of the kchain package, the package itself as "kchain"
MODULES = sorted(
    "kchain" if path.stem == "__init__" else f"kchain.{path.stem}"
    for path in (ROOT / "src" / "kchain").glob("*.py")
)


def unused_imports(source: str) -> list:
    """(line, name) of every name bound by an import in source that nothing
    in it reads.  A dotted `import a.b` binds `a`; names listed in a
    literal `__all__` count as read."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                if alias.name == "*":
                    continue
                name = alias.asname or alias.name.split(".")[0]
                imported.setdefault(name, node.lineno)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            read |= {
                elt.value for elt in getattr(node.value, "elts", ())
                if isinstance(elt, ast.Constant) and isinstance(elt.value, str)
            }
    return sorted((line, name) for name, line in imported.items() if name not in read)


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_imports(path):
    unused = unused_imports(path.read_text())
    assert unused == [], f"{path.relative_to(ROOT)}: unused imports (line, name) {unused}"


def test_scan_finds_unused_and_keeps_used_imports():
    source = (
        "import os\nimport a.b\nfrom x import y as z, w\nfrom m import k\n"
        "__all__ = ['k']\nprint(a.b, w)\n"
    )
    assert unused_imports(source) == [(1, "os"), (3, "z")]


@pytest.mark.parametrize("module", MODULES)
def test_every_export_resolves(module):
    # the unused-import scan counts __all__ entries as read, so a name left
    # in __all__ after its definition is deleted is caught only here
    mod = importlib.import_module(module)
    missing = [name for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)]
    assert missing == [], f"{module}.__all__ names undefined {missing}"
