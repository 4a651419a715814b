"""Every import in src/ and tests/ is used, every exported name exists,
src/ defines only names that src/ reads or that the package exports, and
importing the package loads no module that a default run never uses."""

import ast
import importlib
import subprocess
import sys
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
# the package's modules but __init__.py, whose imports only re-export
SRC_MODULES = sorted(
    path for path in (ROOT / "src" / "kchain").glob("*.py") if path.name != "__init__.py"
)
# src/ names read from outside src/ only: perfbench/run.py seeds its N=8
# panel with point_seed
READ_OUTSIDE_SRC = {"experiments.point_seed"}
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


def test_importing_the_package_loads_no_thread_pool_or_logging():
    # a fresh interpreter pays for every module kchain loads; only a sweep
    # run with threads > 1 needs concurrent.futures, which loads logging
    code = "import sys, kchain, kchain.cli; print(sorted({'concurrent.futures', 'logging'} & set(sys.modules)))"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def unread_names(sources: dict) -> list:
    """module.name of every top-level function, class and assigned name in
    sources (module name -> source text) that no source reads.  A read is
    a loaded name anywhere in any source, so a mention in a docstring, a
    comment or __all__ does not count; dunder names are skipped.  Reads are
    matched by name alone, as src/ reads its own names by import, never as
    module attributes."""
    defined, read = [], set()
    for module, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                targets = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                nodes = node.targets if isinstance(node, ast.Assign) else [node.target]
                targets = [t.id for t in nodes if isinstance(t, ast.Name)]
            else:
                targets = []
            defined += [(module, name) for name in targets if not name.startswith("__")]
        read |= {
            node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
        }
    return sorted(f"{module}.{name}" for module, name in defined if name not in read)


def src_sources() -> dict:
    return {path.stem: path.read_text() for path in SRC_MODULES}


def test_src_defines_only_names_src_reads_or_the_package_exports():
    # a name only tests read belongs in tests/ (dense_reference.py holds the
    # dense references and helpers)
    kchain = importlib.import_module("kchain")
    unread = [
        name for name in unread_names(src_sources())
        if name.split(".", 1)[1] not in kchain.__all__ and name not in READ_OUTSIDE_SRC
    ]
    assert unread == [], f"top-level src/ names nothing in src/ reads: {unread}"


def test_unread_name_scan_finds_unread_and_keeps_read_names():
    sources = {
        "a": (
            "X = 1\nY: int = 2\n__all__ = ['f']\n"
            "def f():\n    return X\n"
            "class C:\n    def m(self):\n        return Z\n"
        ),
        "b": '"""g is only named here."""\nfrom a import f\n__all__ = ["g"]\nZ = f()\ndef g():\n    pass\n',
    }
    assert unread_names(sources) == ["a.C", "a.Y", "b.g"]


def test_unread_name_scan_flags_a_name_planted_in_src():
    sources = src_sources()
    sources["linalg"] += "\n\ndef planted(bits):\n    return basis_index(bits)\n"
    assert "linalg.planted" in unread_names(sources)
    assert "linalg.basis_index" not in unread_names(sources)
