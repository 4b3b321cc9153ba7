"""Every name a module of the package imports is used in that module, and
every private top-level name of the package is used somewhere in it."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "seqhalt"
# The package's __init__ imports names only to re-export them.
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
SOURCES = sorted(PACKAGE.glob("*.py"))


def imported_names(tree: ast.Module) -> set[str]:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names.update(alias.asname or alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            names.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
    return names


def used_names(tree: ast.Module) -> set[str]:
    names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    # Annotations written as strings name types too.
    for node in ast.walk(tree):
        for annotation in (getattr(node, "annotation", None), getattr(node, "returns", None)):
            if isinstance(annotation, ast.Constant) and isinstance(annotation.value, str):
                parsed = ast.parse(annotation.value, mode="eval")
                names.update(n.id for n in ast.walk(parsed) if isinstance(n, ast.Name))
    return names


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text())
    assert sorted(imported_names(tree) - used_names(tree)) == []


def test_unused_import_is_found():
    tree = ast.parse("import os\nfrom typing import Sequence, Union\nx: 'Union[int]' = 1\n")
    assert imported_names(tree) - used_names(tree) == {"os", "Sequence"}


def private_definitions(tree: ast.Module) -> set[str]:
    """Top-level functions, classes and assignment targets named ``_x``
    (dunders excluded)."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name))
    return {n for n in names if n.startswith("_") and not n.startswith("__")}


def loaded_names(tree: ast.Module) -> set[str]:
    """Names read as a variable, as an attribute or by an import."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name)
    return names


def test_no_orphaned_private_names():
    trees = {p.name: ast.parse(p.read_text()) for p in SOURCES}
    loaded = set().union(*(loaded_names(t) for t in trees.values()))
    orphans = {name: sorted(private_definitions(t) - loaded) for name, t in trees.items()}
    assert {name: found for name, found in orphans.items() if found} == {}


def test_orphaned_private_name_is_found():
    tree = ast.parse(
        "import m\nfrom m import _imported\n_used = 1\n_unused: int = 2\n__dunder__ = 3\n"
        "def _called(): return _used + m._attr\ndef _orphan(): pass\nclass _Gone: pass\n_called()\n"
    )
    assert private_definitions(tree) - loaded_names(tree) == {"_unused", "_orphan", "_Gone"}


# Each module imports only modules before it in this list.
LAYERS = ["program", "threads", "units", "services", "machine", "halting", "cli"]


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_no_import_inside_a_function(path):
    tree = ast.parse(path.read_text())
    imports = [n for n in ast.walk(tree) if isinstance(n, (ast.Import, ast.ImportFrom))]
    assert [n.lineno for n in imports if n not in tree.body] == []


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_imports_run_one_way(path):
    tree = ast.parse(path.read_text())
    below = LAYERS[: LAYERS.index(path.stem)]
    imported = [n.module for n in ast.walk(tree) if isinstance(n, ast.ImportFrom) and n.level]
    assert [m for m in imported if m not in below] == []
