"""A guard that every imported name is used, in the package, its tests and
its scripts."""

import ast
import pathlib

import genpow

SRC = pathlib.Path(genpow.__file__).resolve().parent
TESTS = pathlib.Path(__file__).resolve().parent
SCRIPTS = TESTS.parent / "scripts"


def _unused_imports(tree: ast.Module) -> list[tuple[int, str]]:
    """(line, name) of every name an import binds that the module never
    reads; names listed in `__all__` count as read."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            read.update(ast.literal_eval(node.value))
    return sorted((line, name) for name, line in bound.items() if name not in read)


def test_guard_finds_an_unused_import():
    tree = ast.parse("import os\nfrom typing import Iterator, Sequence\nx: Sequence = ()\n")
    assert _unused_imports(tree) == [(1, "os"), (2, "Iterator")]


def test_no_unused_imports():
    unused = [
        f"{path.parent.name}/{path.name}:{line} {name}"
        for folder in (SRC, TESTS, SCRIPTS)
        for path in sorted(folder.glob("*.py"))
        for line, name in _unused_imports(ast.parse(path.read_text(encoding="utf-8")))
    ]
    assert unused == []
