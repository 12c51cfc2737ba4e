"""Guards that every imported name is used, in the package, its tests and
its scripts, that every top-level definition of the package is
referenced somewhere outside its own definition, and that every field of
its dataclasses is read somewhere."""

import ast
import collections
import pathlib

import genpow

SRC = pathlib.Path(genpow.__file__).resolve().parent
TESTS = pathlib.Path(__file__).resolve().parent
SCRIPTS = TESTS.parent / "scripts"
BENCH = TESTS.parent / "bench"


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


def _definitions(tree: ast.Module) -> list[tuple[str, ast.AST]]:
    """(name, node) of every top-level function, class and constant a
    module defines, dunder names aside."""
    out = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            out.append((node.name, node))
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            out.extend((t.id, node) for t in targets if isinstance(t, ast.Name))
    return [(name, node) for name, node in out if not name.startswith("__")]


def _references(node: ast.AST) -> list[str]:
    """Every name read, attribute taken or name imported under node."""
    out = []
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            out.append(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.append(sub.attr)
        elif isinstance(sub, ast.ImportFrom):
            out.extend(alias.name for alias in sub.names)
    return out


def _unreferenced(modules: dict[str, ast.Module], others: list[ast.Module]) -> list[str]:
    """module:name of every definition in modules that neither its own
    module, outside the definition, nor any other tree references."""
    seen = collections.Counter()
    for tree in list(modules.values()) + others:
        seen.update(_references(tree))
    return [
        f"{module}:{name}"
        for module, tree in modules.items()
        for name, node in _definitions(tree)
        if seen[name] == _references(node).count(name)
    ]


def test_guard_finds_an_unreferenced_definition():
    module = ast.parse(
        "LIMIT = 3\n"
        "def used():\n    return LIMIT\n"
        "def recursive(n):\n    return recursive(n - 1)\n"
        "class Dead:\n    pass\n"
    )
    user = ast.parse("from m import used\nused()\n")
    assert _unreferenced({"m": module}, [user]) == ["m:recursive", "m:Dead"]


def test_no_unreferenced_definitions():
    modules = {
        path.name: ast.parse(path.read_text(encoding="utf-8"))
        for path in sorted(SRC.glob("*.py"))
    }
    others = [
        ast.parse(path.read_text(encoding="utf-8"))
        for folder in (TESTS, SCRIPTS, BENCH)
        for path in sorted(folder.glob("*.py"))
    ]
    assert _unreferenced(modules, others) == []


def _dataclass_fields(tree: ast.Module) -> list[tuple[str, str]]:
    """(class, field) of every field of each top-level dataclass."""
    out = []
    for node in tree.body:
        if not isinstance(node, ast.ClassDef):
            continue
        decorators = [d.func if isinstance(d, ast.Call) else d for d in node.decorator_list]
        if any(isinstance(d, ast.Name) and d.id == "dataclass" for d in decorators):
            out.extend(
                (node.name, item.target.id)
                for item in node.body
                if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)
            )
    return out


def _unread_fields(modules: list[ast.Module], readers: list[ast.Module]) -> list[str]:
    """Class.field of every dataclass field in modules that no reader loads
    as an attribute.  Fields are matched by name alone, so a field is
    taken as read when any attribute of that name is, and a dead field
    with a common name such as `k` goes unseen."""
    loaded = {
        node.attr
        for tree in readers
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }
    return [
        f"{cls}.{name}"
        for tree in modules
        for cls, name in _dataclass_fields(tree)
        if name not in loaded
    ]


def test_guard_finds_an_unread_field():
    module = ast.parse(
        "from dataclasses import dataclass, field\n"
        "@dataclass(frozen=True)\n"
        "class Report:\n"
        "    size: int\n"
        "    spare: tuple = field(repr=False)\n"
        "    def render(self):\n"
        "        return [self.size]\n"
        "@dataclass\n"
        "class Row:\n"
        "    mode: str\n"
        "class Plain:\n"
        "    unread: int\n"
    )
    user = ast.parse("row = Row('exact')\nrow.spare = 1\nprint(row.mode)\n")
    assert _unread_fields([module], [module, user]) == ["Report.spare"]


def test_every_dataclass_field_is_read():
    modules = [ast.parse(path.read_text(encoding="utf-8")) for path in sorted(SRC.glob("*.py"))]
    readers = modules + [
        ast.parse(path.read_text(encoding="utf-8"))
        for folder in (TESTS, SCRIPTS, BENCH)
        for path in sorted(folder.glob("*.py"))
    ]
    assert _unread_fields(modules, readers) == []
