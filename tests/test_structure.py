"""The package's own structure.

No member only the tests reach, no private name crosses modules, and no dataclass.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "rqlab"
ENTRY_POINTS = {"cli.main"}  # the console script, called from outside the package


def _modules() -> dict[str, ast.Module]:
    """Every module of the package but ``__init__``, whose re-exports call nothing."""
    return {path.stem: ast.parse(path.read_text(encoding="utf-8"), str(path))
            for path in sorted(PACKAGE.glob("*.py")) if path.stem != "__init__"}


def _dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def _definitions(tree: ast.Module):
    """(qualified name, node) of each module-level function and class and non-dunder method."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)) and not _dunder(
                        item.name):
                    yield f"{node.name}.{item.name}", item


def _references(tree: ast.Module):
    """(name, line) of every name, attribute and imported name the module mentions."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif isinstance(node, ast.alias):
            yield node.name, node.lineno


def test_every_member_has_a_caller_in_the_package():
    # a reference counts by name alone, wherever it is outside the member's own definition
    modules = _modules()
    references: dict[str, list[tuple[str, int]]] = {}
    for module, tree in modules.items():
        for name, line in _references(tree):
            references.setdefault(name, []).append((module, line))
    unreferenced = []
    for module, tree in modules.items():
        for qualname, node in _definitions(tree):
            outside = [(m, line) for m, line in references.get(qualname.rpartition(".")[2], [])
                       if not (m == module and node.lineno <= line <= node.end_lineno)]
            if not outside and f"{module}.{qualname}" not in ENTRY_POINTS:
                unreferenced.append(f"{module}.{qualname}")
    assert unreferenced == []


def test_no_module_imports_another_modules_private_name():
    imported = [f"{module}: {alias.name}" for module, tree in _modules().items()
                for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                for alias in node.names if alias.name.startswith("_") and not _dunder(alias.name)]
    assert imported == []


def test_no_module_uses_dataclasses():
    # a dataclass writes and execs its methods when its module is imported, on
    # every start of the command line; the records are NamedTuples and
    # __slots__ classes, which generate no code
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        module = path.stem
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if isinstance(node, ast.Import):
                found += [f"{module}: import {a.name}" for a in node.names
                          if a.name.partition(".")[0] == "dataclasses"]
            elif isinstance(node, ast.ImportFrom) and node.module == "dataclasses":
                found.append(f"{module}: from dataclasses import ...")
            elif isinstance(node, ast.ClassDef):
                for decorator in node.decorator_list:
                    target = decorator.func if isinstance(decorator, ast.Call) else decorator
                    name = target.attr if isinstance(target, ast.Attribute) else getattr(
                        target, "id", None)
                    if name == "dataclass":
                        found.append(f"{module}: @dataclass class {node.name}")
    assert found == []
