"""Every name that a module of src/drillvol imports is read in that module.

A name counts as read when it appears as a name anywhere in the module's
syntax tree, or in its ``__all__``.  ``from __future__`` imports and
``*`` imports bind no name to check, so they are skipped.
"""

import ast

import pytest

from conftest import REPO_ROOT

MODULES = sorted((REPO_ROOT / "src" / "drillvol").glob("*.py"))


def imported_names(tree: ast.Module) -> dict:
    """The names that the module's imports bind, each with its line."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if alias.name != "*":
                    bound[alias.asname or alias.name.split(".")[0]] = node.lineno
    return bound


def read_names(tree: ast.Module) -> set:
    """The names that the module reads, and the strings of its __all__."""
    names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            names.update(ast.literal_eval(node.value))
    return names


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_read(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    unused = sorted(f"{name} (line {line})" for name, line in imported_names(tree).items()
                    if name not in read_names(tree))
    assert unused == []


def test_an_unread_import_is_flagged():
    tree = ast.parse("from __future__ import annotations\nimport functools\nimport math\n"
                     "from os import *\nfrom typing import Callable as C\n"
                     "__all__ = ['C']\nx = math.pi\n")
    assert set(imported_names(tree)) - read_names(tree) == {"functools"}
