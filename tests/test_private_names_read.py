"""Every private name defined at the top level of a module of src/drillvol is
read somewhere in src/drillvol: a helper that only tests use is made public
or deleted.

A private name starts with one underscore and is bound by a top-level
``def``, ``class`` or assignment.  It counts as read where any module loads
it as a name, reads it as an attribute or imports it by name.
"""

import ast

from conftest import REPO_ROOT

MODULES = sorted((REPO_ROOT / "src" / "drillvol").glob("*.py"))


def private_names(tree: ast.Module) -> dict:
    """The private names that the module's top level binds, each with its line."""
    bound = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            targets = [ast.Name(node.name)]
        elif isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, ast.AnnAssign):
            targets = [node.target]
        else:
            continue
        for target in targets:
            for name in ast.walk(target):
                if isinstance(name, ast.Name) and name.id.startswith("_") \
                        and not name.id.startswith("__"):
                    bound[name.id] = node.lineno
    return bound


def read_names(tree: ast.Module) -> set:
    """The names that the module loads, reads as attributes or imports."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names


def test_every_private_name_is_read():
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in MODULES}
    read = set().union(*map(read_names, trees.values()))
    unread = sorted(f"{module}: {name} (line {line})" for module, tree in trees.items()
                    for name, line in private_names(tree).items() if name not in read)
    assert unread == []


def test_an_unread_private_name_is_flagged():
    tree = ast.parse("import math as _m\n__all__ = ['f']\n_A = 1\n_B: int = 2\n_c, d = 3, 4\n"
                     "def _used(x):\n    return x\n\ndef _dead():\n    pass\n\n"
                     "class _Dead:\n    _inner = 0\n\n"
                     "def f():\n    return _used(_A) + _B + d\n")
    other = ast.parse("from pkg import _c\n")
    read = read_names(tree) | read_names(other)
    assert set(private_names(tree)) - read == {"_dead", "_Dead"}
