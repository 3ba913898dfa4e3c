"""Every module-level function and class of the package is used.

A definition counts as used when some module of ``src/eulertrail`` names
it outside its own body, or when the package exports it in ``__all__``.
``oracle.py`` is exempt as a place of definition: it is the exhaustive
test instrument, whose helpers the tests call.  Its references still
count, as do the CLI's.
"""

import ast
from collections import Counter
from pathlib import Path

import eulertrail as et

ROOT = Path(__file__).resolve().parent.parent
EXEMPT = {"oracle"}
DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _names(node: ast.AST) -> Counter:
    """How often each name is read or written under ``node``, as a bare
    name or as an attribute."""
    found: Counter = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            found[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            found[sub.attr] += 1
    return found


def test_every_module_level_definition_is_used_or_exported() -> None:
    trees = {
        path.stem: ast.parse(path.read_text(encoding="utf-8"))
        for path in sorted((ROOT / "src" / "eulertrail").glob("*.py"))
    }
    everywhere = sum((_names(tree) for tree in trees.values()), Counter())
    unused = [
        f"{module}.{node.name}"
        for module, tree in trees.items()
        if module not in EXEMPT
        for node in tree.body
        if isinstance(node, DEFINITIONS)
        and node.name not in et.__all__
        and everywhere[node.name] <= _names(node)[node.name]
    ]
    assert not unused, unused


def test_every_exported_name_is_defined_once() -> None:
    # ``from eulertrail import *`` fails on an entry that names nothing,
    # such as one left behind by a deleted function
    assert len(set(et.__all__)) == len(et.__all__)
    assert [name for name in et.__all__ if not hasattr(et, name)] == []
