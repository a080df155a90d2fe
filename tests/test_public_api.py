"""The package's public names: `__all__` lists exactly what `__init__` imports.

A function deleted from a module must leave `__all__` too; the import then
fails, and a name kept in `__all__` alone no longer resolves.
"""

import ast
from pathlib import Path

import prefqc


def imported_public_names() -> set[str]:
    tree = ast.parse(Path(prefqc.__file__).read_text(encoding="utf-8"))
    names = {
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    return {name for name in names if not name.startswith("_")}


def test_every_name_in_all_resolves():
    missing = [name for name in prefqc.__all__ if not hasattr(prefqc, name)]
    assert missing == []


def test_all_is_unique_and_sorted():
    assert list(prefqc.__all__) == sorted(set(prefqc.__all__))


def test_all_matches_the_imported_public_names():
    assert set(prefqc.__all__) == imported_public_names()
