"""The function ledger, ``tests/uncalled_functions.txt``, stays well-formed.

The ledger names every function under ``src/repro`` that the suite never
calls, each with a category and a reason.  ``tests/fcov.py`` measures the
uncalled set (``-p tests.fcov``, about twice the suite's time); this guard
only checks, by ``ast``, that each entry still names a ``def`` and carries
one of the four categories, so a rename or deletion cannot leave a stale
entry behind.
"""

from __future__ import annotations

import ast
import pathlib
from typing import Dict, List, Tuple

REPO = pathlib.Path(__file__).resolve().parent.parent
SRC = REPO / "src" / "repro"
LEDGER = pathlib.Path(__file__).with_name("uncalled_functions.txt")
CATEGORIES = ("benchmark-only", "abstract", "elastic", "cli-only")


def defined_functions(root: pathlib.Path = SRC) -> Dict[tuple, str]:
    """``(path, first line, name) -> "path::Qualname"`` for every ``def``
    under ``root``; the first line is the first decorator's, as in
    ``co_firstlineno``."""
    found: Dict[tuple, str] = {}

    def walk(node: ast.AST, path: str, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qualname = prefix + child.name
                first = min([child.lineno]
                            + [d.lineno for d in child.decorator_list])
                found[(path, first, child.name)] = f"{path}::{qualname}"
                walk(child, path, qualname + ".<locals>.")
            elif isinstance(child, ast.ClassDef):
                walk(child, path, prefix + child.name + ".")
            else:
                walk(child, path, prefix)

    for file in sorted(root.rglob("*.py")):
        path = file.relative_to(REPO).as_posix()
        walk(ast.parse(file.read_text(), str(file)), path, "")
    return found


def read_ledger(path: pathlib.Path = LEDGER) -> List[Tuple[str, str, str]]:
    """``(path::Qualname, category, reason)`` for each entry of the ledger."""
    entries = []
    for line in path.read_text().splitlines():
        if not line.strip() or line.startswith("#"):
            continue
        name, _, note = line.partition("#")
        category, _, reason = note.partition(":")
        entries.append((name.strip(), category.strip(), reason.strip()))
    return entries


def test_every_entry_names_a_def():
    defined = set(defined_functions().values())
    assert [n for n, _, _ in read_ledger() if n not in defined] == []


def test_every_entry_has_a_category_and_a_reason():
    bad = [(n, c) for n, c, reason in read_ledger()
           if c not in CATEGORIES or not reason]
    assert bad == []


def test_entries_are_sorted_and_unique():
    names = [n for n, _, _ in read_ledger()]
    assert names == sorted(set(names))
