"""Static checks over ``src/repro``, with the standard library's ``ast``.

Every imported name must be read by its module or re-exported through
the module's ``__all__``; ``from __future__`` imports are exempt.  An
import nothing reads is dead code that a reader still has to trace.
The check is scope-blind: a name read anywhere in the module counts.
"""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "repro"


def _unused_imports(source: str):
    """(line, name) of each imported name ``source`` never reads."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [(node.lineno, a.asname or a.name.split(".")[0])
                         for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [(node.lineno, a.asname or a.name)
                         for a in node.names if a.name != "*"]
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(getattr(t, "id", None) == "__all__"
                        for t in node.targets)):
            read.update(e.value for e in node.value.elts)
    return [(line, name) for line, name in imported if name not in read]


def test_the_check_sees_an_unused_import():
    source = (
        "from __future__ import annotations\n"
        "import os, sys as s\n"
        "import a.b\n"
        "from c import d, e, f\n"
        "__all__ = ['e']\n"
        "print(os.sep, a.b, f)\n"
    )
    assert _unused_imports(source) == [(2, "s"), (4, "d")]


def test_every_imported_name_is_used():
    hits = [
        f"{path.relative_to(SRC.parent)}:{line}: {name}"
        for path in sorted(SRC.rglob("*.py"))
        for line, name in _unused_imports(path.read_text())
    ]
    assert hits == []
