"""No hidden process-wide state under ``repro.mana``.

State belongs to an object someone owns — a store, a job, a
coordinator — and is handed down, so two of them in one process never
share it by accident.  This test reads every ``src/repro/mana`` module
and fails on a ``global`` statement, or on a module-level binding to a
value that may be mutable (a ``dict``/``list``/``set`` display or
comprehension, or the result of a call: a thread-local namespace, an
``itertools.count()``, any class instance) that is not on one of the
two lists below, each entry with its reason.
"""

import ast
import pathlib

MANA = pathlib.Path(__file__).resolve().parents[1] / "src" / "repro" / "mana"

#: (module, name) -> why this module-level object holds state.
STATE = {
    ("checkpoint", "_STORES"):
        "store_for's registry: jobs sharing a directory share one store",
    ("checkpoint", "_STORES_LOCK"):
        "guards _STORES",
    ("storeio", "DEFAULT"):
        "the StoreIO of every store opened without its own; the "
        "benchmark sets it through set_durability/set_injector",
    ("journal", "_SEQ"):
        "record names sort oldest-first across every store object open "
        "on one directory; a per-object counter would restart at 1",
}

#: (module, name) -> read-only objects built by a call the test cannot
#: prove immutable.
CONSTANTS = {
    ("chunkstore", "_GEAR"): "gear hash table, never written",
    ("chunkstore", "_GEAR16"): "truncated gear table, never written",
    ("chunkstore", "_GEAR8"): "uint8 prefilter table, never written",
    ("chunkstore", "_GEAR8_PAIR"): "paired prefilter table, never written",
    ("virtid", "VID_LAYOUT"): "a BitField layout has no mutators",
}

#: Calls whose result cannot change.
IMMUTABLE_CALLS = {"frozenset", "tuple", "MappingProxyType", "struct.Struct"}

_DISPLAYS = (ast.Dict, ast.List, ast.Set,
             ast.DictComp, ast.ListComp, ast.SetComp)


def _may_be_mutable(node: ast.expr) -> bool:
    if isinstance(node, _DISPLAYS):
        return True
    if isinstance(node, ast.Call):
        return ast.unparse(node.func) not in IMMUTABLE_CALLS
    if isinstance(node, ast.Lambda):
        return False
    return any(_may_be_mutable(child) for child in ast.iter_child_nodes(node)
               if isinstance(child, ast.expr))


def _names(target: ast.expr):
    if isinstance(target, ast.Name):
        yield target.id
    elif isinstance(target, (ast.Tuple, ast.List)):
        for elt in target.elts:
            yield from _names(elt)


def _module_bindings(body):
    """(name, value) of every binding made at import time, including
    inside module-level ``if``/``try``/``with``/``for`` blocks."""
    for stmt in body:
        if isinstance(stmt, ast.Assign):
            for target in stmt.targets:
                for name in _names(target):
                    yield name, stmt.value
        elif isinstance(stmt, (ast.AnnAssign, ast.AugAssign)):
            if stmt.value is not None:
                for name in _names(stmt.target):
                    yield name, stmt.value
        elif isinstance(stmt, (ast.If, ast.Try, ast.With, ast.For)):
            for block in ("body", "orelse", "finalbody"):
                yield from _module_bindings(getattr(stmt, block, []))
            for handler in getattr(stmt, "handlers", []):
                yield from _module_bindings(handler.body)


def _modules():
    for path in sorted(MANA.glob("*.py")):
        yield path.stem, ast.parse(path.read_text(), filename=str(path))


def test_no_global_statements():
    found = [f"{mod}.py:{node.lineno}: global {', '.join(node.names)}"
             for mod, tree in _modules()
             for node in ast.walk(tree) if isinstance(node, ast.Global)]
    assert found == []


def test_module_level_mutable_state_is_only_the_allowed():
    allowed = STATE.keys() | CONSTANTS.keys()
    found = sorted({(mod, name) for mod, tree in _modules()
                    for name, value in _module_bindings(tree.body)
                    if _may_be_mutable(value)})
    assert [key for key in found if key not in allowed] == []
    # No stale entries: each one still names a binding.
    assert sorted(allowed) == found


def test_the_guard_sees_what_it_guards():
    bad = ast.parse(
        "import itertools\nfrom threading import local\n"
        "A = {}\nB = [x for x in ()]\nC = local()\n"
        "D = itertools.count()\nif True:\n    E = object()\n"
        "F = frozenset({1})\nG = 1 + 2\n"
    )
    flagged = {name for name, value in _module_bindings(bad.body)
               if _may_be_mutable(value)}
    assert flagged == {"A", "B", "C", "D", "E"}
