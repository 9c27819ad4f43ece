"""Function-call ledger: which functions under ``src/repro`` the suite never calls.

Opt-in pytest plugin, loaded only with ``-p tests.fcov``::

    PYTHONPATH=src python -m pytest -q -p tests.fcov

The tracer is installed when this module is imported, before ``conftest.py``
imports ``repro``, so functions that run at import time (the tables and
wrappers built when a module loads) count as called.  It records only
``call`` events of code objects under ``src/repro`` and returns ``None``, so
no line is traced; the suite runs about twice as long as without it.  Code
run in a subprocess (the CLI tests) is not seen.

At session end every ``def`` found by ``ast`` that never ran is compared with
``tests/uncalled_functions.txt``; a difference is printed and fails the
session.  The comparison means something only for a full run of the suite.
"""

from __future__ import annotations

import pathlib
import sys
import threading
from typing import Dict, List, Set

from tests.test_uncalled_functions import (
    LEDGER, REPO, SRC, defined_functions, read_ledger,
)

_PREFIX = str(SRC) + "/"
_called: Set[object] = set()


def _trace(frame, event, arg):
    code = frame.f_code
    if code.co_filename.startswith(_PREFIX):
        _called.add(code)
    return None


sys.settrace(_trace)
threading.settrace(_trace)


def uncalled() -> List[str]:
    """Every defined function that has not run in this process, sorted."""
    ran = {(pathlib.Path(c.co_filename).relative_to(REPO).as_posix(),
            c.co_firstlineno, c.co_name) for c in list(_called)}
    # A property's getter and setter share a name; either one uncalled
    # puts the name on the list.
    return sorted({name for key, name in defined_functions().items()
                   if key not in ran})


_result: Dict[str, List[str]] = {}


def pytest_sessionfinish(session, exitstatus):
    sys.settrace(None)
    threading.settrace(None)
    names = uncalled()
    pinned = {name for name, _, _ in read_ledger()}
    _result["uncalled"] = names
    _result["new"] = sorted(set(names) - pinned)
    _result["gone"] = sorted(pinned - set(names))
    if (_result["new"] or _result["gone"]) and session.exitstatus == 0:
        session.exitstatus = 1


def pytest_terminal_summary(terminalreporter):
    if not _result:
        return
    write = terminalreporter.write_line
    write(f"fcov: {len(_result['uncalled'])} functions under src/repro "
          f"never called")
    for name in _result["new"]:
        write(f"fcov: not in {LEDGER.name}: {name}")
    for name in _result["gone"]:
        write(f"fcov: in {LEDGER.name} but called: {name}")
    if not (_result["new"] or _result["gone"]):
        write(f"fcov: matches {LEDGER.name}")
