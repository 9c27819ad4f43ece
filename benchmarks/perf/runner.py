"""Where things are, what the definition says, and the way in to the
program: nothing here imports it, so the command line can answer without
it and the cost of importing it can be measured."""

from __future__ import annotations

import importlib
import json
import sys
import zlib
from pathlib import Path
from time import perf_counter
from typing import Dict, Tuple

ROOT = Path(__file__).resolve().parents[2]
HERE = Path(__file__).resolve().parent
TMP_DIRNAME = ".bench_tmp"
OUT_DIRNAME = ".bench_out"

#: Seed whose exactly-repeating values ``expected.json`` records.
REFERENCE_SEED = 1


def definition() -> Dict:
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def environment() -> Dict[str, str]:
    """What the exactly-repeating expected values depend on besides the
    program: compressed sizes feed the virtual checkpoint times."""
    import numpy

    return {
        "python": ".".join(map(str, sys.version_info[:2])),
        "numpy": numpy.__version__,
        "zlib": zlib.ZLIB_RUNTIME_VERSION,
    }


def load_expected() -> Dict:
    with open(HERE / "expected.json") as f:
        return json.load(f)


class NoProgram(Exception):
    """The checkout holds the benchmark but not the program it measures."""


def load_measure() -> Tuple[object, float]:
    """Put the checkout's own ``src/`` first on ``sys.path`` and import the
    measuring module, which imports the program; returns ``(module, seconds
    the import took)``."""
    if not (ROOT / "src" / "repro").is_dir():
        raise NoProgram(f"no program to measure under {ROOT / 'src'}")
    sys.path.insert(0, str(ROOT / "src"))
    t0 = perf_counter()
    module = importlib.import_module(".measure", __package__)
    return module, perf_counter() - t0
