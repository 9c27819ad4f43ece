"""Spans recorded by the benchmark around its calls into each layer.

Spans live in memory and are written once, when the run ends.  A disabled
tracer records nothing: the end-to-end numbers come from runs made with it
off, and the difference between the two is ``bench.trace_overhead_frac``.
"""

from __future__ import annotations

import contextlib
import json
from time import perf_counter
from typing import Dict, Iterator, List, Optional


class Tracer:
    def __init__(self, enabled: bool):
        self.enabled = enabled
        #: {name, start, end, parent (index or None), rep}
        self.spans: List[Dict] = []
        self._stack: List[int] = []
        self.rep = 0

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[None]:
        """Time the block as a child of the innermost open span.  Used
        from the driving thread only; rank threads never open spans."""
        if not self.enabled:
            yield
            return
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        rec = {"name": name, "start": perf_counter(), "end": None,
               "parent": parent, "rep": self.rep}
        self.spans.append(rec)
        self._stack.append(idx)
        try:
            yield
        finally:
            rec["end"] = perf_counter()
            self._stack.pop()

    def add(self, name: str, start: float, end: float,
            parent: Optional[str] = None) -> None:
        """Record a span measured elsewhere (block stamps of the rank
        threads) under the most recent span called ``parent``."""
        if not self.enabled:
            return
        pidx = None
        if parent is not None:
            for i in range(len(self.spans) - 1, -1, -1):
                if self.spans[i]["name"] == parent:
                    pidx = i
                    break
        self.spans.append({"name": name, "start": start, "end": end,
                           "parent": pidx, "rep": self.rep})

    # ------------------------------------------------------------------
    def durations(self, name: str) -> List[float]:
        return [s["end"] - s["start"] for s in self.spans
                if s["name"] == name and s["end"] is not None]

    def self_times(self) -> Dict[str, float]:
        """Per span name: total duration minus the part its direct
        children cover."""
        child_cover = [0.0] * len(self.spans)
        for s in self.spans:
            if s["parent"] is not None and s["end"] is not None:
                child_cover[s["parent"]] += s["end"] - s["start"]
        out: Dict[str, float] = {}
        for i, s in enumerate(self.spans):
            if s["end"] is None:
                continue
            own = max(0.0, s["end"] - s["start"] - child_cover[i])
            out[s["name"]] = out.get(s["name"], 0.0) + own
        return out

    def write(self, path: str) -> None:
        with open(path, "w") as f:
            json.dump({"spans": self.spans, "self_time_s": self.self_times()},
                      f, indent=1)
            f.write("\n")
