"""In-memory span recording for the traced run.

A span is one call into a layer's public function, timed from the
benchmark's own code: name, start, end, parent span and the request
(operation) id it belongs to.  Spans stay in a list until the run ends
and are then written out as one JSON file.  Nothing here reaches into
``repro``: the spans sit around the calls, not inside them.
"""

from __future__ import annotations

import json
import statistics
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional


class Tracer:
    """Collects nested spans; one instance per traced run."""

    def __init__(self) -> None:
        self.spans: List[Dict[str, Any]] = []
        self._stack: List[int] = []
        self._next_request = 0

    def request(self) -> int:
        """A fresh request id for a top-level operation."""
        self._next_request += 1
        return self._next_request

    @contextmanager
    def span(self, name: str, request: Optional[int] = None,
             **attrs: Any) -> Iterator[Dict[str, Any]]:
        parent = self._stack[-1] if self._stack else None
        if request is None:  # a child joins its parent's request
            request = self.spans[parent]["request"] \
                if parent is not None else self.request()
        record: Dict[str, Any] = {"name": name, "parent": parent,
                                  "request": request, "start": 0.0,
                                  "end": 0.0}
        record.update(attrs)
        self.spans.append(record)
        self._stack.append(len(self.spans) - 1)
        record["start"] = time.perf_counter()
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    def durations(self, name: str) -> Dict[str, List[float]]:
        """Durations of the spans called ``name``, grouped by their
        ``instance`` attribute."""
        out: Dict[str, List[float]] = {}
        for record in self.spans:
            if record["name"] == name:
                out.setdefault(str(record.get("instance")), []).append(
                    record["end"] - record["start"])
        return out

    def median(self, name: str) -> float:
        """Median over instances of each instance's median duration."""
        groups = self.durations(name)
        if not groups:
            raise KeyError(f"no spans named {name!r}")
        return statistics.median(statistics.median(v)
                                 for v in groups.values())

    def record(self, name: str, start: float, end: float,
               **attrs: Any) -> None:
        """Add a span timed elsewhere (a client thread of the loop)."""
        self.spans.append({"name": name, "parent": None,
                           "request": self.request(), "start": start,
                           "end": end, **attrs})

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        origin = min((r["start"] for r in self.spans), default=0.0)
        rows = []
        for i, record in enumerate(self.spans):
            row = dict(record)
            row["id"] = i
            row["start"] = record["start"] - origin
            row["end"] = record["end"] - origin
            rows.append(row)
        path.write_text(json.dumps({"spans": rows}, indent=0) + "\n")


@contextmanager
def maybe_span(tracer: Optional[Tracer], name: str,
               **attrs: Any) -> Iterator[None]:
    """A span when tracing, nothing otherwise."""
    if tracer is None:
        yield
        return
    with tracer.span(name, **attrs):
        yield
