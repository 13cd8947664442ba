"""In-memory spans recorded around the calls the benchmark makes into fls.

A span has an id, the id of the unit it belongs to, a name, a start, an
end and the id of its parent span.  Spans stay in memory until the run
ends and are then written out as JSON lines.  Memory-traced spans also
carry the tracemalloc peak of the allocations made inside them.
"""

from __future__ import annotations

import json
import time
import tracemalloc
from collections import defaultdict
from contextlib import contextmanager


class Tracer:
    """Records nested spans; ``unit`` tags every span opened while it is set."""

    def __init__(self, origin: float | None = None):
        self.origin = time.perf_counter() if origin is None else origin
        self.spans: list[dict] = []
        self.unit: str | None = None
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, memory: bool = False):
        rec = {
            "id": len(self.spans),
            "unit": self.unit,
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "start": None,
            "end": None,
        }
        self.spans.append(rec)
        self._stack.append(rec["id"])
        if memory:
            tracemalloc.start()
        rec["start"] = time.perf_counter() - self.origin
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter() - self.origin
            if memory:
                rec["peak_bytes"] = tracemalloc.get_traced_memory()[1]
                tracemalloc.stop()
            self._stack.pop()

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for rec in self.spans:
                fh.write(json.dumps(rec, sort_keys=True) + "\n")


def duration(rec: dict) -> float:
    return rec["end"] - rec["start"]


def self_times(spans) -> dict:
    """Seconds per span name, minus the time covered by each span's children."""
    child_time = defaultdict(float)
    for rec in spans:
        if rec["parent"] is not None:
            child_time[rec["parent"]] += duration(rec)
    out = defaultdict(float)
    for rec in spans:
        out[rec["name"]] += duration(rec) - child_time[rec["id"]]
    return dict(out)


def unit_totals(spans, unit: str) -> dict:
    """Inclusive seconds per span name within one unit."""
    out = defaultdict(float)
    for rec in spans:
        if rec["unit"] == unit:
            out[rec["name"]] += duration(rec)
    return dict(out)


def unit_peak_bytes(spans, unit: str, name: str) -> int:
    """Largest tracemalloc peak among one unit's spans of ``name``."""
    peaks = [
        rec["peak_bytes"]
        for rec in spans
        if rec["unit"] == unit and rec["name"] == name and "peak_bytes" in rec
    ]
    return max(peaks, default=0)
