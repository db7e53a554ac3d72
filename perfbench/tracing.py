"""In-memory spans recorded by the benchmark around its calls into weyltasep.

A span has a name, an optional label (the chain, walk kind or suite it
served), a start, an end and the id of the span that was open when it began.
Spans stay in memory and are written out once, when the run ends.
"""
from __future__ import annotations

import json
import time


class Tracer:
    def __init__(self):
        self.enabled = False
        self.spans: list[dict] = []
        self._open: list[int] = []
        self._origin = time.perf_counter()

    def span(self, name: str, label: str | None = None):
        return _Span(self, name, label) if self.enabled else _NULL

    def cycle_totals(self, cycle_span: int, scale: dict) -> dict:
        """Summed duration by span name, and by name.label, under one cycle.

        Each span's duration is multiplied by scale[its label] (default 1).
        """
        parent_of = {s["id"]: s["parent"] for s in self.spans}
        totals: dict[str, float] = {}
        for s in self.spans:
            ancestor = s["parent"]
            while ancestor is not None and ancestor != cycle_span:
                ancestor = parent_of[ancestor]
            if ancestor != cycle_span:
                continue
            dur = (s["end"] - s["start"]) * scale.get(s["label"], 1.0)
            totals[s["name"]] = totals.get(s["name"], 0.0) + dur
            if s["label"] is not None:
                key = f"{s['name']}.{s['label']}"
                totals[key] = totals.get(key, 0.0) + dur
        return totals

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump({"unit": "s", "spans": self.spans}, fh)


class _Span:
    __slots__ = ("tracer", "record")

    def __init__(self, tracer: Tracer, name: str, label: str | None):
        self.tracer = tracer
        self.record = {
            "id": len(tracer.spans),
            "parent": tracer._open[-1] if tracer._open else None,
            "name": name,
            "label": label,
            "start": None,
            "end": None,
        }

    def __enter__(self):
        t = self.tracer
        t.spans.append(self.record)
        t._open.append(self.record["id"])
        self.record["start"] = time.perf_counter() - t._origin
        return self.record["id"]

    def __exit__(self, *exc):
        t = self.tracer
        self.record["end"] = time.perf_counter() - t._origin
        t._open.pop()
        return False


class _NullSpan:
    def __enter__(self):
        return None

    def __exit__(self, *exc):
        return False


_NULL = _NullSpan()
