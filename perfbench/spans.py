"""In-memory span recorder for the traced benchmark run.

A span is one timed call across a layer boundary: name, layer (the
``prodschur`` module the call enters, or ``bench`` for the benchmark's
own checking), start, end, parent span id and the run id shared by every
span of one run.  Spans stay in memory and are written out once, when
the run ends, so recording costs two clock reads and a dict per span.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager


class Tracer:
    """Records nested spans; ``span`` is a context manager yielding the record."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[dict] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, layer: str, **attrs):
        rec = {"id": len(self.spans), "name": name, "layer": layer,
               "parent": self._stack[-1] if self._stack else None,
               "run": self.run_id, "start": time.perf_counter(), "end": None}
        rec.update(attrs)
        self.spans.append(rec)
        self._stack.append(rec["id"])
        try:
            yield rec
        except BaseException as exc:
            rec["error"] = type(exc).__name__
            raise
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def named(self, name: str) -> list[dict]:
        return [s for s in self.spans if s["name"] == name]

    def busy(self, name: str) -> float:
        """Total duration of the spans called `name`."""
        return sum(s["end"] - s["start"] for s in self.named(name))

    def self_times(self) -> dict[str, float]:
        """Per layer: span durations minus the time their child spans cover.

        Spans are recorded from one thread, so children of one span never
        overlap and their durations simply add up.
        """
        child_time = defaultdict(float)
        for s in self.spans:
            if s["parent"] is not None:
                child_time[s["parent"]] += s["end"] - s["start"]
        out = defaultdict(float)
        for s in self.spans:
            out[s["layer"]] += (s["end"] - s["start"]) - child_time[s["id"]]
        return dict(out)

    def write(self, path: str, header: dict) -> None:
        with open(path, "w") as fh:
            json.dump({**header, "run": self.run_id, "spans": self.spans}, fh)
            fh.write("\n")


class NullTracer:
    """Stand-in for untimed passes: same interface, records nothing."""

    @contextmanager
    def span(self, name: str, layer: str, **attrs):
        yield {}
