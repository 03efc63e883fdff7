"""In-memory spans around the program's public functions.

`Tracer.wrap` replaces a function at the module attribute its callers
resolve (for example `agent.ground`, which `run_episode` looks up in its own
module) with a wrapper that records a span: name, start, end and the index
of the enclosing span.  Spans stay in memory and are written out once, at
the end.  A span's self time is its duration minus the durations of its
direct children.  While `enabled` is false the wrapper only forwards the
call, and `restore` puts every original back.
"""
from __future__ import annotations

import functools
import json
import time
from collections import defaultdict
from pathlib import Path


class Tracer:
    def __init__(self):
        self.spans: list[list] = []   # [name, start, end, parent index]
        self.notes: dict[str, list] = defaultdict(list)
        self.enabled = False
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def wrap(self, owner, attr: str, name: str, note=None) -> None:
        """Trace `owner.attr` as span `name`; `note(result, *args)` may
        return a value kept under `notes[name]` for counters."""
        original = getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return original(*args, **kwargs)
            parent = tracer._stack[-1] if tracer._stack else -1
            span = [name, time.perf_counter(), 0.0, parent]
            tracer._stack.append(len(tracer.spans))
            tracer.spans.append(span)
            try:
                result = original(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                tracer._stack.pop()
            if note is not None:
                tracer.notes[name].append(note(result, *args))
            return result

        setattr(owner, attr, traced)
        self._patches.append((owner, attr, original))

    def restore(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def self_times(self, first: int = 0, last: int | None = None
                   ) -> dict[str, float]:
        """Total self time per span name over spans[first:last]."""
        last = len(self.spans) if last is None else last
        child_time = defaultdict(float)
        for name, start, end, parent in self.spans[first:last]:
            if parent >= 0:
                child_time[parent] += end - start
        totals: dict[str, float] = defaultdict(float)
        for i in range(first, last):
            name, start, end, _ = self.spans[i]
            totals[name] += end - start - child_time[i]
        return totals

    def counts(self, first: int = 0, last: int | None = None
               ) -> dict[str, int]:
        out: dict[str, int] = defaultdict(int)
        for span in self.spans[first:last]:
            out[span[0]] += 1
        return out

    def write(self, path: Path) -> None:
        """One JSON object per span, times relative to the first span."""
        origin = self.spans[0][1] if self.spans else 0.0
        with Path(path).open("w") as fh:
            for i, (name, start, end, parent) in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i, "name": name, "parent": parent,
                    "start_s": round(start - origin, 9),
                    "end_s": round(end - origin, 9)}) + "\n")
