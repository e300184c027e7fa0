"""In-memory span recorder and reversible attribute patches.

A span is (name, start, end, parent) with times from time.perf_counter().
The benchmark runs in one thread, so spans nest by call order and the
children of a span never overlap each other: a span's self time is its
duration minus the summed durations of its children.
"""

from __future__ import annotations

import json
from collections import Counter, defaultdict
from time import perf_counter


class Patch:
    """setattr on modules and classes, undone in reverse order on exit."""

    def __init__(self):
        self._saved = []

    def set(self, obj, name, value):
        self._saved.append((obj, name, getattr(obj, name)))
        setattr(obj, name, value)

    def undo(self):
        while self._saved:
            obj, name, value = self._saved.pop()
            setattr(obj, name, value)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.undo()
        return False


class Tracer:
    """Records spans and counters; written out once the run has ended."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans = []            # [name, start, end, parent index or -1]
        self.stack = []            # indices of the open spans
        self.counts = Counter()
        self.maxima = {}

    def open(self, name: str) -> list:
        rec = [name, 0.0, 0.0, self.stack[-1] if self.stack else -1]
        self.stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = perf_counter()
        return rec

    def close(self, rec: list):
        rec[2] = perf_counter()
        self.stack.pop()

    def wrap(self, name: str, fn):
        """fn with every call recorded as a span called `name`."""
        def traced(*args, **kwargs):
            rec = self.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(rec)
        return traced

    def count(self, key: str, value=1):
        self.counts[key] += value

    def high(self, key: str, value: float):
        self.maxima[key] = max(self.maxima.get(key, value), value)

    def totals(self):
        """Per span name: (inclusive seconds, self seconds, calls)."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        incl = defaultdict(float)
        own = defaultdict(float)
        calls = Counter()
        for i, (name, start, end, _) in enumerate(self.spans):
            incl[name] += end - start
            own[name] += end - start - child[i]
            calls[name] += 1
        return incl, own, calls

    def outermost(self, prefix: str) -> float:
        """Seconds inside spans named `prefix*` not nested in another one."""
        total = 0.0
        for name, start, end, parent in self.spans:
            if name.startswith(prefix) and not (
                    parent >= 0 and self.spans[parent][0].startswith(prefix)):
                total += end - start
        return total

    def write(self, path: str):
        with open(path, "w") as fh:
            for i, (name, start, end, parent) in enumerate(self.spans):
                fh.write(json.dumps({"run": self.run_id, "id": i,
                                     "name": name, "start": start,
                                     "end": end, "parent": parent}) + "\n")
