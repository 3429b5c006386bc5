"""In-memory span and call-counter recorder for traced benchmark runs.

A span is (name, start, end, parent, solve id): `parent` is the index of the
enclosing span in `spans` (None at top level) and the solve id groups every
span of one solve. Spans stay in memory and are written out once, when the
run ends. The penalty oracle, the projection and the stationarity measure
are called up to hundreds of thousands of times per solve, far too often for
a span each, so `counted` wraps them with a call counter and a busy-time sum
recorded at the same boundary instead.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager


class Tracer:
    def __init__(self):
        self.spans = []
        self.solve_id = None
        self._stats = {}  # name -> [calls, busy seconds], updated in place
        self._open = []

    def _stat(self, name):
        return self._stats.setdefault(name, [0, 0.0])

    @contextmanager
    def span(self, name):
        parent = self._open[-1] if self._open else None
        index = len(self.spans)
        self.spans.append(None)
        self._open.append(index)
        stat = self._stat(name)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._open.pop()
            self.spans[index] = (name, start, end, parent, self.solve_id)
            stat[0] += 1
            stat[1] += end - start

    def counted(self, name, fn):
        """fn wrapped so that each call adds to the counters of `name`."""
        clock, stat = time.perf_counter, self._stat(name)

        def wrapper(*args):
            start = clock()
            out = fn(*args)
            stat[1] += clock() - start
            stat[0] += 1
            return out
        return wrapper

    def take_counters(self):
        """(calls, busy seconds) per name since the last take; resets both."""
        calls = {k: v[0] for k, v in self._stats.items() if v[0]}
        busy = {k: v[1] for k, v in self._stats.items() if v[0]}
        for stat in self._stats.values():
            stat[:] = [0, 0.0]
        return calls, busy

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            for name, start, end, parent, solve_id in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "solve": solve_id}))
                fh.write("\n")
