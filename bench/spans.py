"""In-memory spans around the benchmark's own calls into each layer.

Nothing inside ``src/resposet`` is instrumented: a span covers one call
the benchmark makes into a layer's public function.  While the tracer is
disabled a call goes straight through, so untraced runs pay one
attribute test per call.
"""

import json
from contextlib import contextmanager
from time import perf_counter


class Tracer:
    def __init__(self):
        self.enabled = False
        self.op_id = None  # spans of one op share this identifier
        self.pass_index = None
        # [name, tag, op_id, pass_index, parent span index, start, end]
        self.spans = []
        self._stack = []

    @contextmanager
    def span(self, name, tag=None):
        if not self.enabled:
            yield
            return
        parent = self._stack[-1] if self._stack else None
        record = [name, tag, self.op_id, self.pass_index, parent, perf_counter(), None]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        try:
            yield
        finally:
            record[6] = perf_counter()
            self._stack.pop()

    def call(self, name, fn, *args, **kwargs):
        if not self.enabled:
            return fn(*args, **kwargs)
        with self.span(name):
            return fn(*args, **kwargs)

    def self_times(self):
        """(name, tag, pass_index, self seconds, duration seconds) per span.

        Self time is the span's duration minus the durations of its direct
        children; spans are strictly nested, so children never overlap.
        """
        child = [0.0] * len(self.spans)
        for name, tag, op_id, pass_index, parent, start, end in self.spans:
            if parent is not None:
                child[parent] += end - start
        return [
            (s[0], s[1], s[3], s[6] - s[5] - child[i], s[6] - s[5])
            for i, s in enumerate(self.spans)
        ]

    def dump(self, path):
        keys = ("name", "tag", "op", "pass", "parent", "start", "end")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump([dict(zip(keys, s)) for s in self.spans], fh)
