"""In-memory spans recorded around the calls the benchmark makes into zerodetect.

A span is (name, start_ns, end_ns, parent index). The layer of a span is the
part of its name before the first dot (`core.substream` belongs to `core`).
Spans stay in memory until the run ends and are written out once.
"""

import json
import time
from contextlib import contextmanager, nullcontext

_now = time.perf_counter_ns


class Tracer:
    """Span recorder for one workload run; `run_id` tags every span it writes."""

    enabled = True

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        """Open a span that encloses further spans."""
        sid = len(self.spans)
        self.spans.append([name, _now(), None, self._stack[-1] if self._stack else None])
        self._stack.append(sid)
        try:
            yield sid
        finally:
            self._stack.pop()
            self.spans[sid][2] = _now()

    def call(self, name: str, fn, *args):
        """Run fn(*args) as a leaf span and return its result."""
        parent = self._stack[-1] if self._stack else None
        start = _now()
        result = fn(*args)
        self.spans.append([name, start, _now(), parent])
        return result

    def names(self) -> set[str]:
        return {s[0] for s in self.spans}

    def write(self, path) -> None:
        fields = ("name", "start_ns", "end_ns", "parent", "run_id")
        with open(path, "w", encoding="ascii") as fh:
            json.dump({"fields": fields,
                       "spans": [s + [self.run_id] for s in self.spans]}, fh)


class NullTracer:
    """Same interface as Tracer; records nothing."""

    enabled = False

    def span(self, name: str):
        return nullcontext()

    def call(self, name: str, fn, *args):
        return fn(*args)


def roots(spans, name: str) -> list[int]:
    return [i for i, s in enumerate(spans) if s[3] is None and s[0] == name]


def in_trees(spans, root_ids) -> list[bool]:
    """Whether each span lies in the subtree of one of root_ids.

    Parents are recorded before their children, so one pass in index order
    resolves every span.
    """
    inside = [False] * len(spans)
    for i in root_ids:
        inside[i] = True
    for i, s in enumerate(spans):
        if s[3] is not None and inside[s[3]]:
            inside[i] = True
    return inside


def layer_self_seconds(spans, root_ids) -> dict[str, float]:
    """Per-layer self time over the given subtrees: a span's duration minus the
    time covered by its direct children. The values sum to the roots' total."""
    inside = in_trees(spans, root_ids)
    child = [0] * len(spans)
    for s, ok in zip(spans, inside):
        if ok and s[3] is not None:
            child[s[3]] += s[2] - s[1]
    out: dict[str, float] = {}
    for i, (s, ok) in enumerate(zip(spans, inside)):
        if ok:
            layer = s[0].split(".", 1)[0]
            out[layer] = out.get(layer, 0.0) + (s[2] - s[1] - child[i]) * 1e-9
    return out


def durations_by_name(spans, mask) -> dict[str, list[float]]:
    """Span durations in seconds, grouped by name, for spans where mask is true."""
    out: dict[str, list[float]] = {}
    for s, ok in zip(spans, mask):
        if ok:
            out.setdefault(s[0], []).append((s[2] - s[1]) * 1e-9)
    return out
