"""In-memory span recorder for the traced run.

Spans are recorded by the benchmark around its calls into each layer
(the program itself is not instrumented).  Each span holds its name,
start, end, parent span and op id; spans nest op -> layer call.  The
untraced run uses :data:`OFF`, whose ``span`` is a shared no-op context,
so tracing costs nothing there.
"""

from __future__ import annotations

import json
import threading
import time
from collections import defaultdict
from contextlib import contextmanager, nullcontext

_NULL = nullcontext()


class Span:
    __slots__ = ("sid", "name", "start", "end", "parent", "op", "tid")

    def __init__(self, sid, name, start, parent, op, tid):
        self.sid = sid
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.op = op
        self.tid = tid

    @property
    def dur(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans in memory; one parent stack per thread."""

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self.spans: list[Span] = []
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list:
        st = getattr(self._local, "stack", None)
        if st is None:
            st = self._local.stack = []
        return st

    def span(self, name: str, op=None, parent: Span | None = None):
        """Context manager timing one call; a no-op when disabled.

        The parent is the innermost open span of the calling thread, or
        ``parent`` when the thread has none (a PE thread whose op runs
        inside a ``session.run`` span opened by the main thread).
        """
        if not self.enabled:
            return _NULL
        return self._span(name, op, parent)

    @contextmanager
    def _span(self, name: str, op, parent):
        stack = self._stack()
        if stack:
            parent = stack[-1]
        if op is None and parent is not None:
            op = parent.op
        with self._lock:
            sp = Span(len(self.spans), name, time.perf_counter(),
                      parent.sid if parent is not None else None, op,
                      threading.get_ident())
            self.spans.append(sp)
        stack.append(sp)
        try:
            yield sp
        finally:
            sp.end = time.perf_counter()
            stack.pop()

    def add(self, name: str, start: float, end: float, op=None,
            parent: Span | None = None) -> Span:
        """Record a span whose interval was measured elsewhere."""
        with self._lock:
            sp = Span(len(self.spans), name, start,
                      parent.sid if parent is not None else None, op,
                      threading.get_ident())
            sp.end = end
            self.spans.append(sp)
        return sp

    # -- analysis ---------------------------------------------------------------

    def children(self) -> dict:
        kids = defaultdict(list)
        for sp in self.spans:
            if sp.parent is not None:
                kids[sp.parent].append(sp)
        return kids

    def self_times(self) -> dict[int, float]:
        """Per-span self time: duration minus the part its children cover."""
        kids = self.children()
        out = {}
        for sp in self.spans:
            covered = _union_length(
                [(max(c.start, sp.start), min(c.end, sp.end))
                 for c in kids.get(sp.sid, ())])
            out[sp.sid] = max(sp.dur - covered, 0.0)
        return out

    def layer_self_s(self) -> dict[str, float]:
        """Total self time per span name, in seconds."""
        st = self.self_times()
        out: dict[str, float] = defaultdict(float)
        for sp in self.spans:
            out[sp.name] += st[sp.sid]
        return dict(out)

    def events(self, pid: int, t0: float) -> list[dict]:
        """The spans as Chrome-trace complete events on process ``pid``."""
        tids: dict[int, int] = {}
        out = []
        for sp in self.spans:
            out.append({
                "name": sp.name, "ph": "X", "pid": pid,
                "tid": tids.setdefault(sp.tid, len(tids)),
                "ts": (sp.start - t0) * 1e6, "dur": sp.dur * 1e6,
                "args": {"id": sp.sid, "parent": sp.parent, "op": sp.op},
            })
        return out


def write_chrome(path: str, tracers: dict[str, Tracer]) -> None:
    """One Chrome trace (chrome://tracing, Perfetto) holding every
    tracer's spans, one trace process per tracer name."""
    starts = [sp.start for tr in tracers.values() for sp in tr.spans]
    t0 = min(starts, default=0.0)
    events = []
    for pid, (name, tr) in enumerate(tracers.items()):
        events.append({"name": "process_name", "ph": "M", "pid": pid,
                       "args": {"name": name}})
        events.extend(tr.events(pid, t0))
    with open(path, "w") as fh:
        json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, fh)


OFF = Tracer(enabled=False)


def _union_length(intervals) -> float:
    total = 0.0
    end = float("-inf")
    for a, b in sorted(intervals):
        if b <= a:
            continue
        if a >= end:
            total += b - a
            end = b
        elif b > end:
            total += b - end
            end = b
    return total
