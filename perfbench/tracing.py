"""In-memory span tracer for the benchmark's traced passes.

The tracer wraps public library functions at the name their callers look up
(a module global), so a call made through that name records a span: name,
start, end, parent span and item id.  A few very hot functions are only
counted, because a span per call would dominate their cost.  Spans stay in
memory until the pass ends; self time is a span's duration minus the
durations of its direct children (calls are strictly nested in one thread).
"""
from __future__ import annotations

import functools
import json


class Tracer:
    def __init__(self, clock):
        self.clock = clock            # start and end of every span are read from it
        self.item = "setup"
        self.spans: list = []        # (name, start, end, parent, item) once closed
        self.child_time: list = []   # per span: summed duration of its children
        self.counts: dict[str, list[int]] = {}
        self.keys: dict[str, set] = {}
        self._stack: list[int] = []
        self._undo: list = []

    # -- installation ------------------------------------------------------

    def _patch(self, owner, attr, wrapper):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def span(self, owners, attr, name, key=None):
        """Record a span for every call of ``owner.attr`` for each owner.

        ``name`` is a string or a function of the call arguments (so one
        function can report as several spans, e.g. by mode).  ``key`` maps
        (args, result) to a hashable value whose distinct count is kept.
        """
        fn = getattr(owners[0], attr)
        spans, child_time, stack, clock = self.spans, self.child_time, self._stack, self.clock
        seen = self.keys.setdefault(name if isinstance(name, str) else attr, set())
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(spans)
            parent = stack[-1] if stack else None
            spans.append(None)
            child_time.append(0.0)
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                label = name if isinstance(name, str) else name(*args, **kwargs)
                spans[sid] = (label, start, end, parent, tracer.item)
                if parent is not None:
                    child_time[parent] += end - start
            if key is not None:
                seen.add(key(args, result))
            return result

        for owner in owners:
            self._patch(owner, attr, wrapper)

    def count(self, owner, attr, name):
        """Count calls of ``owner.attr`` without recording spans."""
        fn = getattr(owner, attr)
        cell = self.counts.setdefault(name, [0])

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            cell[0] += 1
            return fn(*args, **kwargs)

        self._patch(owner, attr, wrapper)

    def uninstall(self):
        while self._undo:
            owner, attr, fn = self._undo.pop()
            setattr(owner, attr, fn)

    def reset_counts(self):
        for cell in self.counts.values():
            cell[0] = 0

    # -- results -----------------------------------------------------------

    def summary(self) -> dict:
        """Per span name: calls and self seconds, split into set-up and items."""
        out: dict[str, dict] = {}
        for sid, (label, start, end, _parent, item) in enumerate(self.spans):
            row = out.setdefault(label, {"calls": 0, "self_s": 0.0,
                                         "setup_calls": 0, "setup_self_s": 0.0})
            prefix = "setup_" if item == "setup" else ""
            row[prefix + "calls"] += 1
            row[prefix + "self_s"] += (end - start) - self.child_time[sid]
        return out

    def write_spans(self, path):
        with open(path, "w") as fh:
            for sid, (label, start, end, parent, item) in enumerate(self.spans):
                fh.write(json.dumps([sid, label, start, end, parent, item]) + "\n")
