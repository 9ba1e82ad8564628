"""In-memory spans around the library's public calls, from outside the library.

A :class:`Tracer` replaces a function where its callers look it up (a module
attribute or a class attribute) with a wrapper that records a span: name,
parent span, task id, start and end.  Counters are added at the same
boundaries.  Nothing is written until :meth:`Tracer.dump`.

A layer is the part of a span name before the first dot.  A span's self time
is its duration minus its direct children's, so a layer's self time is the
time spent in its own code, whichever layer called it.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict
from contextlib import contextmanager


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.maxima: dict[str, float] = defaultdict(float)
        self.tasks = 0
        self._stack: list[dict] = []
        self._task: int | None = None
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    @contextmanager
    def span(self, name: str, tag: str | None = None):
        rec = {
            "id": len(self.spans),
            "parent": self._stack[-1]["id"] if self._stack else None,
            "task": self._task,
            "name": name,
            "tag": tag,
            "t0": time.perf_counter(),
            "t1": None,
        }
        self.spans.append(rec)
        self._stack.append(rec)
        try:
            yield rec
        finally:
            rec["t1"] = time.perf_counter()
            self._stack.pop()

    @contextmanager
    def task(self, task_id: int):
        self._task = task_id
        self.tasks += 1
        try:
            with self.span("task"):
                yield
        finally:
            self._task = None

    def inside(self, name: str) -> bool:
        return any(s["name"] == name for s in self._stack)

    # -- patching ------------------------------------------------------------

    def wrap(self, owner, attr: str, name: str, after=None, tag=None, reentrant=True):
        """Record a span ``name`` around every call of ``owner.attr``.

        ``after(result, args)`` adds counters once the call returns; ``tag(args)``
        labels the span.  A non-reentrant span is not opened again inside
        itself (composite operators that call their parts' method).
        """
        raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        is_cm = isinstance(raw, classmethod)
        fn = raw.__func__ if is_cm else raw

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not reentrant and self.inside(name):
                return fn(*args, **kwargs)
            with self.span(name, tag(args) if tag else None):
                try:
                    result = fn(*args, **kwargs)
                except Exception:
                    self.counts[name.split(".")[0] + ".errors"] += 1
                    raise
            if after is not None:
                after(result, args)
            return result

        setattr(owner, attr, classmethod(wrapper) if is_cm else wrapper)
        self._patches.append((owner, attr, raw))

    def restore(self):
        while self._patches:
            owner, attr, raw = self._patches.pop()
            setattr(owner, attr, raw)

    # -- reading -------------------------------------------------------------

    def inclusive(self, name: str, tag: str | None = None) -> float:
        return sum(
            s["t1"] - s["t0"]
            for s in self.spans
            if s["name"] == name and (tag is None or s["tag"] == tag)
        )

    def calls(self, name: str, tag: str | None = None) -> int:
        return sum(1 for s in self.spans if s["name"] == name and (tag is None or s["tag"] == tag))

    def self_times(self) -> dict[tuple[str, str | None], float]:
        """Self time summed per (span name, tag)."""
        own = [s["t1"] - s["t0"] for s in self.spans]
        for s in self.spans:
            if s["parent"] is not None:
                own[s["parent"]] -= s["t1"] - s["t0"]
        out: dict[tuple[str, str | None], float] = defaultdict(float)
        for s, t in zip(self.spans, own):
            out[(s["name"], s["tag"])] += t
        return out

    def layer_inclusive(self) -> dict[str, float]:
        """Time inside each layer's outermost spans, its callees included."""
        out: dict[str, float] = defaultdict(float)
        for s in self.spans:
            layer = s["name"].split(".")[0]
            parent = self.spans[s["parent"]] if s["parent"] is not None else None
            if parent is None or parent["name"].split(".")[0] != layer:
                out[layer] += s["t1"] - s["t0"]
        return out

    def layer_self(self) -> dict[str, float]:
        out: dict[str, float] = defaultdict(float)
        for (name, _), t in self.self_times().items():
            out[name.split(".")[0]] += t
        return out

    def dump(self, path):
        t_ref = self.spans[0]["t0"] if self.spans else 0.0
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps({**s, "t0": s["t0"] - t_ref, "t1": s["t1"] - t_ref}) + "\n")
