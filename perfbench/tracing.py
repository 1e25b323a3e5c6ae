"""In-memory span tracer that wraps mmner functions from the outside.

A hook replaces a function at the place its caller looks it up (a module
global or a class attribute), so the package itself stays untouched. Each
call records a span: name, start, end, parent span and sentence id. Spans
stay in memory until :meth:`Tracer.dump`. A hook point that no longer exists
is listed in ``absent`` and otherwise ignored.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from collections import Counter, defaultdict
from dataclasses import asdict, dataclass
from typing import Callable

# (hook point "module:attr.path", span name, starts a new sentence?)
HookPoint = tuple[str, str, bool]


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into Tracer.spans; -1 for a root span
    sentence: int


class Tracer:
    def __init__(self, observers: dict[str, Callable] | None = None):
        """``observers[name](tracer, args, result)`` runs after each span of
        that name closes, to count what the call did."""
        self.spans: list[Span] = []
        self.sentence = -1
        self.counts: Counter = Counter()
        self.absent: list[str] = []
        self.observers = observers or {}
        self.context: dict = {}
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent, self.sentence))
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx].end = time.perf_counter()
        self._stack.pop()

    def _wrap(self, name: str, fn, starts_sentence: bool):
        observe = self.observers.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if starts_sentence:
                self.sentence += 1
            idx = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if observe is not None:
                observe(self, args, result)
            return result

        return traced

    def install(self, hooks: list[HookPoint]) -> None:
        for point, name, starts_sentence in hooks:
            module_name, _, path = point.partition(":")
            *parents, attr = path.split(".")
            try:
                owner = importlib.import_module(module_name)
                for part in parents:
                    owner = getattr(owner, part)
                original = getattr(owner, attr)
            except (ImportError, AttributeError):
                self.absent.append(point)
                continue
            setattr(owner, attr, self._wrap(name, original, starts_sentence))
            self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def self_times(self) -> tuple[dict[str, float], Counter]:
        """Seconds of self time per span name (duration minus the part its
        child spans cover), and the number of spans per name."""
        child = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent >= 0:
                child[span.parent] += span.end - span.start
        totals: dict[str, float] = defaultdict(float)
        calls: Counter = Counter()
        for span, covered in zip(self.spans, child):
            totals[span.name] += span.end - span.start - covered
            calls[span.name] += 1
        return totals, calls

    def dump(self, path) -> None:
        doc = {"absent": self.absent, "counts": dict(self.counts),
               "spans": [asdict(s) for s in self.spans]}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
