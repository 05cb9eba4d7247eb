"""Span tracer that wraps the program's callables from outside.

``Tracer.install(targets)`` replaces each named attribute (a method, a
classmethod, a staticmethod or a module-level function) with a wrapper
that records one span per call; ``Tracer.restore()`` puts the original
objects back. Nothing inside ``src/`` knows about the tracer.

A span is a six-slot list ``[name, start, end, parent, op, tag]``:
``parent`` is the index of the enclosing span (``ROOT`` for none), ``op``
is the id of the workload operation in flight when the span opened, and
``tag`` is whatever the target's tagger derived from the call's result.
Spans of coroutine functions overlap each other, so they are kept out of
the nesting (``parent == DETACHED``): they have a duration but no self
time and no children. Spans stay in memory; ``dump`` writes them out.
"""

from __future__ import annotations

import importlib
import inspect
import json
from contextlib import contextmanager
from time import perf_counter
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

NAME, START, END, PARENT, OP, TAG = range(6)
ROOT = -1
DETACHED = -2

#: ``(module, owner class or None, attribute, span name, tagger or None)``.
#: A tagger is called as ``tagger(args, kwargs, result)`` after the call.
Target = Tuple[str, Optional[str], str, str, Optional[Callable]]


class Tracer:
    def __init__(self) -> None:
        self.spans: List[list] = []
        self.op = 0
        self._stack: List[int] = []
        self._saved: List[Tuple[object, str, object]] = []

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    @contextmanager
    def span(self, name: str):
        """A span around benchmark code (the round roots)."""
        record = [name, 0.0, 0.0, self._stack[-1] if self._stack else ROOT,
                  self.op, None]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        record[START] = perf_counter()
        try:
            yield record
        finally:
            record[END] = perf_counter()
            self._stack.pop()

    def _wrap(self, fn: Callable, name: str, tagger: Optional[Callable]):
        spans, stack = self.spans, self._stack

        if inspect.iscoroutinefunction(fn):
            async def traced_async(*args, **kwargs):
                self.op += 1
                record = [name, perf_counter(), 0.0, DETACHED, self.op, None]
                spans.append(record)
                try:
                    result = await fn(*args, **kwargs)
                finally:
                    record[END] = perf_counter()
                if tagger is not None:
                    record[TAG] = tagger(args, kwargs, result)
                return result

            return traced_async

        def traced(*args, **kwargs):
            record = [name, 0.0, 0.0, stack[-1] if stack else ROOT, self.op, None]
            stack.append(len(spans))
            spans.append(record)
            record[START] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[END] = perf_counter()
                stack.pop()
            if tagger is not None:
                record[TAG] = tagger(args, kwargs, result)
            return result

        return traced

    # ------------------------------------------------------------------
    # Install / restore
    # ------------------------------------------------------------------
    def install(self, targets: Iterable[Target]) -> None:
        if self._saved:
            raise RuntimeError("tracer is already installed")
        for module_name, owner_name, attr, span_name, tagger in targets:
            owner = importlib.import_module(module_name)
            if owner_name is not None:
                owner = getattr(owner, owner_name)
            raw = vars(owner)[attr]
            if isinstance(raw, (staticmethod, classmethod)):
                wrapped = type(raw)(self._wrap(raw.__func__, span_name, tagger))
            else:
                wrapped = self._wrap(raw, span_name, tagger)
            self._saved.append((owner, attr, raw))
            setattr(owner, attr, wrapped)

    def restore(self) -> None:
        while self._saved:
            owner, attr, raw = self._saved.pop()
            setattr(owner, attr, raw)

    @contextmanager
    def installed(self, targets: Iterable[Target]):
        self.install(targets)
        try:
            yield self
        finally:
            self.restore()

    def dump(self, path: str) -> None:
        """Write every span as one JSON array (tags as their ``repr``)."""
        rows = [
            span[:TAG] + [None if span[TAG] is None else repr(span[TAG])]
            for span in self.spans
        ]
        with open(path, "w") as handle:
            json.dump({"fields": ["name", "start", "end", "parent", "op", "tag"],
                       "spans": rows}, handle)


# ----------------------------------------------------------------------
# Span arithmetic
# ----------------------------------------------------------------------
def duration(span: Sequence) -> float:
    return span[END] - span[START]


def self_times(spans: Sequence[Sequence]) -> List[float]:
    """Per span: its duration minus what its direct children cover.

    Detached (coroutine) spans get 0.0: their interval overlaps other
    work, so no share of it is theirs alone.
    """
    own = [0.0 if s[PARENT] == DETACHED else duration(s) for s in spans]
    for span in spans:
        if span[PARENT] >= 0:
            own[span[PARENT]] -= duration(span)
    return own


def root_seconds(spans: Sequence[Sequence], name: str) -> float:
    return sum(duration(s) for s in spans if s[PARENT] == ROOT and s[NAME] == name)


def outermost_seconds(spans: Sequence[Sequence], names: Iterable[str]) -> float:
    """Seconds covered by spans named in ``names``, nested ones counted once.

    A layer whose callables call each other (an algorithm hook that
    delegates to another hook) would be counted twice by a plain sum.
    """
    names = frozenset(names)
    total = 0.0
    for span in spans:
        if span[NAME] not in names:
            continue
        parent = span[PARENT]
        while parent >= 0 and spans[parent][NAME] not in names:
            parent = spans[parent][PARENT]
        if parent < 0:
            total += duration(span)
    return total


def by_name(spans: Sequence[Sequence]) -> Dict[str, List[Sequence]]:
    grouped: Dict[str, List[Sequence]] = {}
    for span in spans:
        grouped.setdefault(span[NAME], []).append(span)
    return grouped
