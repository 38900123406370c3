"""In-memory span recorder that wraps websift's layer boundaries from outside.

A traced run replaces, in memory only, the names that websift.filtering,
websift.classifier and websift.pipeline bind to other layers' public
functions (plus os.fsync and two methods). Each call then records one span:
(id, name, start, end, parent, thread, thread CPU seconds, observed count).
A generator records one span per item it yields. Spans stay in a list until
the run ends and are written out then. Nothing under src/ changes.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from collections import defaultdict
from contextlib import contextmanager

# span tuple fields
ID, NAME, START, END, PARENT, THREAD, CPU, COUNT = range(8)


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.root_cpu: dict[int, float] = {}   # root span id -> process CPU seconds
        self.active = True
        self._tls = threading.local()
        self._ids = itertools.count(1)
        self._root = None        # parent of spans opened in threads with an empty stack
        self._patches: list[tuple] = []

    def _stack(self) -> list:
        stack = getattr(self._tls, "stack", None)
        if stack is None:
            stack = self._tls.stack = []
        return stack

    def _begin(self) -> tuple:
        stack = self._stack()
        parent = stack[-1] if stack else self._root
        sid = next(self._ids)
        stack.append(sid)
        return sid, parent, time.perf_counter(), time.thread_time()

    def _end(self, name: str, opened: tuple, count=0) -> None:
        cpu = time.thread_time()
        end = time.perf_counter()
        sid, parent, start, cpu0 = opened
        self._stack().pop()
        self.spans.append(
            (sid, name, start, end, parent, threading.get_ident(), cpu - cpu0, count)
        )

    def wrap(self, name: str, fn, observe=None):
        """observe(args, result) -> number stored as the span's count."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            opened = tracer._begin()
            count = 0
            try:
                out = fn(*args, **kwargs)
                if observe is not None:
                    count = observe(args, out)
            finally:
                tracer._end(name, opened, count)
            return out

        return traced

    def wrap_gen(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            it = fn(*args, **kwargs)
            try:
                while True:
                    if not tracer.active:
                        yield from it
                        return
                    opened = tracer._begin()
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        tracer._end(name, opened, 1)
                    yield item
            finally:
                it.close()

        return traced

    def patch(self, owner, attr: str, name: str, observe=None, gen: bool = False) -> None:
        original = getattr(owner, attr)
        self._patches.append((owner, attr, original))
        wrapped = self.wrap_gen(name, original) if gen else self.wrap(name, original, observe)
        setattr(owner, attr, wrapped)

    def unpatch(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()
        self.active = False

    @contextmanager
    def root(self, name: str):
        """A top-level span; spans opened in other threads meanwhile hang off it."""
        opened = self._begin()
        cpu0 = time.process_time()
        previous, self._root = self._root, opened[0]
        try:
            yield opened[0]
        finally:
            self._root = previous
            self.root_cpu[opened[0]] = time.process_time() - cpu0
            self._end(name, opened)

    def dump(self, path: str) -> None:
        fields = ("id", "name", "start", "end", "parent", "thread", "cpu_s", "count")
        with open(path, "w", encoding="utf-8") as f:
            for s in self.spans:
                f.write(json.dumps(dict(zip(fields, s))) + "\n")


class SpanIndex:
    """Aggregates over a finished span list."""

    def __init__(self, spans: list[tuple]):
        self.spans = spans
        self.by_name: dict[str, list[tuple]] = defaultdict(list)
        self.by_id = {}
        self.child_wall: dict[int, float] = defaultdict(float)
        self.child_cpu: dict[int, float] = defaultdict(float)
        self.children: dict[int, list[tuple]] = defaultdict(list)
        thread_of = {s[ID]: s[THREAD] for s in spans}
        for s in spans:
            self.by_name[s[NAME]].append(s)
            self.by_id[s[ID]] = s
            self.children[s[PARENT]].append(s)
            # self time only subtracts children that ran on the same thread
            if thread_of.get(s[PARENT]) == s[THREAD]:
                self.child_wall[s[PARENT]] += s[END] - s[START]
                self.child_cpu[s[PARENT]] += s[CPU]

    def calls(self, name: str) -> int:
        return len(self.by_name.get(name, ()))

    def wall(self, name: str) -> float:
        return sum(s[END] - s[START] for s in self.by_name.get(name, ()))

    def cpu(self, name: str) -> float:
        return sum(s[CPU] for s in self.by_name.get(name, ()))

    def count(self, name: str) -> float:
        return sum(s[COUNT] for s in self.by_name.get(name, ()))

    def self_cpu(self, name: str) -> float:
        return sum(s[CPU] - self.child_cpu[s[ID]] for s in self.by_name.get(name, ()))

    def self_wall(self, name: str) -> float:
        return sum(s[END] - s[START] - self.child_wall[s[ID]] for s in self.by_name.get(name, ()))

    def within(self, root: tuple, name: str) -> list[tuple]:
        """Spans of one name nested anywhere under root, across threads."""
        out = []
        for s in self.by_name.get(name, ()):
            p = s[PARENT]
            while p is not None and p != root[ID]:
                p = self.by_id[p][PARENT] if p in self.by_id else None
            if p == root[ID]:
                out.append(s)
        return out
