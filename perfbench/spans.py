"""The traced run's span recorder.

Spans are recorded from outside the program: :meth:`Tracer.patch`
replaces a public function or method with a wrapper *where its callers
look it up* (a module global, or a class attribute), so the program runs
unchanged apart from the wrapper.  Patching happens before any pool
worker or server starts; forked workers inherit the wrappers, start
with an empty span list and write their spans to ``spool_dir`` when they
exit, and :meth:`Tracer.collect` folds those files back in.

Spans stay in memory until the run ends.  Each records its name, start,
end, its own id, its parent's id and the request id (the id of the
outermost span of its call tree); ids carry the pid in their high bits,
so they stay unique across processes.  ``time.perf_counter`` reads
``CLOCK_MONOTONIC`` on Linux, one clock for every process on the host.
"""

from __future__ import annotations

import functools
import gc
import importlib
import inspect
import itertools
import json
import multiprocessing.util
import os
import threading
import time
from typing import Any, Callable

from .stats import Span


class Tracer:
    def __init__(self, spool_dir: str | None = None) -> None:
        self.spool_dir = spool_dir
        self._reset()
        self._patched: list[tuple[Any, str, Any]] = []
        if spool_dir is not None:
            multiprocessing.util.register_after_fork(self, Tracer._after_fork)

    def _reset(self) -> None:
        # One plain tuple per span (one ``list.append``, atomic under the
        # GIL, so server threads can record concurrently).  Tuples of atoms
        # drop out of the cyclic GC's tracking after its first look, so
        # hundreds of thousands of them do not turn the GC into the
        # largest "layer" of the run.
        self._rows: list[tuple] = []
        self._local = threading.local()
        self._ids = itertools.count(os.getpid() << 32)
        self._extra: list[Span] = []

    @property
    def spans(self) -> list[Span]:
        """Every span recorded here or spooled in by :meth:`collect`."""
        return self._extra + [Span(*row) for row in self._rows]

    # -- recording ----------------------------------------------------------
    def _stack(self) -> list[tuple[int, int]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, fn: Callable, name: str) -> Callable:
        """``fn`` with every call recorded as a span named ``name``."""
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            span_id = next(self._ids)
            parent, rid = stack[-1] if stack else (None, span_id)
            stack.append((span_id, rid))
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                self._rows.append((name, start, end, span_id, parent, rid))

        return traced

    # -- patching -----------------------------------------------------------
    def patch(self, module: str, attr: str, name: str) -> None:
        """Wrap ``module.attr`` (``attr`` may be ``Class.method``) in place."""
        owner: Any = importlib.import_module(module)
        *path, leaf = attr.split(".")
        for part in path:
            owner = getattr(owner, part)
        raw = inspect.getattr_static(owner, leaf)
        if isinstance(raw, staticmethod):
            new: Any = staticmethod(self.wrap(raw.__func__, name))
        elif isinstance(raw, classmethod):
            new = classmethod(self.wrap(raw.__func__, name))
        else:
            new = self.wrap(raw, name)
        self._patched.append((owner, leaf, raw))
        setattr(owner, leaf, new)

    def patch_all(self, table: dict[str, list[tuple[str, str]]]) -> None:
        for name, sites in table.items():
            for module, attr in sites:
                self.patch(module, attr, name)

    def restore(self) -> None:
        for owner, leaf, raw in reversed(self._patched):
            setattr(owner, leaf, raw)
        self._patched.clear()

    # -- worker processes -----------------------------------------------------
    def _after_fork(self) -> None:
        # Runs in each forked multiprocessing child: drop the parent's
        # spans and write this process's own when it exits.
        self._reset()
        multiprocessing.util.Finalize(None, self.spool, exitpriority=10)

    def spool(self) -> None:
        if self.spool_dir is None or not self._rows:
            return
        path = os.path.join(self.spool_dir, f"spans-{os.getpid()}.json")
        dump_json(span_rows(self.spans), path)
        self._reset()

    def collect(self) -> None:
        """Fold in the spans every exited worker spooled."""
        if self.spool_dir is None:
            return
        for fname in sorted(os.listdir(self.spool_dir)):
            if fname.startswith("spans-") and fname.endswith(".json"):
                path = os.path.join(self.spool_dir, fname)
                self._extra.extend(load_spans(path))
                os.remove(path)


def dump_json(data: Any, path: str) -> None:
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(data, fh)
    os.replace(tmp, path)


def span_rows(spans: list[Span]) -> list[list]:
    return [[s.name, s.start, s.end, s.span_id, s.parent, s.rid] for s in spans]


def load_spans(path: str) -> list[Span]:
    with open(path, encoding="utf-8") as fh:
        return [Span(*row) for row in json.load(fh)]


class GcMonitor:
    """Cyclic-GC pauses of this process, through ``gc.callbacks``."""

    def __init__(self) -> None:
        #: One ``[start, end, generation]`` per collection.
        self.events: list[list[float]] = []
        self._t0 = 0.0

    def _callback(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._t0 = time.perf_counter()
        else:
            self.events.append([self._t0, time.perf_counter(), info["generation"]])

    def start(self) -> "GcMonitor":
        gc.callbacks.append(self._callback)
        return self

    def stop(self) -> None:
        if self._callback in gc.callbacks:
            gc.callbacks.remove(self._callback)


def gc_window(
    events: list[list[float]], start: float = float("-inf"), end: float = float("inf")
) -> tuple[float, int]:
    """Seconds paused and generation-2 collections begun in ``[start, end]``."""
    inside = [e for e in events if start <= e[0] <= end]
    return sum(e[1] - e[0] for e in inside), sum(1 for e in inside if e[2] == 2)
