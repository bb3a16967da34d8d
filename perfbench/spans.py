"""Wall-clock span recorder for the traced benchmark run.

Spans are recorded by the benchmark around its calls into the program's
public functions: a span has a name, a start and an end
(``time.perf_counter_ns``), the span that was open when it started (its
parent) and the request it belongs to.  They are kept in memory in flat
arrays and written out once, at the end of the run.

A layer's *busy* time is the sum of its spans' durations; its *self* time
is busy time minus the part covered by its child spans.  Children of one
span never overlap: every traced call runs on one thread at a time (the
serving runtime admits one session thread at a time), so the covered part
is the sum of the children's durations.
"""

from __future__ import annotations

import threading
from array import array
from contextlib import contextmanager
from time import perf_counter_ns

import numpy as np

__all__ = ["SpanRecorder", "Patches"]


class SpanRecorder:
    """Collects spans from any thread; parents are tracked per thread."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self._name = array("i")
        self._start = array("q")
        self._end = array("q")
        self._parent = array("i")
        self._request = array("i")
        self._local = threading.local()
        #: parent of spans opened on a thread with no open span of its own
        #: (the serving runtime's session threads run inside the run span)
        self.root = -1
        #: the request that spans opened now belong to (-1: none)
        self.request_id = -1

    def __len__(self) -> int:
        return len(self._name)

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, nid: int) -> int:
        stack = self._stack()
        idx = len(self._name)
        self._name.append(nid)
        self._parent.append(stack[-1] if stack else self.root)
        self._request.append(self.request_id)
        self._end.append(0)
        stack.append(idx)
        self._start.append(perf_counter_ns())
        return idx

    def close(self, idx: int) -> None:
        self._end[idx] = perf_counter_ns()
        self._stack().pop()

    @contextmanager
    def span(self, name: str):
        idx = self.open(self.name_id(name))
        try:
            yield idx
        finally:
            self.close(idx)

    def wrap(self, name: str, fn, request_of=None):
        """``fn`` recorded as span ``name``; ``request_of(*args)`` may name
        the request the call starts (returning ``None`` keeps the current
        one)."""
        nid = self.name_id(name)

        def traced(*args, **kwargs):
            if request_of is not None:
                rid = request_of(*args)
                if rid is not None:
                    self.request_id = rid
            idx = self.open(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(idx)

        return traced

    def layer_totals(self) -> dict[str, dict[str, float]]:
        """Per span name: ``calls``, ``busy_ms`` and ``self_ms``."""
        n = len(self._name)
        if n == 0:
            return {}
        name = np.frombuffer(self._name, dtype=np.int32)
        parent = np.frombuffer(self._parent, dtype=np.int32)
        dur = (
            np.frombuffer(self._end, dtype=np.int64)
            - np.frombuffer(self._start, dtype=np.int64)
        ).astype(np.float64)
        has_parent = parent >= 0
        covered = np.bincount(
            parent[has_parent], weights=dur[has_parent], minlength=n
        )
        self_ns = dur - covered
        k = len(self.names)
        calls = np.bincount(name, minlength=k)
        busy = np.bincount(name, weights=dur, minlength=k)
        own = np.bincount(name, weights=self_ns, minlength=k)
        return {
            self.names[i]: {
                "calls": float(calls[i]),
                "busy_ms": float(busy[i]) / 1e6,
                "self_ms": float(own[i]) / 1e6,
            }
            for i in range(k)
        }

    def write(self, path) -> None:
        """All spans as one ``.npz``: per-span ``name`` (index into
        ``names``), ``start_ns``, ``end_ns``, ``parent`` (-1: none) and
        ``request`` (-1: none)."""
        np.savez(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self._name, dtype=np.int32),
            start_ns=np.frombuffer(self._start, dtype=np.int64),
            end_ns=np.frombuffer(self._end, dtype=np.int64),
            parent=np.frombuffer(self._parent, dtype=np.int32),
            request=np.frombuffer(self._request, dtype=np.int32),
        )


class Patches:
    """Instance- and module-attribute replacements, undone by :meth:`undo`.

    Setting a function on an *instance* shadows the class method for that
    object only, so tracing one round's objects never leaks into another
    round.  A missing owner or attribute is skipped: the layer then
    reports zero.
    """

    def __init__(self) -> None:
        self._undo: list[tuple[object, str, object, bool]] = []

    def replace(self, owner, attr: str, make) -> None:
        """Set ``owner.attr`` to ``make(current value)``."""
        if owner is None or not hasattr(owner, attr):
            return
        had_own = attr in getattr(owner, "__dict__", {})
        original = getattr(owner, attr)
        setattr(owner, attr, make(original))
        self._undo.append((owner, attr, original, had_own))

    def undo(self) -> None:
        while self._undo:
            owner, attr, original, had_own = self._undo.pop()
            if had_own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)
