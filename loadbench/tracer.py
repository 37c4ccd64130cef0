"""Span recorder installed from outside the program.

:class:`Tracer` replaces public functions and methods of the program with
thin wrappers that record one span per call: name, start, end and the
span that was open on the same thread when the call began (its parent).
Spans live in per-thread arrays while the run goes on and are written to
one ``.npz`` file when it ends; :class:`Spans` reads that file back and
computes, per span name, the call count, total time and self time
(duration minus the part covered by direct child spans).

Nothing here edits the program: every wrapper is installed by attribute
assignment on a module or class and removed again by :meth:`uninstall`.
"""

from __future__ import annotations

import json
import threading
import time
from array import array

import numpy as np


class _Buffer:
    """Spans of one thread, in call-start order (parents before children)."""

    def __init__(self, thread: str) -> None:
        self.thread = thread
        self.name = array("l")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self.stack: list[int] = []


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self._local = threading.local()
        self._buffers: list[_Buffer] = []
        self._lock = threading.Lock()
        self._patches: list[tuple[object, str, object]] = []
        #: plain counters kept next to the spans (e.g. SSE frames sent)
        self.counters: dict[str, int] = {}

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _buffer(self) -> _Buffer:
        buf = _Buffer(threading.current_thread().name)
        with self._lock:
            self._buffers.append(buf)
        self._local.buf = buf
        return buf

    def count(self, name: str, n: int = 1) -> None:
        with self._lock:
            self.counters[name] = self.counters.get(name, 0) + n

    # ------------------------------------------------------------------
    def traced(self, fn, span: str, before=None, after=None):
        """``fn`` wrapped to record a span named ``span`` per call.

        ``before(args)`` and ``after(args, result)`` (optional) run
        outside the span, for counters derived from the arguments or the
        result.
        """
        nid = self._name_id(span)
        local = self._local
        new_buffer = self._buffer
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            if before is not None:
                before(args)
            try:
                buf = local.buf
            except AttributeError:
                buf = new_buffer()
            stack = buf.stack
            i = len(buf.start)
            buf.name.append(nid)
            buf.parent.append(stack[-1] if stack else -1)
            buf.end.append(0.0)
            stack.append(i)
            buf.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                buf.end[i] = clock()
                stack.pop()
            if after is not None:
                after(args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def patch(self, owner, attr: str, span: str, before=None, after=None) -> None:
        """Replace ``owner.attr`` (a module global or a class attribute)
        by its traced wrapper."""
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self.traced(original, span, before, after))

    def once(self, owner, attrs: tuple[str, ...], span: str) -> None:
        """Trace only the first call to any of ``owner``'s ``attrs``,
        then put every original back (for one-off lazy builds)."""
        originals = {a: owner.__dict__[a] for a in attrs}
        for attr, fn in originals.items():
            traced = self.traced(fn, span)

            def first(*args, _traced=traced, **kwargs):
                for a, orig in originals.items():
                    setattr(owner, a, orig)
                return _traced(*args, **kwargs)

            self._patches.append((owner, attr, fn))
            setattr(owner, attr, first)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # ------------------------------------------------------------------
    def dump(self, path) -> None:
        """Write every recorded span (and the counters) to ``path``."""
        bufs = list(self._buffers)
        offsets = np.cumsum([0] + [len(b.start) for b in bufs])
        parents = []
        for off, b in zip(offsets, bufs):
            p = np.frombuffer(b.parent, dtype=np.int64).copy() if len(b.parent) else np.zeros(0, np.int64)
            parents.append(np.where(p >= 0, p + off, -1))
        meta = {
            "names": self.names,
            "threads": [b.thread for b in bufs],
            "counters": self.counters,
        }

        def cat(arrays, dtype):
            arrays = [np.frombuffer(a, dtype=dtype) for a in arrays if len(a)]
            return np.concatenate(arrays) if arrays else np.zeros(0, dtype)

        np.savez(
            path,
            meta=np.array(json.dumps(meta)),
            name=cat([b.name for b in bufs], np.int64),
            parent=np.concatenate(parents) if parents else np.zeros(0, np.int64),
            start=cat([b.start for b in bufs], np.float64),
            end=cat([b.end for b in bufs], np.float64),
            thread=np.repeat(np.arange(len(bufs)), np.diff(offsets)),
        )


class Spans:
    """A dumped span file, loaded for analysis.

    :meth:`restrict` limits every query to spans that start inside a
    time window (self times are still computed from all spans).
    """

    def __init__(self, path) -> None:
        with np.load(path) as data:
            meta = json.loads(str(data["meta"]))
            self.names: list[str] = meta["names"]
            self.threads: list[str] = meta["threads"]
            self.counters: dict[str, int] = meta["counters"]
            self.name = data["name"]
            self.parent = data["parent"]
            self.start = data["start"]
            self.end = data["end"]
            self.thread = data["thread"]
        self.dur = self.end - self.start
        covered = np.zeros(len(self.dur))
        has_parent = self.parent >= 0
        np.add.at(covered, self.parent[has_parent], self.dur[has_parent])
        self.self_time = self.dur - covered
        self.keep = np.ones(len(self.dur), dtype=bool)

    def restrict(self, t0: float, t1: float) -> None:
        self.keep = (self.start >= t0) & (self.start < t1)

    def ids(self, *names: str) -> list[int]:
        return [self.names.index(n) for n in names if n in self.names]

    def mask(self, *names: str) -> np.ndarray:
        return np.isin(self.name, self.ids(*names)) & self.keep

    def calls(self, *names: str) -> int:
        return int(self.mask(*names).sum())

    def total(self, *names: str) -> float:
        return float(self.dur[self.mask(*names)].sum())

    def self_s(self, *names: str) -> float:
        return float(self.self_time[self.mask(*names)].sum())

    def thread_roots_total(self, thread: str) -> float:
        """Summed duration of the outermost spans on one thread."""
        idx = [i for i, t in enumerate(self.threads) if t == thread]
        m = np.isin(self.thread, idx) & (self.parent < 0) & self.keep
        return float(self.dur[m].sum())

    def with_child(self, parent_names: tuple[str, ...], child_names: tuple[str, ...]) -> int:
        """How many spans named ``parent_names`` have at least one
        direct child named ``child_names``."""
        child = self.mask(*child_names)
        parents = np.unique(self.parent[child & (self.parent >= 0)])
        return int(np.isin(self.name[parents], self.ids(*parent_names)).sum())

    def child_of(self, names: tuple[str, ...], parent_name: str) -> int:
        """How many spans named ``names`` were called directly from a
        span named ``parent_name``."""
        m = self.mask(*names) & (self.parent >= 0)
        return int(np.isin(self.name[self.parent[m]], self.ids(parent_name)).sum())
