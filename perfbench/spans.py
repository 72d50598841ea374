"""In-memory span recording for the traced server run.

The server child wraps the public functions of each layer (see
``server._layer_spans``) with :meth:`SpanRecorder.wrap`; nothing under
``src/`` changes. Every call becomes one span: name, start and end
(``perf_counter_ns``, which on Linux is CLOCK_MONOTONIC and so shares a
time base with the load generator), the id of the thread it ran on, the
index of the enclosing span on the same thread (its parent), and the
wire correlation id where the call carries one.

Each thread appends to its own compact ``array`` buffers, so recording
takes no lock. The buffers are written out once, at the end of the run,
as one ``.npz`` file the load generator analyses.
"""

from __future__ import annotations

import functools
import threading
import time
from array import array

import numpy as np

#: Spans kept per thread; calls past this are still made, not recorded.
MAX_SPANS_PER_THREAD = 1_500_000


class _ThreadBuffer:
    __slots__ = ("start", "end", "name", "parent", "corr", "stack", "corr_now")

    def __init__(self):
        self.start = array("q")
        self.end = array("q")
        self.name = array("i")
        self.parent = array("q")
        self.corr = array("q")
        self.stack: list[int] = []
        #: Correlation id of the frame this thread is handling (-1: none).
        self.corr_now = -1


class SpanRecorder:
    """Collects spans from every thread of the process."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self._local = threading.local()
        self._buffers: dict[int, _ThreadBuffer] = {}
        self._lock = threading.Lock()
        self.dropped = 0
        #: Plain call counters (for calls too cheap to span).
        self.counts: dict[str, int] = {}

    def _buffer(self) -> _ThreadBuffer:
        buf = getattr(self._local, "buf", None)
        if buf is None:
            buf = _ThreadBuffer()
            self._local.buf = buf
            with self._lock:
                self._buffers[threading.get_ident()] = buf
        return buf

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def wrap(self, owner, attr: str, name: str, corr_arg: int | None = None,
             on_call=None, sets_corr: bool = False) -> None:
        """Replace ``owner.attr`` with a recording wrapper.

        ``corr_arg`` is the positional index of a correlation-id
        argument. ``sets_corr`` marks a call whose result is a decoded
        frame ``(opcode, corr_id, payload)``: later spans on the same
        thread carry that id until the next frame. ``on_call(args)``
        runs per call for counters that need the arguments.
        """
        original = getattr(owner, attr)
        name_id = self._name_id(name)
        buffer_of = self._buffer
        clock = time.perf_counter_ns

        @functools.wraps(original)
        def traced(*args, **kwargs):
            buf = buffer_of()
            index = len(buf.start)
            if index >= MAX_SPANS_PER_THREAD:
                self.dropped += 1
                return original(*args, **kwargs)
            if on_call is not None:
                on_call(args)
            if corr_arg is not None and len(args) > corr_arg:
                corr = int(args[corr_arg])
            else:
                corr = buf.corr_now
            buf.parent.append(buf.stack[-1] if buf.stack else -1)
            buf.name.append(name_id)
            buf.corr.append(corr)
            buf.end.append(0)
            buf.stack.append(index)
            buf.start.append(clock())
            try:
                result = original(*args, **kwargs)
            finally:
                buf.end[index] = clock()
                buf.stack.pop()
            if sets_corr and result is not None:
                buf.corr_now = int(result[1])
            return result

        setattr(owner, attr, traced)

    def count(self, owner, attr: str, name: str) -> None:
        """Replace ``owner.attr`` with a wrapper that only counts calls."""
        original = getattr(owner, attr)
        counts = self.counts
        counts[name] = 0

        @functools.wraps(original)
        def counted(*args, **kwargs):
            counts[name] += 1
            return original(*args, **kwargs)

        setattr(owner, attr, counted)

    def total_seconds(self, name: str) -> float:
        """Summed duration of every span named ``name`` recorded so far."""
        if name not in self._name_ids:
            return 0.0
        name_id = self._name_ids[name]
        with self._lock:
            buffers = list(self._buffers.values())
        total = 0
        for buf in buffers:
            n = len(buf.start)
            mask = np.frombuffer(buf.name[:n], dtype=np.int32) == name_id
            start = np.frombuffer(buf.start[:n], dtype=np.int64)[mask]
            end = np.frombuffer(buf.end[:n], dtype=np.int64)[mask]
            total += int((end - start).sum())
        return total / 1e9

    def save(self, path) -> int:
        """Write every recorded span to ``path`` (``.npz``); returns the
        span count. Parent indices are rebased to the merged arrays."""
        with self._lock:
            items = list(self._buffers.items())
        parts = {key: [] for key in ("start", "end", "name", "parent", "corr",
                                     "thread")}
        offset = 0
        for thread_index, (_ident, buf) in enumerate(items):
            # Slicing copies without exporting the live buffer, so a
            # straggling append on another thread cannot fail.
            n = len(buf.start)
            parent = np.frombuffer(buf.parent[:n], dtype=np.int64).copy()
            parent[parent >= 0] += offset
            parts["start"].append(np.frombuffer(buf.start[:n], dtype=np.int64))
            parts["end"].append(np.frombuffer(buf.end[:n], dtype=np.int64))
            parts["name"].append(np.frombuffer(buf.name[:n], dtype=np.int32))
            parts["parent"].append(parent)
            parts["corr"].append(np.frombuffer(buf.corr[:n], dtype=np.int64))
            parts["thread"].append(np.full(n, thread_index, dtype=np.int32))
            offset += n
        arrays = {
            key: (np.concatenate(chunks) if chunks else np.empty(0, np.int64))
            for key, chunks in parts.items()
        }
        np.savez(path, names=np.array(self.names), **arrays)
        return offset
