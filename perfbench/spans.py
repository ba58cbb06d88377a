"""In-memory span recorder and the method wrappers that feed it.

The benchmark measures layers from the outside: it wraps public methods
of the program's layer objects (selectors, executors, caches, devices,
the router and the replica groups) and records one span per call.  A
span is ``(name, start, end, parent, query id)``.  Nothing is recorded
unless ``Recorder.enabled`` is set, so a wrapped method costs one
attribute test when recording is off.

Parents follow the calling thread's own stack.  A span opened on a
worker thread with an empty stack (a scatter-pool fragment, the
gateway's engine thread) takes as parent the innermost span open on the
main thread at that moment: the benchmark serves one query at a
time, so that span is the one that caused the work.  Spans opened with
``new_query`` start a new query id unless a query span is already open
on this thread or on the main thread; nested and fragment spans
inherit the id.

Self time is a span's duration minus the part its children cover.
Where spans of several threads are open at once (fragments on scatter
threads), each instant is split evenly among the innermost open spans,
an even share of the interpreter lock.  So the self times of all spans
add up to the wall time their root spans cover (``self_times``).
"""

from __future__ import annotations

import functools
import threading
import time
from array import array
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np


class Recorder:
    """Append-only span store plus named counters."""

    def __init__(self) -> None:
        self.enabled = False
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.qid = array("q")
        self.counters: Dict[str, float] = {}
        #: Objects kept for analysis after the run (partitions).
        self.stash: List[tuple] = []
        #: (query id, shard, simulated latency, pages) per served fragment.
        self.fragments: List[tuple] = []
        #: (start, end) of each wait of the event loop for I/O or timers.
        self.idle: List[Tuple[float, float]] = []
        self.main_thread = threading.get_ident()
        self.current_qid = -1
        self._next_qid = 0
        self._main_top = -1
        self._main_queries = 0
        self._local = threading.local()
        self._lock = threading.Lock()

    # -- spans -----------------------------------------------------------------

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str, new_query: bool = False) -> int:
        """Open a span; ``new_query`` marks a query-level span."""
        local = self._local
        stack = self._stack()
        on_main = threading.get_ident() == self.main_thread
        if new_query:
            depth = getattr(local, "queries", 0)
            if depth == 0 and (on_main or self._main_queries == 0):
                self._next_qid += 1
                self.current_qid = self._next_qid
            local.queries = depth + 1
            if on_main:
                self._main_queries += 1
        parent = stack[-1] if stack else (-1 if on_main else self._main_top)
        with self._lock:
            name_id = self._name_ids.get(name)
            if name_id is None:
                name_id = self._name_ids[name] = len(self.names)
                self.names.append(name)
            index = len(self.start)
            self.name_id.append(name_id)
            self.parent.append(parent)
            self.qid.append(self.current_qid)
            self.end.append(0.0)
            self.start.append(time.perf_counter())
        stack.append(index)
        if on_main:
            self._main_top = index
        return index

    def close(self, index: int, new_query: bool = False) -> None:
        """Close the innermost open span of this thread."""
        self.end[index] = time.perf_counter()
        stack = self._stack()
        stack.pop()
        on_main = threading.get_ident() == self.main_thread
        if new_query:
            self._local.queries -= 1
            if on_main:
                self._main_queries -= 1
        if on_main:
            self._main_top = stack[-1] if stack else -1

    def count(self, name: str, value: float = 1) -> None:
        """Add ``value`` to a named counter (thread-safe)."""
        with self._lock:
            self.counters[name] = self.counters.get(name, 0) + value

    def span(self, name: str):
        """Context manager recording one span on the calling thread."""
        return _SpanContext(self, name)

    # -- analysis --------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.start)

    def arrays(self) -> Dict[str, np.ndarray]:
        """The spans as NumPy columns."""
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int64).copy(),
            "qid": np.frombuffer(self.qid, dtype=np.int64).copy(),
        }

    def self_times(self) -> Dict[str, float]:
        """Seconds of self time per span name (see the module docstring).

        A sweep over span boundaries: between two consecutive
        boundaries the elapsed time goes, in equal shares, to the open
        spans that have no open child.
        """
        cols = self.arrays()
        parent = cols["parent"].tolist()
        n = len(parent)
        times = np.concatenate([cols["start"], cols["end"]])
        # Ends sort before starts at equal times; both by span order.
        kinds = np.concatenate([np.ones(n, np.int8), np.zeros(n, np.int8)])
        spans = np.concatenate([np.arange(n), np.arange(n)])
        order = np.lexsort((spans, kinds, times))
        self_s = [0.0] * n
        open_children = [0] * n
        is_open = [False] * n
        active = set()
        previous = 0.0
        for t, kind, span in zip(times[order].tolist(),
                                 kinds[order].tolist(),
                                 spans[order].tolist()):
            if active:
                share = (t - previous) / len(active)
                for a in active:
                    self_s[a] += share
            previous = t
            p = parent[span]
            if kind:
                is_open[span] = True
                active.add(span)
                if p >= 0 and is_open[p]:
                    open_children[p] += 1
                    active.discard(p)
            else:
                is_open[span] = False
                active.discard(span)
                if p >= 0 and is_open[p]:
                    open_children[p] -= 1
                    if open_children[p] == 0:
                        active.add(p)
        totals = np.bincount(
            cols["name_id"], weights=np.array(self_s),
            minlength=len(self.names),
        )
        return {name: float(totals[i]) for i, name in enumerate(self.names)}

    def root_wall_s(self) -> float:
        """Wall seconds covered by at least one span without a parent."""
        cols = self.arrays()
        roots = cols["parent"] < 0
        covered = 0.0
        reach = float("-inf")
        for lo, hi in sorted(zip(cols["start"][roots].tolist(),
                                 cols["end"][roots].tolist())):
            if hi > reach:
                covered += hi - max(lo, reach)
                reach = hi
        return covered

    def save(self, path: Path) -> None:
        """Write every span (and the name table) to one ``.npz`` file."""
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(path, names=np.array(self.names), **self.arrays())


class _SpanContext:
    __slots__ = ("recorder", "name", "index")

    def __init__(self, recorder: Recorder, name: str) -> None:
        self.recorder = recorder
        self.name = name
        self.index = -1

    def __enter__(self) -> "_SpanContext":
        if self.recorder.enabled:
            self.index = self.recorder.open(self.name)
        return self

    def __exit__(self, *exc_info) -> None:
        if self.index >= 0:
            self.recorder.close(self.index)
            self.index = -1


Tally = Callable[[Recorder, object, tuple, object], None]


class Patcher:
    """Installs span wrappers on classes and modules; undoes them all."""

    def __init__(self, recorder: Recorder) -> None:
        self.recorder = recorder
        self._undo: List[Tuple[object, str, object, bool]] = []

    def method(
        self,
        owner,
        attr: str,
        span: Optional[str],
        tally: "Tally | None" = None,
        new_query: bool = False,
    ) -> None:
        """Wrap ``owner.attr`` (a method or module function) in a span.

        ``tally(recorder, self_or_none, args, result)`` runs after the
        span closes, so counting work never lands in a layer's time.
        With ``span`` None the call is only tallied, not timed.
        """
        original = getattr(owner, attr)
        had_own = attr in vars(owner)
        recorder = self.recorder
        is_class = isinstance(owner, type)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if not recorder.enabled:
                return original(*args, **kwargs)
            if span is None:
                result = original(*args, **kwargs)
            else:
                index = recorder.open(span, new_query)
                try:
                    result = original(*args, **kwargs)
                finally:
                    recorder.close(index, new_query)
            if tally is not None:
                if is_class:
                    tally(recorder, args[0], args[1:], result)
                else:
                    tally(recorder, None, args, result)
            return result

        setattr(owner, attr, wrapper)
        self._undo.append((owner, attr, original, had_own))

    def restore(self) -> None:
        """Put every wrapped attribute back as it was."""
        while self._undo:
            owner, attr, original, had_own = self._undo.pop()
            if had_own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)
