"""Outside-in tracer: wraps ddelab functions from outside the package.

Every wrapped function gets a span: its call count, the calling thread's CPU
time net of nested spans (``self_s``), the thread CPU time including nested
spans (``cpu_s``) and, where asked for, the wall time (``wall_s``).  Spans stack per thread,
because ``cli._run_entries`` and ``characteristic_table`` run thread pools,
and CPU time comes from ``time.thread_time`` so one thread's span never
absorbs another thread's work.  Only aggregates are kept: hot leaves such as
``WeierstrassP.eval`` run 10^5 times per entry, and a record per call would
cost more than the call.

A wrapped name is replaced in every ``ddelab`` module namespace that binds
the same object (``run_cascade`` lives in both ``ddelab.cascade`` and
``ddelab.cli``), and in every class attribute that aliases it
(``MPoly.__rmul__ = __mul__``).  A target that no longer exists is recorded
in ``absent``, and a span whose hook raises (say, because the wrapped
function changed its signature) in ``broken``, instead of failing: the
program runs on, and the metrics derived from them are reported as missing.
"""

from __future__ import annotations

import functools
import importlib
import sys
import threading
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

_thread_time = time.thread_time
_perf_counter = time.perf_counter


def _no_clock() -> float:
    return 0.0


# index of each field in a span's aggregate list
CALLS, SELF_S, CPU_S, WALL_S = range(4)

# a hook sees (thread state, frame, args, kwargs) before the call and may
# return replacement args; an after-hook also sees the result
Before = Callable[["ThreadState", list, tuple, dict], Optional[tuple]]
After = Callable[["ThreadState", list, tuple, dict, Any], None]


class ThreadState:
    """Span stack and aggregates of one thread; merged when tracing ends."""

    __slots__ = ("stack", "spans", "counts", "maxima")

    def __init__(self):
        # frame: [child_cpu, name, hook data]
        self.stack: List[list] = []
        self.spans: Dict[str, List[float]] = {}
        self.counts: Dict[str, float] = {}
        self.maxima: Dict[str, float] = {}

    def count(self, name: str, n: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    def maximum(self, name: str, value: float) -> None:
        if value > self.maxima.get(name, float("-inf")):
            self.maxima[name] = value

    def innermost(self, name: str) -> Optional[list]:
        for frame in reversed(self.stack):
            if frame[1] == name:
                return frame
        return None


class Tracer:
    """Spans installed on one package's functions, aggregated per thread."""

    def __init__(self, package: str = "ddelab"):
        self.package = package
        self.absent: List[str] = []
        self.broken: set = set()
        self._tls = threading.local()
        self._states: List[ThreadState] = []
        self._lock = threading.Lock()
        self._undo: List[Tuple[Any, str, Any]] = []

    def state(self) -> ThreadState:
        try:
            return self._tls.state
        except AttributeError:
            st = ThreadState()
            self._tls.state = st
            with self._lock:
                self._states.append(st)
            return st

    # -- wrapping ------------------------------------------------------------

    def wrap(self, name: str, fn: Callable, before: Optional[Before] = None,
             after: Optional[After] = None, wall: bool = False) -> Callable:
        """Span around ``fn``; wall time is read only when ``wall`` is set."""
        state = self.state
        broken = self.broken
        clock = _perf_counter if wall else _no_clock

        @functools.wraps(fn)
        def span(*args, **kwargs):
            st = state()
            frame = [0.0, name, None]
            if before is not None:
                try:
                    replaced = before(st, frame, args, kwargs)
                except Exception:
                    broken.add(name)
                else:
                    if replaced is not None:
                        args = replaced
            stack = st.stack
            stack.append(frame)
            w0 = clock()
            c0 = _thread_time()
            try:
                result = fn(*args, **kwargs)
            finally:
                cpu = _thread_time() - c0
                elapsed = clock() - w0
                stack.pop()
                if stack:
                    stack[-1][0] += cpu
                agg = st.spans.get(name)
                if agg is None:
                    agg = st.spans[name] = [0, 0.0, 0.0, 0.0]
                agg[CALLS] += 1
                agg[SELF_S] += cpu - frame[0]
                agg[CPU_S] += cpu
                agg[WALL_S] += elapsed
            if after is not None:
                try:
                    after(st, frame, args, kwargs, result)
                except Exception:
                    broken.add(name)
            return result

        return span

    def wrap_leaf(self, name: str, fn: Callable) -> Callable:
        """Cheaper span for a hot function that calls no other wrapped one."""
        state = self.state

        @functools.wraps(fn)
        def leaf(*args, **kwargs):
            st = state()
            c0 = _thread_time()
            try:
                return fn(*args, **kwargs)
            finally:
                cpu = _thread_time() - c0
                stack = st.stack
                if stack:
                    stack[-1][0] += cpu
                agg = st.spans.get(name)
                if agg is None:
                    agg = st.spans[name] = [0, 0.0, 0.0, 0.0]
                agg[CALLS] += 1
                agg[SELF_S] += cpu
                agg[CPU_S] += cpu

        return leaf

    def install(self, name: str, target: str, before: Optional[Before] = None,
                after: Optional[After] = None, wall: bool = False,
                leaf: bool = False) -> bool:
        """Wrap ``module:attr`` or ``module:Class.method`` under span ``name``.

        ``leaf`` selects the cheaper wrapper, without hooks or wall time.
        """
        module_name, _, path = target.partition(":")
        try:
            module = importlib.import_module(module_name)
        except ImportError:
            self.absent.append(name)
            return False
        owner_name, _, attr = path.rpartition(".")
        if owner_name:
            owner = getattr(module, owner_name, None)
            raw = owner.__dict__.get(attr) if isinstance(owner, type) else None
        else:
            owner = module
            raw = getattr(module, attr, None)
        if raw is None:
            self.absent.append(name)
            return False
        fn = raw.__func__ if isinstance(raw, (staticmethod, classmethod)) else raw
        if not callable(fn):
            self.absent.append(name)
            return False
        wrapped = self.wrap_leaf(name, fn) if leaf else self.wrap(name, fn, before, after, wall)
        if fn is not raw:
            wrapped = type(raw)(wrapped)
        if owner_name:
            holders = [owner]
        else:
            prefix = self.package + "."
            holders = [
                mod for key, mod in list(sys.modules.items())
                if mod is not None and (key == self.package or key.startswith(prefix))
            ]
        for holder in holders:
            for key, value in list(vars(holder).items()):
                if value is raw:
                    self._undo.append((holder, key, value))
                    setattr(holder, key, wrapped)
        return True

    def uninstall(self) -> None:
        for holder, key, value in reversed(self._undo):
            setattr(holder, key, value)
        self._undo.clear()

    # -- results -------------------------------------------------------------

    def snapshot(self) -> dict:
        """Aggregates of every thread, merged: spans, counts and maxima."""
        with self._lock:
            states = list(self._states)
        merged = merge(
            [{"spans": st.spans, "counts": st.counts, "maxima": st.maxima,
              "absent": [], "broken": []} for st in states]
        )
        merged["absent"] = sorted(set(self.absent))
        merged["broken"] = sorted(self.broken)
        return merged


def merge(snapshots: List[dict]) -> dict:
    """Sum spans and counts, and take maxima, over threads or processes."""
    spans: Dict[str, List[float]] = {}
    counts: Dict[str, float] = {}
    maxima: Dict[str, float] = {}
    missing: set = set()
    broken: set = set()
    for snap in snapshots:
        for name, agg in snap["spans"].items():
            cur = spans.setdefault(name, [0, 0.0, 0.0, 0.0])
            for i, v in enumerate(agg):
                cur[i] += v
        for name, v in snap["counts"].items():
            counts[name] = counts.get(name, 0) + v
        for name, v in snap["maxima"].items():
            maxima[name] = max(maxima.get(name, v), v)
        missing.update(snap["absent"])
        broken.update(snap["broken"])
    return {"spans": spans, "counts": counts, "maxima": maxima,
            "absent": sorted(missing), "broken": sorted(broken)}
