"""Spans around calls into the program, recorded from outside it.

A :class:`Tracer` replaces a function object with a timing wrapper in
every ``wmatch.*`` module namespace that binds it (modules import by
name, so one function can be bound in several), and restores the
originals afterwards.  Each call records a span: its label, the job
it ran in, its parent span, and four clock readings::

    enter <= start <= end <= exit

``start``/``end`` bracket the wrapped call itself; ``enter``/``exit``
also cover the wrapper's own bookkeeping.  A span's self time is
``end - start`` minus the union of its children's ``[enter, exit]``
intervals, so wrapper cost is charged to no layer and shows up as the
residual instead.

Spans stay in memory, one array per field (a verify pass makes over a
million), and are written out once at the end.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import json
import sys
from array import array
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Callable, Optional


def union_length(intervals, lo: float = float("-inf"), hi: float = float("inf")) -> float:
    """Total length covered by the intervals, clipped to [lo, hi];
    overlapping intervals count once."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


class SpanLog:
    """Columnar span storage.  Span i has label ``names[label[i]]``,
    job ``job[i]``, parent ``parent[i]`` (-1 at top level) and clock
    readings ``times[4*i : 4*i + 4]`` = enter, start, end, exit."""

    def __init__(self):
        self.names: list[str] = []
        self.label = array("H")
        self.job = array("q")
        self.parent = array("q")
        self.times = array("d")
        self.infos: dict[str, list] = defaultdict(list)  # label -> recorded extras

    def __len__(self) -> int:
        return len(self.label)

    def code(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def add(self, name: str, job: int, parent: int, enter: float, start: float,
            end: float, exit: float) -> int:
        """Append one finished span; returns its index."""
        self.label.append(self.code(name))
        self.job.append(job)
        self.parent.append(parent)
        self.times.extend((enter, start, end, exit))
        return len(self.label) - 1

    def write(self, path: Path) -> None:
        """gzip file: one JSON header line, then the raw arrays in the
        order the header lists them (native byte order)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        columns = ("label", "job", "parent", "times")
        header = {
            "names": self.names,
            "spans": len(self),
            "columns": [[c, getattr(self, c).typecode] for c in columns],
            "byteorder": sys.byteorder,
        }
        with gzip.open(path, "wb", compresslevel=1) as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for c in columns:
                fh.write(getattr(self, c).tobytes())

    @classmethod
    def read(cls, path: Path) -> "SpanLog":
        """Load a file written by :meth:`write` (extras are not kept)."""
        log = cls()
        with gzip.open(path, "rb") as fh:
            header = json.loads(fh.readline())
            log.names = header["names"]
            for name, typecode in header["columns"]:
                column = array(typecode)
                count = header["spans"] * (4 if name == "times" else 1)
                column.frombytes(fh.read(count * column.itemsize))
                setattr(log, name, column)
        return log


class Tracer:
    """Wraps program functions and records a span per call in
    :attr:`log`, tagged with :attr:`job`, the job in progress."""

    def __init__(self):
        self.log = SpanLog()
        self.job = -1
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def _wrapper(self, label: str, fn: Callable, info: Optional[Callable]) -> Callable:
        log, stack, tracer = self.log, self._stack, self
        code = log.code(label)
        labels, jobs, parents, times = log.label, log.job, log.parent, log.times
        infos = log.infos[label]

        def open_span() -> int:
            idx = len(labels)
            labels.append(code)
            jobs.append(tracer.job)
            parents.append(stack[-1] if stack else -1)
            stack.append(idx)
            return idx

        def close_span(idx: int, enter: float, start: float, end: float) -> None:
            stack.pop()
            base = 4 * idx
            times[base], times[base + 1], times[base + 2] = enter, start, end
            times[base + 3] = perf_counter()

        if inspect.isgeneratorfunction(fn):
            # A generator's work runs on each resumption, not on the
            # call: time every resumption as its own span.
            @functools.wraps(fn)
            def traced_gen(*args, **kwargs):
                it = fn(*args, **kwargs)
                while True:
                    enter = perf_counter()
                    times.extend((enter, enter, enter, enter))
                    idx = open_span()
                    start = perf_counter()
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        close_span(idx, enter, start, perf_counter())
                    yield item

            return traced_gen

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            enter = perf_counter()
            times.extend((enter, enter, enter, enter))
            idx = open_span()
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                close_span(idx, enter, start, perf_counter())
                raise
            end = perf_counter()
            if info is not None:
                infos.append(info(args, result))
            close_span(idx, enter, start, end)
            return result

        return traced

    def wrap(self, label: str, target: str, info: Optional[Callable] = None) -> bool:
        """Wrap ``module:function`` or ``module:Class.method``.

        Every binding of the function object across the loaded
        ``wmatch`` modules is replaced; a method is replaced on its
        class.  ``info(args, result)``, if given, is recorded per call
        under the label.  Returns False, changing nothing, when the
        target does not exist on this version of the program.
        """
        modname, _, attr = target.partition(":")
        module = sys.modules.get(modname)
        if module is None:
            return False
        if "." in attr:
            clsname, _, meth = attr.partition(".")
            cls = getattr(module, clsname, None)
            fn = getattr(cls, "__dict__", {}).get(meth)
            if not callable(fn):
                return False
            self._restore.append((cls, meth, fn))
            setattr(cls, meth, self._wrapper(label, fn, info))
            return True
        fn = getattr(module, attr, None)
        if not callable(fn):
            return False
        wrapper = self._wrapper(label, fn, info)
        for name, mod in list(sys.modules.items()):
            if mod is None or not (name == "wmatch" or name.startswith("wmatch.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is fn:
                    self._restore.append((mod, key, fn))
                    setattr(mod, key, wrapper)
        return True

    def unwrap_all(self) -> None:
        """Put every original function back."""
        for owner, name, fn in reversed(self._restore):
            setattr(owner, name, fn)
        self._restore.clear()


@dataclass
class LabelStats:
    """Totals over every span with one label."""

    calls: int = 0
    inclusive_s: float = 0.0
    self_s: float = 0.0
    infos: list = field(default_factory=list)
    children: dict = field(default_factory=lambda: defaultdict(int))  # child label -> count
    by_job: dict = field(default_factory=lambda: defaultdict(int))  # job -> calls


@dataclass
class Aggregate:
    labels: dict  # label -> LabelStats
    top_level_s: dict  # job -> union of its top-level spans' [enter, exit]


def aggregate(log: SpanLog) -> Aggregate:
    """Per-label call counts, inclusive and self time, direct-child
    counts, and per-job coverage by top-level spans.

    Spans must be in the order they were opened, as a recorded log
    always is: then a span's descendants directly follow it, and its
    children arrive in order of their enter time, so the union of the
    children's intervals can be merged as they come.  Memory stays
    proportional to the call depth, not to the number of spans.
    """
    times, parents, labels, jobs = log.times, log.parent, log.label, log.job
    stats = [LabelStats() for _ in log.names]
    merged: dict[int, list] = {}  # open span -> [covered so far, run lo, run hi]
    top = defaultdict(list)
    stack: list[int] = []

    def close(idx: int) -> None:
        start, end = times[4 * idx + 1], times[4 * idx + 2]
        covered, lo, hi = merged.pop(idx, (0.0, 0.0, 0.0))
        st = stats[labels[idx]]
        st.inclusive_s += end - start
        st.self_s += end - start - covered - (hi - lo)

    for idx, parent in enumerate(parents):
        while stack and stack[-1] != parent:
            close(stack.pop())
        enter, exit = times[4 * idx], times[4 * idx + 3]
        if parent < 0:
            top[jobs[idx]].append((enter, exit))
        else:
            lo = max(enter, times[4 * parent + 1])
            hi = min(exit, times[4 * parent + 2])
            if hi > lo:
                run = merged.setdefault(parent, [0.0, lo, lo])
                if lo > run[2]:
                    run[0] += run[2] - run[1]
                    run[1] = lo
                run[2] = max(run[2], hi)
            stats[labels[parent]].children[log.names[labels[idx]]] += 1
        st = stats[labels[idx]]
        st.calls += 1
        st.by_job[jobs[idx]] += 1
        stack.append(idx)
    while stack:
        close(stack.pop())
    for name, st in zip(log.names, stats):
        st.infos = log.infos.get(name, [])
    return Aggregate(
        dict(zip(log.names, stats)),
        {job: union_length(intervals) for job, intervals in top.items()},
    )
