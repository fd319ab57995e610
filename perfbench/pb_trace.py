"""In-memory spans for the benchmark's traced run.

The traced run attributes time to the repo's layers without changing
anything under ``src/``: :class:`Patches` swaps a public entry point for
a wrapper *where its callers look it up* (a module attribute or a class
attribute) and restores the original on exit.  Each wrapper records one
:class:`Span` (name, start, end, parent) per call into a
:class:`SpanRecorder`, which keeps every span in memory until the run
ends and :meth:`SpanRecorder.dump` writes them out.

A span's *self time* is its duration minus the part of that interval
its child spans cover (:func:`self_times`); :func:`aggregate` sums
calls, inclusive and self time per span name.
"""

from __future__ import annotations

import json
import threading
import time
from collections import defaultdict
from dataclasses import asdict, dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

__all__ = [
    "Patches",
    "Span",
    "SpanRecorder",
    "aggregate",
    "argument",
    "constant",
    "covered_length",
    "self_times",
]


@dataclass
class Span:
    """One timed call: ``parent`` indexes the enclosing span, ``-1`` for none."""

    name: str
    start: float
    end: float
    parent: int
    thread: int


class SpanRecorder:
    """Thread-safe span store; parents follow each thread's call stack."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.spans: List[Span] = []
        self._clock = clock
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> int:
        """Start a span under the current thread's innermost open span."""
        stack = self._stack()
        parent = stack[-1] if stack else -1
        span = Span(name, self._clock(), float("nan"), parent, threading.get_ident())
        with self._lock:
            index = len(self.spans)
            self.spans.append(span)
        stack.append(index)
        return index

    def close(self, index: int) -> None:
        stack = self._stack()
        if not stack or stack[-1] != index:
            raise RuntimeError(f"span {index} closed out of order (open: {stack})")
        stack.pop()
        self.spans[index].end = self._clock()

    def add(self, name: str, start: float, end: float) -> None:
        """Record an already-timed top-level span (e.g. one client request)."""
        with self._lock:
            self.spans.append(Span(name, start, end, -1, threading.get_ident()))

    def wrap(self, function: Callable, name: Callable[..., str]) -> Callable:
        """``function`` timed as one span per call, named ``name(*args, **kwargs)``."""
        recorder = self

        def traced(*args, **kwargs):
            index = recorder.open(name(*args, **kwargs))
            try:
                return function(*args, **kwargs)
            finally:
                recorder.close(index)

        traced.__wrapped__ = function
        return traced

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump([asdict(span) for span in self.spans], handle)


def covered_length(intervals: Sequence[Tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    reach = lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans: Sequence[Span]) -> List[float]:
    """Each span's duration minus the time its direct children cover."""
    children: Dict[int, List[Tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span.parent >= 0:
            children[span.parent].append((span.start, span.end))
    return [
        (span.end - span.start) - covered_length(children[index], span.start, span.end)
        for index, span in enumerate(spans)
    ]


def aggregate(spans: Sequence[Span]) -> Dict[str, Dict[str, float]]:
    """Per span name: ``calls``, ``self_s`` and ``incl_s``.

    ``incl_s`` counts a span only when no ancestor carries the same
    name, so a recursive or re-entrant entry point is not counted twice.
    """
    own = self_times(spans)
    totals: Dict[str, Dict[str, float]] = defaultdict(
        lambda: {"calls": 0, "self_s": 0.0, "incl_s": 0.0}
    )
    for index, span in enumerate(spans):
        entry = totals[span.name]
        entry["calls"] += 1
        entry["self_s"] += own[index]
        ancestor = span.parent
        while ancestor >= 0 and spans[ancestor].name != span.name:
            ancestor = spans[ancestor].parent
        if ancestor < 0:
            entry["incl_s"] += span.end - span.start
    return dict(totals)


class Patches:
    """Swap attributes for the duration of a ``with`` block, restoring all.

    ``owner`` is a module or a class.  For a class the raw ``__dict__``
    entry is saved, so the restored attribute is the very object that
    was there before.
    """

    def __init__(self) -> None:
        self._saved: List[Tuple[object, str, object]] = []

    def replace(self, owner: object, attr: str, make: Callable[[Callable], Callable]) -> None:
        if isinstance(owner, type):
            if attr not in owner.__dict__:
                raise AttributeError(f"{owner.__name__} does not define {attr!r} itself")
            original = owner.__dict__[attr]
        else:
            original = getattr(owner, attr)
        self._saved.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Patches":
        return self

    def __exit__(self, *exc_info) -> None:
        self.restore()


def constant(name: str) -> Callable[..., str]:
    """A span-name function that ignores the call's arguments."""
    return lambda *args, **kwargs: name


def argument(prefix: str, position: int, keyword: str, default: str) -> Callable[..., str]:
    """Span names ``prefix.<argument>`` taken from one call argument."""

    def name(*args, **kwargs) -> str:
        value: Optional[object] = kwargs.get(keyword)
        if value is None:
            value = args[position] if len(args) > position else default
        return f"{prefix}.{value}"

    return name
