"""In-memory span recorder and the wrappers that feed it.

The traced run installs :func:`install` wrappers around public functions
of the ``repro`` layers.  Every wrapped call becomes a :class:`Span`
(name, start, end, parent) on a per-thread stack; nothing is written
until the run ends.  A span's *self time* is its duration minus the time
its nested wrapped calls cover, so per-layer self times add up to the
traced wall time without double counting.
"""

from __future__ import annotations

import functools
import importlib
import sys
import threading
import time
from collections import defaultdict
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass
from typing import Callable, Iterator, Optional


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: Optional[int]       # index into Tracer.spans, same thread only
    thread: int

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans and counts; thread-safe, one stack per thread."""

    def __init__(self, clock: Callable[[], float] = time.monotonic) -> None:
        self.clock = clock
        self.spans: list[Span] = []
        self.counts: dict[str, float] = defaultdict(float)
        #: (span index, graph fingerprint, query text) per Cypher execution
        self.queries: list[tuple[int, object, str]] = []
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str) -> Iterator[int]:
        stack = self._stack()
        record = Span(
            name, self.clock(), 0.0, stack[-1] if stack else None,
            threading.get_ident(),
        )
        with self._lock:
            index = len(self.spans)
            self.spans.append(record)
        stack.append(index)
        try:
            yield index
        finally:
            stack.pop()
            record.end = self.clock()

    def count(self, name: str, amount: float = 1) -> None:
        with self._lock:
            self.counts[name] += amount

    def wrap(self, fn: Callable, name: str,
             observe: Optional[Callable] = None) -> Callable:
        """``fn`` recorded as span ``name``; ``observe(tracer, span_index,
        args, result)`` runs after the span closes, outside its time."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name) as index:
                result = fn(*args, **kwargs)
            if observe is not None:
                observe(self, index, args, result)
            return result

        return wrapper

    def wrap_context(self, fn: Callable, name: str) -> Callable:
        """Wrap a context-manager factory: entering and exiting are
        recorded as two ``name`` spans, the ``with`` body is not."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return _TimedContext(self, name, fn(*args, **kwargs))

        return wrapper

    # ------------------------------------------------------------------
    def self_times(self) -> dict[str, float]:
        return self_times(self.spans)

    def totals(self) -> dict[str, tuple[int, float]]:
        """name -> (calls, inclusive seconds)."""
        out: dict[str, list] = defaultdict(lambda: [0, 0.0])
        for record in self.spans:
            out[record.name][0] += 1
            out[record.name][1] += record.duration
        return {name: (calls, secs) for name, (calls, secs) in out.items()}


def span_or_nothing(tracer: Optional[Tracer], name: str):
    """``tracer.span(name)``, or a no-op context when not tracing."""
    return nullcontext() if tracer is None else tracer.span(name)


class _TimedContext:
    def __init__(self, tracer: Tracer, name: str, inner) -> None:
        self.tracer, self.name, self.inner = tracer, name, inner

    def __enter__(self):
        with self.tracer.span(self.name):
            return self.inner.__enter__()

    def __exit__(self, *exc):
        with self.tracer.span(self.name):
            return self.inner.__exit__(*exc)


def self_times(spans: list[Span]) -> dict[str, float]:
    """Per-name sum of (duration - time covered by direct children).

    Children of one span run on its thread, one after another, so the
    time they cover is the sum of their durations.
    """
    covered = [0.0] * len(spans)
    for record in spans:
        if record.parent is not None:
            covered[record.parent] += record.duration
    out: dict[str, float] = defaultdict(float)
    for index, record in enumerate(spans):
        out[record.name] += record.duration - covered[index]
    return dict(out)


def union_length(intervals: list[tuple[float, float]]) -> float:
    """Total length covered by possibly overlapping intervals."""
    total = 0.0
    current_start = current_end = None
    for start, end in sorted(intervals):
        if current_end is None or start > current_end:
            if current_end is not None:
                total += current_end - current_start
            current_start, current_end = start, end
        else:
            current_end = max(current_end, end)
    if current_end is not None:
        total += current_end - current_start
    return total


# ----------------------------------------------------------------------
# installing wrappers
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Target:
    """One public callable to wrap.

    ``owner`` is ``"module"`` or ``"module:Class"``.  A module-level
    function is rebound in every loaded ``repro`` module that imported
    it by name, or only in ``sites`` when given.
    """

    name: str
    owner: str
    attr: str
    observe: Optional[Callable] = None
    sites: tuple[str, ...] = ()
    context: bool = False


def install(tracer: Tracer, targets: list[Target]) -> Callable[[], None]:
    """Install every target's wrapper; returns the uninstall callable."""
    undo: list[tuple[object, str, object]] = []

    def rebind(owner: object, attr: str, value: object) -> None:
        undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    for target in targets:
        module_name, _, class_name = target.owner.partition(":")
        module = importlib.import_module(module_name)
        owner = getattr(module, class_name) if class_name else module
        raw = owner.__dict__[target.attr]
        if target.context:
            wrapped = tracer.wrap_context(raw, target.name)
        else:
            wrapped = tracer.wrap(raw, target.name, target.observe)
        if class_name:
            rebind(owner, target.attr, wrapped)
            continue
        if target.sites:
            sites = [importlib.import_module(name) for name in target.sites]
        else:
            sites = [owner] + [
                mod for name, mod in list(sys.modules.items())
                if name.startswith("repro.") and mod is not owner
            ]
        for site in sites:
            for attr, value in list(vars(site).items()):
                if value is raw:
                    rebind(site, attr, wrapped)

    def uninstall() -> None:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)

    return uninstall
