"""Cross-thread trace-context propagation.

:class:`~repro.obs.trace.TraceCollector` keeps one span stack per
thread, so a span opened on a worker thread becomes an *orphan root*
even when, logically, it belongs to work started elsewhere — a window
prompted on a parallel-pipeline replica thread.

:func:`capture` snapshots the calling thread's current span; the
returned :class:`TraceContext` travels with the unit of work (a thread
argument) and :meth:`TraceContext.attach` re-establishes
the captured span as the parent on the executing thread::

    ctx = propagate.capture()            # producer thread

    def worker() -> None:                # consumer thread
        with ctx.attach():
            with obs.span("job"):        # child of the captured span
                ...

Everything degrades to a no-op when no collector is installed (or when
the collector changed between capture and attach), so propagation can
stay default-on in the pipeline hot paths.
"""

from __future__ import annotations

from typing import Callable

from repro.obs.trace import Span, TraceCollector, get_collector

__all__ = [
    "EMPTY_CONTEXT",
    "TraceContext",
    "capture",
    "wrap",
]


class TraceContext:
    """An immutable snapshot of one thread's tracing position."""

    __slots__ = ("collector", "span")

    def __init__(
        self,
        collector: TraceCollector | None,
        span: Span | None,
    ) -> None:
        self.collector = collector
        self.span = span

    @property
    def active(self) -> bool:
        """True when attaching would actually re-parent new spans."""
        return (
            self.collector is not None
            and self.span is not None
            and get_collector() is self.collector
        )

    def attach(self) -> "_Attachment":
        """Context manager parenting this thread's new spans under the
        captured span for the duration of the ``with`` block."""
        return _Attachment(self)

    def wrap(self, fn: Callable) -> Callable:
        """Bind ``fn`` so every call runs under this context."""

        def attached(*args, **kwargs):
            with self.attach():
                return fn(*args, **kwargs)

        return attached

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        name = self.span.name if self.span is not None else None
        return f"TraceContext(span={name!r}, active={self.active})"


#: shared inert context: attach() is a no-op (no collector at capture)
EMPTY_CONTEXT = TraceContext(None, None)


class _Attachment:
    """The ``with ctx.attach():`` guard; safe to enter on any thread."""

    __slots__ = ("_context", "_attached")

    def __init__(self, context: TraceContext) -> None:
        self._context = context
        self._attached = False

    def __enter__(self) -> TraceContext:
        context = self._context
        if context.active:
            context.collector.adopt_span(context.span)
            self._attached = True
        return context

    def __exit__(self, exc_type, exc, tb) -> bool:
        if self._attached:
            self._context.collector.release_span(self._context.span)
            self._attached = False
        return False


def capture() -> TraceContext:
    """Snapshot the calling thread's collector + innermost open span.

    Returns :data:`EMPTY_CONTEXT` when no collector is installed, so the
    result is always attachable without None checks.
    """
    collector = get_collector()
    if collector is None:
        return EMPTY_CONTEXT
    return TraceContext(collector, collector.current_span())


def wrap(fn: Callable) -> Callable:
    """Capture *now* and return ``fn`` bound to the captured context —
    the one-liner for handing callbacks across thread boundaries."""
    return capture().wrap(fn)
