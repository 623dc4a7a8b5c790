"""Structured tracing: span trees across threads, processes and the pool.

One gateway request becomes one **trace**: a tree of :class:`Span` records
linked by ``trace_id`` / ``parent_id``, covering gateway admission, the
prep executor, the supervised-pool worker (in another thread *or* process),
the pipeline passes, sharded maps with their per-slice mapper runs and
store accesses.

The propagation primitive is :class:`TraceContext` — a tiny frozen
(picklable) pair of ids.  :class:`~repro.resilience.SupervisedPool` carries
it on the task wire format; the worker :func:`activate`\\ s it, runs the
task under a span, and ships the finished spans back with the result, where
the supervisor :func:`ingest`\\ s them into the process-global
:class:`Tracer`.  Lifecycle events the worker cannot report itself (crash,
deadline kill, retry) are recorded supervisor-side as **instant** spans
under the same context, so a chaotic task still yields a complete tree.

Recording is gated on an *active context* held in a :mod:`contextvars`
variable: without one, :func:`span` returns a shared no-op handle, so the
instrumented hot paths (pipeline passes, store get/put, mapper runs) cost
a single context-variable load when nothing is being traced.  Timestamps
are ``time.monotonic`` — on Linux a system-wide clock, so spans from forked
pool workers land on the same timeline as the gateway's.

:func:`chrome_trace_events` renders any span list as Chrome trace-event
JSON (the ``{"traceEvents": [...]}`` shape Perfetto and ``chrome://tracing``
load directly); the gateway's ``trace: true`` request flag and
``perf_report.py --trace`` both export through it.
"""

from __future__ import annotations

import os
import threading
import time
import uuid
from collections import OrderedDict, deque
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

__all__ = [
    "TraceContext",
    "Span",
    "Tracer",
    "TRACER",
    "start_trace",
    "span",
    "activate",
    "current_context",
    "record_instant",
    "chrome_trace_events",
    "span_tree",
]


def _new_id() -> str:
    return uuid.uuid4().hex[:16]


@dataclass(frozen=True)
class TraceContext:
    """Propagation handle: which trace, and which span to parent under.

    Frozen and field-picklable, so it crosses process boundaries on the
    supervised pool's task queue unchanged.
    """

    trace_id: str
    span_id: str

    def child(self) -> "TraceContext":
        return TraceContext(self.trace_id, _new_id())


@dataclass
class Span:
    """One finished (or instant) operation on a trace's timeline."""

    trace_id: str
    span_id: str
    parent_id: Optional[str]
    name: str
    start_s: float
    end_s: float = 0.0
    attrs: Dict[str, object] = field(default_factory=dict)
    status: str = "ok"
    #: "span" (has duration) or "instant" (a point event, e.g. pool.crash).
    kind: str = "span"
    pid: int = 0
    tid: int = 0

    @property
    def duration_s(self) -> float:
        return max(0.0, self.end_s - self.start_s)


class _SpanHandle:
    """Context-manager handle of an in-flight span (returned by :func:`span`)."""

    __slots__ = ("_span", "_sink", "_token")

    def __init__(self, span_record: Span, sink: List[Span]) -> None:
        self._span = span_record
        self._sink = sink
        self._token = None

    @property
    def context(self) -> TraceContext:
        return TraceContext(self._span.trace_id, self._span.span_id)

    def set(self, **attrs) -> None:
        self._span.attrs.update(attrs)

    def __enter__(self) -> "_SpanHandle":
        self._token = _ACTIVE.set((self.context, self._sink))
        return self

    def __exit__(self, exc_type, exc, _tb) -> None:
        if self._token is not None:
            _ACTIVE.reset(self._token)
            self._token = None
        self._span.end_s = time.monotonic()
        if exc_type is not None:
            self._span.status = "error"
            self._span.attrs.setdefault("error", exc_type.__name__)
        self._sink.append(self._span)


class _NullSpan:
    """Shared no-op handle used whenever no trace is active."""

    __slots__ = ()

    def set(self, **attrs) -> None:
        pass

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc_info) -> None:
        pass


_NULL_SPAN = _NullSpan()

#: (active context, sink list) of the current trace, or None.  asyncio
#: tasks copy the context at creation, so concurrent requests are isolated;
#: executor threads do NOT inherit it — worker-side code re-activates
#: explicitly (see :func:`activate`).
_ACTIVE: "ContextVar[Optional[Tuple[TraceContext, List[Span]]]]" = \
    ContextVar("repro_active_trace", default=None)


def current_context() -> Optional[TraceContext]:
    """The active :class:`TraceContext`, or ``None`` when not tracing."""
    active = _ACTIVE.get()
    return None if active is None else active[0]


def span(name: str, **attrs) -> "_SpanHandle | _NullSpan":
    """A child span under the active context; a shared no-op without one."""
    active = _ACTIVE.get()
    if active is None:
        return _NULL_SPAN
    parent, sink = active
    record = Span(
        trace_id=parent.trace_id, span_id=_new_id(),
        parent_id=parent.span_id, name=name,
        start_s=time.monotonic(), attrs=dict(attrs),
        pid=os.getpid(), tid=threading.get_ident())
    return _SpanHandle(record, sink)


class _TraceHandle:
    """Root handle yielded by :func:`start_trace`."""

    __slots__ = ("root", "spans", "_token")

    def __init__(self, root: Span, spans: List[Span]) -> None:
        self.root = root
        self.spans = spans
        self._token = None

    @property
    def context(self) -> TraceContext:
        return TraceContext(self.root.trace_id, self.root.span_id)

    @property
    def trace_id(self) -> str:
        return self.root.trace_id

    def set(self, **attrs) -> None:
        self.root.attrs.update(attrs)


@contextmanager
def start_trace(name: str, **attrs):
    """Open a new root span and activate its context for the ``with`` body.

    Spans opened inside the body (same thread/task, or explicitly
    re-activated elsewhere) accumulate on ``handle.spans``; the root span
    is closed and appended on exit, so afterwards ``handle.spans`` is the
    complete locally-recorded trace.  Spans recorded remotely (pool
    workers) are ingested into :data:`TRACER` by the supervisor — drain
    them by ``handle.trace_id`` and concatenate.
    """
    sink: List[Span] = []
    root = Span(
        trace_id=_new_id(), span_id=_new_id(), parent_id=None, name=name,
        start_s=time.monotonic(), attrs=dict(attrs),
        pid=os.getpid(), tid=threading.get_ident())
    handle = _TraceHandle(root, sink)
    token = _ACTIVE.set((handle.context, sink))
    try:
        yield handle
    except BaseException:
        root.status = "error"
        raise
    finally:
        _ACTIVE.reset(token)
        root.end_s = time.monotonic()
        sink.append(root)


@contextmanager
def activate(ctx: Optional[TraceContext], sink: Optional[List[Span]] = None):
    """Adopt a propagated context (worker threads/processes, executors).

    Yields the sink list; spans finished inside the body append to it as
    they close, so the caller can ship whatever was captured even when the
    body raises.  ``ctx=None`` is a no-op (yields an unused list), letting
    call sites stay unconditional.
    """
    captured: List[Span] = [] if sink is None else sink
    if ctx is None:
        yield captured
        return
    token = _ACTIVE.set((ctx, captured))
    try:
        yield captured
    finally:
        _ACTIVE.reset(token)


def record_instant(ctx: Optional[TraceContext], name: str, **attrs) -> None:
    """Record a point event under ``ctx`` directly into :data:`TRACER`.

    The supervisor uses this for lifecycle events whose task cannot report
    them itself: a crashed worker's ``pool.crash``, a ``pool.deadline_kill``,
    a ``pool.retry`` re-dispatch.  No-op without a context.
    """
    if ctx is None:
        return
    now = time.monotonic()
    TRACER.ingest([Span(
        trace_id=ctx.trace_id, span_id=_new_id(), parent_id=ctx.span_id,
        name=name, start_s=now, end_s=now, attrs=dict(attrs),
        kind="instant", pid=os.getpid(), tid=threading.get_ident())])


class Tracer:
    """Bounded process-global store of ingested spans, keyed by trace id.

    Holds spans that arrive *outside* their trace's local sink — worker
    spans shipped back through the pool, supervisor instant events — until
    the trace owner drains them.  Bounded both in traces and spans per
    trace; overflow is counted, never raised, because telemetry must not
    take the serving path down.
    """

    def __init__(self, max_traces: int = 256,
                 max_spans_per_trace: int = 4096) -> None:
        self.max_traces = max_traces
        self.max_spans_per_trace = max_spans_per_trace
        self.dropped = 0
        self._lock = threading.Lock()
        self._traces: "OrderedDict[str, List[Span]]" = OrderedDict()

    def ingest(self, spans: Iterable[Span]) -> None:
        with self._lock:
            for record in spans:
                bucket = self._traces.get(record.trace_id)
                if bucket is None:
                    while len(self._traces) >= self.max_traces:
                        _, evicted = self._traces.popitem(last=False)
                        self.dropped += len(evicted)
                    bucket = []
                    self._traces[record.trace_id] = bucket
                if len(bucket) >= self.max_spans_per_trace:
                    self.dropped += 1
                    continue
                bucket.append(record)

    def drain(self, trace_id: str) -> List[Span]:
        """Remove and return every ingested span of ``trace_id``."""
        with self._lock:
            return self._traces.pop(trace_id, [])

    def peek(self, trace_id: str) -> List[Span]:
        with self._lock:
            return list(self._traces.get(trace_id, []))


#: Process-global tracer the supervised pool and gateway share.
TRACER = Tracer()


# ----------------------------------------------------------------------
# Export + analysis helpers
# ----------------------------------------------------------------------
def chrome_trace_events(spans: Iterable[Span]) -> Dict[str, object]:
    """Render spans as Chrome trace-event JSON (Perfetto-loadable).

    Complete spans become ``ph: "X"`` duration events, instants become
    ``ph: "i"`` point events; timestamps are microseconds relative to the
    earliest span so the file opens at t=0 regardless of process uptime.
    """
    records = list(spans)
    if not records:
        return {"traceEvents": [], "displayTimeUnit": "ms"}
    base = min(record.start_s for record in records)
    events: List[Dict[str, object]] = []
    for record in sorted(records, key=lambda entry: entry.start_s):
        args: Dict[str, object] = {
            "trace_id": record.trace_id,
            "span_id": record.span_id,
            "parent_id": record.parent_id,
            "status": record.status,
        }
        args.update(record.attrs)
        event: Dict[str, object] = {
            "name": record.name,
            "ts": round((record.start_s - base) * 1e6, 3),
            "pid": record.pid,
            "tid": record.tid,
            "cat": "repro",
            "args": args,
        }
        if record.kind == "instant":
            event["ph"] = "i"
            event["s"] = "t"
        else:
            event["ph"] = "X"
            event["dur"] = round(record.duration_s * 1e6, 3)
        events.append(event)
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def span_tree(spans: Iterable[Span]) -> Dict[Optional[str], List[Span]]:
    """Children-by-parent-id index (test/analysis helper).

    ``tree[None]`` holds the roots; a well-formed single-request trace has
    exactly one root and every other span's ``parent_id`` resolves to a
    span in the same trace (parent ids are kept verbatim, so an orphaned
    span shows up as a key that is not any span's id — tests assert there
    are none).
    """
    tree: Dict[Optional[str], List[Span]] = {}
    for record in spans:
        tree.setdefault(record.parent_id, []).append(record)
    return tree
