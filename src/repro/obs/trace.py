"""Spans: a ``contextvars``-based tracer with pluggable sinks.

A :class:`Span` is one timed region of a query's life — a session entry
point, a plan lowering, a backend statement, a retry attempt, a world
evaluation.  Spans nest through a context variable (the ambient *current
span*), so the physical execution of a query traced from
``Query.certain()`` hangs off that entry span without any layer passing
handles around.

Design constraints, in order:

* **No-op short circuit.**  Tracing defaults to *off*; the cost of the
  disabled path is one ``ContextVar.get()`` and a branch per
  instrumentation point (:func:`span` returns a shared no-op context
  manager).  This mirrors ``repro.resilience.active_budget`` — and is
  what keeps the ``--compare`` benchmark gate green with tracing compiled
  in everywhere.
* **Pluggable sinks.**  The default sink is an in-memory ring buffer
  (:class:`RingBufferSink`; bounded, thread-safe under the GIL); setting
  ``REPRO_TRACE=/path/to/file`` makes sessions default to a process-wide
  :class:`JSONLSink` writing one JSON object per span.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import threading
import time
from collections import deque
from contextvars import ContextVar
from typing import Any, Callable, Dict, List, Optional

from .metrics import MetricsRegistry, _METRICS

__all__ = [
    "JSONLSink",
    "RingBufferSink",
    "Span",
    "Tracer",
    "current_span",
    "current_tracer",
    "entry_scope",
    "entry_scopes",
    "env_tracer",
    "span",
]

#: Environment variable selecting a process-wide JSONL file sink.
TRACE_ENV_VAR = "REPRO_TRACE"

_DEFAULT_RING_SIZE = 2048


class Span:
    """One named, timed, attributed region; ``parent_id`` encodes nesting.

    ``tracer`` is the tracer whose id space ``span_id`` belongs to.
    """

    __slots__ = ("name", "attrs", "start", "duration", "span_id", "parent_id", "status", "tracer")

    def __init__(
        self,
        name: str,
        attrs: Optional[Dict[str, Any]] = None,
        span_id: int = 0,
        parent_id: Optional[int] = None,
        tracer: Optional["Tracer"] = None,
    ) -> None:
        self.name = name
        self.attrs: Dict[str, Any] = attrs if attrs is not None else {}
        self.start = 0.0          # wall-clock (time.time) start stamp
        self.duration = 0.0       # seconds (perf_counter delta)
        self.span_id = span_id
        self.parent_id = parent_id
        self.status = "ok"
        self.tracer = tracer

    def set(self, **attrs: Any) -> "Span":
        """Attach attributes mid-span (``with span(...) as sp: sp.set(rows=n)``)."""
        self.attrs.update(attrs)
        return self

    def to_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "attrs": dict(self.attrs),
            "start": self.start,
            "duration": self.duration,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "status": self.status,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Span({self.name!r}, {self.duration * 1e3:.3f}ms, "
            f"id={self.span_id}, parent={self.parent_id}, {self.status})"
        )


class RingBufferSink:
    """Keep the most recent ``maxlen`` spans in memory (the default sink).

    ``deque.append`` is atomic under the GIL, so frozen-session threads
    share one ring without locks; old spans fall off the far end.
    """

    def __init__(self, maxlen: int = _DEFAULT_RING_SIZE) -> None:
        self._ring: "deque[Span]" = deque(maxlen=maxlen)

    def emit(self, span: Span) -> None:
        self._ring.append(span)

    def spans(self) -> List[Span]:
        """The buffered spans, oldest first."""
        return list(self._ring)

    def clear(self) -> None:
        self._ring.clear()


class JSONLSink:
    """Append one JSON object per span to ``path`` (``REPRO_TRACE`` sink).

    Values that are not JSON-native are written through ``repr`` — the
    file is for humans and scripts, not for round-tripping.
    """

    def __init__(self, path: str) -> None:
        self.path = path
        self._lock = threading.Lock()
        self._file = open(path, "a", encoding="utf-8")

    def emit(self, span: Span) -> None:
        line = json.dumps(span.to_dict(), default=repr)
        with self._lock:
            self._file.write(line + "\n")
            self._file.flush()

    def close(self) -> None:
        with self._lock:
            self._file.close()


class Tracer:
    """Create, nest and emit spans into one sink."""

    def __init__(self, sink: Optional[Any] = None) -> None:
        self.sink = sink if sink is not None else RingBufferSink()
        # itertools.count.__next__ is atomic in CPython; ids are unique
        # per tracer, which is all nesting needs.
        self._ids = itertools.count(1)

    def span(self, name: str, **attrs: Any) -> "_SpanScope":
        """A context manager opening a child of the ambient current span."""
        return _SpanScope(self, name, attrs)

    def record(
        self,
        name: str,
        duration: float = 0.0,
        parent_id: Optional[int] = None,
        **attrs: Any,
    ) -> Span:
        """Emit a pre-timed span (no ``with`` block ran for it).

        Used for after-the-fact instrumentation — per-operator timings
        collected by the analyze probes, retry attempts.
        ``parent_id=None`` hangs the span off the ambient current span,
        when this tracer opened it.
        """
        if parent_id is None:
            parent_id = _parent_id(self)
        span_obj = Span(name, attrs, next(self._ids), parent_id, self)
        span_obj.start = time.time() - duration
        span_obj.duration = duration
        self.sink.emit(span_obj)
        return span_obj

    def event(self, name: str, **attrs: Any) -> Span:
        """A zero-duration marker span under the ambient current span."""
        return self.record(name, 0.0, **attrs)

    def spans(self) -> List[Span]:
        """The sink's buffered spans (ring sinks only)."""
        getter = getattr(self.sink, "spans", None)
        if getter is None:
            raise TypeError(f"{type(self.sink).__name__} does not buffer spans")
        return getter()


# ----------------------------------------------------------------------
# Ambient tracer / current span
# ----------------------------------------------------------------------
_TRACER: "ContextVar[Optional[Tracer]]" = ContextVar("repro_tracer", default=None)
_SPAN: "ContextVar[Optional[Span]]" = ContextVar("repro_span", default=None)


def current_tracer() -> Optional[Tracer]:
    """The ambient tracer of the current context, or ``None`` (tracing off)."""
    return _TRACER.get()


def current_span() -> Optional[Span]:
    """The innermost open span of the current context, if any."""
    return _SPAN.get()


def _parent_id(tracer: Tracer) -> Optional[int]:
    """The id of the ambient span, when ``tracer`` opened it.

    Span ids are per tracer: the id of a span another tracer opened may
    name an unrelated span here, even a descendant, so it is no parent.
    """
    parent = _SPAN.get()
    return parent.span_id if parent is not None and parent.tracer is tracer else None


class _SpanScope:
    """``with tracer.span(name): ...`` — times, nests, emits."""

    __slots__ = ("_tracer", "_span", "_token", "_t0")

    def __init__(self, tracer: Tracer, name: str, attrs: Dict[str, Any]) -> None:
        self._tracer = tracer
        self._span = Span(name, attrs, next(tracer._ids), _parent_id(tracer), tracer)
        self._token = None
        self._t0 = 0.0

    def __enter__(self) -> Span:
        self._span.start = time.time()
        self._token = _SPAN.set(self._span)
        self._t0 = time.perf_counter()
        return self._span

    def __exit__(self, exc_type: Any, exc: Any, tb: Any) -> bool:
        self._span.duration = time.perf_counter() - self._t0
        if exc_type is not None:
            self._span.status = exc_type.__name__
        _SPAN.reset(self._token)
        self._tracer.sink.emit(self._span)
        return False


class _NoopScope:
    """Shared, stateless stand-in for a span scope when tracing is off."""

    __slots__ = ()

    def __enter__(self) -> "_NoopSpan":
        return _NOOP_SPAN

    def __exit__(self, *exc_info: Any) -> bool:
        return False


class _NoopSpan:
    __slots__ = ()

    def set(self, **attrs: Any) -> "_NoopSpan":
        return self


_NOOP_SPAN = _NoopSpan()
_NOOP = _NoopScope()


def span(name: str, **attrs: Any) -> Any:
    """Open a span on the ambient tracer; a shared no-op when tracing is off.

    This is the one-liner deep layers use::

        with span("backend.evaluate", relation=name) as sp:
            ...
            sp.set(rows=len(result))

    Disabled cost: one ``ContextVar.get()``, one branch, one shared
    object's trivial ``__enter__``/``__exit__``.
    """
    tracer = _TRACER.get()
    if tracer is None:
        return _NOOP
    return _SpanScope(tracer, name, attrs)


# ----------------------------------------------------------------------
# Scopes arming the ambient tracer + registry
# ----------------------------------------------------------------------
class _EntryScope:
    """The session entry-point scope with tracing on: arm context, count,
    time, span.

    One of these wraps every ``Query.certain()`` / ``possible()`` /
    ``boolean()`` / ``answer_object()`` / ``cursor()`` call of a traced
    session: it arms the session's tracer (and registry, if any) as
    ambient, opens the entry span everything below nests under, and
    records what :class:`_MetricsScope` records.
    """

    __slots__ = (
        "_tracer",
        "_registry",
        "_name",
        "_m_token",
        "_t_token",
        "_s_token",
        "_span",
        "_t0",
    )

    def __init__(
        self,
        tracer: Tracer,
        registry: Optional[MetricsRegistry],
        name: str,
    ) -> None:
        self._tracer = tracer
        self._registry = registry
        self._name = name

    def __enter__(self) -> Span:
        if self._registry is not None:
            self._m_token = _METRICS.set(self._registry)
        tracer = self._tracer
        self._t_token = _TRACER.set(tracer)
        span_obj = Span(self._name, None, next(tracer._ids), _parent_id(tracer), tracer)
        span_obj.start = time.time()
        self._span = span_obj
        self._s_token = _SPAN.set(span_obj)
        self._t0 = time.perf_counter()
        return span_obj

    def __exit__(self, exc_type: Any, exc: Any, tb: Any) -> bool:
        elapsed = time.perf_counter() - self._t0
        span_obj = self._span
        span_obj.duration = elapsed
        if exc_type is not None:
            span_obj.status = exc_type.__name__
        _SPAN.reset(self._s_token)
        _TRACER.reset(self._t_token)
        self._tracer.sink.emit(span_obj)
        if self._registry is not None:
            _METRICS.reset(self._m_token)
            self._registry.count_and_observe(self._name, elapsed)
        return False


class _MetricsScope:
    """The session entry-point scope with tracing off and metrics on.

    It arms the session's registry as ambient, counts the entry
    (``query.certain``) and observes its wall time
    (``query.certain.seconds``): what :class:`_EntryScope` records,
    without its tracer branches and span slots.
    """

    __slots__ = ("_registry", "_name", "_token", "_t0")

    def __init__(self, registry: MetricsRegistry, name: str) -> None:
        self._registry = registry
        self._name = name

    def __enter__(self) -> Any:
        self._token = _METRICS.set(self._registry)
        self._t0 = time.perf_counter()
        return _NOOP_SPAN

    def __exit__(self, exc_type: Any, exc: Any, tb: Any) -> bool:
        elapsed = time.perf_counter() - self._t0
        _METRICS.reset(self._token)
        self._registry.count_and_observe(self._name, elapsed)
        return False


def _noop_scope(name: str) -> _NoopScope:
    return _NOOP


def entry_scopes(
    tracer: Optional[Tracer], registry: Optional[MetricsRegistry]
) -> Callable[[str], Any]:
    """The factory of the scopes sessions wrap their entry points in.

    Which scope fits depends only on the tracer and on whether the
    registry is enabled, both fixed for a session's life, so a session
    picks its factory once and calls it with the entry name per request.
    """
    if registry is not None and not registry.enabled:
        registry = None
    if tracer is not None:
        return functools.partial(_EntryScope, tracer, registry)
    if registry is not None:
        return functools.partial(_MetricsScope, registry)
    return _noop_scope


def entry_scope(
    tracer: Optional[Tracer], registry: Optional[MetricsRegistry], name: str
) -> Any:
    """The scope sessions wrap their entry points in; no-op when all off."""
    return entry_scopes(tracer, registry)(name)


# ----------------------------------------------------------------------
# The REPRO_TRACE process-default tracer
# ----------------------------------------------------------------------
_env_tracer: Optional[Tracer] = None
_env_tracer_path: Optional[str] = None
_env_lock = threading.Lock()


def env_tracer() -> Optional[Tracer]:
    """The process-wide JSONL tracer selected by ``REPRO_TRACE``, or ``None``.

    Sessions constructed without an explicit ``tracer=`` fall back to
    this, so exporting one environment variable turns on tracing for a
    whole process.  The tracer (and its open file) is created once per
    path and shared.
    """
    path = os.environ.get(TRACE_ENV_VAR)
    if not path:
        return None
    global _env_tracer, _env_tracer_path
    with _env_lock:
        if _env_tracer is None or _env_tracer_path != path:
            _env_tracer = Tracer(JSONLSink(path))
            _env_tracer_path = path
        return _env_tracer
