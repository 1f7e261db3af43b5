"""The layer table and the span recorder behind the traced run.

The traced run wraps the public names listed in :data:`LAYERS` with a
:class:`SpanRecorder`.  Each wrapped call becomes a span (name, start,
end, parent, round); spans nest on a per-thread stack, and a span's
*self time* is its duration minus the time its direct children cover.
Summing self time per layer attributes every traced second to exactly
one layer.

The library's own ``repro.obs.Tracer`` stays off: turning it on switches
plan execution to probed operators, which would measure a different
program.  A name that no longer resolves (after a refactor) is reported
as missing instead of failing the benchmark.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import threading
import time
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

#: layer -> the dotted public names whose calls are attributed to it.
#: Module functions are wrapped where callers look them up, so
#: ``repro.engine.planner.optimize`` is the planner's binding of
#: ``repro.engine.logical.optimize``.
LAYERS: Dict[str, Tuple[str, ...]] = {
    "session": tuple(
        f"repro.session.Query.{mode}"
        for mode in ("certain", "possible", "answer_object", "boolean", "confidence", "cursor")
    ),
    "algebra.parse": ("repro.algebra.parse_ra",),
    "engine.compile": ("repro.engine.planner.optimize",),
    "engine.lower": ("repro.engine.planner.lower",),
    "engine.execute": ("repro.engine.planner.PlanCache.execute",),
    "ctable.execute": ("repro.session.Session.evaluate_ctable",),
    "prob.confidence": ("repro.prob.confidence.confidence",),
    "backend.evaluate": ("repro.backends.sqlite.SQLiteBackend.evaluate",),
    "backend.refill": (
        "repro.backends.sqlite.SQLiteBackend.replace_database",
        "repro.backends.sqlite.SQLiteBackend.load_database",
    ),
    "datamodel.add_facts": ("repro.datamodel.database.Database.add_facts",),
    "semantics.enumerate": ("repro.core.answers.enumerate_certain_answers",),
    "semantics.world_build": ("repro.datamodel.valuation.Valuation.apply",),
}

#: Layers whose spans the benchmark records around its own code.
BENCH_LAYERS = ("backend.cursor",)


class Span:
    """One recorded call; ``self_seconds`` excludes direct children."""

    __slots__ = ("span_id", "parent_id", "layer", "name", "start", "end", "round", "thread", "child_seconds")

    def __init__(self, span_id: int, parent_id: Optional[int], layer: str, name: str,
                 start: float, round_id: int, thread: int) -> None:
        self.span_id = span_id
        self.parent_id = parent_id
        self.layer = layer
        self.name = name
        self.start = start
        self.end = start
        self.round = round_id
        self.thread = thread
        self.child_seconds = 0.0

    @property
    def seconds(self) -> float:
        return self.end - self.start

    @property
    def self_seconds(self) -> float:
        return self.seconds - self.child_seconds

    def as_dict(self) -> Dict[str, Any]:
        return {
            "id": self.span_id,
            "parent": self.parent_id,
            "layer": self.layer,
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "round": self.round,
            "thread": self.thread,
        }


class SpanRecorder:
    """Collects spans in memory; one nesting stack per thread.

    ``round`` is read when a span opens, so the harness tags every span
    with the round that caused it by assigning it between rounds.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.spans: List[Span] = []
        self.round = 0
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, layer: str, name: str) -> Span:
        stack = self._stack()
        parent = stack[-1].span_id if stack else None
        span = Span(next(self._ids), parent, layer, name, self.clock(), self.round,
                    threading.get_ident())
        stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = self.clock()
        stack = self._stack()
        stack.pop()
        if stack:
            stack[-1].child_seconds += span.seconds
        self.spans.append(span)

    def span(self, layer: str, name: Optional[str] = None) -> "_SpanScope":
        """A context manager recording one span of ``layer``."""
        return _SpanScope(self, layer, name or layer)

    def reset(self) -> None:
        self.spans = []

    def write_jsonl(self, path: str, rounds: int) -> None:
        """Write the spans of the first ``rounds`` rounds, one JSON object a line."""
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                if span.round < rounds:
                    handle.write(json.dumps(span.as_dict()) + "\n")


class _SpanScope:
    __slots__ = ("recorder", "layer", "name", "span")

    def __init__(self, recorder: SpanRecorder, layer: str, name: str) -> None:
        self.recorder = recorder
        self.layer = layer
        self.name = name

    def __enter__(self) -> Span:
        self.span = self.recorder.open(self.layer, self.name)
        return self.span

    def __exit__(self, *exc_info: Any) -> None:
        self.recorder.close(self.span)


class _NoSpan:
    """The untraced stand-in for :meth:`SpanRecorder.span`."""

    def __enter__(self) -> None:
        return None

    def __exit__(self, *exc_info: Any) -> None:
        return None


_NO_SPAN = _NoSpan()


def no_span(layer: str, name: Optional[str] = None) -> _NoSpan:
    return _NO_SPAN


def _resolve(dotted: str) -> Tuple[Any, str]:
    """``(owner, attribute)`` for a dotted module/class/function name."""
    parts = dotted.split(".")
    for cut in range(len(parts) - 1, 0, -1):
        try:
            owner: Any = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        try:
            for part in parts[cut:-1]:
                owner = getattr(owner, part)
            getattr(owner, parts[-1])
        except AttributeError:
            continue
        return owner, parts[-1]
    raise LookupError(dotted)


def _wrapper(recorder: SpanRecorder, layer: str, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
    @functools.wraps(fn)
    def traced(*args: Any, **kwargs: Any) -> Any:
        span = recorder.open(layer, name)
        try:
            return fn(*args, **kwargs)
        finally:
            recorder.close(span)

    return traced


def install(recorder: SpanRecorder, table: Dict[str, Iterable[str]] = LAYERS) -> Tuple[Callable[[], None], List[str]]:
    """Wrap every resolvable name of ``table``; return ``(restore, missing)``."""
    patched: List[Tuple[Any, str, Any, bool]] = []
    missing: List[str] = []
    for layer, names in table.items():
        for dotted in names:
            try:
                owner, attr = _resolve(dotted)
            except LookupError:
                missing.append(dotted)
                continue
            own = attr in vars(owner)
            original = vars(owner)[attr] if own else getattr(owner, attr)
            setattr(owner, attr, _wrapper(recorder, layer, dotted, getattr(owner, attr)))
            patched.append((owner, attr, original, own))

    def restore() -> None:
        for owner, attr, original, own in reversed(patched):
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    return restore, missing


def fold(spans: Iterable[Span]) -> Dict[str, Dict[str, float]]:
    """Per layer: the summed self seconds and the number of calls."""
    table: Dict[str, Dict[str, float]] = {}
    for span in spans:
        row = table.setdefault(span.layer, {"self_seconds": 0.0, "calls": 0})
        row["self_seconds"] += span.self_seconds
        row["calls"] += 1
    return table
