"""Fault injection: deterministic failures for the chaos suite.

The robustness layer (budgets, retries, recovery, crash-consistent
refills) is only trustworthy if its failure paths are *exercised*, and
real infrastructure fails rarely and nondeterministically.  This module
makes failure a scheduled, repeatable event:

* :class:`FaultSchedule` decides *which call fails*: per operation name
  ("evaluate", "fetch", "load_rows", ...) it holds either a set of
  1-based call indexes or a predicate over the call index.  Index-based
  faults are naturally *transient* — the retried call has a higher index
  and succeeds — so one schedule tests both the retry path (fail call 1)
  and the give-up path (fail calls 1..4).

* :class:`FaultInjectingBackend` wraps any :class:`~.base.Backend` and
  consults the schedule before delegating.  A cursor stream
  (``execute_batches``, and the ``execute_cursor`` row view over it)
  fires ``"execute_cursor"`` when it starts and a ``"fetch"`` fault per
  batch yielded, which is how the mid-iteration teardown path is tested.

* :class:`FaultInjectingCodec` wraps a value codec and fails the Nth
  ``encode_row`` call — the only way to die *inside* a version switch,
  since ``replace_database`` drives the row iteration itself.

Deterministic *clocks* live in :mod:`repro.resilience`
(:class:`~repro.resilience.ManualClock`); together the two modules make
"the backend dies on the third fetch while the deadline expires" an
ordinary unit test.
"""

from __future__ import annotations

import sqlite3
from collections import Counter
from typing import Any, Callable, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple, Union

from ..algebra.ast import RAExpression
from ..datamodel import Database, Relation
from ..datamodel.schema import DatabaseSchema
from .base import Backend

__all__ = [
    "FaultInjectingBackend",
    "FaultInjectingCodec",
    "FaultSchedule",
    "inject_faults",
]

#: A fault spec: 1-based call indexes that fail, or a predicate over them.
FaultSpec = Union[Iterable[int], Callable[[int], bool]]


def _default_error(op: str) -> BaseException:
    # The transient flavor: retryable per resilience.is_transient_error,
    # so schedules exercise the retry machinery unless told otherwise.
    return sqlite3.OperationalError("database is locked")


class FaultSchedule:
    """Decides which calls of which operations fail, and with what error.

    Parameters
    ----------
    plan:
        Mapping from operation name to a :data:`FaultSpec`.  Operation
        names are the :class:`FaultInjectingBackend` method names plus
        ``"fetch"`` (one count per batch pulled from a cursor stream).
    error:
        How to build the injected exception: an exception class
        (instantiated with a descriptive message), or a callable taking
        the operation name and returning an exception instance.  Defaults
        to the transient ``sqlite3.OperationalError("database is locked")``.

    The schedule also keeps counters: ``calls[op]`` is how many times the
    operation ran, ``injected[op]`` how many faults actually fired —
    tests assert on both.
    """

    def __init__(
        self,
        plan: Optional[Mapping[str, FaultSpec]] = None,
        *,
        error: Union[type, Callable[[str], BaseException], None] = None,
    ) -> None:
        self._plan: dict = {}
        for op, spec in (plan or {}).items():
            self._plan[op] = spec if callable(spec) else frozenset(spec)
        if error is None:
            self._error: Callable[[str], BaseException] = _default_error
        elif isinstance(error, type):
            self._error = lambda op: error(f"injected fault in {op}")
        else:
            self._error = error
        self.calls: Counter = Counter()
        self.injected: Counter = Counter()

    def record(self, op: str) -> bool:
        """Count one call of ``op``; return whether it should fail."""
        self.calls[op] += 1
        spec = self._plan.get(op)
        if spec is None:
            return False
        index = self.calls[op]
        hit = spec(index) if callable(spec) else index in spec
        if hit:
            self.injected[op] += 1
        return hit

    def fire(self, op: str) -> None:
        """Count one call of ``op`` and raise if the schedule says so."""
        if self.record(op):
            raise self._error(op)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        ops = ", ".join(sorted(self._plan)) or "<empty>"
        return f"FaultSchedule({ops}; {sum(self.injected.values())} fired)"


class FaultInjectingBackend(Backend):
    """A :class:`Backend` proxy that fails on schedule, else delegates.

    Everything not intercepted here — ``connection``, ``codec``, the
    private bookkeeping the SQLite engine peeks at — falls through to the
    wrapped backend via ``__getattr__``, so the proxy is drop-in wherever
    a real backend is expected.
    """

    def __init__(self, inner: Backend, schedule: FaultSchedule) -> None:
        self.inner = inner
        self.schedule = schedule

    # -- lifecycle ------------------------------------------------------
    def close(self) -> None:
        self.schedule.fire("close")
        self.inner.close()

    def interrupt(self) -> None:
        # The cancel path must stay usable while everything else burns, so
        # "interrupt" faults are counted but exercised like any other op:
        # a scheduled fault simulates e.g. a driver whose interrupt throws.
        self.schedule.fire("interrupt")
        self.inner.interrupt()

    # -- DDL / load / extract ------------------------------------------
    def create_schema(self, schema: DatabaseSchema) -> None:
        self.schedule.fire("create_schema")
        self.inner.create_schema(schema)

    def load_database(self, database: Database) -> None:
        self.schedule.fire("load_database")
        self.inner.load_database(database)

    def load_rows(self, name: str, rows: Iterable[Sequence[Any]]) -> int:
        self.schedule.fire("load_rows")
        return self.inner.load_rows(name, rows)

    def replace_database(self, database: Database) -> None:
        self.schedule.fire("replace_database")
        self.inner.replace_database(database)

    def extract_relation(self, name: str) -> Relation:
        self.schedule.fire("extract_relation")
        return self.inner.extract_relation(name)

    # -- plan execution -------------------------------------------------
    def evaluate(self, expression: RAExpression, plan_cache: Any) -> Relation:
        self.schedule.fire("evaluate")
        return self.inner.evaluate(expression, plan_cache)

    def execute_batches(
        self,
        expression: RAExpression,
        plan_cache: Any,
        batch_size: int = 1024,
    ) -> Iterator[List[Tuple[Any, ...]]]:
        # Intercepted here, not only in the inherited execute_cursor row
        # view: the session streams through execute_batches, which the
        # __getattr__ fallback would otherwise forward unfaulted.
        self.schedule.fire("execute_cursor")
        stream = self.inner.execute_batches(expression, plan_cache, batch_size)
        try:
            for batch in stream:
                self.schedule.fire("fetch")
                yield batch
        finally:
            # An injected fetch fault (or an abandoned consumer) must
            # still run the inner generator's teardown path.
            stream.close()

    # -- everything else falls through ---------------------------------
    def __getattr__(self, name: str) -> Any:
        return getattr(self.inner, name)


def inject_faults(
    session: Any, schedule: FaultSchedule, *, three_valued: bool = False
) -> FaultInjectingBackend:
    """Put a :class:`FaultInjectingBackend` in front of an ``engine="sqlite"``
    session's handle (``three_valued=True``: the one behind ``sql()``).

    The handle is loaded with the session's database first, so
    ``schedule`` counts what queries do.  Returns the proxy, which serves
    the session until it closes.
    """
    engine = session._engine
    slot = engine.threevl if three_valued else engine.sentinel
    slot.backend = FaultInjectingBackend(slot.acquire(session.database), schedule)
    return slot.backend


class FaultInjectingCodec:
    """A value-codec proxy whose ``encode_row`` fails at the Nth call.

    ``replace_database`` iterates the changed rows itself — per relation
    the deleted keys, then the inserted rows; every row of a relation it
    rewrites in full — so a scheduled *method* fault can only fire before
    the switch starts; a codec fault fires *inside* its transaction,
    after whatever deletes and inserts ran before the Nth row — exactly
    the mid-switch crash the crash-consistency guarantee is about.
    ``encode_calls`` counts the rows encoded so far.
    """

    def __init__(
        self,
        inner: Any,
        *,
        fail_encode_at: Optional[int] = None,
        error: Optional[Callable[[], BaseException]] = None,
    ) -> None:
        self.inner = inner
        self.fail_encode_at = fail_encode_at
        self.encode_calls = 0
        self._error = error if error is not None else (
            lambda: sqlite3.OperationalError("disk I/O error")
        )

    def encode_row(self, row: Sequence[Any]) -> Tuple[Any, ...]:
        self.encode_calls += 1
        if self.fail_encode_at is not None and self.encode_calls == self.fail_encode_at:
            raise self._error()
        return self.inner.encode_row(row)

    def __getattr__(self, name: str) -> Any:
        return getattr(self.inner, name)
