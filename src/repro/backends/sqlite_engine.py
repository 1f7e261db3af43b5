"""The ``engine="sqlite"`` session engine (see :mod:`repro.engine.registry`).

:class:`SQLiteEngine` owns two :class:`BackendSlot` handles kept open
across queries — ``sentinel`` (marked nulls as tagged constants: naive
evaluation) and ``threevl`` (marked nulls as SQL ``NULL``:
``Session.sql``) — and every retry, fallback and recovery decision of the
SQLite path.
"""

from __future__ import annotations

import functools
import os
import re
import sqlite3
import sys
import time
import warnings
from typing import Any, Callable, Iterator, List, Optional, Tuple

from ..algebra.ast import RAExpression
from ..datamodel import Database, Relation
from ..datamodel.schema import DatabaseSchema
from ..engine.registry import PlanEngine, chunks
from ..obs.analyze import AnalyzeReport
from ..resilience import (
    BackendRecoveryWarning,
    BackendUnavailable,
    InvalidRequestError,
    ReproError,
    RetryPolicy,
    SessionClosedError,
    active_budget,
    with_retries,
)
from .base import BackendError, UnsupportedPlanError
from .compiler import SQLCompiler
from .encoding import SentinelCodec, SQLNullCodec
from .sqlite import SQLiteBackend, _BackendStats, _is_engine_limit, is_runtime_failure

Batches = Iterator[List[Tuple[Any, ...]]]

#: Source files under this prefix are the library's own frames.
_PACKAGE_PREFIX = os.path.dirname(os.path.dirname(__file__)) + os.sep


def _caller_stacklevel() -> int:
    """The ``warnings.warn`` stacklevel, for the function calling this one,
    that names the first frame outside the ``repro`` package."""
    frame = sys._getframe(1)
    level = 1
    while frame is not None and frame.f_code.co_filename.startswith(_PACKAGE_PREFIX):
        frame = frame.f_back
        level += 1
    return level


class BackendSlot:
    """One lazily opened SQLite handle and the :class:`Database` loaded in it.

    :meth:`acquire` opens the handle on first use and loads the database;
    another database switches it with a crash-consistent
    ``replace_database`` (one transaction, retried under the policy): a
    failed refill leaves the old database loaded, and the backend's
    record of its database only moves after a commit.  A frozen slot
    takes no session lock — its handle never changes again — and refuses
    to switch; its threads still take turns per statement on the handle
    (:meth:`SQLiteBackend.read`).
    """

    __slots__ = ("path", "codec", "retry_policy", "lock", "backend", "frozen", "closed")

    def __init__(self, path: str, codec: Callable[[], Any], retry_policy: RetryPolicy, lock: Any) -> None:
        self.path = path
        self.codec = codec
        self.retry_policy = retry_policy
        self.lock = lock
        self.backend: Optional[Any] = None
        self.frozen = False
        self.closed = False

    @property
    def database(self) -> Optional[Database]:
        """The database loaded in the handle (the backend's own record)."""
        return None if self.backend is None else self.backend._database

    def serves(self, database: Optional[Database]) -> bool:
        """Whether :meth:`acquire` can hand out a handle holding ``database``
        (``False`` only when frozen with another database loaded)."""
        return not self.frozen or database is None or database is self.database

    def acquire(self, database: Optional[Database]) -> Any:
        """The handle, loaded with ``database`` (``None``: whatever it holds)."""
        if self.frozen and not self.closed:
            backend = self.backend
            if backend is None or not self.serves(database):
                raise InvalidRequestError(
                    "frozen session cannot switch databases: its backend serves "
                    "only what was loaded before freeze(); use a mutable session "
                    "for per-query database overrides"
                )
            return backend
        with self.lock:
            if self.closed:
                raise SessionClosedError("session is closed")
            if self.backend is None:
                self.backend = SQLiteBackend(self.path, codec=self.codec())
                if database is not None:
                    self.backend.load_database(database)
            elif database is not None and database is not self.database:
                with_retries(
                    functools.partial(self.backend.replace_database, database),
                    policy=self.retry_policy,
                )
            return self.backend

    def freeze(self) -> None:
        if self.backend is not None:
            self.backend.freeze()
        self.frozen = True

    def interrupt(self) -> None:
        backend = self.backend
        if backend is not None:
            try:
                backend.interrupt()
            except Exception:  # noqa: BLE001 - cancel must never throw
                pass

    def close(self) -> None:
        self.closed = True
        backend, self.backend = self.backend, None
        if backend is not None:
            backend.close()


class SQLiteEngine(PlanEngine):
    """Plans compiled to SQL on session-owned SQLite handles."""

    name = "sqlite"
    analyze_notes = (
        "plan outside the SQL fragment (or not runnable on this backend); "
        "analyzed on the in-memory plan engine instead",
    )

    def __init__(
        self, plan_cache: Any, kernel: Any, *, metrics: Any, backend_path: str,
        retry_policy: RetryPolicy, lock: Any,
    ) -> None:
        super().__init__(plan_cache, kernel)
        self.metrics = metrics
        self.retry_policy = retry_policy
        self.sentinel = BackendSlot(backend_path, SentinelCodec, retry_policy, lock)
        # A second store on disk: never share the sentinel file.
        threevl_path = backend_path if backend_path == ":memory:" else backend_path + ".3vl"
        self.threevl = BackendSlot(threevl_path, SQLNullCodec, retry_policy, lock)
        self._recovery_warned = False

    def _ladder(
        self, run: Callable[[Any], Any], database: Optional[Database],
        fallback: Callable[[Database], Any],
    ) -> Any:
        """``run(backend)`` on the sentinel handle, else ``fallback(database)``.

        The one fallback ladder of ``evaluate``, ``stream`` and
        ``analyze``.  ``run`` is retried under the session's policy (here,
        not in the backend, so injected wrapper faults take the path a
        real ``SQLITE_BUSY`` does).  The in-memory ``fallback`` answers

        * when a frozen handle holds another database (it cannot switch);
        * on :class:`BackendError` — outside the SQL fragment, or data the
          backend cannot store — quietly (``backend.fallbacks.fragment``);
        * on an engine limit, a plan too deep or wide for SQLite
          (``backend.fallbacks.engine_limit``);
        * on an environmental failure (locks, I/O, a dead handle), with a
          once-per-session :class:`BackendRecoveryWarning`
          (``backend.recoveries``).

        Backend-resident data (``database is None``) has nothing to fall
        back onto: errors re-raise, environmental ones as
        :class:`BackendUnavailable`.  Any other ``sqlite3`` error — above
        all malformed SQL — propagates, so a broken compiler cannot pass
        the differential suites on the fallback.
        """
        if not self.sentinel.serves(database):
            return fallback(database)
        try:
            backend = self.sentinel.acquire(database)
            return with_retries(functools.partial(run, backend), policy=self.retry_policy)
        except BackendError:
            if database is None:
                raise
            self.metrics.count("backend.fallbacks.fragment")
        except sqlite3.Error as error:
            if isinstance(error, sqlite3.OperationalError) and _is_engine_limit(error):
                if database is None:
                    raise
                self.metrics.count("backend.fallbacks.engine_limit")
            elif is_runtime_failure(error):
                self.metrics.count("backend.recoveries")
                self._recover(error, database)
            else:
                raise
        return fallback(database)

    def _recover(self, error: BaseException, database: Optional[Database]) -> None:
        if database is None:
            raise BackendUnavailable(
                f"sqlite backend failed and no in-memory database is resident "
                f"to recover onto: {error}"
            ) from error
        if not self._recovery_warned:
            self._recovery_warned = True
            warnings.warn(
                f"sqlite backend failed ({error}); this session recovered via "
                "the in-memory engine and will keep recovering silently",
                BackendRecoveryWarning,
                stacklevel=_caller_stacklevel(),
            )

    def evaluate(self, query: RAExpression, database: Optional[Database]) -> Relation:
        plan_cache = self.plan_cache
        return self._ladder(
            lambda backend: backend.evaluate(query, plan_cache),
            database,
            lambda db: plan_cache.execute(query, db),
        )

    def stream(self, expression: RAExpression, database: Optional[Database], batch_size: int) -> Batches:
        plan_cache = self.plan_cache

        def start(backend: Any) -> Batches:
            # A retry re-creates the generator: the faulted one already ran
            # its teardown when the first next() raised.
            batches = backend.execute_batches(expression, plan_cache, batch_size=batch_size)
            first = next(batches, None)
            return iter(()) if first is None else _stream_rest(first, batches)

        # The fragment has no streaming path: the fallback materializes.
        return self._ladder(
            start, database, lambda db: chunks(plan_cache.execute(expression, db).rows, batch_size)
        )

    def analyze(self, expression: RAExpression, database: Optional[Database]) -> AnalyzeReport:
        return self._ladder(
            functools.partial(_analyze_statements, expression, self.plan_cache),
            database,
            functools.partial(PlanEngine.analyze, self, expression),
        )

    def sql(self, query: Any, database: Database) -> List[Tuple[Any, ...]]:
        from ..sqlnulls.backend import compile_select
        from ..sqlnulls.engine import SQLError

        backend = self.threevl.acquire(database)
        statement, params = compile_select(database, query)
        try:
            try:
                rows = backend.read(None, statement, params)
            except sqlite3.OperationalError as error:
                backend._raise_typed(error, active_budget())
            return backend.codec.decode_rows(rows)
        except ReproError:
            raise  # Session.cancel() or an expired budget, typed
        except Exception as error:
            raise SQLError(f"sqlite execution failed: {error}") from error

    def explain_sql(self, logical: Any, database: Optional[Database]) -> List[str]:
        stats = database if database is not None else _BackendStats(self.sentinel.backend)
        try:
            plan = SQLCompiler(stats, SentinelCodec()).compile(logical)
        except UnsupportedPlanError as error:
            return [f"n/a (outside the SQL fragment: {error})"]
        statements = [statement for statement, _ in plan.setup] + [plan.query]
        return [line for chunk in statements for line in chunk.splitlines()]

    def resident_schema(self) -> Optional[DatabaseSchema]:
        backend = self.sentinel.backend
        return backend._schema if backend is not None else None

    def store(self, action: str) -> Any:
        if self.sentinel.frozen:
            raise InvalidRequestError(f"cannot {action} a frozen session")
        return self.sentinel.acquire(None)

    def freeze(self, database: Optional[Database]) -> None:
        if database is not None:
            self.sentinel.acquire(database)
        self.sentinel.freeze()
        self.threevl.freeze()

    def interrupt(self) -> None:
        self.sentinel.interrupt()
        self.threevl.interrupt()

    def close(self) -> None:
        self.sentinel.close()
        self.threevl.close()


def _stream_rest(first: List[Tuple[Any, ...]], rest: Batches) -> Batches:
    """Yield batch ``first`` then drain ``rest``, typing mid-stream deaths.

    Once rows have been handed to the consumer the in-memory recovery of
    the fallback ladder is no longer sound (splicing a restarted answer
    could repeat or reorder what was already yielded), so an
    environmental failure here becomes a typed :class:`BackendUnavailable`
    — never a silent wrong answer, never a raw driver exception.  Closing
    this generator closes ``rest``, which runs the backend's teardown.
    """
    try:
        yield first
        while True:
            try:
                batch = next(rest)
            except StopIteration:
                return
            except sqlite3.Error as error:
                if is_runtime_failure(error):
                    raise BackendUnavailable(
                        f"sqlite backend died mid-stream after yielding rows: {error}"
                    ) from error
                raise
            yield batch
    finally:
        rest.close()


def _analyze_statements(expression: RAExpression, plan_cache: Any, backend: Any) -> AnalyzeReport:
    """Run the compiled plan statement by statement on ``backend``.

    Times each statement and counts the rows of every temp-table spill
    (the out-of-core intermediates).
    """
    plan, _ = backend._plan_for(expression, plan_cache)
    statements: List[dict] = []
    spills: dict = {}
    cursor = backend.connection.cursor()
    started = time.perf_counter()
    try:
        for statement, params in plan.setup:
            s0 = time.perf_counter()
            backend.read(cursor, statement, params)
            statements.append(
                {"kind": "setup", "sql": " ".join(statement.split()), "seconds": time.perf_counter() - s0}
            )
            match = re.match(r"CREATE TEMP(?:ORARY)? TABLE (\"[^\"]+\"|\S+)", statement)
            if match is not None:
                name = match.group(1)
                spills[name.strip('"')] = backend.read(cursor, f"SELECT COUNT(*) FROM {name}")[0][0]
        s0 = time.perf_counter()
        rows = backend.read(cursor, plan.query, plan.params)
        statements.append(
            {"kind": "query", "sql": " ".join(plan.query.split()), "seconds": time.perf_counter() - s0}
        )
    finally:
        backend._teardown(cursor, plan)
    seconds = time.perf_counter() - started
    distinct = frozenset(backend.codec.decode_rows(rows))
    return AnalyzeReport("sqlite", len(distinct), seconds, statements=statements, spills=spills)
