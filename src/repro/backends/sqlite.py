"""The SQLite backend: DDL, bulk load, indexes and plan execution.

A session opened with ``engine="sqlite"`` owns one :class:`SQLiteBackend`
and keeps it loaded across queries: logical plans come from the
session's ``(expression, schema)`` :class:`~repro.engine.PlanCache`, and
the compiled SQL plans are cached per backend, so warm repeated queries
cost one ``execute`` + decode.

Design notes
------------

* **Set semantics in the engine.**  Sentinel-mode tables are
  ``WITHOUT ROWID`` with a primary key over all columns, and rows are
  loaded with ``INSERT OR IGNORE`` — the table *is* the set, and doubles
  as a covering index for key prefixes.  Additional indexes mirroring
  ``Relation.index_on`` are created on demand for the join keys the
  compiled plans request.
* **Planner statistics.**  Every write (a load, a version switch, a new
  index) refreshes SQLite's ``sqlite_stat1`` rows for what it touched,
  inside the write's own transaction, so the query planner costs joins
  on real row counts; ``PRAGMA analysis_limit`` bounds each refresh.
* **Out-of-core evaluation.**  ``load_rows`` streams from any iterable in
  batches, and intermediates spill to SQLite temp tables, so a backend
  opened on a disk path can load and evaluate instances that do not fit
  in Python memory (``benchmarks/bench_e25_backend.py`` gates this).
* **Fallback.**  Plans outside the compiler's fragment (order
  comparisons, opaque subtrees, zero-arity relations) raise
  :class:`UnsupportedPlanError`; the session then falls back to the
  in-memory physical engine — the differential suite asserts
  ``sqlite ≡ plan ≡ interpreter``.
"""

from __future__ import annotations

import itertools
import sqlite3
import threading
import time
from collections import OrderedDict
from typing import Any, Iterable, Iterator, List, NoReturn, Optional, Sequence, Tuple

from ..algebra.ast import RAExpression
from ..datamodel import Database, Relation
from ..datamodel.schema import DatabaseSchema, RelationSchema
from ..obs.metrics import current_metrics
from ..obs.trace import span
from ..resilience import BudgetExceeded, QueryCancelled, active_budget
from .base import (
    Backend,
    BackendError,
    UnsupportedPlanError,
    quote_identifier,
    table_name,
)
from .compiler import ADOM_TABLE, CompiledPlan, SQLCompiler
from .encoding import SentinelCodec

_LOAD_BATCH = 10_000
_PLAN_CACHE_LIMIT = 128

#: How many SQLite VM opcodes run between deadline checks while a budget
#: with a deadline is armed.  Tuned so the watchdog costs well under 2% on
#: the e25 out-of-core workload while still bounding the cancellation
#: latency of a single long statement to a few milliseconds.
_PROGRESS_OPCODE_INTERVAL = 4000

#: Rows ``ANALYZE`` samples per index (``PRAGMA analysis_limit``): enough
#: for the planner to tell an 8k-row table from a 1.6k-row one.  An
#: ``ANALYZE`` of that instance takes 0.3 ms so bounded, 1.3 ms not, and
#: the unbounded cost grows with the table (out-of-core loads).
_ANALYSIS_LIMIT = 400


class SQLiteBackend(Backend):
    """A :class:`Backend` executing compiled plans on SQLite.

    Parameters
    ----------
    path:
        SQLite database path; the default ``":memory:"`` keeps everything
        in the SQLite heap, a file path enables out-of-core instances.
    codec:
        Value codec; defaults to the injective sentinel codec (naive
        semantics).  The sqlnulls bridge passes ``SQLNullCodec`` instead.
    """

    def __init__(self, path: str = ":memory:", codec: Optional[Any] = None) -> None:
        self._path = path
        self._connection = self._connect()
        self.codec = codec if codec is not None else SentinelCodec()
        self._schema: Optional[DatabaseSchema] = None
        self._database: Optional[Database] = None
        self._plans: "OrderedDict[RAExpression, Tuple[CompiledPlan, RelationSchema]]" = OrderedDict()
        self._indexes: set = set()
        self._adom_ready = False
        self._closed = False
        self._poisoned = False
        self._frozen = False
        self._interrupt_requested = False
        # Budget states whose deadlines the progress handler watches; a
        # stack because evaluations can nest on one connection (a cursor
        # consumer issuing point queries between batches).
        self._deadline_states: List[Any] = []
        # One statement at a time: :meth:`read` holds it across a
        # statement's execute and the fetch of its rows (see there).
        self._lock = threading.Lock()

    def _connect(self) -> sqlite3.Connection:
        # check_same_thread=False: the connection may serve queries from
        # pool threads (frozen sessions) and be interrupted/closed from
        # another thread.  CPython's sqlite3 runs SQLite in serialized
        # threading mode, so cross-thread use of one handle is safe; the
        # session layer serializes all *mutations* behind its own lock,
        # and reads take turns per statement (:meth:`read`).
        connection = sqlite3.connect(self._path, check_same_thread=False)
        cursor = connection.cursor()
        # The backend is a cache/scratch store, never the system of record:
        # durability is irrelevant, load speed is not.  The rollback
        # journal stays in RAM (not OFF: replace_database relies on
        # ROLLBACK to keep the old data intact when a refill dies midway).
        cursor.execute("PRAGMA journal_mode=MEMORY")
        cursor.execute("PRAGMA synchronous=OFF")
        cursor.execute(f"PRAGMA analysis_limit={_ANALYSIS_LIMIT}")
        cursor.close()
        return connection

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    @property
    def connection(self) -> sqlite3.Connection:
        return self._connection

    def close(self) -> None:
        if not self._closed:
            self._closed = True
            self._connection.close()

    @property
    def frozen(self) -> bool:
        """Whether :meth:`freeze` has made the backend read-only."""
        return self._frozen

    def freeze(self) -> None:
        """Make the backend read-only so one handle serves many threads.

        A frozen backend refuses every mutation (loads, schema changes,
        ``replace_database``), serves compiled-plan hits without LRU
        bookkeeping and compiles misses without publishing them, skips
        on-demand index creation, and refuses plans that would spill to
        temp tables (two threads sharing one connection would collide on
        the temp-table names — the caller falls back to the in-memory
        engine for those).  The in-statement deadline watchdog is also
        skipped: a progress handler is per-connection state and would
        cross-cancel unrelated threads.  The active-domain table is
        materialized eagerly here, while the handle is still private, so
        adom-using plans keep working afterwards, and the planner
        statistics are refreshed once more.  The codec's decode memo
        is frozen too: it keeps serving the values decoded so far and
        decodes new ones without storing them.  Freezing is one-way.
        """
        if self._frozen:
            return
        self._ensure_healthy()
        if self._schema is not None:
            self._ensure_adom()
            self._connection.execute("ANALYZE")
        self.codec.freeze()
        self._frozen = True

    def _refuse_frozen(self, action: str) -> None:
        if self._frozen:
            from ..resilience import InvalidRequestError

            raise InvalidRequestError(f"cannot {action} on a frozen backend")

    def interrupt(self) -> None:
        """Abort the statement currently running on this connection.

        The hard-cancel path of ``Session.cancel()``: safe to call from
        another thread (``sqlite3.Connection.interrupt`` is documented
        thread-safe) and a no-op when no statement is running.  The
        aborted statement surfaces as ``OperationalError("interrupted")``
        inside :meth:`evaluate`/:meth:`execute_batches` (and the engine's
        three-valued ``sql()`` read), which re-type it as
        :class:`~repro.resilience.QueryCancelled`.
        """
        self._interrupt_requested = True
        try:
            self._connection.interrupt()
        except sqlite3.Error:
            # A closed/poisoned handle has nothing running to interrupt.
            pass

    # ------------------------------------------------------------------
    # in-statement budget enforcement
    # ------------------------------------------------------------------
    def _arm_progress(self, state: Optional[Any]) -> bool:
        """Install (or stack) the in-statement deadline watchdog.

        Only budgets with a deadline need the progress handler — world
        and block caps cannot trip inside one statement, and cancellation
        is served by :meth:`interrupt` directly — so unbudgeted sessions
        (and the e25 bulk workload) never pay for it.
        """
        if state is None or state.remaining_time() is None:
            return False
        self._deadline_states.append(state)
        if len(self._deadline_states) == 1:
            states = self._deadline_states

            def expired() -> int:
                for armed in states:
                    if armed.cancelled:
                        return 1
                    remaining = armed.remaining_time()
                    if remaining is not None and remaining <= 0:
                        return 1
                return 0

            self._connection.set_progress_handler(expired, _PROGRESS_OPCODE_INTERVAL)
        return True

    def _disarm_progress(self) -> None:
        self._deadline_states.pop()
        if not self._deadline_states:
            self._connection.set_progress_handler(None, 0)

    def _raise_typed(self, error: sqlite3.OperationalError, state: Optional[Any]) -> NoReturn:
        """Re-raise ``error``, SQLite's ``interrupted`` in the resilience taxonomy.

        Three ways a statement aborts mid-flight: :meth:`interrupt` was
        called (→ :class:`QueryCancelled`), the armed budget's deadline
        passed or it was cancelled (→ the typed error its own ``check()``
        raises), or something external interrupted the connection — that
        last one is not ours to re-type and re-raises ``error`` unchanged.
        """
        if "interrupt" in str(error).lower():
            if self._interrupt_requested:
                if not self._frozen:
                    # Frozen handles serve many threads: one consumer must not
                    # clear the flag before the others re-type their aborts.
                    self._interrupt_requested = False
                raise QueryCancelled("statement interrupted by Session.cancel()") from error
            if state is not None:
                try:
                    state.check()
                except (BudgetExceeded, QueryCancelled) as typed:
                    raise typed from error
        raise error

    # ------------------------------------------------------------------
    # reading rows: one statement at a time
    # ------------------------------------------------------------------
    def read(
        self,
        cursor: Optional[sqlite3.Cursor],
        statement: Optional[str] = None,
        params: Sequence[Any] = (),
        *,
        size: Optional[int] = None,
        setup: Sequence[Tuple[str, Sequence[Any]]] = (),
        trace: str = "backend.read",
        **attrs: Any,
    ) -> List[Tuple[Any, ...]]:
        """Run ``setup`` and ``statement`` on ``cursor`` and fetch the rows,
        holding the handle's lock.

        ``cursor=None`` runs ``statement`` on a fresh cursor; no
        ``statement`` continues the one open on ``cursor``.  ``size=None``
        fetches every row, an int at most that many (one batch of a
        stream; a stream never holds the lock between batches, so its
        consumer may run other statements on the handle meanwhile).  The
        span ``trace`` (with ``attrs`` and ``rows``) covers the work, not
        the wait.

        This is the one function of :mod:`repro.backends` that reads query
        rows.  CPython's ``sqlite3`` releases the GIL around every
        ``sqlite3_step``, i.e. once per fetched row, so two threads
        fetching from one connection would hand the GIL back and forth on
        every row; taking turns per statement lets each fetch run at full
        speed.  A wait is recorded (counter ``backend.handle_waits``,
        histogram ``backend.handle_wait``), after which the ambient budget
        is re-checked, so a request cancelled or expired while it queued
        raises its typed error without starting the statement.
        """
        lock = self._lock
        if not lock.acquire(False):
            self._wait_for_handle(lock)
        try:
            with span(trace, **attrs) as sp:
                for setup_statement, setup_params in setup:
                    cursor.execute(setup_statement, setup_params)
                if statement is not None:
                    target = self._connection if cursor is None else cursor
                    cursor = target.execute(statement, params)
                rows = cursor.fetchall() if size is None else cursor.fetchmany(size)
                sp.set(rows=len(rows))
            return rows
        finally:
            lock.release()

    @staticmethod
    def _wait_for_handle(lock: Any) -> None:
        """Block on the handle ``lock``, record the wait, re-check the budget."""
        started = time.perf_counter()
        lock.acquire()
        registry = current_metrics()
        if registry is not None:
            registry.count("backend.handle_waits")
            registry.observe("backend.handle_wait", time.perf_counter() - started)
        state = active_budget()
        if state is not None:
            try:
                state.check()
            except BaseException:
                lock.release()
                raise

    def _ensure_healthy(self) -> None:
        """Rebuild a poisoned handle before it serves anything.

        A handle is poisoned when a failed refill could not even be rolled
        back (the connection itself died mid-transaction).  Rather than
        serving half-filled tables, the connection is reopened and the
        last consistently-loaded :class:`Database` is reloaded; without
        one (out-of-core loads) the handle stays unusable and raises
        :class:`BackendError`.
        """
        if not self._poisoned:
            return
        database = self._database
        schema = self._schema
        try:
            self._connection.close()
        except sqlite3.Error:
            pass
        self._connection = self._connect()
        self._plans.clear()
        self._indexes.clear()
        self._adom_ready = False
        self._poisoned = False
        if self._path != ":memory:":
            # File-backed: the last *committed* state survived in the file
            # (the failed refill never committed), so the handle serves the
            # old consistent data again; indexes are re-ensured on demand.
            self._schema = schema
            return
        self._schema = None
        if database is not None:
            self._database = None
            self.load_database(database)
        else:
            raise BackendError(
                "backend poisoned by a failed refill and no consistent "
                "in-memory Database is available to rebuild from"
            )

    # ------------------------------------------------------------------
    # DDL
    # ------------------------------------------------------------------
    def create_schema(self, schema: DatabaseSchema) -> None:
        if self._schema is not None:
            if self._schema == schema:
                return
            raise BackendError("backend already holds a different schema")
        self._refuse_frozen("create a schema")
        cursor = self._connection.cursor()
        for relation in schema:
            cursor.execute(self._create_table_sql(relation))
        self._connection.commit()
        self._schema = schema

    def _create_table_sql(self, relation: RelationSchema) -> str:
        if relation.arity == 0:
            raise UnsupportedPlanError(
                f"relation {relation.name!r} has arity 0; SQL tables need a column"
            )
        column_type = self.codec.column_type
        columns = ", ".join(
            f"c{i} {column_type}".rstrip() for i in range(relation.arity)
        )
        if self.codec.set_semantics:
            key = ", ".join(f"c{i}" for i in range(relation.arity))
            return (
                f"CREATE TABLE {table_name(relation.name)} "
                f"({columns}, PRIMARY KEY ({key})) WITHOUT ROWID"
            )
        return f"CREATE TABLE {table_name(relation.name)} ({columns})"

    # ------------------------------------------------------------------
    # bulk load / extract
    # ------------------------------------------------------------------
    def load_database(self, database: Database) -> None:
        self.create_schema(database.schema)
        for relation in database.relations():
            self.load_rows(relation.name, relation.rows)
        self._database = database

    def replace_database(self, database: Database) -> None:
        """Point this backend at another version of its :class:`Database`.

        A session keeps *one* live connection across queries, and
        switching to another database reuses it instead of opening and
        loading a fresh backend.  When the new instance shares the current
        schema, each relation is diffed against the database the backend
        records as loaded: the rows that left are deleted by key and the
        rows that arrived are inserted, so only the changed rows are
        encoded and written.  A relation is emptied and refilled instead
        when no database is recorded (after :meth:`load_rows`) and under a
        codec that conflates values (``SQLNullCodec``: a key delete would
        remove every row whose nulls conflate).  A different schema drops
        every table and creates the new ones.  DDL, created indexes and the
        connection survive a same-schema switch; when no row changed,
        nothing is written and the compiled plans and the active-domain
        table are kept too.

        The whole switch — deletes or drops, re-creates, inserts — runs in
        a *single transaction*: if any step dies (a failing codec, a broken
        row iterator, an I/O error) the transaction is rolled back and the
        handle keeps serving the old data unchanged.  If even the rollback
        fails the handle is poisoned and rebuilt on next use
        (:meth:`_ensure_healthy`) instead of serving half-filled tables.
        The span ``backend.replace_database`` carries the ``deleted`` and
        ``inserted`` row counts.
        """
        if self._frozen:
            if database is self._database:
                return  # already serving exactly this instance
            self._refuse_frozen("replace the database")
        self._ensure_healthy()
        if self._schema is None:
            with span("backend.replace_database", fresh=True):
                self.load_database(database)
            return
        same_schema = database.schema == self._schema
        # A key delete removes exactly one row only under an injective
        # codec, and only from tables that hold the recorded database.
        recorded = self._database if same_schema and self.codec.set_semantics else None
        with span("backend.replace_database", same_schema=same_schema) as sp:
            changes: List[Tuple[RelationSchema, Optional[frozenset], Iterable[Any]]] = []
            for relation in database.relations():
                rows = relation.rows
                if recorded is None:
                    # Emptied and refilled: ``None`` deletes every row.
                    changes.append((relation.schema, None, rows))
                    continue
                previous = recorded.relation(relation.name).rows
                gone, new = previous - rows, rows - previous
                if gone or new:
                    changes.append((relation.schema, gone, new))
            deleted, inserted = self._apply(database.schema, same_schema, changes)
            sp.set(deleted=deleted, inserted=inserted)
        # Python-side bookkeeping changes only after the commit succeeded.
        if not same_schema:
            self._schema = database.schema
            self._indexes.clear()
        self._database = database

    def _apply(
        self, schema: DatabaseSchema, same_schema: bool,
        changes: Sequence[Tuple[RelationSchema, Optional[frozenset], Iterable[Any]]],
    ) -> Tuple[int, int]:
        """Write ``changes`` (and a schema switch) in one transaction;
        returns the ``(deleted, inserted)`` row counts."""
        if same_schema and not changes:
            return 0, 0
        # Cache invalidation is safe to do up front: stale-dropping plans
        # and the adom is conservative whether the switch succeeds or not.
        self._plans.clear()
        self._adom_ready = False
        connection = self._connection
        cursor = connection.cursor()
        deleted = inserted = 0
        try:
            # Explicit BEGIN: the sqlite3 module's implicit transaction
            # only starts at the first DML, which would let the
            # DROP/CREATE of a schema switch autocommit — and survive
            # the rollback.
            cursor.execute("BEGIN")
            cursor.execute(f"DROP TABLE IF EXISTS {ADOM_TABLE}")
            if not same_schema:
                for relation in self._schema:
                    cursor.execute(f"DROP TABLE IF EXISTS {table_name(relation.name)}")
                for relation in schema:
                    cursor.execute(self._create_table_sql(relation))
            for relation, gone, rows in changes:
                if gone is not None:
                    key = " AND ".join(f"c{i} = ?" for i in range(relation.arity))
                    deleted += self._run_encoded(
                        cursor, f"DELETE FROM {table_name(relation.name)} WHERE {key}", gone
                    )
                elif same_schema:
                    cursor.execute(f"DELETE FROM {table_name(relation.name)}")
                    deleted += cursor.rowcount
                inserted += self._write_rows(cursor, relation, rows)
                # In the transaction: a rollback restores the old statistics.
                cursor.execute(f"ANALYZE {table_name(relation.name)}")
            connection.commit()
        except BaseException:
            try:
                connection.rollback()
            except sqlite3.Error:
                self._poisoned = True
            raise
        finally:
            try:
                cursor.close()
            except sqlite3.Error:
                pass
        return deleted, inserted

    def _write_rows(
        self, cursor: sqlite3.Cursor, schema: RelationSchema, rows: Iterable[Sequence[Any]]
    ) -> int:
        """Stream ``rows`` into ``schema``'s table in batches, *without*
        committing — the caller owns the transaction boundary."""
        placeholders = ", ".join("?" for _ in range(schema.arity))
        verb = "INSERT OR IGNORE" if self.codec.set_semantics else "INSERT"
        return self._run_encoded(
            cursor, f"{verb} INTO {table_name(schema.name)} VALUES ({placeholders})", rows
        )

    def _run_encoded(
        self, cursor: sqlite3.Cursor, statement: str, rows: Iterable[Sequence[Any]]
    ) -> int:
        """Run ``statement`` once per encoded row of ``rows``, in batches;
        returns the number of rows it changed (an ignored duplicate insert
        or a delete that matches nothing counts none)."""
        encode_row = self.codec.encode_row
        encoded = (encode_row(row) for row in rows)
        total = 0
        while True:
            batch = list(itertools.islice(encoded, _LOAD_BATCH))
            if not batch:
                break
            cursor.executemany(statement, batch)
            total += cursor.rowcount
        return total

    def load_rows(self, name: str, rows: Iterable[Sequence[Any]]) -> int:
        self._refuse_frozen("load rows")
        self._ensure_healthy()
        if self._schema is None or name not in self._schema:
            raise BackendError(f"unknown relation {name!r}; create the schema first")
        # Data changed: the materialized active domain and the compiled
        # plans (whose join orders were costed on the old sizes) go stale.
        if self._adom_ready:
            self._connection.execute(f"DROP TABLE IF EXISTS {ADOM_TABLE}")
            self._adom_ready = False
        self._plans.clear()
        cursor = self._connection.cursor()
        try:
            total = self._write_rows(cursor, self._schema[name], rows)
            cursor.execute(f"ANALYZE {table_name(name)}")
            self._connection.commit()
            # The tables no longer hold a recorded Database: the next
            # replace_database refills in full.
            self._database = None
        except BaseException:
            # One load_rows call is all-or-nothing, like replace_database.
            try:
                self._connection.rollback()
            except sqlite3.Error:
                self._poisoned = True
            raise
        finally:
            try:
                cursor.close()
            except sqlite3.Error:
                pass
        return total

    def extract_relation(self, name: str) -> Relation:
        """Relation ``name`` read back out (set semantics, decoded values)."""
        if self._schema is None or name not in self._schema:
            raise BackendError(f"unknown relation {name!r}")
        schema = self._schema[name]
        rows = self.read(
            None,
            f"SELECT {', '.join(f'c{i}' for i in range(schema.arity))} "
            f"FROM {table_name(name)}",
        )
        return Relation._from_trusted(schema, frozenset(self.codec.decode_rows(rows)))

    # ------------------------------------------------------------------
    # indexes and the active-domain table
    # ------------------------------------------------------------------
    def ensure_index(self, name: str, positions: Tuple[int, ...]) -> None:
        """Create (once) the index ``Relation.index_on(positions)`` mirrors."""
        key = (name, tuple(positions))
        if key in self._indexes:
            return
        # ":"/"," cannot appear in a position list, so distinct
        # (relation, positions) pairs always get distinct index names
        # (a "_" separator would conflate e.g. ("a_1", (2,)) and ("a", (1, 2))).
        index_name = quote_identifier(
            "idx_" + name + ":" + ",".join(str(p) for p in positions)
        )
        columns = ", ".join(f"c{p}" for p in positions)
        self._connection.execute(
            f"CREATE INDEX IF NOT EXISTS {index_name} ON {table_name(name)} ({columns})"
        )
        self._connection.execute(f"ANALYZE {index_name}")
        self._indexes.add(key)

    def _ensure_adom(self) -> None:
        """Materialize the active domain: every column of every relation."""
        if self._adom_ready:
            return
        selects: List[str] = []
        for relation in self._schema or ():
            for position in range(relation.arity):
                selects.append(
                    f"SELECT c{position} AS v FROM {table_name(relation.name)}"
                )
        # A rolled-back refill can resurrect a previously dropped adom
        # temp table (temp tables are transactional too), so the create
        # must not assume the DROP that reset ``_adom_ready`` survived.
        self._connection.execute(f"DROP TABLE IF EXISTS {ADOM_TABLE}")
        if selects:
            body = " UNION ".join(selects)
            self._connection.execute(f"CREATE TEMP TABLE {ADOM_TABLE} AS {body}")
        else:
            self._connection.execute(f"CREATE TEMP TABLE {ADOM_TABLE} (v)")
        self._adom_ready = True

    # ------------------------------------------------------------------
    # plan execution
    # ------------------------------------------------------------------
    def _plan_for(
        self, expression: RAExpression, plan_cache: Any
    ) -> Tuple[CompiledPlan, RelationSchema]:
        """The compiled SQL plan and output schema for ``expression`` (cached)."""
        schema = self._schema
        if schema is None:
            raise BackendError("no database loaded")
        entry = self._plans.get(expression)
        hit = entry is not None
        if not hit:
            out_schema = expression.output_schema(schema)
            # Reuse the planner's (expression, schema) logical-plan cache:
            # the SQL path optimizes exactly once with the in-memory one.
            # Sessions pass their own PlanCache so plans stay per-session.
            logical = plan_cache.compile(expression, schema)
            # Join ordering costs against the in-memory instance when one
            # is attached, else against SQL COUNT(*) statistics — the
            # out-of-core case, where no Database object ever exists.
            stats = self._database if self._database is not None else _BackendStats(self)
            entry = (SQLCompiler(stats, self.codec).compile(logical), out_schema)
        plan, out_schema = entry
        if self._frozen:
            # Read-only: serve hits without LRU reordering, compile misses
            # without publishing them, and never create indexes or adom
            # tables on the shared connection.  Plans that spill to temp
            # tables cannot run concurrently on one connection — refuse
            # them so the caller's in-memory fallback takes over.
            if plan.uses_adom and not self._adom_ready:
                raise BackendError("frozen backend has no materialized active domain")
            if plan.setup:
                raise BackendError(
                    "plan spills to temp tables; not runnable on a frozen backend"
                )
            return plan, out_schema
        if hit:
            self._plans.move_to_end(expression)
        else:
            self._plans[expression] = entry
            if len(self._plans) > _PLAN_CACHE_LIMIT:
                self._plans.popitem(last=False)
        if plan.uses_adom:
            self._ensure_adom()
        for name, positions in plan.index_requests:
            self.ensure_index(name, positions)
        return plan, out_schema

    def _teardown(self, cursor: sqlite3.Cursor, plan: CompiledPlan) -> None:
        """Best-effort cleanup of a plan's temp tables and statement state.

        Runs in ``finally`` blocks, typically *because* something already
        went wrong — so every step tolerates further SQLite errors (a
        closed connection cannot drop its temp tables, and that is fine:
        they died with it).  Each teardown statement is attempted even if
        an earlier one fails, so one broken DROP cannot leak the rest.
        """
        try:
            for statement in plan.teardown:
                try:
                    cursor.execute(statement)
                except sqlite3.Error:
                    pass
        finally:
            try:
                cursor.close()
            except sqlite3.Error:
                pass

    def _open(self, expression: RAExpression, plan_cache: Any) -> Tuple[Any, ...]:
        """``(plan, out_schema, state, armed, cursor)``: the caller runs the
        plan, disarms the deadline watchdog if ``armed``, and tears down."""
        self._ensure_healthy()
        if not self._frozen:
            self._interrupt_requested = False
        plan, out_schema = self._plan_for(expression, plan_cache)
        state = active_budget()
        # Frozen backends never install the progress handler: it is
        # per-connection state, so one thread's deadline would abort every
        # other thread's statement.  Deadlines still trip at the world
        # ticks; Session.cancel() still interrupts via interrupt().
        armed = False if self._frozen else self._arm_progress(state)
        return plan, out_schema, state, armed, self._connection.cursor()

    def evaluate(self, expression: RAExpression, plan_cache: Any) -> Relation:
        plan, out_schema, state, armed, cursor = self._open(expression, plan_cache)
        try:
            try:
                rows = self.read(
                    cursor, plan.query, plan.params, setup=plan.setup,
                    trace="backend.evaluate", spills=len(plan.setup),
                )
            except sqlite3.OperationalError as error:
                self._raise_typed(error, state)
        finally:
            # Disarm before teardown so an expired deadline cannot abort
            # the DROPs that keep temp tables from leaking.
            if armed:
                self._disarm_progress()
            self._teardown(cursor, plan)
        return Relation._from_trusted(
            out_schema, frozenset(self.codec.decode_rows(rows))
        )

    def execute_batches(
        self,
        expression: RAExpression,
        plan_cache: Any,
        batch_size: int = 1024,
    ) -> Iterator[List[Tuple[Any, ...]]]:
        """Stream the answer rows of ``expression``, decoded, batch by batch.

        Unlike :meth:`evaluate` this never materializes the result set on
        the Python side — each ``fetchmany`` of up to ``batch_size`` rows
        is decoded into one fresh, non-empty list and yielded, so a query
        whose answer is larger than memory can still be consumed
        incrementally (this is what :meth:`repro.session.Query.cursor`
        rides on).  The plan's temp-table teardown runs when the stream is
        exhausted *or* the generator is closed early, so abandoning a
        stream cannot leak spilled intermediates.  Rows are distinct: the
        generated SQL keeps set semantics, so no Python-side dedup set is
        needed.

        When a budget with a deadline is armed the in-statement watchdog
        (:meth:`_arm_progress`) stays installed until the stream is
        closed — fetches happen mid-statement, so the deadline must be
        enforced across the whole consumption, not just the first execute.
        """
        plan, _, state, armed, cursor = self._open(expression, plan_cache)
        decode_rows = self.codec.decode_rows
        try:
            # A span per fetched batch, not per stream: a generator can be
            # parked indefinitely between next() calls, which would make a
            # whole-stream span measure the consumer, not the backend.
            try:
                batch = self.read(
                    cursor, plan.query, plan.params, size=batch_size, setup=plan.setup,
                    trace="backend.cursor.open", spills=len(plan.setup),
                )
                while batch:
                    yield decode_rows(batch)
                    batch = self.read(cursor, size=batch_size, trace="backend.cursor.batch")
            except sqlite3.OperationalError as error:
                self._raise_typed(error, state)
        finally:
            # Teardown must survive a backend that died mid-iteration
            # (fetch fault, closed connection): the original error, not a
            # teardown error, is what the consumer should see — and on a
            # still-healthy connection the temp tables really are dropped.
            if armed:
                self._disarm_progress()
            self._teardown(cursor, plan)


class _RelationStats:
    """A sized stand-in for a relation during cost estimation."""

    __slots__ = ("_count",)

    def __init__(self, count: int) -> None:
        self._count = count

    def __len__(self) -> int:
        return self._count


class _BackendStats:
    """Duck-typed ``Database`` substitute feeding the planner's estimates.

    Only the two entry points :func:`repro.engine.planner.estimate` uses
    are provided: ``relation(name)`` (for ``len``) and ``size()``.  Row
    counts come from ``COUNT(*)`` and are cached per backend lifetime.
    """

    __slots__ = ("_backend", "_counts")

    def __init__(self, backend: SQLiteBackend) -> None:
        self._backend = backend
        self._counts: dict = {}

    def _count(self, name: str) -> int:
        count = self._counts.get(name)
        if count is None:
            count = self._backend.read(None, f"SELECT COUNT(*) FROM {table_name(name)}")[0][0]
            self._counts[name] = count
        return count

    def relation(self, name: str) -> _RelationStats:
        return _RelationStats(self._count(name))

    def size(self) -> int:
        schema = self._backend._schema
        return sum(self._count(rel.name) for rel in schema or ())


# SQLite OperationalError messages that signal an *environmental limit*
# (plan too deep/wide for the engine), not a bug in the generated SQL.
_SQLITE_LIMIT_MARKERS = (
    "parser stack overflow",
    "expression tree is too large",
    "too many terms in compound select",
    "too many sql variables",
    "too many from clause terms",
)


def _is_engine_limit(error: sqlite3.OperationalError) -> bool:
    message = str(error).lower()
    return any(marker in message for marker in _SQLITE_LIMIT_MARKERS)


# OperationalError messages that signal an *infrastructure* failure — the
# storage layer is unhealthy, the generated SQL is fine.
_SQLITE_RUNTIME_MARKERS = (
    "database is locked",
    "database table is locked",
    "database is busy",
    "disk i/o error",
    "database or disk is full",
    "unable to open database file",
)


def is_runtime_failure(error: BaseException) -> bool:
    """Is ``error`` an environmental backend failure (vs. a code bug)?

    The session's recovery path falls back to the in-memory engine only
    for failures of the *infrastructure* — locks, I/O, a dead or corrupt
    connection.  Any other ``sqlite3`` error (above all an
    ``OperationalError`` about malformed SQL) stays loud: a blanket
    fallback would let a broken compiler pass every differential test by
    silently answering with the in-memory engine.
    """
    if isinstance(error, sqlite3.OperationalError):
        if _is_engine_limit(error):
            return True
        message = str(error).lower()
        return any(marker in message for marker in _SQLITE_RUNTIME_MARKERS)
    if isinstance(error, sqlite3.ProgrammingError):
        # "Cannot operate on a closed database/cursor."
        return "closed" in str(error).lower()
    if isinstance(error, (sqlite3.IntegrityError, sqlite3.DataError)):
        return False
    # InterfaceError and bare DatabaseError (e.g. "database disk image is
    # malformed") mean the handle, not the SQL, is broken.
    return isinstance(error, (sqlite3.InterfaceError, sqlite3.DatabaseError))
