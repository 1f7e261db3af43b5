"""Fault injection: schedules, retries, crash-consistent refills, teardown."""

import random
import sqlite3
import warnings

import pytest

import repro
from repro.algebra.ast import product, project, relation, select, union
from repro.algebra.predicates import Attr, Comparison
from repro.backends import SQLiteBackend
from repro.backends.base import BackendError
from repro.backends.faults import (
    FaultInjectingBackend,
    FaultInjectingCodec,
    FaultSchedule,
    inject_faults,
)
from repro.backends.sqlite import is_runtime_failure
from repro.datamodel import Database, Null
from repro.engine import PlanCache
from repro.resilience import (
    BackendRecoveryWarning,
    BackendUnavailable,
    Budget,
    BudgetExceeded,
    ManualClock,
    budget_scope,
    is_transient_error,
    with_retries,
)


PLANS = PlanCache()


@pytest.fixture
def db():
    return Database.from_dict(
        {
            "R": [(1, 2), (2, 3), (Null("x"), 2)],
            "S": [(2, "a"), (3, "b")],
        }
    )


def _leaked_temp_tables(connection):
    rows = connection.execute(
        "SELECT name FROM sqlite_temp_master "
        "WHERE type = 'table' AND name LIKE '\\_repro\\_tmp%' ESCAPE '\\'"
    ).fetchall()
    return [row[0] for row in rows]


def _spilling_query():
    # union(shared, shared) forces the compiler to spill the shared
    # subplan into a temp table (see test_sqlite_backend.py), which is
    # exactly what the teardown path must drop on every exit route.
    shared = select(
        product(relation("R"), relation("S")), Comparison(Attr(1), "=", Attr(2))
    )
    return union(shared, shared)


class TestFaultSchedule:
    def test_index_spec_fires_listed_calls_only(self):
        schedule = FaultSchedule({"evaluate": {1, 3}})
        assert schedule.record("evaluate") is True
        assert schedule.record("evaluate") is False
        assert schedule.record("evaluate") is True
        assert schedule.calls["evaluate"] == 3
        assert schedule.injected["evaluate"] == 2

    def test_predicate_spec(self):
        schedule = FaultSchedule({"fetch": lambda index: index % 2 == 0})
        assert [schedule.record("fetch") for _ in range(4)] == [
            False, True, False, True,
        ]

    def test_default_error_is_transient(self):
        schedule = FaultSchedule({"evaluate": {1}})
        with pytest.raises(sqlite3.OperationalError) as err:
            schedule.fire("evaluate")
        assert is_transient_error(err.value)

    def test_custom_error_class(self):
        schedule = FaultSchedule({"load_rows": {1}}, error=sqlite3.InterfaceError)
        with pytest.raises(sqlite3.InterfaceError):
            schedule.fire("load_rows")

    def test_unplanned_operations_never_fail(self):
        schedule = FaultSchedule()
        assert schedule.record("evaluate") is False
        schedule.fire("close")  # does not raise
        assert schedule.injected["close"] == 0


class TestFaultInjectingBackend:
    def test_transparent_without_faults(self, db):
        backend = FaultInjectingBackend(SQLiteBackend(), FaultSchedule())
        backend.load_database(db)
        for name in db.schema.names():
            assert backend.extract_relation(name) == db.relation(name)
        query = project(relation("R"), (0,))
        assert backend.evaluate(query, PLANS) == query.evaluate(db)
        backend.close()

    def test_nth_evaluate_fails_then_recovers(self, db):
        schedule = FaultSchedule({"evaluate": {1}})
        backend = FaultInjectingBackend(SQLiteBackend(), schedule)
        backend.load_database(db)
        query = project(relation("R"), (0,))
        with pytest.raises(sqlite3.OperationalError):
            backend.evaluate(query, PLANS)
        assert backend.evaluate(query, PLANS) == query.evaluate(db)
        assert schedule.injected["evaluate"] == 1

    def test_private_state_falls_through(self, db):
        inner = SQLiteBackend()
        backend = FaultInjectingBackend(inner, FaultSchedule())
        backend.load_database(db)
        assert backend.connection is inner.connection
        assert backend._schema is inner._schema


class TestCrashConsistentReplace:
    def test_mid_refill_failure_keeps_old_data(self, db):
        backend = SQLiteBackend()
        backend.load_database(db)
        healthy_codec = backend.codec
        backend.codec = FaultInjectingCodec(healthy_codec, fail_encode_at=2)
        new = Database.from_dict({"R": [(7, 8), (8, 9)], "S": [(9, "z")]})
        with pytest.raises(sqlite3.OperationalError):
            backend.replace_database(new)
        # The transaction rolled back: the handle serves the *old* data.
        for name in db.schema.names():
            assert backend.extract_relation(name) == db.relation(name)
        query = project(relation("R"), (0,))
        assert backend.evaluate(query, PLANS) == query.evaluate(db)
        # A subsequent healthy refill succeeds on the same handle.
        backend.codec = healthy_codec
        backend.replace_database(new)
        assert backend.extract_relation("R") == new.relation("R")
        assert backend.evaluate(query, PLANS) == query.evaluate(new)

    def test_mid_refill_failure_across_schema_change_rolls_back_ddl(self, db):
        backend = SQLiteBackend()
        backend.load_database(db)
        backend.codec = FaultInjectingCodec(backend.codec, fail_encode_at=1)
        other = Database.from_dict({"T": [(1,), (2,)]})
        with pytest.raises(sqlite3.OperationalError):
            backend.replace_database(other)
        # The DROP/CREATE of the schema switch rolled back too.
        for name in db.schema.names():
            assert backend.extract_relation(name) == db.relation(name)
        with pytest.raises(BackendError):
            backend.extract_relation("T")

    def test_adom_stays_consistent_after_failed_refill(self, db):
        from repro.algebra.ast import ActiveDomain

        backend = SQLiteBackend()
        backend.load_database(db)
        expected = ActiveDomain().evaluate(db)
        assert backend.evaluate(ActiveDomain(), PLANS) == expected
        backend.codec = FaultInjectingCodec(backend.codec, fail_encode_at=2)
        with pytest.raises(sqlite3.OperationalError):
            backend.replace_database(Database.from_dict({"R": [(7, 8)], "S": [(9, "z")]}))
        # The rolled-back refill resurrected the dropped adom temp table;
        # the next evaluation must rebuild it, not trip over the leftover.
        assert backend.evaluate(ActiveDomain(), PLANS) == expected

    def test_poisoned_memory_handle_rebuilds_from_resident_database(self, db):
        backend = SQLiteBackend()
        backend.load_database(db)
        # Simulate "the rollback itself failed": handle poisoned, dead.
        backend._poisoned = True
        backend._connection.close()
        query = project(relation("R"), (0,))
        assert backend.evaluate(query, PLANS) == query.evaluate(db)
        assert not backend._poisoned

    def _delta_of(self, db):
        # One row leaves R and one arrives: a delta switch, S untouched.
        return Database(db.schema, {"R": [(1, 2), (Null("x"), 2), (5, 6)], "S": db.relation("S")})

    def test_insert_fault_after_the_deletes_keeps_old_data(self, db):
        backend = SQLiteBackend()
        backend.load_database(db)
        healthy_codec = backend.codec
        # Encode call 1 is R's deleted key, call 2 its inserted row.
        backend.codec = FaultInjectingCodec(healthy_codec, fail_encode_at=2)
        statements = []
        backend.connection.set_trace_callback(statements.append)
        new = self._delta_of(db)
        with pytest.raises(sqlite3.OperationalError):
            backend.replace_database(new)
        assert any(s.startswith("DELETE FROM") and "WHERE" in s for s in statements)
        assert not any("INSERT" in s for s in statements)
        backend.connection.set_trace_callback(None)
        for name in db.schema.names():
            assert backend.extract_relation(name) == db.relation(name)
        query = project(relation("R"), (0,))
        assert backend.evaluate(query, PLANS) == query.evaluate(db)
        assert backend._database is db
        backend.codec = healthy_codec
        backend.replace_database(new)
        for name in new.schema.names():
            assert backend.extract_relation(name) == new.relation(name)
        assert backend.evaluate(query, PLANS) == query.evaluate(new)

    def test_poisoned_memory_handle_after_a_delta_rebuilds_from_it(self, db):
        backend = SQLiteBackend()
        backend.load_database(db)
        new = self._delta_of(db)
        backend.replace_database(new)
        backend._poisoned = True
        backend._connection.close()
        query = project(relation("R"), (0,))
        assert backend.evaluate(query, PLANS) == query.evaluate(new)
        for name in new.schema.names():
            assert backend.extract_relation(name) == new.relation(name)
        assert not backend._poisoned and backend._database is new

    def test_poisoned_file_handle_serves_committed_state(self, db, tmp_path):
        backend = SQLiteBackend(str(tmp_path / "faults.sqlite"))
        backend.load_database(db)
        backend._database = None  # out-of-core: no resident Database object
        backend._poisoned = True
        query = project(relation("R"), (0,))
        # The file still holds the last committed state; reconnect serves it.
        assert backend.evaluate(query, PLANS) == query.evaluate(db)

    def test_poisoned_memory_handle_without_database_raises(self, db):
        backend = SQLiteBackend()
        backend.create_schema(db.schema)
        backend.load_rows("R", db.relation("R").rows)
        backend._poisoned = True
        with pytest.raises(BackendError):
            backend.evaluate(project(relation("R"), (0,)), PLANS)

    def test_failed_load_rows_is_all_or_nothing(self, db):
        backend = SQLiteBackend()
        backend.load_database(db)

        def rows():
            yield (7, 8)
            raise sqlite3.OperationalError("disk I/O error")

        with pytest.raises(sqlite3.OperationalError):
            backend.load_rows("R", rows())
        assert backend.extract_relation("R") == db.relation("R")


class TestCursorTeardown:
    def test_fetch_fault_mid_iteration_drops_temp_tables(self, db):
        schedule = FaultSchedule({"fetch": {1}})
        backend = FaultInjectingBackend(SQLiteBackend(), schedule)
        backend.load_database(db)
        with pytest.raises(sqlite3.OperationalError):
            list(backend.execute_cursor(_spilling_query(), PLANS))
        assert _leaked_temp_tables(backend.connection) == []
        # The connection is still healthy: the same query runs clean now.
        rows = set(backend.execute_cursor(_spilling_query(), PLANS))
        assert rows == _spilling_query().evaluate(db).rows

    def test_abandoned_cursor_drops_temp_tables(self, db):
        backend = SQLiteBackend()
        backend.load_database(db)
        stream = backend.execute_cursor(_spilling_query(), PLANS)
        next(stream)
        stream.close()
        assert _leaked_temp_tables(backend.connection) == []

    def test_session_cursor_close_after_fetch_fault_is_quiet(self, db):
        session = repro.connect(db, engine="sqlite")
        schedule = FaultSchedule({"fetch": {3}})
        backend = inject_faults(session, schedule)
        cursor = session.query(_spilling_query()).cursor(batch_size=1)
        with pytest.raises(Exception):
            cursor.fetchall()
        cursor.close()  # must not raise on an already-torn-down stream
        assert _leaked_temp_tables(backend.connection) == []
        session.close()


    def test_fetch_fault_reaches_the_session_batch_stream(self, db):
        session = repro.connect(db, engine="sqlite")
        schedule = FaultSchedule({"fetch": {2}})
        backend = inject_faults(session, schedule)
        cursor = session.query(_spilling_query()).cursor(batch_size=1)
        assert len(cursor.fetchmany()) == 1
        with pytest.raises(BackendUnavailable):
            cursor.fetchmany()
        assert schedule.calls["execute_cursor"] == 1
        assert schedule.injected["fetch"] == 1
        cursor.close()
        assert _leaked_temp_tables(backend.connection) == []
        session.close()


class TestSessionRetries:
    def test_transient_evaluate_fault_is_retried(self, db):
        session = repro.connect(db, engine="sqlite")
        schedule = FaultSchedule({"evaluate": {1}})
        inject_faults(session, schedule)
        query = project(relation("R"), (1,))
        with warnings.catch_warnings():
            # A retried transient fault is *not* a recovery event.
            warnings.simplefilter("error", BackendRecoveryWarning)
            result = session.query(query).answer_object()
        assert result == query.evaluate(db)
        assert schedule.calls["evaluate"] == 2
        assert schedule.injected["evaluate"] == 1
        session.close()

    def test_persistent_runtime_failure_recovers_in_memory_once(self, db):
        query = project(relation("R"), (1,))
        answer = query.evaluate(db)
        modes = (
            (lambda q: q.answer_object(), answer),
            (lambda q: q.certain(), answer.complete_part()),
            (lambda q: frozenset(q.cursor()), answer.rows),
        )
        for run, expected in modes:
            session = repro.connect(db, engine="sqlite")
            always = lambda index: True  # noqa: E731
            inject_faults(session, FaultSchedule({"evaluate": always, "execute_cursor": always}))
            with pytest.warns(BackendRecoveryWarning) as caught:
                assert run(session.query(query)) == expected
            # The warning names the caller's line, not a library frame.
            assert [
                warning.filename
                for warning in caught
                if issubclass(warning.category, BackendRecoveryWarning)
            ] == [__file__]
            with warnings.catch_warnings():
                # The second recovery is silent (once-per-session warning).
                warnings.simplefilter("error", BackendRecoveryWarning)
                assert run(session.query(query)) == expected
            session.close()

    def test_non_transient_sql_error_is_not_retried_or_masked(self, db):
        session = repro.connect(db, engine="sqlite")
        schedule = FaultSchedule(
            {"evaluate": {1}},
            error=lambda op: sqlite3.OperationalError('near "FROM": syntax error'),
        )
        inject_faults(session, schedule)
        with pytest.raises(sqlite3.OperationalError):
            session.query(project(relation("R"), (0,))).answer_object()
        assert schedule.calls["evaluate"] == 1
        session.close()

    def test_backend_resident_failure_raises_backend_unavailable(self, db):
        session = repro.connect(engine="sqlite")
        session.create_schema(db.schema)
        session.load_rows("R", db.relation("R").rows)
        session.load_rows("S", db.relation("S").rows)
        schedule = FaultSchedule({"evaluate": lambda index: True})
        inject_faults(session, schedule)
        with pytest.raises(BackendUnavailable):
            session.query(project(relation("R"), (0,))).answer_object()
        session.close()

    @pytest.mark.parametrize("three_valued", [False, True], ids=["sentinel", "threevl"])
    def test_replace_database_transient_fault_retried(self, db, three_valued):
        session = repro.connect(db, engine="sqlite")
        schedule = FaultSchedule({"replace_database": {1}})
        inject_faults(session, schedule, three_valued=three_valued)
        other = Database.from_dict({"R": [(7, 8)], "S": [(9, "z")]})
        if three_valued:
            assert session.sql("SELECT * FROM R", database=other) == [(7, 8)]
        else:
            query = project(relation("R"), (0,))
            result = session.query(query, database=other).answer_object()
            assert result == query.evaluate(other)
        assert schedule.calls["replace_database"] == 2
        session.close()


class TestWithRetries:
    def test_succeeds_after_transient_failures(self):
        calls = {"n": 0}

        def flaky():
            calls["n"] += 1
            if calls["n"] < 3:
                raise sqlite3.OperationalError("database is locked")
            return "ok"

        sleeps = []
        assert with_retries(flaky, sleep=sleeps.append) == "ok"
        assert calls["n"] == 3
        assert len(sleeps) == 2

    def test_gives_up_after_the_retry_budget(self):
        sleeps = []

        def always():
            raise sqlite3.OperationalError("database is locked")

        with pytest.raises(sqlite3.OperationalError):
            with_retries(always, sleep=sleeps.append)
        assert len(sleeps) == 3  # DEFAULT_RETRIES

    def test_non_retryable_error_raises_immediately(self):
        calls = {"n": 0}

        def broken():
            calls["n"] += 1
            raise sqlite3.OperationalError("no such table: nope")

        with pytest.raises(sqlite3.OperationalError):
            with_retries(broken, sleep=lambda s: None)
        assert calls["n"] == 1

    def test_backoff_is_exponential_capped_and_jittered(self):
        sleeps = []

        def always():
            raise sqlite3.OperationalError("database is locked")

        with pytest.raises(sqlite3.OperationalError):
            with_retries(
                always, retries=5, sleep=sleeps.append, rng=random.Random(0)
            )
        caps = [0.005, 0.01, 0.02, 0.04, 0.05]
        assert len(sleeps) == 5
        for observed, cap in zip(sleeps, caps):
            assert cap / 2 <= observed <= cap

    def test_expired_budget_stops_the_retry_loop(self):
        clock = ManualClock(step=1.0)
        budget = Budget(deadline=0.5, clock=clock)

        def always():
            raise sqlite3.OperationalError("database is locked")

        with budget_scope(budget.start()):
            with pytest.raises(BudgetExceeded):
                with_retries(always, sleep=lambda s: None)


class TestRuntimeFailureClassifier:
    def test_environmental_failures_route_to_recovery(self):
        assert is_runtime_failure(sqlite3.OperationalError("database is locked"))
        assert is_runtime_failure(sqlite3.OperationalError("disk I/O error"))
        assert is_runtime_failure(sqlite3.OperationalError("database or disk is full"))
        assert is_runtime_failure(sqlite3.OperationalError("parser stack overflow"))
        assert is_runtime_failure(
            sqlite3.ProgrammingError("Cannot operate on a closed database.")
        )
        assert is_runtime_failure(sqlite3.InterfaceError("bad parameter or other API misuse"))
        assert is_runtime_failure(
            sqlite3.DatabaseError("database disk image is malformed")
        )

    def test_code_bugs_stay_loud(self):
        assert not is_runtime_failure(
            sqlite3.OperationalError('near "FROM": syntax error')
        )
        assert not is_runtime_failure(sqlite3.OperationalError("no such table: t_R"))
        assert not is_runtime_failure(
            sqlite3.ProgrammingError("Incorrect number of bindings supplied")
        )
        assert not is_runtime_failure(
            sqlite3.IntegrityError("UNIQUE constraint failed")
        )
        assert not is_runtime_failure(ValueError("not a sqlite error at all"))


class TestTransientClassifier:
    def test_contention_is_transient(self):
        assert is_transient_error(sqlite3.OperationalError("database is locked"))
        assert is_transient_error(sqlite3.OperationalError("database table is locked"))

    def test_disk_failures_are_not_transient(self):
        # Disk I/O errors are runtime *failures* (they route to backend
        # recovery, not blind retries against a broken device).
        assert not is_transient_error(sqlite3.OperationalError("disk I/O error"))
        assert not is_transient_error(
            sqlite3.OperationalError("database or disk is full")
        )
        assert not is_transient_error(ValueError("unrelated"))


class TestResumeTokenPickle:
    def test_resume_token_round_trips(self):
        import pickle

        from repro.resilience import ResumeToken

        token = ResumeToken(
            key="abc123",
            worlds_done=17,
            schema=("c0",),
            intersection=frozenset({(1,), (2,)}),
            kernel_epoch=3,
        )
        revived = pickle.loads(pickle.dumps(token))
        assert revived.key == token.key
        assert revived.worlds_done == 17
        assert revived.schema == ("c0",)
        assert revived.intersection == frozenset({(1,), (2,)})
        assert revived.kernel_epoch == 3


class TestBackoffDeadlineClamp:
    def test_sleeps_never_exceed_remaining_deadline(self):
        # A huge base_delay against a 5 s (manual-clock) deadline: every
        # backoff sleep must be clamped to what is left of the budget.
        clock = ManualClock(step=1.0)
        budget = Budget(deadline=5.0, clock=clock)
        sleeps = []

        def always():
            raise sqlite3.OperationalError("database is locked")

        with budget_scope(budget.start()):
            with pytest.raises((sqlite3.OperationalError, BudgetExceeded)):
                with_retries(
                    always,
                    retries=10,
                    base_delay=60.0,
                    max_delay=120.0,
                    sleep=sleeps.append,
                    rng=random.Random(0),
                )
        assert sleeps, "expected at least one clamped backoff sleep"
        assert all(s <= 5.0 for s in sleeps), sleeps

    def test_clamp_is_inactive_without_budget(self):
        sleeps = []

        def always():
            raise sqlite3.OperationalError("database is locked")

        with pytest.raises(sqlite3.OperationalError):
            with_retries(
                always,
                retries=2,
                base_delay=60.0,
                max_delay=120.0,
                sleep=sleeps.append,
                rng=random.Random(0),
            )
        assert all(s > 5.0 for s in sleeps), sleeps
