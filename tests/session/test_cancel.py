"""Cooperative cancellation: Session.cancel(), in-statement deadlines,
idempotent cursor close, and RetryPolicy threading.

The progress-handler tests use a triple cross product over a 300-row
relation (~27M intermediate rows) so a single SQLite statement runs long
enough for the deadline to expire *inside* it — the PR-6 gap where a
deadline armed outside the backend could not abort a running statement.
"""

import threading
import time

import pytest

import repro
from repro import (
    Budget,
    BudgetExceeded,
    ManualClock,
    QueryCancelled,
    ReproError,
    RetryPolicy,
)
from repro.algebra import parse_ra
from repro.backends.base import Backend
from repro.datamodel import Database
from repro.resilience import DEFAULT_RETRY_POLICY, BudgetState, with_retries

SLOW_QUERY = "project[#0](product(product(R, R), R))"


def _slow_database(rows=300):
    return Database.from_dict({"R": [(i,) for i in range(rows)]})


@pytest.fixture
def slow_db():
    return _slow_database()


class TestInStatementDeadline:
    def test_deadline_aborts_running_sqlite_statement(self, slow_db):
        session = repro.connect(slow_db, engine="sqlite")
        try:
            started = time.monotonic()
            with pytest.raises(BudgetExceeded) as excinfo:
                session.query(parse_ra(SLOW_QUERY)).certain(
                    method="naive", budget=Budget(deadline=0.25),
                    on_budget="raise",
                )
            elapsed = time.monotonic() - started
            assert excinfo.value.resource == "deadline"
            # The progress handler fires every few thousand opcodes, so
            # the abort lands well within the gate's 250 ms latency bound.
            assert elapsed < 0.25 + 0.25, f"cancel latency too high: {elapsed:.3f}s"
        finally:
            session.close()

    def test_progress_handler_disarmed_after_evaluation(self, slow_db):
        session = repro.connect(slow_db, engine="sqlite")
        try:
            with pytest.raises(BudgetExceeded):
                session.query(parse_ra(SLOW_QUERY)).certain(
                    method="naive", budget=Budget(deadline=0.25),
                    on_budget="raise",
                )
            backend = session._engine.sentinel.backend
            assert backend._deadline_states == []
            # The connection still works: the handler (and the interrupt
            # flag) did not leak into subsequent statements.
            small = session.query(parse_ra("project[#0](R)")).certain(
                method="naive"
            )
            assert len(set(small.rows)) == 300
        finally:
            session.close()

    def test_manual_clock_deadline_does_not_arm_handler(self, slow_db):
        # ManualClock budgets are deterministic test fixtures; arming the
        # wall-clock progress handler for them would be meaningless.
        session = repro.connect(slow_db, engine="sqlite")
        try:
            budget = Budget(deadline=1000.0, clock=ManualClock(step=0.001))
            result = session.query(parse_ra("project[#0](R)")).certain(
                method="naive", budget=budget, on_budget="raise"
            )
            assert len(set(result.rows)) == 300
        finally:
            session.close()


class TestSessionCancel:
    def test_cancel_interrupts_running_statement_cross_thread(self, slow_db):
        session = repro.connect(slow_db, engine="sqlite")
        outcome = {}

        def victim():
            try:
                session.query(parse_ra(SLOW_QUERY)).certain(
                    method="naive", budget=Budget(deadline=300.0),
                    on_budget="raise",
                )
                outcome["error"] = None
            except ReproError as error:
                outcome["error"] = error

        worker = threading.Thread(target=victim)
        worker.start()
        time.sleep(0.3)  # let the statement start running
        session.cancel()
        worker.join(timeout=30)
        assert not worker.is_alive(), "cancel did not unblock the query"
        assert isinstance(outcome["error"], QueryCancelled)
        # NOTE: the backend connection was created lazily in the victim
        # thread; sqlite3 enforces thread affinity on close, so the
        # session is abandoned here rather than closed.

    def test_cancelled_query_never_degrades(self, slow_db):
        # QueryCancelled is an explicit user action, not a resource limit:
        # on_budget="partial" must not swallow it into a PartialResult.
        session = repro.connect(slow_db, engine="sqlite")
        outcome = {}

        def victim():
            try:
                session.query(parse_ra(SLOW_QUERY)).certain(
                    method="naive", budget=Budget(deadline=300.0),
                    on_budget="partial",
                )
                outcome["error"] = None
            except ReproError as error:
                outcome["error"] = error

        worker = threading.Thread(target=victim)
        worker.start()
        time.sleep(0.3)
        session.cancel()
        worker.join(timeout=30)
        assert not worker.is_alive()
        assert isinstance(outcome["error"], QueryCancelled)

    def test_cancel_when_idle_is_a_safe_no_op(self, slow_db):
        session = repro.connect(slow_db)
        try:
            session.cancel()
            session.cancel()
            result = session.query(parse_ra("project[#0](R)")).certain(
                method="naive"
            )
            assert len(set(result.rows)) == 300
        finally:
            session.close()

    def test_cancelled_state_raises_before_any_resource_check(self):
        state = BudgetState(Budget(max_worlds=10))
        state.cancel()
        assert state.cancelled
        with pytest.raises(QueryCancelled):
            state.check()

    def test_query_cancelled_is_not_a_budget_error(self):
        assert not issubclass(QueryCancelled, BudgetExceeded)
        assert issubclass(QueryCancelled, ReproError)

    def test_base_backend_interrupt_is_a_no_op(self):
        class Minimal(Backend):
            def create_schema(self, schema):  # pragma: no cover - unused
                raise NotImplementedError

            def load_database(self, database):  # pragma: no cover - unused
                raise NotImplementedError

            def load_rows(self, name, rows):  # pragma: no cover - unused
                raise NotImplementedError

            def extract_relation(self, name):  # pragma: no cover - unused
                raise NotImplementedError

            def evaluate(self, expression):  # pragma: no cover - unused
                raise NotImplementedError

            def close(self):  # pragma: no cover - unused
                raise NotImplementedError

        Minimal().interrupt()  # must not raise


class TestCursorCloseIdempotent:
    def test_close_is_idempotent(self, slow_db):
        session = repro.connect(slow_db, engine="sqlite")
        try:
            cursor = session.query(parse_ra("project[#0](R)")).cursor()
            cursor.fetchmany(5)
            assert not cursor.closed
            cursor.close()
            assert cursor.closed
            cursor.close()  # second close: no error, no double-teardown
            assert cursor.closed
        finally:
            session.close()

    def test_close_mid_retry_loop_is_safe(self, slow_db):
        # Regression for the retry-loop shape: a cursor closed while a
        # caller's retry wrapper is tearing down must stay closeable.
        session = repro.connect(slow_db, engine="sqlite")
        try:
            cursor = session.query(parse_ra("project[#0](R)")).cursor()

            attempts = []

            def flaky():
                attempts.append(1)
                cursor.close()
                if len(attempts) < 2:
                    raise RuntimeError("transient")
                return "ok"

            result = with_retries(
                flaky,
                policy=RetryPolicy(
                    retries=3, base_delay=0.0, max_delay=0.0,
                    retryable=lambda e: True,
                ),
                sleep=lambda _: None,
            )
            assert result == "ok"
            assert len(attempts) == 2
            assert cursor.closed
        finally:
            session.close()

    def test_reads_after_close_yield_empty(self, slow_db):
        # Documented contract: a closed cursor reads as exhausted rather
        # than raising, so a fetch racing a close stays benign.
        session = repro.connect(slow_db, engine="sqlite")
        try:
            cursor = session.query(parse_ra("project[#0](R)")).cursor()
            cursor.close()
            assert cursor.fetchmany(1) == []
            assert cursor.fetchall() == []
            assert list(cursor.batches()) == []
        finally:
            session.close()


class TestRetryPolicyThreading:
    def test_connect_accepts_and_stores_policy(self, slow_db):
        policy = RetryPolicy(retries=7, base_delay=0.01, max_delay=0.1)
        session = repro.connect(slow_db, retry_policy=policy)
        try:
            assert session.retry_policy is policy
        finally:
            session.close()

    def test_default_policy_when_omitted(self, slow_db):
        session = repro.connect(slow_db)
        try:
            assert session.retry_policy is DEFAULT_RETRY_POLICY
        finally:
            session.close()

    def test_connect_rejects_non_policy(self, slow_db):
        with pytest.raises(TypeError):
            repro.connect(slow_db, retry_policy="aggressive")

    def test_policy_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(retries=-1)
        with pytest.raises(ValueError):
            RetryPolicy(base_delay=-0.1)
        with pytest.raises(ValueError):
            RetryPolicy(max_delay=-1.0)

    def test_policy_delay_caps_at_max(self):
        policy = RetryPolicy(retries=10, base_delay=0.1, max_delay=0.4)
        delays = [policy.delay_for(a) for a in range(6)]
        assert delays[0] == pytest.approx(0.1)
        assert max(delays) <= 0.4

    def test_session_policy_drives_with_retries(self, slow_db):
        # A zero-retry policy must surface the first transient error.
        policy = RetryPolicy(retries=0, base_delay=0.0, max_delay=0.0)
        calls = []

        def always_busy():
            calls.append(1)
            raise RuntimeError("boom")

        with pytest.raises(RuntimeError):
            with_retries(
                always_busy, policy=policy, sleep=lambda _: None
            )
        assert len(calls) == 1
