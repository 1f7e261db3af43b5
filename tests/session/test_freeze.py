"""Frozen sessions: read-only semantics, refusal guards, and the real
multithreaded differential — many threads hammering one frozen session
(plus mutable sessions alongside) must equal sequential evaluation with
zero cross-session cache leakage.

``Session.freeze()`` is the concurrency contract behind ``repro.serve``:
after warm-up, the plan cache serves hits without LRU reordering, the
condition kernel interns nothing new, and the SQLite backend handle
refuses every mutation — so sharing the session across threads needs no
session lock.  SQLite reads take turns on the handle per statement; the
tests at the end hold served-style requests, cancellation and a nested
stream to sequential answers under that lock.
"""

import threading

import pytest

import repro
from repro import Database, InvalidRequestError, Null
from repro.algebra import parse_ra
from repro.datamodel.schema import DatabaseSchema

WARM_QUERY = parse_ra("project[#0](R)")
JOIN_QUERY = parse_ra("project[#0](select[#1 = #2](product(R, S)))")
UNWARMED_QUERY = parse_ra("select[#0 = 1](R)")


def _database():
    return Database.from_dict(
        {
            "R": [(1, 2), (2, 3), (3, Null("x"))],
            "S": [(2, "a"), (3, "b"), (Null("y"), "c")],
        }
    )


@pytest.fixture(params=["plan", "sqlite"])
def frozen_session(request):
    session = repro.connect(_database(), engine=request.param)
    session.freeze(warm=[WARM_QUERY, JOIN_QUERY])
    yield session
    session.close()


# ----------------------------------------------------------------------
# semantics of the frozen state
# ----------------------------------------------------------------------
def test_freeze_returns_self_and_is_idempotent():
    session = repro.connect(_database())
    try:
        assert not session.frozen
        assert session.freeze() is session
        assert session.frozen
        assert session.freeze() is session  # one-way, re-freeze is a no-op
    finally:
        session.close()


def test_frozen_session_still_answers(frozen_session):
    expected = repro.connect(_database()).query(WARM_QUERY).certain()
    assert frozen_session.query(WARM_QUERY).certain() == expected
    assert frozen_session.query(WARM_QUERY).possible() is not None
    assert frozen_session.query(parse_ra("R")).boolean() is True


def test_frozen_session_answers_unwarmed_queries_without_caching(frozen_session):
    interned_before = frozen_session.kernel.stats()["interned"]
    plans_before = len(frozen_session.plan_cache)
    expected = repro.connect(_database()).query(UNWARMED_QUERY).certain()
    for _ in range(3):
        assert frozen_session.query(UNWARMED_QUERY).certain() == expected
    assert frozen_session.kernel.stats()["interned"] == interned_before
    assert len(frozen_session.plan_cache) == plans_before


def test_frozen_session_refuses_mutation(frozen_session):
    with pytest.raises(InvalidRequestError):
        frozen_session.clear_caches()
    with pytest.raises(InvalidRequestError):
        frozen_session.create_schema(
            DatabaseSchema.from_attributes({"T": ("a",)})
        )
    with pytest.raises(InvalidRequestError):
        frozen_session.load_rows("R", [(9, 9)])


def test_frozen_caches_refuse_clear_and_evict(frozen_session):
    with pytest.raises(InvalidRequestError):
        frozen_session.plan_cache.clear()
    with pytest.raises(InvalidRequestError):
        frozen_session.kernel.clear()
    with pytest.raises(InvalidRequestError):
        frozen_session.kernel.evict()


def test_frozen_sqlite_backend_refuses_database_switch():
    session = repro.connect(_database(), engine="sqlite")
    try:
        session.query(WARM_QUERY).certain()
        session.freeze()
        other = Database.from_dict({"R": [(9, 9)], "S": [(9, "z")]})
        with pytest.raises(InvalidRequestError):
            session._engine.sentinel.acquire(other)
    finally:
        session.close()


def test_frozen_session_answers_a_database_override(frozen_session):
    # The frozen SQLite handle cannot switch; the in-memory engine answers.
    other = Database.from_dict({"R": [(9, 9), (8, Null("z"))], "S": [(9, "z")]})
    expected = WARM_QUERY.evaluate(other)
    query = frozen_session.query(WARM_QUERY, database=other)
    assert query.answer_object() == expected
    assert query.certain() == expected.complete_part()
    assert set(query.cursor()) == expected.rows
    assert frozen_session.query(WARM_QUERY).answer_object() == WARM_QUERY.evaluate(_database())


def test_freeze_on_closed_session_raises():
    session = repro.connect(_database())
    session.close()
    with pytest.raises(repro.SessionClosedError):
        session.freeze()


# ----------------------------------------------------------------------
# the multithreaded differential
# ----------------------------------------------------------------------
QUERY_SET = (WARM_QUERY, JOIN_QUERY, UNWARMED_QUERY)


def _hammer(session, iterations, failures, barrier):
    barrier.wait()
    try:
        for index in range(iterations):
            query = QUERY_SET[index % len(QUERY_SET)]
            session.query(query).certain()
    except Exception as error:  # noqa: BLE001 - recorded for the assertion
        failures.append(error)


@pytest.mark.parametrize("engine", ["plan", "sqlite"])
def test_threads_on_frozen_session_match_sequential(engine):
    """>= 8 threads on one frozen session: correct answers, no errors."""
    threads_count, iterations = 8, 25
    sequential = repro.connect(_database(), engine=engine)
    expected = [sequential.query(q).certain() for q in QUERY_SET]
    sequential.close()

    session = repro.connect(_database(), engine=engine)
    session.freeze(warm=[WARM_QUERY, JOIN_QUERY])
    results, failures = [], []
    barrier = threading.Barrier(threads_count)

    def worker():
        barrier.wait()
        try:
            local = []
            for index in range(iterations):
                query = QUERY_SET[index % len(QUERY_SET)]
                local.append((index % len(QUERY_SET), session.query(query).certain()))
            results.append(local)
        except Exception as error:  # noqa: BLE001
            failures.append(error)

    workers = [threading.Thread(target=worker) for _ in range(threads_count)]
    for thread in workers:
        thread.start()
    for thread in workers:
        thread.join(timeout=120)
    session.close()

    assert not failures, failures
    assert len(results) == threads_count
    for local in results:
        for pick, answer in local:
            assert answer == expected[pick]


def test_frozen_and_mutable_sessions_do_not_leak_into_each_other():
    """The cross-session isolation half of the differential: threads on a
    frozen session run alongside threads mutating their own sessions; the
    frozen caches must not grow and the mutable sessions must not share
    state with the frozen one (or each other)."""
    frozen = repro.connect(_database(), engine="plan")
    frozen.freeze(warm=[WARM_QUERY, JOIN_QUERY])
    interned_before = frozen.kernel.stats()["interned"]
    plans_before = len(frozen.plan_cache)
    expected = repro.connect(_database()).query(WARM_QUERY).certain()

    mutable_sessions = [repro.connect(_database(), engine="plan") for _ in range(4)]
    assert all(s.kernel is not frozen.kernel for s in mutable_sessions)
    assert all(s.plan_cache is not frozen.plan_cache for s in mutable_sessions)

    failures = []
    barrier = threading.Barrier(8)
    frozen_threads = [
        threading.Thread(target=_hammer, args=(frozen, 30, failures, barrier))
        for _ in range(4)
    ]
    mutable_threads = [
        threading.Thread(target=_hammer, args=(s, 30, failures, barrier))
        for s in mutable_sessions
    ]
    for thread in frozen_threads + mutable_threads:
        thread.start()
    for thread in frozen_threads + mutable_threads:
        thread.join(timeout=120)

    assert not failures, failures
    # The frozen caches did not move under eight threads of traffic...
    assert frozen.kernel.stats()["interned"] == interned_before
    assert len(frozen.plan_cache) == plans_before
    # ...the frozen session still answers correctly afterwards...
    assert frozen.query(WARM_QUERY).certain() == expected
    # ...and the mutable sessions kept their own, still-mutable caches.
    for session in mutable_sessions:
        assert not session.kernel.frozen
        assert not session.plan_cache.frozen
        session.clear_caches()  # would raise InvalidRequestError if leaked
        session.close()
    frozen.close()


# ----------------------------------------------------------------------
# one statement at a time on the shared SQLite handle
# ----------------------------------------------------------------------
SERVED_UCQS = (
    WARM_QUERY,
    JOIN_QUERY,
    parse_ra("union(project[#0](R), project[#0](S))"),
    parse_ra("project[#1](S)"),
)
SERVED_SQL = "SELECT * FROM R"


def _served_requests(session):
    """Every served-style request once: ``certain()``, ``cursor()`` batches
    (three rows each, so a stream spans several fetches) and ``sql()``."""
    def streamed(query):
        batches = session.query(query).cursor(batch_size=3).batches()
        return frozenset(row for batch in batches for row in batch)

    requests = []
    for i, query in enumerate(SERVED_UCQS):
        requests.append((f"certain-{i}", lambda q=query: session.query(q).certain()))
        requests.append((f"cursor-{i}", lambda q=query: streamed(q)))
    requests.append(("sql", lambda: sorted(session.sql(SERVED_SQL, certain=True))))
    return requests


def _frozen_sqlite_session():
    session = repro.connect(_database(), engine="sqlite")
    session.sql(SERVED_SQL)  # opens the three-valued handle before it freezes
    return session.freeze(warm=list(SERVED_UCQS))


def _sequential_answers():
    with repro.connect(_database(), engine="sqlite") as session:
        return {name: run() for name, run in _served_requests(session)}


def _run_threads(threads_count, target):
    barrier = threading.Barrier(threads_count)
    failures = []

    def worker():
        barrier.wait()
        try:
            target()
        except Exception as error:  # noqa: BLE001 - recorded for the assertion
            failures.append(error)

    # Daemon threads: a deadlocked request fails the test, not the run.
    workers = [threading.Thread(target=worker, daemon=True) for _ in range(threads_count)]
    for thread in workers:
        thread.start()
    for thread in workers:
        thread.join(timeout=120)
    assert not any(thread.is_alive() for thread in workers), "a served request hung"
    return failures


def test_served_requests_on_one_frozen_sqlite_handle_match_sequential():
    """8 threads take turns on one frozen handle through certain(),
    cursor() batches and sql(): every answer equals the sequential one."""
    expected = _sequential_answers()
    session = _frozen_sqlite_session()
    requests = _served_requests(session)
    answers = []

    def serve():
        for _ in range(10):
            for name, run in requests:
                answers.append((name, run()))

    failures = _run_threads(8, serve)
    session.close()
    assert not failures, failures
    assert len(answers) == 8 * 10 * len(requests)
    for name, answer in answers:
        assert answer == expected[name], name


def test_cancel_during_contention_answers_or_raises_query_cancelled():
    expected = _sequential_answers()
    session = _frozen_sqlite_session()
    requests = _served_requests(session)
    outcomes = []
    started = threading.Event()

    def serve():
        for _ in range(10):
            for name, run in requests:
                started.set()
                try:
                    outcomes.append((name, run()))
                except repro.QueryCancelled:
                    outcomes.append((name, repro.QueryCancelled))

    canceller = threading.Thread(target=lambda: (started.wait(30), session.cancel()), daemon=True)
    canceller.start()
    failures = _run_threads(8, serve)
    canceller.join(timeout=30)
    session.close()
    assert not failures, failures
    assert len(outcomes) == 8 * 10 * len(requests)
    for name, outcome in outcomes:
        assert outcome is repro.QueryCancelled or outcome == expected[name], name


@pytest.mark.parametrize("frozen", [False, True], ids=["mutable", "frozen"])
def test_a_stream_consumer_runs_point_queries_between_batches(frozen):
    """The handle is never held across a yield: a consumer may query the
    same session between the batches of its own stream."""
    expected = _sequential_answers()
    session = _frozen_sqlite_session() if frozen else repro.connect(_database(), engine="sqlite")
    outcome = {}

    def consume():
        rows, points = [], []
        with session.query(SERVED_UCQS[2]).cursor(batch_size=1) as cursor:
            for batch in cursor.batches():
                rows.extend(batch)
                points.append(session.query(WARM_QUERY).certain())
                points.append(sorted(session.sql(SERVED_SQL, certain=True)))
        outcome["rows"], outcome["points"] = rows, points

    thread = threading.Thread(target=consume, daemon=True)
    thread.start()
    thread.join(timeout=60)
    session.close()
    assert not thread.is_alive(), "the nested point query deadlocked"
    assert frozenset(outcome["rows"]) == expected["cursor-2"]
    assert len(outcome["points"]) == 2 * len(outcome["rows"]) > 2
    assert outcome["points"] == [expected["certain-0"], expected["sql"]] * len(outcome["rows"])
