"""Streaming cursors: batches, certain filtering, teardown, fallbacks."""

import pytest

import repro
from repro import Database, Null, Relation
from repro.algebra import parse_ra
from repro.algebra.ast import product, relation, select, union
from repro.algebra.predicates import Attr, Comparison


@pytest.fixture
def db():
    rows = [("k%d" % (i % 10), "v%d" % i) for i in range(500)]
    return Database.from_relations(
        [
            Relation.create("Big", rows, attributes=("a", "b")),
            Relation.create(
                "WithNulls", [(1, 2), (Null("x"), 3), (4, Null("y"))], attributes=("a", "b")
            ),
        ]
    )


QUERY = parse_ra("project[b](select[a = 'k7'](Big))")


class TestSqliteStreaming:
    def test_cursor_yields_every_row_once(self, db):
        session = repro.connect(db, engine="sqlite")
        relation = session.query(QUERY).certain()
        streamed = list(session.query(QUERY).cursor(batch_size=7))
        assert sorted(streamed) == sorted(relation.rows)
        assert len(streamed) == len(set(streamed))  # set semantics preserved

    def test_fetchmany_and_batches(self, db):
        session = repro.connect(db, engine="sqlite")
        cursor = session.query(parse_ra("Big")).cursor(batch_size=64)
        first = cursor.fetchmany(10)
        assert len(first) == 10
        rest = [row for batch in cursor.batches() for row in batch]
        assert len(first) + len(rest) == 500
        assert cursor.fetchmany() == []

    def test_cursor_context_manager_closes_early(self, db):
        session = repro.connect(db, engine="sqlite")
        with session.query(parse_ra("Big")).cursor(batch_size=8) as cursor:
            next(iter(cursor))
        # the backend stays usable after an abandoned stream
        assert len(session.query(QUERY).certain()) == 50

    def test_certain_cursor_drops_null_rows_in_flight(self, db):
        session = repro.connect(db, engine="sqlite")
        rows = list(session.query(parse_ra("WithNulls")).cursor(certain=True))
        assert rows == [(1, 2)]
        everything = list(session.query(parse_ra("WithNulls")).cursor())
        assert len(everything) == 3

    def test_outside_fragment_falls_back_to_materializing(self, db):
        session = repro.connect(db, engine="sqlite")
        order_query = parse_ra("select[#0 < #1](WithNulls)")
        with pytest.raises(Exception):  # order comparison on nulls: same error
            list(session.query(order_query).cursor())


def _drain_rows(cursor):
    return list(cursor)


def _drain_fetchmany(cursor):
    rows = []
    while True:
        batch = cursor.fetchmany()
        if not batch:
            return rows
        rows.extend(batch)


def _drain_batches(cursor):
    return [row for batch in cursor.batches() for row in batch]


def _drain_next(cursor):
    rows = []
    while True:
        try:
            rows.append(next(cursor))
        except StopIteration:
            return rows


def _leaked_temp_tables(connection):
    return connection.execute(
        "SELECT name FROM sqlite_temp_master "
        "WHERE type = 'table' AND name LIKE '\\_repro\\_tmp%' ESCAPE '\\'"
    ).fetchall()


class TestCursorBatches:
    @pytest.mark.parametrize("engine", ["sqlite", "plan"])
    def test_counters_agree_across_consumption_styles(self, db, engine):
        totals = []
        for drain in (_drain_rows, _drain_next, _drain_fetchmany, _drain_batches):
            session = repro.connect(db, engine=engine)
            with session.query(QUERY).cursor(batch_size=4) as cursor:
                rows = drain(cursor)
            counters = session.metrics()["counters"]
            assert counters["cursor.rows"] == len(rows) == 50, drain.__name__
            totals.append((counters["cursor.batches"], counters["cursor.rows"]))
            session.close()
        assert totals == [(13, 50)] * 4

    def test_mixed_reads_lose_and_repeat_nothing(self, db):
        session = repro.connect(db, engine="sqlite")
        expected = session.query(QUERY).certain().rows
        cursor = session.query(QUERY).cursor(batch_size=4)
        rows = [next(cursor)]
        rows += cursor.fetchmany(3)  # crosses into the second batch
        rows += cursor.fetchmany()  # the unread rest of that batch
        rows.append(next(cursor))
        batches = cursor.batches()
        first = next(batches)  # the rest of the third batch
        rows += first
        assert len(first) == 3
        rows += cursor.fetchmany(5)
        rows += [row for batch in batches for row in batch]
        assert cursor.fetchmany() == [] and cursor.fetchmany(2) == []
        assert len(rows) == len(set(rows)) == 50
        assert frozenset(rows) == expected

    def test_default_fetchmany_hands_backend_batches_through(self, db):
        session = repro.connect(db, engine="sqlite")
        sizes = [len(batch) for batch in session.query(QUERY).cursor(batch_size=8).batches()]
        assert sizes == [8] * 6 + [2]

    def test_close_mid_batch_leaks_no_temp_tables(self, db):
        shared = select(product(relation("Big"), relation("Big")), Comparison(Attr(0), "=", Attr(2)))
        spilling = union(shared, shared)
        session = repro.connect(db, engine="sqlite")
        cursor = session.query(spilling).cursor(batch_size=4)
        next(cursor)
        cursor.fetchmany(2)
        assert _leaked_temp_tables(session._engine.sentinel.backend.connection) != []
        cursor.close()
        assert _leaked_temp_tables(session._engine.sentinel.backend.connection) == []
        assert cursor.fetchmany() == [] and list(cursor) == []
        session.close()


class TestInMemoryFallback:
    @pytest.mark.parametrize("engine", ["plan", "interpreter"])
    def test_cursor_iterates_evaluated_relation(self, db, engine):
        session = repro.connect(db, engine=engine)
        streamed = sorted(session.query(QUERY).cursor())
        assert streamed == sorted(session.query(QUERY).certain().rows)

    def test_certain_cursor_falls_back_outside_guaranteed_fragment(self, db):
        session = repro.connect(db)
        non_ucq = parse_ra("diff(project[a](WithNulls), project[a](WithNulls))")
        assert list(session.query(non_ucq).cursor(certain=True)) == []

    def test_batch_size_validated(self, db):
        session = repro.connect(db)
        with pytest.raises(ValueError, match="batch_size"):
            session.query(QUERY).cursor(batch_size=0)


@pytest.mark.parametrize("engine", ["plan", "sqlite"])
class TestTypedSizes:
    """``batch_size`` is an ``int >= 1`` and ``fetchmany(size)`` an ``int >= 0``
    (``bool`` excluded); anything else is an :class:`InvalidRequestError`,
    never a raw error from the row slicing."""

    @pytest.mark.parametrize("batch_size", [0, 1.5, "3", True, None])
    def test_cursor_refuses_a_bad_batch_size(self, db, engine, batch_size):
        with repro.connect(db, engine=engine) as session:
            with pytest.raises(repro.InvalidRequestError, match="batch_size must be an int >= 1"):
                session.query(QUERY).cursor(batch_size=batch_size)

    @pytest.mark.parametrize("size", [-1, 1.5, "2", False])
    def test_fetchmany_refuses_a_bad_size(self, db, engine, size):
        with repro.connect(db, engine=engine) as session:
            with session.query(parse_ra("Big")).cursor(batch_size=64) as cursor:
                with pytest.raises(repro.InvalidRequestError, match="size must be an int >= 0"):
                    cursor.fetchmany(size)
                assert len(cursor.fetchmany(3)) == 3
                assert cursor.fetchmany(0) == []

    def test_accepted_sizes_stream_every_row(self, db, engine):
        with repro.connect(db, engine=engine) as session:
            cursor = session.query(parse_ra("Big")).cursor(batch_size=1)
            rows = cursor.fetchmany(7) + cursor.fetchall()
        assert len(rows) == 500
