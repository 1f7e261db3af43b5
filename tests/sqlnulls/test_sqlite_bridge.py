"""The sqlnulls → SQLite bridge must agree with the Python 3VL engine.

``repro.connect(db, engine="sqlite").sql(q)`` transliterates the SQL
subset onto real SQLite with marked nulls stored as SQL ``NULL``; the
by-the-book Python evaluator (:func:`execute_sql`) is the oracle.  Output
nulls cannot carry marks back out of SQL, so comparisons normalize every
null to one placeholder.
"""

import pytest

import repro
from repro.datamodel import Database, Null, Relation
from repro.datamodel.values import is_null
from repro.sqlnulls import SQLError, compile_select, execute_sql, parse_sql
from repro.workloads import orders_payments


def _normalized(rows):
    """Bag of rows with every null collapsed to one placeholder."""
    return sorted(
        tuple("NULL" if is_null(value) else value for value in row) for row in rows
    )


def _agree(database, sql_text):
    query = parse_sql(sql_text)
    python_rows = execute_sql(database, query)
    sqlite_rows = repro.connect(database, engine="sqlite").sql(query)
    assert _normalized(python_rows) == _normalized(sqlite_rows), sql_text
    return python_rows


@pytest.fixture
def db():
    return Database.from_relations(
        [
            Relation.create(
                "Orders",
                [("o1", "widget"), ("o2", "gadget"), ("o3", "widget")],
                attributes=("o_id", "product"),
            ),
            Relation.create(
                "Pay",
                [("p1", "o1", 10), ("p2", Null("u1"), 25), ("p3", "o3", 25), ("p3", "o3", 25)],
                attributes=("p_id", "ord", "amount"),
            ),
        ]
    )


class TestBridgeParity:
    def test_unpaid_orders_not_in_bug(self, db):
        # The Section 1 example: one null in Pay.ord makes NOT IN unknown
        # everywhere, and SQL silently loses every answer — on both the
        # simulated engine and the real one.
        rows = _agree(db, "SELECT o_id FROM Orders WHERE o_id NOT IN (SELECT ord FROM Pay)")
        assert rows == []

    def test_in_subquery(self, db):
        rows = _agree(db, "SELECT o_id FROM Orders WHERE o_id IN (SELECT ord FROM Pay)")
        assert len(rows) == 2

    def test_is_null_and_is_not_null(self, db):
        _agree(db, "SELECT p_id FROM Pay WHERE ord IS NULL")
        _agree(db, "SELECT p_id FROM Pay WHERE ord IS NOT NULL")

    def test_joins_comparisons_and_connectives(self, db):
        _agree(db, "SELECT o_id, amount FROM Orders, Pay WHERE ord = o_id AND amount > 10")
        _agree(db, "SELECT p_id FROM Pay WHERE amount >= 25 OR ord = 'o1'")
        _agree(db, "SELECT p_id FROM Pay WHERE NOT (amount < 25)")

    def test_exists_and_correlation(self, db):
        _agree(
            db,
            "SELECT product FROM Orders WHERE EXISTS "
            "(SELECT p_id FROM Pay WHERE ord = o_id)",
        )
        _agree(
            db,
            "SELECT product FROM Orders WHERE NOT EXISTS "
            "(SELECT p_id FROM Pay WHERE ord = o_id)",
        )

    def test_bag_semantics_and_distinct(self, db):
        duplicated = _agree(db, "SELECT amount FROM Pay WHERE amount = 25")
        assert len(duplicated) == 2  # p2 and p3; the duplicate p3 row is one fact
        _agree(db, "SELECT DISTINCT amount FROM Pay")

    def test_select_star(self, db):
        _agree(db, "SELECT * FROM Pay")

    def test_scaled_scenario(self):
        database = orders_payments(num_orders=30, num_payments=15, null_fraction=0.3, seed=11)
        _agree(
            database,
            "SELECT o_id FROM Orders WHERE o_id NOT IN (SELECT ord FROM Pay)",
        )

    def test_engine_argument_validated(self, db):
        with pytest.raises(ValueError):
            repro.connect(db, engine="oracle")


class TestCompilation:
    def test_compiled_text_is_parameterized(self, db):
        sql, params = compile_select(
            db, parse_sql("SELECT p_id FROM Pay WHERE amount = 25 AND ord = 'o1'")
        )
        assert "?" in sql and params == (25, "o1")
        assert "25" not in sql  # literals never interpolated into text

    def test_unknown_table_rejected(self, db):
        with pytest.raises(SQLError):
            repro.connect(db, engine="sqlite").sql(parse_sql("SELECT x FROM Nope"))

    def test_unknown_column_rejected(self, db):
        with pytest.raises(SQLError):
            repro.connect(db, engine="sqlite").sql(parse_sql("SELECT nope FROM Pay"))
