"""Unit tests for the SQL engine's three-valued null semantics."""

import pytest

from repro.datamodel import Database, Null, Relation
from repro.sqlnulls import SQLEngine, SQLError, execute_sql, parse_sql


@pytest.fixture
def orders_db():
    return Database.from_relations(
        [
            Relation.create(
                "Orders", [("oid1", "pr1"), ("oid2", "pr2")], attributes=("o_id", "product")
            ),
            Relation.create(
                "Pay", [("pid1", Null("o"), 100)], attributes=("p_id", "ord", "amount")
            ),
        ]
    )


@pytest.fixture
def rs_db():
    return Database.from_relations(
        [
            Relation.create("R", [(1,), (2,), (3,)], attributes=("A",)),
            Relation.create("S", [(Null("s"),)], attributes=("A",)),
        ]
    )


class TestBasicEvaluation:
    def test_select_star(self, orders_db):
        rows = execute_sql(orders_db, parse_sql("SELECT * FROM Orders"))
        assert sorted(rows) == [("oid1", "pr1"), ("oid2", "pr2")]

    def test_projection_and_selection(self, orders_db):
        rows = execute_sql(orders_db, parse_sql("SELECT o_id FROM Orders WHERE product = 'pr2'"))
        assert rows == [("oid2",)]

    def test_cartesian_product(self, orders_db):
        rows = execute_sql(orders_db, parse_sql("SELECT o_id, p_id FROM Orders, Pay"))
        assert len(rows) == 2

    def test_join_with_aliases(self, orders_db):
        rows = execute_sql(
            orders_db,
            parse_sql("SELECT o.o_id FROM Orders o, Pay p WHERE p.ord = o.o_id"),
        )
        assert rows == []  # the only payment has a null order reference

    def test_distinct(self):
        db = Database.from_relations(
            [Relation.create("R", [(1, "a"), (2, "a")], attributes=("k", "v"))]
        )
        rows = execute_sql(db, parse_sql("SELECT DISTINCT v FROM R"))
        assert rows == [("a",)]

    def test_relation_output(self, orders_db):
        engine = SQLEngine(orders_db)
        relation = engine.execute_relation(parse_sql("SELECT o_id FROM Orders"), name="Res")
        assert relation.name == "Res"
        assert relation.rows == frozenset({("oid1",), ("oid2",)})

    def test_numeric_comparisons(self, orders_db):
        rows = execute_sql(orders_db, parse_sql("SELECT p_id FROM Pay WHERE amount >= 50"))
        assert rows == [("pid1",)]


class TestNullSemantics:
    def test_comparison_with_null_is_unknown_and_filtered(self, orders_db):
        rows = execute_sql(orders_db, parse_sql("SELECT p_id FROM Pay WHERE ord = 'oid1'"))
        assert rows == []

    def test_tautology_filter_drops_null_rows(self, orders_db):
        """Grant's example: order = 'oid1' OR order <> 'oid1' returns nothing."""
        rows = execute_sql(
            orders_db, parse_sql("SELECT p_id FROM Pay WHERE ord = 'oid1' OR ord <> 'oid1'")
        )
        assert rows == []

    def test_is_null_finds_the_row(self, orders_db):
        rows = execute_sql(orders_db, parse_sql("SELECT p_id FROM Pay WHERE ord IS NULL"))
        assert rows == [("pid1",)]
        rows = execute_sql(orders_db, parse_sql("SELECT p_id FROM Pay WHERE ord IS NOT NULL"))
        assert rows == []

    def test_not_in_with_null_subquery_is_empty(self, orders_db):
        """The unpaid-orders query of Section 1 returns no rows."""
        query = parse_sql("SELECT o_id FROM Orders WHERE o_id NOT IN (SELECT ord FROM Pay)")
        assert execute_sql(orders_db, query) == []

    def test_not_in_difference_always_empty_with_null(self, rs_db):
        """R − S via NOT IN is empty whenever S contains a null (Section 1)."""
        query = parse_sql("SELECT R.A FROM R WHERE R.A NOT IN (SELECT S.A FROM S)")
        assert execute_sql(rs_db, query) == []

    def test_not_in_works_without_nulls(self):
        db = Database.from_relations(
            [
                Relation.create("R", [(1,), (2,), (3,)], attributes=("A",)),
                Relation.create("S", [(2,)], attributes=("A",)),
            ]
        )
        query = parse_sql("SELECT R.A FROM R WHERE R.A NOT IN (SELECT S.A FROM S)")
        assert sorted(execute_sql(db, query)) == [(1,), (3,)]

    def test_in_with_matching_constant_still_true(self, rs_db):
        db = rs_db.add_facts([("S", (2,))])
        query = parse_sql("SELECT R.A FROM R WHERE R.A IN (SELECT S.A FROM S)")
        assert sorted(execute_sql(db, query)) == [(2,)]

    def test_not_exists_with_correlation_behaves_differently(self, orders_db):
        """NOT EXISTS does not suffer from the NOT IN null trap."""
        query = parse_sql(
            "SELECT o_id FROM Orders WHERE NOT EXISTS "
            "(SELECT p_id FROM Pay WHERE Pay.ord = Orders.o_id)"
        )
        assert sorted(execute_sql(orders_db, query)) == [("oid1",), ("oid2",)]

    def test_null_equals_null_is_unknown(self):
        db = Database.from_relations(
            [Relation.create("R", [(Null("a"), Null("a"))], attributes=("x", "y"))]
        )
        rows = execute_sql(db, parse_sql("SELECT x FROM R WHERE x = y"))
        assert rows == []


class TestErrors:
    def test_unknown_column(self, orders_db):
        with pytest.raises(SQLError):
            execute_sql(orders_db, parse_sql("SELECT nope FROM Orders"))

    def test_unknown_alias(self, orders_db):
        with pytest.raises(SQLError):
            execute_sql(orders_db, parse_sql("SELECT z.o_id FROM Orders"))

    def test_ambiguous_column(self):
        db = Database.from_relations(
            [
                Relation.create("R", [(1,)], attributes=("a",)),
                Relation.create("S", [(2,)], attributes=("a",)),
            ]
        )
        with pytest.raises(SQLError):
            execute_sql(db, parse_sql("SELECT a FROM R, S"))

    def test_in_subquery_must_return_single_column(self, orders_db):
        query = parse_sql("SELECT o_id FROM Orders WHERE o_id IN (SELECT * FROM Pay)")
        with pytest.raises(SQLError):
            execute_sql(orders_db, query)
