"""E1 — Section 1, the unpaid-orders example.

Paper claim: the textbook SQL query ::

    SELECT o_id FROM Order WHERE o_id NOT IN (SELECT order FROM Pay)

returns the empty set on Order = {(oid1,pr1), (oid2,pr2)},
Pay = {(pid1, ⊥, 100)}, even though *we know* at least one order is unpaid
(the single payment can cover at most one of the two orders).
"""

import repro
from repro.algebra import parse_ra
from repro.core import sound_certain_answers
from repro.semantics import enumerate_certain_boolean, enumerate_possible_boolean
from repro.sqlnulls import execute_sql, parse_sql

UNPAID_SQL = "SELECT o_id FROM Orders WHERE o_id NOT IN (SELECT ord FROM Pay)"
UNPAID_RA = "diff(project[o_id](Orders), rename[PaidOrders(o_id)](project[ord](Pay)))"


class TestSQLGoesWrong:
    def test_sql_returns_empty(self, paper_orders_db):
        assert execute_sql(paper_orders_db, parse_sql(UNPAID_SQL)) == []

    def test_sql_works_on_complete_data(self, paper_orders_db):
        complete = paper_orders_db.map_values(
            lambda value: "oid1" if getattr(value, "is_null", False) else value
        )
        rows = execute_sql(complete, parse_sql(UNPAID_SQL))
        assert rows == [("oid2",)]


class TestWhatTheAnswerShouldBe:
    def test_existence_of_an_unpaid_order_is_certain(self, paper_orders_db):
        """In every possible world at least one order is unpaid."""
        query = parse_ra(UNPAID_RA)
        assert enumerate_certain_boolean(
            lambda world: bool(query.evaluate(world)), paper_orders_db, semantics="cwa"
        )

    def test_no_individual_order_is_certainly_unpaid(self, paper_orders_db):
        """Tuple-level certain answers are empty: the null could be either order."""
        query = parse_ra(UNPAID_RA)
        certain = repro.connect(paper_orders_db).query(query).certain(method="enumeration")
        assert certain.rows == frozenset()

    def test_each_order_is_possibly_unpaid(self, paper_orders_db):
        query = parse_ra(UNPAID_RA)
        for order_id in ("oid1", "oid2"):
            assert enumerate_possible_boolean(
                lambda world, oid=order_id: (oid,) in query.evaluate(world).rows,
                paper_orders_db,
                semantics="cwa",
            )

    def test_sound_evaluation_gives_no_false_positives(self, paper_orders_db):
        """Sound evaluation agrees with the certain answers here (both empty):
        unlike SQL it is *silent for the right reason* — no good guys chased."""
        query = parse_ra(UNPAID_RA)
        sound = sound_certain_answers(query, paper_orders_db)
        certain = repro.connect(paper_orders_db).query(query).certain(method="enumeration")
        assert sound.rows <= certain.rows

    def test_sql_and_certain_answers_coincide_on_complete_data(self, paper_orders_db):
        complete = paper_orders_db.map_values(
            lambda value: "oid1" if getattr(value, "is_null", False) else value
        )
        query = parse_ra(UNPAID_RA)
        sql_rows = set(execute_sql(complete, parse_sql(UNPAID_SQL)))
        certain = repro.connect(complete).query(query).certain(method="enumeration")
        assert sql_rows == set(certain.rows) == {("oid2",)}
