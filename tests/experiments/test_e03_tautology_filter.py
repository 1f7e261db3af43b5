"""E3 — Section 1, Grant's example (the tautological filter).

Paper claim: the query ::

    SELECT p_id FROM Pay WHERE order = 'oid1' OR order <> 'oid1'

evaluated on Pay = {(pid1, ⊥, 100)} returns the empty table under SQL's
three-valued logic, "and yet intuitively we expected the answer to be
'pid1': indeed, no matter what non-null value we replace the null with,
this is what the query will produce."
"""

import repro
from repro.logic import FOQuery, Not, Or, atom, conj, equals, exists, var
from repro.sqlnulls import execute_sql, parse_sql

TAUTOLOGY_SQL = "SELECT p_id FROM Pay WHERE ord = 'oid1' OR ord <> 'oid1'"


class TestSQLGoesWrong:
    def test_sql_returns_empty_on_the_null_row(self, paper_orders_db):
        assert execute_sql(paper_orders_db, parse_sql(TAUTOLOGY_SQL)) == []

    def test_sql_returns_the_row_once_the_null_is_replaced(self, paper_orders_db):
        for replacement in ("oid1", "oid2", "anything"):
            complete = paper_orders_db.map_values(
                lambda value, repl=replacement: repl if getattr(value, "is_null", False) else value
            )
            assert execute_sql(complete, parse_sql(TAUTOLOGY_SQL)) == [("pid1",)]


class TestCertainAnswer:
    def _query(self):
        p, o, a = var("p"), var("o"), var("a")
        condition = Or((equals(o, "oid1"), Not(equals(o, "oid1"))))
        return FOQuery(exists((o, a), conj(atom("Pay", p, o, a), condition)), (p,))

    def test_pid1_is_the_certain_answer(self, paper_orders_db):
        """Replacing ⊥ by any constant keeps pid1 in the answer (world enumeration)."""
        certain = repro.connect(paper_orders_db).query(self._query()).certain(method="enumeration")
        assert certain.rows == frozenset({("pid1",)})

    def test_every_world_returns_pid1(self, paper_orders_db):
        from repro.semantics import cwa_worlds

        query = self._query()
        for world in cwa_worlds(paper_orders_db):
            assert ("pid1",) in query.evaluate(world).rows

    def test_sql_misses_the_certain_answer(self, paper_orders_db):
        sql_rows = set(execute_sql(paper_orders_db, parse_sql(TAUTOLOGY_SQL)))
        certain = repro.connect(paper_orders_db).query(self._query()).certain(method="enumeration")
        assert sql_rows == set()
        assert set(certain.rows) == {("pid1",)}
        assert sql_rows < set(certain.rows)
