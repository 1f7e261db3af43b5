"""Unit tests for the IS NOT NULL certain-answer rewriting of positive SQL."""

import pytest

import repro
from repro.algebra import parse_ra
from repro.datamodel import Database, Null, Relation
from repro.sqlnulls import (
    RewritingError,
    certain_answer_rewriting,
    execute_sql,
    is_positive_sql,
    parse_sql,
)


@pytest.fixture
def codd_db():
    """A Codd database (SQL-style nulls: each null occurs once)."""
    return Database.from_relations(
        [
            Relation.create(
                "Emp",
                [("ann", "sales"), ("bob", Null("d1")), ("cat", "it")],
                attributes=("name", "dept"),
            ),
            Relation.create(
                "Dept", [("sales", "london"), ("it", Null("c1"))], attributes=("dept", "city")
            ),
        ]
    )


class TestPositiveFragmentCheck:
    def test_positive_queries(self):
        assert is_positive_sql(parse_sql("SELECT name FROM Emp"))
        assert is_positive_sql(parse_sql("SELECT name FROM Emp WHERE dept = 'it'"))
        assert is_positive_sql(
            parse_sql("SELECT name FROM Emp, Dept WHERE Emp.dept = Dept.dept")
        )
        assert is_positive_sql(
            parse_sql("SELECT name FROM Emp WHERE dept IN (SELECT dept FROM Dept)")
        )
        assert is_positive_sql(
            parse_sql("SELECT name FROM Emp WHERE EXISTS (SELECT dept FROM Dept)")
        )
        assert is_positive_sql(
            parse_sql("SELECT name FROM Emp WHERE dept = 'it' OR dept = 'sales'")
        )

    def test_negative_queries(self):
        assert not is_positive_sql(
            parse_sql("SELECT name FROM Emp WHERE dept NOT IN (SELECT dept FROM Dept)")
        )
        assert not is_positive_sql(parse_sql("SELECT name FROM Emp WHERE NOT dept = 'it'"))
        assert not is_positive_sql(parse_sql("SELECT name FROM Emp WHERE dept <> 'it'"))
        assert not is_positive_sql(parse_sql("SELECT name FROM Emp WHERE dept IS NULL"))
        assert not is_positive_sql(
            parse_sql(
                "SELECT name FROM Emp WHERE dept IN (SELECT dept FROM Dept WHERE NOT city = 'x')"
            )
        )


class TestRewriting:
    def test_adds_guards_for_selected_columns(self, codd_db):
        query = parse_sql("SELECT dept FROM Emp")
        rewritten = certain_answer_rewriting(query, codd_db)
        assert "IS NOT NULL" in str(rewritten)
        assert sorted(execute_sql(codd_db, rewritten)) == [("it",), ("sales",)]
        # the original keeps the null row
        assert len(execute_sql(codd_db, query)) == 3

    def test_star_queries_guard_every_column(self, codd_db):
        query = parse_sql("SELECT * FROM Dept")
        rewritten = certain_answer_rewriting(query, codd_db)
        assert execute_sql(codd_db, rewritten) == [("sales", "london")]

    def test_existing_where_clause_is_preserved(self, codd_db):
        query = parse_sql("SELECT name FROM Emp WHERE dept = 'it'")
        rewritten = certain_answer_rewriting(query, codd_db)
        assert execute_sql(codd_db, rewritten) == [("cat",)]

    def test_rejects_non_positive_queries(self, codd_db):
        query = parse_sql("SELECT name FROM Emp WHERE dept NOT IN (SELECT dept FROM Dept)")
        with pytest.raises(RewritingError):
            certain_answer_rewriting(query, codd_db)

    def test_rewriting_without_columns_is_identity(self, codd_db):
        query = parse_sql("SELECT 1 FROM Emp")
        rewritten = certain_answer_rewriting(query, codd_db)
        assert rewritten == query


class TestRewritingComputesCertainAnswers:
    @pytest.mark.parametrize(
        "sql_text,ra_text",
        [
            ("SELECT dept FROM Emp", "project[dept](Emp)"),
            (
                "SELECT name FROM Emp WHERE dept = 'it'",
                "project[name](select[dept = 'it'](Emp))",
            ),
            (
                "SELECT city FROM Emp, Dept WHERE Emp.dept = Dept.dept",
                "project[city](join(Emp, Dept))",
            ),
        ],
    )
    def test_rewritten_sql_equals_certain_answers(self, codd_db, sql_text, ra_text):
        """Running the rewritten query on the 3VL engine = certain answers (Codd dbs)."""
        sql_query = parse_sql(sql_text)
        rewritten = certain_answer_rewriting(sql_query, codd_db)
        sql_answer = set(execute_sql(codd_db, rewritten))
        exact = repro.connect(codd_db).query(parse_ra(ra_text)).certain(method="enumeration")
        assert sql_answer == set(exact.rows)

    def test_original_sql_differs_from_certain_answers(self, codd_db):
        """Without the rewriting, SQL returns null-carrying tuples that are not certain."""
        sql_answer = execute_sql(codd_db, parse_sql("SELECT dept FROM Emp"))
        exact = (
            repro.connect(codd_db)
            .query(parse_ra("project[dept](Emp)"))
            .certain(method="enumeration")
        )
        assert len(sql_answer) > len(exact.rows)
