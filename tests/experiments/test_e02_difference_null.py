"""E2 — Section 1, R − S via NOT IN is empty whenever S contains a null.

Paper claim: "It will produce the empty set if S contains just a null
value, no matter what R contains.  This goes against our intuition: we
know that if |R| > |S|, then R − S cannot possibly be empty, but SQL tells
us that it is."
"""

import pytest

from repro.algebra import parse_ra
from repro.datamodel import Database, Null, Relation
from repro.semantics import enumerate_certain_boolean
from repro.sqlnulls import execute_sql, parse_sql

SQL_DIFFERENCE = "SELECT R.A FROM R WHERE R.A NOT IN (SELECT S.A FROM S)"


def make_db(r_values, s_values):
    return Database.from_relations(
        [
            Relation.create("R", [(v,) for v in r_values], attributes=("A",)),
            Relation.create("S", [(v,) for v in s_values], attributes=("A",)),
        ]
    )


class TestSQLGoesWrong:
    @pytest.mark.parametrize("r_size", [1, 3, 5, 10])
    def test_empty_for_any_r_when_s_is_a_single_null(self, r_size):
        db = make_db(range(r_size), [Null("s")])
        assert execute_sql(db, parse_sql(SQL_DIFFERENCE)) == []

    def test_empty_even_when_s_mixes_nulls_and_constants(self):
        db = make_db([1, 2, 3], [2, Null("s")])
        # 2 is filtered by the constant; 1 and 3 are filtered by the unknown.
        assert execute_sql(db, parse_sql(SQL_DIFFERENCE)) == []

    def test_correct_without_nulls(self):
        db = make_db([1, 2, 3], [2])
        assert sorted(execute_sql(db, parse_sql(SQL_DIFFERENCE))) == [(1,), (3,)]


class TestCardinalityIntuition:
    @pytest.mark.parametrize("r_size,s_nulls", [(2, 1), (3, 1), (4, 2), (5, 3)])
    def test_nonempty_difference_is_certain_when_r_larger_than_s(self, r_size, s_nulls):
        """|R| > |S| makes non-emptiness of R − S a certain (Boolean) answer."""
        db = make_db(range(r_size), [Null(f"s{i}") for i in range(s_nulls)])
        query = parse_ra("diff(R, S)")
        assert enumerate_certain_boolean(
            lambda world: bool(query.evaluate(world)), db, semantics="cwa"
        )

    def test_emptiness_possible_when_sizes_match(self):
        db = make_db([1, 2], [Null("s1"), Null("s2")])
        query = parse_ra("diff(R, S)")
        assert not enumerate_certain_boolean(
            lambda world: bool(query.evaluate(world)), db, semantics="cwa"
        )
