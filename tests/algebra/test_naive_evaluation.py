"""Unit tests for naive evaluation of RA queries over incomplete databases."""

import pytest

from repro.algebra import (
    naive_boolean,
    naive_certain_answers,
    naive_evaluate,
    naive_object_answer,
    parse_ra,
)
from repro.datamodel import Database, Null
from repro.semantics import enumerate_certain_answers


@pytest.fixture
def db_with_nulls():
    return Database.from_dict(
        {
            "R": [(1, Null("x")), (2, 3), (Null("x"), 3)],
            "S": [(3,), (Null("y"),)],
        }
    )


class TestNaiveEvaluate:
    def test_nulls_join_with_themselves(self, db_with_nulls):
        query = parse_ra("select[#0 = #1](product(project[#1](R), S))")
        result = naive_evaluate(query, db_with_nulls)
        assert (3, 3) in result.rows
        assert (Null("x"), Null("x")) not in result.rows  # x never occurs in S

    def test_marked_null_matches_across_relations(self):
        shared = Null("x")
        db = Database.from_dict({"R": [(1, shared)], "S": [(shared,)]})
        query = parse_ra("select[#1 = #2](product(R, S))")
        assert len(naive_evaluate(query, db)) == 1

    def test_projection_keeps_nulls(self, db_with_nulls):
        query = parse_ra("project[#1](R)")
        result = naive_evaluate(query, db_with_nulls)
        assert (Null("x"),) in result.rows

    def test_object_answer_is_plain_naive_answer(self, db_with_nulls):
        query = parse_ra("project[#1](R)")
        assert naive_object_answer(query, db_with_nulls) == naive_evaluate(query, db_with_nulls)


class TestNaiveCertainAnswers:
    def test_drops_tuples_with_nulls(self, db_with_nulls):
        query = parse_ra("project[#1](R)")
        result = naive_certain_answers(query, db_with_nulls)
        assert result.rows == frozenset({(3,)})

    def test_matches_enumeration_for_positive_query(self, db_with_nulls):
        query = parse_ra("project[#0](select[#1 = 3](R))")
        naive = naive_certain_answers(query, db_with_nulls)
        enumerated = enumerate_certain_answers(query.evaluate, db_with_nulls, semantics="cwa")
        assert naive.rows == enumerated.rows

    def test_union_query_matches_enumeration(self, db_with_nulls):
        query = parse_ra("union(project[#0](R), S)")
        naive = naive_certain_answers(query, db_with_nulls)
        enumerated = enumerate_certain_answers(query.evaluate, db_with_nulls, semantics="cwa")
        assert naive.rows == enumerated.rows

    def test_overclaims_for_difference(self):
        """The Section 2 counterexample: π_A(R − S) with R={(1,⊥)}, S={(1,⊥')}."""
        db = Database.from_dict({"R": [(1, Null("b1"))], "S": [(1, Null("b2"))]})
        query = parse_ra("project[#0](diff(R, S))")
        naive = naive_certain_answers(query, db)
        enumerated = enumerate_certain_answers(query.evaluate, db, semantics="cwa")
        assert naive.rows == frozenset({(1,)})
        assert enumerated.rows == frozenset()
        assert naive.rows != enumerated.rows


class TestNaiveBoolean:
    def test_boolean_queries(self, db_with_nulls):
        assert naive_boolean(parse_ra("R"), db_with_nulls)
        assert not naive_boolean(parse_ra("select[#0 = 99](S)"), db_with_nulls)
