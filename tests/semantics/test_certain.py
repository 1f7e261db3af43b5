"""Unit tests for brute-force certain answers by world enumeration."""

import pytest

from repro.algebra import parse_ra
from repro.datamodel import Database, Null, Relation
from repro.semantics import (
    answer_space,
    enumerate_certain_answers,
    enumerate_certain_boolean,
    enumerate_possible_answers,
    enumerate_possible_boolean,
)


@pytest.fixture
def r_minus_s_db():
    """R = {1, 2}, S = {⊥}: the paper's running difference example."""
    return Database.from_dict({"R": [(1,), (2,)], "S": [(Null("s"),)]})


def evaluator(expression):
    return lambda world: expression.evaluate(world)


class TestCertainAnswers:
    def test_difference_certain_answer_empty(self, r_minus_s_db):
        query = parse_ra("diff(R, S)")
        certain = enumerate_certain_answers(evaluator(query), r_minus_s_db, semantics="cwa")
        assert certain.rows == frozenset()

    def test_projection_certain_answer(self):
        db = Database.from_dict({"R": [(1, Null("x")), (2, 3)]})
        query = parse_ra("project[#0](R)")
        certain = enumerate_certain_answers(evaluator(query), db, semantics="cwa")
        assert certain.rows == frozenset({(1,), (2,)})

    def test_complete_database_certain_equals_answer(self):
        db = Database.from_dict({"R": [(1, 2), (3, 4)]})
        query = parse_ra("project[#1](R)")
        certain = enumerate_certain_answers(evaluator(query), db, semantics="cwa")
        assert certain.rows == query.evaluate(db).rows

    def test_owa_certain_smaller_than_cwa_for_negation(self):
        db = Database.from_dict({"R": [(1,), (2,)], "S": [(3,)]})
        query = parse_ra("diff(R, S)")
        cwa = enumerate_certain_answers(evaluator(query), db, semantics="cwa")
        owa = enumerate_certain_answers(
            evaluator(query), db, semantics="owa", max_extra_facts=1
        )
        # Under OWA, extra S facts can remove answers, so the certain answer shrinks.
        assert owa.rows <= cwa.rows
        assert cwa.rows == frozenset({(1,), (2,)})

    def test_explicit_domain(self, r_minus_s_db):
        query = parse_ra("R")
        certain = enumerate_certain_answers(
            evaluator(query), r_minus_s_db, semantics="cwa", domain=[1, 2]
        )
        assert certain.rows == frozenset({(1,), (2,)})


class TestPossibleAnswers:
    def test_union_of_worlds(self, r_minus_s_db):
        query = parse_ra("diff(R, S)")
        possible = enumerate_possible_answers(evaluator(query), r_minus_s_db, semantics="cwa")
        assert possible.rows == frozenset({(1,), (2,)})

    def test_possible_contains_certain(self):
        db = Database.from_dict({"R": [(1, Null("x"))]})
        query = parse_ra("project[#1](R)")
        certain = enumerate_certain_answers(evaluator(query), db, semantics="cwa")
        possible = enumerate_possible_answers(evaluator(query), db, semantics="cwa")
        assert certain.rows <= possible.rows


class TestAnswerSpace:
    def test_paper_difference_answer_space(self, r_minus_s_db):
        """Q([[D]]_cwa) = {{1,2}, {1}, {2}} for Q = R − S (Section 2)."""
        query = parse_ra("diff(R, S)")
        space = answer_space(evaluator(query), r_minus_s_db, semantics="cwa")
        assert space == {
            frozenset({(1,), (2,)}),
            frozenset({(1,)}),
            frozenset({(2,)}),
        }


class TestBooleanQueries:
    def test_certain_boolean_true(self):
        db = Database.from_dict({"R": [(1, Null("x"))]})
        # "R is non-empty" holds in every world.
        assert enumerate_certain_boolean(lambda world: bool(world["R"]), db, semantics="cwa")

    def test_nonemptiness_of_difference_is_certain(self, r_minus_s_db):
        """|R| > |S| guarantees R − S is non-empty in every world (Section 1)."""
        query = parse_ra("diff(R, S)")
        assert enumerate_certain_boolean(
            lambda world: bool(query.evaluate(world)), r_minus_s_db, semantics="cwa"
        )

    def test_specific_tuple_membership_not_certain(self, r_minus_s_db):
        query = parse_ra("diff(R, S)")
        assert not enumerate_certain_boolean(
            lambda world: (1,) in query.evaluate(world).rows,
            r_minus_s_db,
            semantics="cwa",
        )

    def test_possible_boolean(self, r_minus_s_db):
        query = parse_ra("diff(R, S)")
        assert enumerate_possible_boolean(
            lambda world: bool(query.evaluate(world)), r_minus_s_db, semantics="cwa"
        )
        assert not enumerate_possible_boolean(
            lambda world: len(world["R"]) > 5, r_minus_s_db, semantics="cwa"
        )
