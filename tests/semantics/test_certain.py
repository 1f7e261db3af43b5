"""Unit tests for brute-force certain answers by world enumeration."""

import pytest

from repro.algebra import parse_ra
from repro.datamodel import Database, Null, Relation
from repro.semantics import (
    answer_space,
    cwa_worlds,
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


class TestSequentialFold:
    """The fold is eq. (1) read literally: one pass over the worlds."""

    DOMAIN = [0, 1, 2, 3, "w"]

    @staticmethod
    def _database():
        return Database.from_relations(
            [
                Relation.create(
                    "R", [(0,), (1,), (2,), (Null("r0"),), (Null("r1"),)], attributes=("A",)
                ),
                Relation.create("S", [(1,), (Null("s0"),)], attributes=("A",)),
            ]
        )

    @pytest.mark.parametrize("text", ["diff(R, S)", "project[#0](R)", "union(R, S)"])
    def test_equals_the_intersection_over_every_world(self, text):
        query = parse_ra(text)
        database = self._database()
        worlds = list(cwa_worlds(database, domain=self.DOMAIN))
        expected = frozenset.intersection(*(query.evaluate(world).rows for world in worlds))
        certain = enumerate_certain_answers(query.evaluate, database, "cwa", domain=self.DOMAIN)
        assert certain.rows == expected

    def test_any_callable_is_a_query(self):
        """Nothing is pickled: a closure evaluates like the bound method."""
        query = parse_ra("diff(R, S)")
        database = self._database()
        closure = lambda world: query.evaluate(world)  # noqa: E731
        assert enumerate_certain_answers(closure, database, "cwa") == enumerate_certain_answers(
            query.evaluate, database, "cwa"
        )

    def test_an_empty_intersection_stops_the_enumeration(self):
        database = self._database()
        assert len(list(cwa_worlds(database, domain=self.DOMAIN))) > 1
        calls = []

        def empty(world):
            calls.append(world)
            return parse_ra("diff(R, R)").evaluate(world)

        assert not enumerate_certain_answers(empty, database, "cwa", domain=self.DOMAIN).rows
        assert len(calls) == 1

    def test_an_error_in_one_world_propagates_unchanged(self):
        class WorldBomb(Exception):
            pass

        def bomb(world):
            if (3,) in world["R"].rows:
                raise WorldBomb(world)
            return world["R"]

        with pytest.raises(WorldBomb) as info:
            enumerate_certain_answers(bomb, self._database(), "cwa", domain=self.DOMAIN)
        assert (3,) in info.value.args[0]["R"].rows

    def test_boolean_is_false_when_one_world_fails(self):
        # R has five rows unless a null collapses onto another value.
        def five_rows(world):
            return len(world["R"]) == 5

        database = self._database()
        assert enumerate_possible_boolean(five_rows, database, "cwa", domain=self.DOMAIN)
        assert enumerate_certain_boolean(five_rows, database, "cwa", domain=self.DOMAIN) is False
        assert enumerate_certain_boolean(
            lambda world: len(world["R"]) >= 3, database, "cwa", domain=self.DOMAIN
        ) is True
