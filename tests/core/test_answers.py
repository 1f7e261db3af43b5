"""Unit tests for the user-facing certain-answer API."""

import pytest

import repro
from repro.algebra import parse_ra
from repro.core import naive_evaluation_applies
from repro.datamodel import Database, Null
from repro.logic import FOQuery, atom, exists, var
from repro.semantics import cwa_worlds


def _certain(database, query, **options):
    return repro.connect(database).query(query).certain(**options).rows


@pytest.fixture
def db():
    return Database.from_dict(
        {"R": [(1, Null("x")), (2, 3)], "S": [(3,), (Null("y"),)]}
    )


class TestCertainAnswersNaive:
    def test_projection(self, db):
        query = parse_ra("project[#0](R)")
        assert _certain(db, query, method="naive") == frozenset({(1,), (2,)})

    def test_fo_query_supported(self, db):
        x, y = var("x"), var("y")
        query = FOQuery(exists(y, atom("R", x, y)), (x,))
        assert _certain(db, query, method="naive") == frozenset({(1,), (2,)})

    def test_object_answer_keeps_nulls(self, db):
        query = parse_ra("project[#1](R)")
        assert (Null("x"),) in repro.connect(db).query(query).answer_object().rows
        assert (Null("x"),) not in _certain(db, query, method="naive")


class TestCertainAnswersIntersection:
    def test_matches_naive_for_positive_queries(self, db):
        query = parse_ra("project[#0](select[#1 = 3](R))")
        naive = repro.connect(db).query(query).certain(method="naive")
        enumerated = repro.connect(db).query(query).certain(method="enumeration")
        assert naive.rows == enumerated.rows

    def test_detects_overclaim_of_naive_for_difference(self):
        database = Database.from_dict({"R": [(1, Null("a"))], "S": [(1, Null("b"))]})
        query = parse_ra("project[#0](diff(R, S))")
        assert _certain(database, query, method="naive") == frozenset({(1,)})
        assert _certain(database, query, method="enumeration") == frozenset()


class TestAutoDispatch:
    def test_auto_uses_naive_for_positive(self, db):
        query = parse_ra("project[#0](R)")
        assert _certain(db, query) == frozenset({(1,), (2,)})
        assert naive_evaluation_applies(query, "cwa").applies

    def test_auto_falls_back_to_enumeration_for_difference(self):
        database = Database.from_dict({"R": [(1, Null("a"))], "S": [(1, Null("b"))]})
        query = parse_ra("project[#0](diff(R, S))")
        assert _certain(database, query) == frozenset()
        assert not naive_evaluation_applies(query, "cwa").applies

    def test_explicit_methods(self, db):
        query = parse_ra("project[#0](R)")
        assert _certain(db, query, method="naive") == frozenset({(1,), (2,)})
        assert _certain(db, query, method="enumeration") == frozenset({(1,), (2,)})
        with pytest.raises(repro.InvalidRequestError, match="unknown method 'bogus'"):
            repro.connect(db).query(query).certain(method="bogus")

    def test_division_auto_under_cwa(self):
        database = Database.from_dict(
            {"Enroll": [("alice", "db"), ("alice", "os"), ("bob", "db")], "Courses": [("db",), ("os",)]}
        )
        query = parse_ra("divide(Enroll, Courses)")
        assert _certain(database, query) == frozenset({("alice",)})


class TestPossibleAnswers:
    def test_possible_superset_of_certain(self, db):
        query = parse_ra("project[#1](R)")
        certain = repro.connect(db).query(query).certain(method="enumeration")
        possible = repro.connect(db).query(query).possible()
        assert certain.rows <= possible.rows
        assert (3,) in possible.rows


class TestKnowledgeAnswer:
    def test_knowledge_formula_holds_in_every_answer_world(self, db):
        query = parse_ra("project[#0](R)")
        formula = repro.connect(db).query(query).knowledge()
        for world in cwa_worlds(db):
            answer_db = Database.from_relations([query.evaluate(world).rename("Answer")])
            assert formula.holds(answer_db)
