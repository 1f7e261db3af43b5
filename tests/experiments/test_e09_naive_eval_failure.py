"""E9 — Section 2, naive evaluation fails for non-positive queries.

Paper claim: "To see how naive evaluation fails for non-positive queries,
consider the query π_A(R − S) where R = {(1,⊥)} and S = {(1,⊥')} are
relations over attributes A, B.  Then naive evaluation computes {1}, while
the certain answer is ∅."
"""

import pytest

import repro
from repro.algebra import naive_certain_answers, parse_ra
from repro.core import naive_evaluation_applies
from repro.datamodel import Database, Null, Relation


@pytest.fixture
def paper_db():
    return Database.from_relations(
        [
            Relation.create("R", [(1, Null("bot"))], attributes=("A", "B")),
            Relation.create("S", [(1, Null("bot_prime"))], attributes=("A", "B")),
        ]
    )


QUERY = parse_ra("project[A](diff(R, S))")


class TestPaperCounterexample:
    def test_naive_evaluation_computes_one(self, paper_db):
        assert naive_certain_answers(QUERY, paper_db).rows == frozenset({(1,)})

    def test_certain_answer_is_empty(self, paper_db):
        certain = repro.connect(paper_db).query(QUERY).certain(method="enumeration")
        assert certain.rows == frozenset()

    def test_why_it_fails_the_two_nulls_may_coincide(self, paper_db):
        """In worlds where ⊥ = ⊥', R − S is empty, so (1,) is not certain."""
        from repro.datamodel import Valuation

        collapse = Valuation({Null("bot"): 7, Null("bot_prime"): 7})
        world = collapse.apply(paper_db)
        assert QUERY.evaluate(world).rows == frozenset()

    def test_but_it_is_possible(self, paper_db):
        from repro.datamodel import Valuation

        separate = Valuation({Null("bot"): 7, Null("bot_prime"): 8})
        world = separate.apply(paper_db)
        assert QUERY.evaluate(world).rows == frozenset({(1,)})

    def test_auto_method_avoids_the_trap(self, paper_db):
        """The library's dispatcher refuses naive evaluation for this query."""
        verdict = naive_evaluation_applies(QUERY, "cwa")
        assert not verdict.applies
        assert repro.connect(paper_db).query(QUERY).certain().rows == frozenset()

    def test_failure_persists_under_owa(self, paper_db):
        certain = (
            repro.connect(paper_db, semantics="owa")
            .query(QUERY)
            .certain(method="enumeration", max_extra_facts=1)
        )
        assert certain.rows == frozenset()
        assert naive_certain_answers(QUERY, paper_db).rows != certain.rows
