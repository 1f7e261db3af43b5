"""Unit tests for certain-answer query answering in data exchange."""

import pytest

from repro.algebra import parse_ra
from repro.datamodel import Database
from repro.exchange import (
    canonical_solution,
    certain_answers_exchange,
    naive_exchange_answer_is_guaranteed,
    order_preferences_mapping,
)
from repro.logic import FOQuery, Not, atom, exists, var


@pytest.fixture
def mapping():
    return order_preferences_mapping()


@pytest.fixture
def source(mapping):
    return Database(mapping.source_schema, {"Order": [("oid1", "pr1"), ("oid2", "pr2")]})


class TestNaiveExchangeAnswers:
    def test_positive_query_over_target(self, mapping, source):
        query = parse_ra("project[product](Pref)")
        answers = certain_answers_exchange(mapping, source, query)
        assert answers.rows == frozenset({("pr1",), ("pr2",)})

    def test_null_valued_attributes_are_not_certain(self, mapping, source):
        query = parse_ra("project[c_id](Pref)")
        answers = certain_answers_exchange(mapping, source, query)
        assert answers.rows == frozenset()

    def test_boolean_existence_is_certain(self, mapping, source):
        x, p = var("x"), var("p")
        query = FOQuery(exists((x, p), atom("Pref", x, p)))
        answers = certain_answers_exchange(mapping, source, query)
        assert answers.rows == frozenset({()})

    def test_naive_matches_enumeration_for_ucq(self, mapping, source):
        query = parse_ra("project[product](Pref)")
        naive = certain_answers_exchange(mapping, source, query, method="naive")
        enumerated = certain_answers_exchange(
            mapping, source, query, method="enumeration", semantics="owa", max_extra_facts=1
        )
        assert naive.rows == enumerated.rows

    def test_auto_picks_naive_for_ucq_and_enumeration_otherwise(self, mapping, source):
        ucq = parse_ra("project[product](Pref)")
        p = var("p")
        negative = FOQuery(Not(atom("Pref", "alice", p)), (p,))
        for query, method in ((ucq, "naive"), (negative, "enumeration")):
            auto = certain_answers_exchange(mapping, source, query, method="auto")
            forced = certain_answers_exchange(mapping, source, query, method=method)
            assert auto.rows == forced.rows

    def test_unknown_method_rejected(self, mapping, source):
        with pytest.raises(ValueError):
            certain_answers_exchange(mapping, source, parse_ra("Cust"), method="bogus")


class TestNegationOverTarget:
    def test_naive_is_wrong_for_queries_with_negation(self, mapping, source):
        """Products that 'alice' does not prefer: naive evaluation overclaims."""
        p = var("p")
        negative = FOQuery(Not(atom("Pref", "alice", p)), (p,))
        naive = certain_answers_exchange(mapping, source, negative, method="naive")
        enumerated = certain_answers_exchange(
            mapping, source, negative, method="enumeration", semantics="owa", max_extra_facts=1
        )
        # Naively, 'alice' matches nothing, so every product qualifies; but in
        # solutions where a null is instantiated to 'alice' (or extra facts are
        # added) the answer shrinks: naive evaluation overclaims.
        assert naive.rows
        assert enumerated.rows < naive.rows

    def test_guarantee_predicate(self):
        assert naive_exchange_answer_is_guaranteed(parse_ra("project[product](Pref)"))
        assert not naive_exchange_answer_is_guaranteed(
            parse_ra("diff(project[product](Pref), Cust)")
        )


class TestCanonicalSolutionShape:
    def test_solution_grows_linearly_with_source(self, mapping):
        small = Database(mapping.source_schema, {"Order": [(f"o{i}", f"p{i}") for i in range(3)]})
        large = Database(mapping.source_schema, {"Order": [(f"o{i}", f"p{i}") for i in range(9)]})
        assert canonical_solution(mapping, small).size() == 6
        assert canonical_solution(mapping, large).size() == 18
