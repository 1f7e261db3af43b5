"""E21 — Sections 1 and 7, certain answers in data exchange.

Paper claims:

* marked nulls are "the most common model of nulls used in
  integration/exchange tasks" and the chase produces them;
* in data integration/exchange "the standard semantics of query answering
  is based on certain answers" and "quite often naive evaluation is used
  for query answering in cases where it is known not to work": naive
  evaluation over the canonical solution is correct for UCQs but wrong for
  queries with negation.
"""

import pytest

from repro.algebra import parse_ra
from repro.core import naive_evaluation_applies
from repro.datamodel import Database
from repro.exchange import (
    canonical_solution,
    certain_answers_exchange,
    chase,
    core_solution,
    naive_exchange_answer_is_guaranteed,
    order_preferences_mapping,
)
from repro.homomorphisms import exists_homomorphism
from repro.logic import FOQuery, Not, atom, var
from repro.workloads import chain_mapping, order_preferences_source, random_graph_source


@pytest.fixture
def mapping():
    return order_preferences_mapping()


class TestUcqAnswersOverExchangedData:
    @pytest.mark.parametrize("size", [2, 3, 4])
    def test_naive_equals_enumeration_for_ucqs(self, mapping, size):
        source = order_preferences_source(num_orders=size, seed=size)
        query = parse_ra("project[product](Pref)")
        naive = certain_answers_exchange(mapping, source, query, method="naive")
        exact = certain_answers_exchange(
            mapping, source, query, method="enumeration", semantics="owa", max_extra_facts=1
        )
        assert naive.rows == exact.rows
        assert naive_exchange_answer_is_guaranteed(query)

    def test_join_through_marked_nulls(self, mapping):
        source = order_preferences_source(num_orders=3, seed=1)
        query = parse_ra("project[product](join(Cust, Pref))")
        naive = certain_answers_exchange(mapping, source, query, method="naive")
        exact = certain_answers_exchange(
            mapping, source, query, method="enumeration", semantics="owa", max_extra_facts=1
        )
        assert naive.rows == exact.rows
        assert len(naive.rows) == len(source["Order"].rows and {row[1] for row in source["Order"]})


class TestNegationGoesWrong:
    def test_naive_overclaims_for_negation(self, mapping):
        source = Database(mapping.source_schema, {"Order": [("oid1", "pr1"), ("oid2", "pr2")]})
        p = var("p")
        query = FOQuery(Not(atom("Pref", "alice", p)), (p,))
        naive = certain_answers_exchange(mapping, source, query, method="naive")
        exact = certain_answers_exchange(
            mapping, source, query, method="enumeration", semantics="owa", max_extra_facts=1
        )
        assert not naive_evaluation_applies(query, "owa").applies
        assert exact.rows < naive.rows  # naive evaluation returns non-answers


class TestUniversalSolutions:
    def test_canonical_solution_maps_into_every_solution(self, mapping):
        """The chase result is universal: it has a homomorphism into any other solution."""
        source = Database(mapping.source_schema, {"Order": [("oid1", "pr1")]})
        canonical = canonical_solution(mapping, source)
        other_solutions = [
            Database(
                mapping.target_schema,
                {"Cust": [("c7",)], "Pref": [("c7", "pr1")]},
            ),
            Database(
                mapping.target_schema,
                {"Cust": [("c7",), ("extra",)], "Pref": [("c7", "pr1"), ("extra", "pr9")]},
            ),
        ]
        for solution in other_solutions:
            assert exists_homomorphism(canonical, solution)

    def test_core_solution_is_smaller_or_equal_and_equivalent(self, mapping):
        source = order_preferences_source(num_orders=4, seed=2)
        canonical = canonical_solution(mapping, source)
        core = core_solution(mapping, source)
        assert core.size() <= canonical.size()
        assert exists_homomorphism(canonical, core)
        assert exists_homomorphism(core, canonical)

    def test_chain_mapping_null_growth(self):
        """Longer existential chains introduce proportionally more marked nulls."""
        source = random_graph_source(num_nodes=4, num_edges=6, seed=3)
        short = chase(chain_mapping(2), source)
        long = chase(chain_mapping(5), source)
        assert long.nulls_introduced == 4 * short.nulls_introduced
        assert long.target.size() > short.target.size()
