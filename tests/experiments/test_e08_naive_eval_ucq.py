"""E8 — Section 2, eq. (4): naive evaluation works for UCQs.

Paper claim: for unions of conjunctive queries (positive relational
algebra) under both OWA and CWA, ``Q(D)_cmpl = certain(Q, D)`` — certain
answers are obtained by evaluating the query as if nulls were ordinary
values and then discarding tuples with nulls.  The complexity drops from
coNP/undecidable to AC⁰-like (ordinary query evaluation plus an
IS NOT NULL filter).
"""

import pytest

import repro
from repro.algebra import is_positive, naive_certain_answers, parse_ra
from repro.datamodel import Database, Null
from repro.workloads import orders_payments, random_database, random_positive_query


HAND_WRITTEN_QUERIES = [
    "project[#0](R0)",
    "select[#0 = 'a0'](R0)",
    "union(project[#0](R0), project[#1](R1))",
    "project[#0](select[#1 = #2](product(R0, project[#0](R1))))",
    "join(R0, R1)",
]


class TestHandWrittenQueries:
    @pytest.mark.parametrize("query_text", HAND_WRITTEN_QUERIES)
    @pytest.mark.parametrize("seed", [0, 1])
    def test_naive_equals_enumeration_under_cwa(self, query_text, seed):
        database = random_database(num_nulls=2, rows_per_relation=4, seed=seed)
        query = parse_ra(query_text)
        assert is_positive(query)
        naive = naive_certain_answers(query, database)
        exact = repro.connect(database).query(query).certain(method="enumeration")
        assert naive.rows == exact.rows

    @pytest.mark.parametrize("query_text", HAND_WRITTEN_QUERIES[:3])
    def test_naive_equals_enumeration_under_owa(self, query_text):
        database = random_database(num_nulls=2, rows_per_relation=3, seed=3)
        query = parse_ra(query_text)
        naive = naive_certain_answers(query, database)
        exact = (
            repro.connect(database, semantics="owa")
            .query(query)
            .certain(method="enumeration", max_extra_facts=1)
        )
        assert naive.rows == exact.rows


class TestRandomisedQueries:
    @pytest.mark.parametrize("seed", range(8))
    def test_random_positive_queries_cwa(self, seed):
        database = random_database(num_nulls=2, rows_per_relation=3, seed=seed)
        query = random_positive_query(database.schema, seed=seed)
        naive = naive_certain_answers(query, database)
        exact = repro.connect(database).query(query).certain(method="enumeration")
        assert naive.rows == exact.rows

    @pytest.mark.parametrize("seed", range(3))
    def test_random_positive_queries_owa(self, seed):
        database = random_database(
            num_nulls=1, rows_per_relation=2, num_relations=2, seed=seed
        )
        query = random_positive_query(database.schema, seed=seed + 100)
        naive = naive_certain_answers(query, database)
        exact = (
            repro.connect(database, semantics="owa")
            .query(query)
            .certain(method="enumeration", max_extra_facts=1)
        )
        assert naive.rows == exact.rows


class TestScenarioQuery:
    def test_paid_products_on_the_orders_scenario(self):
        """Which products have at least one payment (a positive join query)."""
        database = orders_payments(num_orders=6, num_payments=4, null_fraction=0.4, seed=2)
        query = parse_ra(
            "project[#1](select[#0 = #2](product(Orders, project[ord](Pay))))"
        )
        naive = naive_certain_answers(query, database)
        exact = repro.connect(database).query(query).certain(method="enumeration")
        assert naive.rows == exact.rows

    def test_marked_null_join_is_certain(self):
        """A join through a *shared* marked null is certain, and naive evaluation sees it."""
        shared = Null("c")
        database = Database.from_dict({"R": [("a", shared)], "S": [(shared, "b")]})
        query = parse_ra("project[#0, #3](select[#1 = #2](product(R, S)))")
        naive = naive_certain_answers(query, database)
        exact = repro.connect(database).query(query).certain(method="enumeration")
        assert naive.rows == exact.rows == frozenset({("a", "b")})
