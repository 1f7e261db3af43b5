"""E15 — Section 6.2, OWA-naive evaluation works for UCQs, via preservation.

Paper claims:

* a Boolean FO query preserved under homomorphisms is equivalent to a UCQ
  (Rossman's theorem, cited as [63]); combining preservation with the OWA
  representation system yields: OWA-naive evaluation works for UCQs;
* conversely (optimality, [51]): if naive evaluation works for a Boolean FO
  query under OWA, the query is equivalent to a UCQ — so for non-positive
  queries one should *expect* failures.
"""

import pytest

import repro
from repro.algebra import is_positive, naive_certain_answers, parse_ra
from repro.core import is_monotone_on, is_preserved_under_homomorphisms, naive_evaluation_applies
from repro.datamodel import Database, Null
from repro.homomorphisms import all_homomorphisms
from repro.logic import FOQuery, Not, atom, conj, exists, var
from repro.workloads import random_database, random_positive_query


X, Y = var("x"), var("y")


def homomorphism_pairs(num_pairs=6):
    pairs = []
    for seed in range(num_pairs):
        source = random_database(num_nulls=2, rows_per_relation=3, seed=seed)
        targets = [
            random_database(num_nulls=0, rows_per_relation=3, seed=seed + 50),
            random_database(num_nulls=0, rows_per_relation=4, seed=seed + 70),
        ]
        for target in targets:
            for hom in all_homomorphisms(source, target, limit=2):
                pairs.append((source, target, hom))
    return pairs


class TestPreservationSide:
    def test_ucqs_are_preserved_under_homomorphisms(self):
        queries = [
            FOQuery(exists((X, Y), atom("R0", X, Y))),
            FOQuery(exists((X, Y), conj(atom("R0", X, Y), atom("R1", Y, X)))),
            FOQuery(exists(X, atom("R0", X, "a0"))),
        ]
        pairs = homomorphism_pairs()
        for query in queries:
            assert is_preserved_under_homomorphisms(query, pairs)

    def test_a_negated_query_is_not_preserved(self):
        source = Database.from_dict({"R0": [(1, 1)], "R1": [(1, 1)]})
        empty_r1 = Database.from_relations(
            [source.relation("R0"), source.relation("R1").with_rows([])]
        )
        query = FOQuery(Not(exists((X, Y), atom("R1", X, Y))))
        from repro.homomorphisms import Homomorphism

        pairs = [(empty_r1, source.union(empty_r1), Homomorphism({}))]
        assert not is_preserved_under_homomorphisms(query, pairs)


class TestNaiveEvaluationSide:
    @pytest.mark.parametrize("seed", range(6))
    def test_owa_naive_evaluation_works_for_random_ucqs(self, seed):
        database = random_database(num_nulls=1, rows_per_relation=2, num_relations=2, seed=seed)
        query = random_positive_query(database.schema, seed=seed + 7)
        assert is_positive(query)
        naive = naive_certain_answers(query, database)
        exact = (
            repro.connect(database, semantics="owa")
            .query(query)
            .certain(method="enumeration", max_extra_facts=1)
        )
        assert naive.rows == exact.rows

    def test_positive_queries_are_owa_monotone(self):
        pairs = []
        for seed in range(3):
            smaller = random_database(num_nulls=2, rows_per_relation=3, seed=seed)
            for hom in all_homomorphisms(
                smaller, random_database(num_nulls=0, rows_per_relation=3, seed=seed + 50), limit=1
            ):
                pairs.append((smaller, hom.apply(smaller)))
            pairs.append((smaller, smaller.add_facts([("R0", ("a0", "a1"))])))
        for seed in range(4):
            query = random_positive_query(pairs[0][0].schema, seed=seed)
            assert is_monotone_on(query, pairs, input_semantics="owa")

    def test_applicability_verdicts_match_the_theorem(self):
        assert naive_evaluation_applies(parse_ra("union(project[#0](R), S)"), "owa").applies
        assert not naive_evaluation_applies(parse_ra("diff(R, S)"), "owa").applies
        # division is CWA-only: under OWA adding facts to the divisor can
        # shrink the answer, so monotonicity (and naive evaluation) fails.
        assert not naive_evaluation_applies(parse_ra("divide(R, S)"), "owa").applies

    def test_division_really_fails_under_owa(self):
        """A concrete witness for why division is excluded under OWA.

        On complete data the naive answer is {alice}; under CWA this is also
        the certain answer, but under OWA a world may add a new course that
        alice does not take, so nothing is certain — naive evaluation (and
        monotonicity) breaks for division once the world is open.
        """
        database = Database.from_dict(
            {"Enroll": [("alice", "db"), ("alice", "os")], "Courses": [("db",), ("os",)]}
        )
        query = parse_ra("divide(Enroll, Courses)")
        naive = naive_certain_answers(query, database)
        exact_cwa = repro.connect(database).query(query).certain(method="enumeration")
        exact_owa = (
            repro.connect(database, semantics="owa")
            .query(query)
            .certain(method="enumeration", max_extra_facts=1)
        )
        assert naive.rows == exact_cwa.rows == frozenset({("alice",)})
        assert exact_owa.rows == frozenset()
