"""E20 — Section 7 ("Evaluation techniques"), sound evaluation.

Paper claim: "Returning to our example from the introduction, it is quite
bad that the query says no payments are missing, but at least we are not
chasing good guys — there are no false positives.  Can this always be
guaranteed?  Sound evaluation has been addressed before [61]..."

We implement a Reiter-style sound evaluation for full relational algebra
(lower/upper approximating tables with marked-null unification) and verify
its guarantee — every returned tuple is a true certain answer — across
hand-built and randomised workloads, plus the cases where it recovers
answers that plain naive-then-filter reasoning would both overclaim and
underclaim.
"""

import pytest

import repro
from repro.algebra import naive_certain_answers, parse_ra
from repro.core import possible_answer_bound, rows_unifiable, sound_certain_answers
from repro.datamodel import Database, Null, Relation
from repro.workloads import orders_payments, random_database, random_full_ra_query


class TestNoFalsePositivesGuarantee:
    @pytest.mark.parametrize("seed", range(10))
    def test_random_full_ra_queries(self, seed):
        database = random_database(num_nulls=2, rows_per_relation=3, seed=seed)
        query = random_full_ra_query(database.schema, seed=seed)
        sound = sound_certain_answers(query, database)
        exact = repro.connect(database).query(query).certain(method="enumeration")
        assert sound.rows <= exact.rows

    @pytest.mark.parametrize("seed", range(4))
    def test_orders_scenario_unpaid_query(self, seed):
        database = orders_payments(num_orders=4, num_payments=3, null_fraction=0.5, seed=seed)
        query = parse_ra(
            "diff(project[o_id](Orders), rename[Paid(o_id)](project[ord](Pay)))"
        )
        sound = sound_certain_answers(query, database)
        exact = repro.connect(database).query(query).certain(method="enumeration")
        assert sound.rows <= exact.rows

    def test_naive_overclaims_where_sound_does_not(self):
        database = Database.from_dict({"R": [(1, Null("a"))], "S": [(1, Null("b"))]})
        query = parse_ra("project[#0](diff(R, S))")
        exact = repro.connect(database).query(query).certain(method="enumeration")
        assert naive_certain_answers(query, database).rows == frozenset({(1,)})
        assert sound_certain_answers(query, database).rows == frozenset() == exact.rows


class TestRecoveredAnswers:
    def test_constant_conflicts_keep_certain_tuples(self):
        database = Database.from_dict({"R": [(2, 3), (1, 2)], "S": [(Null("s"), 2)]})
        query = parse_ra("diff(R, S)")
        sound = sound_certain_answers(query, database)
        exact = repro.connect(database).query(query).certain(method="enumeration")
        assert sound.rows == exact.rows == frozenset({(2, 3)})

    def test_marked_null_consistency_keeps_certain_tuples(self):
        repeated = Null("s")
        database = Database.from_dict({"R": [(1, 2)], "S": [(repeated, repeated)]})
        query = parse_ra("diff(R, S)")
        assert sound_certain_answers(query, database).rows == frozenset({(1, 2)})

    def test_exact_on_complete_databases(self):
        database = Database.from_dict(
            {"Orders": [("o1",), ("o2",), ("o3",)], "Pay": [("o2",)]}
        )
        query = parse_ra("diff(Orders, Pay)")
        sound = sound_certain_answers(query, database)
        exact = repro.connect(database).query(query).certain(method="enumeration")
        assert sound.rows == exact.rows == frozenset({("o1",), ("o3",)})

    def test_recall_measured_against_exact_answers(self):
        """Sound evaluation may miss answers; record that it is not vacuous."""
        recovered, total = 0, 0
        for seed in range(8):
            database = random_database(num_nulls=1, rows_per_relation=3, seed=seed)
            query = random_full_ra_query(database.schema, seed=seed + 3)
            exact = repro.connect(database).query(query).certain(method="enumeration")
            sound = sound_certain_answers(query, database)
            total += len(exact)
            recovered += len(sound)
        assert recovered <= total
        if total:
            assert recovered > 0  # it does find a useful fraction of the answers


class TestUpperBoundSide:
    @pytest.mark.parametrize("seed", range(5))
    def test_upper_bound_covers_possible_answers(self, seed):
        database = random_database(num_nulls=2, rows_per_relation=3, seed=seed)
        query = random_full_ra_query(database.schema, seed=seed)
        upper = possible_answer_bound(query, database)
        possible = repro.connect(database).query(query).possible()
        for row in possible.rows:
            assert any(rows_unifiable(row, candidate) for candidate in upper.rows)
