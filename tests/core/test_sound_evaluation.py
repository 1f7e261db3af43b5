"""Unit tests for sound (no-false-positive) evaluation of full relational algebra."""

import pytest

import repro
from repro.algebra import parse_ra
from repro.core import (
    evaluate_pair,
    possible_answer_bound,
    rows_unifiable,
    sound_certain_answers,
    values_unifiable,
)
from repro.datamodel import Database, Null
from repro.workloads import random_database, random_full_ra_query


class TestUnification:
    def test_constants_unify_only_when_equal(self):
        assert values_unifiable([(1, 1)])
        assert not values_unifiable([(1, 2)])

    def test_null_unifies_with_constant(self):
        assert values_unifiable([(Null("x"), 1)])
        assert values_unifiable([(1, Null("x"))])

    def test_marked_null_consistency(self):
        x = Null("x")
        assert not values_unifiable([(x, 1), (x, 2)])
        assert values_unifiable([(x, 1), (x, 1)])

    def test_null_to_null_chains(self):
        x, y = Null("x"), Null("y")
        assert values_unifiable([(x, y), (y, 1)])
        assert not values_unifiable([(x, y), (x, 1), (y, 2)])

    def test_rows_unifiable(self):
        x = Null("x")
        assert rows_unifiable((1, x), (1, 2))
        assert not rows_unifiable((1, x, x), (1, 2, 3))
        assert not rows_unifiable((1,), (1, 2))


class TestSoundness:
    """Every tuple returned by sound evaluation must be a true certain answer."""

    def assert_sound(self, query_text, database):
        query = parse_ra(query_text)
        sound = sound_certain_answers(query, database)
        exact = repro.connect(database).query(query).certain(method="enumeration")
        assert sound.rows <= exact.rows

    def test_unpaid_orders_query(self):
        database = Database.from_dict(
            {"Orders": [("oid1",), ("oid2",)], "Pay": [(Null("o"),)]}
        )
        self.assert_sound("diff(Orders, Pay)", database)

    def test_difference_recovers_certain_answer_blocked_by_constants(self):
        database = Database.from_dict({"R": [(2, 3), (1, 2)], "S": [(Null("s"), 2)]})
        query = parse_ra("diff(R, S)")
        sound = sound_certain_answers(query, database)
        exact = repro.connect(database).query(query).certain(method="enumeration")
        # (2,3) can never be produced by S (second component is 2), so it is
        # certain and the unification-based check keeps it; (1,2) is not.
        assert sound.rows == exact.rows == frozenset({(2, 3)})

    def test_difference_uses_marked_null_consistency(self):
        repeated = Null("s")
        database = Database.from_dict({"R": [(1, 2)], "S": [(repeated, repeated)]})
        query = parse_ra("diff(R, S)")
        sound = sound_certain_answers(query, database)
        exact = repro.connect(database).query(query).certain(method="enumeration")
        # S only ever contains tuples of the form (c, c), never (1, 2): the
        # marked-null unification check sees the conflict and keeps (1, 2).
        assert sound.rows == exact.rows == frozenset({(1, 2)})

    def test_selection_and_projection(self):
        database = Database.from_dict({"R": [(1, Null("x")), (2, 3)]})
        self.assert_sound("project[#0](select[#1 = 3](R))", database)

    def test_division(self):
        database = Database.from_dict(
            {"R": [("a", 1), ("a", 2), ("b", Null("x"))], "S": [(1,), (2,)]}
        )
        self.assert_sound("divide(R, S)", database)

    def test_random_full_ra_queries_are_sound(self):
        for seed in range(8):
            database = random_database(num_nulls=2, rows_per_relation=3, seed=seed)
            query = random_full_ra_query(database.schema, seed=seed)
            sound = sound_certain_answers(query, database)
            exact = repro.connect(database).query(query).certain(method="enumeration")
            assert sound.rows <= exact.rows

    def test_completeness_on_complete_databases(self):
        database = Database.from_dict({"R": [(1,), (2,)], "S": [(2,)]})
        query = parse_ra("diff(R, S)")
        assert sound_certain_answers(query, database).rows == frozenset({(1,)})


class TestUpperBound:
    def test_upper_bound_contains_possible_answers(self):
        database = Database.from_dict({"R": [(1, Null("x")), (2, 3)], "S": [(3,)]})
        query = parse_ra("project[#1](diff(R, product(S, S)))")
        upper = possible_answer_bound(query, database)
        possible = repro.connect(database).query(query).possible()
        # every possible answer must be an instantiation of some upper row
        for row in possible.rows:
            assert any(rows_unifiable(row, candidate) for candidate in upper.rows)

    def test_pair_structure(self):
        database = Database.from_dict({"R": [(1, Null("x"))]})
        pair = evaluate_pair(parse_ra("R"), database)
        assert pair.lower == pair.upper

    def test_selection_splits_lower_and_upper(self):
        database = Database.from_dict({"R": [(1, Null("x")), (2, 3)]})
        pair = evaluate_pair(parse_ra("select[#1 = 3](R)"), database)
        assert pair.lower.rows == frozenset({(2, 3)})
        assert pair.upper.rows == frozenset({(1, Null("x")), (2, 3)})
