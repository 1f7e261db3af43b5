"""Unit tests for the planned c-table evaluation path (`repro.engine.ctable`)."""

import pytest

import repro
from repro.algebra import CTableDatabase, ctable_evaluate, parse_ra
from repro.datamodel import (
    TRUE,
    ConditionKernel,
    ConditionalTable,
    Database,
    Eq,
    FALSE,
    Null,
    Relation,
)
from repro.engine import PlanCache, execute_ctable
from repro.engine.ctable import CMembershipIndex, _merge_sorted
from repro.semantics import default_domain


def _lifted(mapping):
    return CTableDatabase.from_database(Database.from_dict(mapping))


class TestExecuteCTable:
    def test_engine_selection(self):
        ctdb = _lifted({"R": [(1,), (Null("x"),)]})
        query = parse_ra("project[#0](R)")
        planned = repro.connect().evaluate_ctable(query, ctdb)
        interpreted = ctable_evaluate(query, ctdb)
        domain = [1, 2, "w"]
        assert planned.possible_worlds(domain) == interpreted.possible_worlds(domain)
        with pytest.raises(ValueError):
            repro.connect(engine="no-such-engine").evaluate_ctable(query, ctdb)

    def test_interpreter_session_runs_the_oracle(self):
        ctdb = _lifted({"R": [(1,), (Null("x"),)]})
        query = parse_ra("project[#0](R)")
        session = repro.connect(engine="interpreter")
        assert session.evaluate_ctable(query, ctdb).rows == ctable_evaluate(query, ctdb).rows

    def test_plans_are_cached_and_shared_with_relation_engine(self):
        cache = PlanCache()
        ctdb = _lifted({"R": [(1, 2), (3, Null("x"))], "S": [(2, "a")]})
        query = parse_ra("join(rename[A(a, b)](R), rename[B(b, c)](S))")
        execute_ctable(query, ctdb, cache, cache.kernel)
        (entry,) = [e for (expr, _), e in cache._cache.items() if expr is query]
        assert entry.ctable_physical is not None
        first = entry.ctable_physical
        execute_ctable(query, ctdb, cache, cache.kernel)
        assert entry.ctable_physical is first  # same sizes -> same lowering

    def test_lowering_refreshes_when_sizes_change(self):
        cache = PlanCache()
        query = parse_ra("join(rename[A(a, b)](R), rename[B(b, c)](S))")
        small = _lifted({"R": [(1, 2)], "S": [(2, "a")]})
        big = _lifted({"R": [(i, i + 1) for i in range(20)], "S": [(2, "a")]})
        execute_ctable(query, small, cache, cache.kernel)
        (entry,) = [e for (expr, _), e in cache._cache.items() if expr is query]
        first = entry.ctable_physical
        execute_ctable(query, big, cache, cache.kernel)
        assert entry.ctable_physical is not first

    def test_false_global_condition_empties_the_table(self):
        table = ConditionalTable.create(
            "R", [((1,), TRUE)], global_condition=Eq(1, 2)
        )
        query = parse_ra("project[#0](R)")
        result = repro.connect().evaluate_ctable(query, CTableDatabase([table]))
        assert len(result) == 0
        assert result.global_condition is FALSE

    def test_division_matches_interpreter(self):
        ctdb = _lifted(
            {"R": [("a", 1), ("a", 2), ("b", 1), ("c", Null("x"))], "S": [(1,), (2,)]}
        )
        query = parse_ra("divide(R, S)")
        planned = repro.connect().evaluate_ctable(query, ctdb)
        interpreted = ctable_evaluate(query, ctdb)
        domain = [1, 2, 3, "w"]
        assert planned.possible_worlds(domain) == interpreted.possible_worlds(domain)

    def test_division_by_empty_divisor(self):
        # positional divisor: last column of R; empty S keeps every candidate
        ctdb = CTableDatabase.from_database(
            Database.from_relations(
                [
                    Relation.create("R", [("a", 1), ("b", 2)]),
                    Relation.create("S", [], arity=1),
                ]
            )
        )
        query = parse_ra("divide(R, S)")
        planned = repro.connect().evaluate_ctable(query, ctdb)
        interpreted = ctable_evaluate(query, ctdb)
        assert {row.values for row in planned} == {row.values for row in interpreted}

    def test_dense_join_row_values_match_interpreter(self):
        database = Database.from_relations(
            [
                Relation.create("R", [("a", 0), ("b", 1), ("c", Null("x"))], attributes=("k", "j")),
                Relation.create("S", [(0, "p"), (Null("y"), "q")], attributes=("j", "v")),
            ]
        )
        ctdb = CTableDatabase.from_database(database)
        query = parse_ra("join(R, S)")
        planned = repro.connect().evaluate_ctable(query, ctdb)
        interpreted = ctable_evaluate(query, ctdb)
        domain = default_domain(database)
        assert planned.possible_worlds(domain) == interpreted.possible_worlds(domain)


class TestHelpers:
    def test_merge_sorted(self):
        assert list(_merge_sorted([1, 4, 7], [2, 4, 9])) == [1, 2, 4, 4, 7, 9]
        assert list(_merge_sorted([], [3, 5])) == [3, 5]
        assert list(_merge_sorted((0,), ())) == [0]

    def test_membership_index_constant_probe(self):
        rows = [((1, 2), TRUE), ((3, 4), TRUE), ((Null("x"), 2), TRUE)]
        index = CMembershipIndex(rows, ConditionKernel())
        assert index.condition((1, 2)) is TRUE  # exact constant match, condition true
        missing = index.condition((9, 9))
        assert missing is FALSE  # no exact match; null row can't equal (9,9) in col 2

    def test_membership_index_null_row_probe(self):
        x = Null("x")
        rows = [((x, 2), TRUE)]
        index = CMembershipIndex(rows, ConditionKernel())
        condition = index.condition((5, 2))
        assert condition == Eq(5, x) or condition == Eq(x, 5)
