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
from repro.algebra.ctable_algebra import _merge_sorted
from repro.engine.ctable import CIndexedSelect, CMembershipIndex
from repro.obs import Tracer
from repro.obs.trace import entry_scope
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


class TestSupportPruning:
    """``execute_ctable(..., supports=)``: the planned path under a model."""

    X, Y, Z = Null("x"), Null("y"), Null("z")

    def model(self):
        from repro.prob import ProbabilityModel

        return ProbabilityModel(
            independent={
                self.X: {1: 0.5, 2: 0.5},
                self.Y: {2: 0.3, True: 0.7},
                self.Z: {3: 1.0},
            }
        )

    def database(self):
        x, y, z = self.X, self.Y, self.Z
        return Database.from_relations(
            [
                Relation.create(
                    "R", [(1, x), (2, y), (x, 3), (z, 1), (y, y), (5, 5)], attributes=("a", "b")
                ),
                Relation.create(
                    "S",
                    [(1, "p"), (2, "q"), (3, "r"), (x, "s"), (z, "t"), (True, "u")],
                    attributes=("b", "c"),
                ),
            ]
        )

    def supports(self, model, ctdb):
        return {null: frozenset(model.support(null)) for null in ctdb.nulls()}

    @pytest.mark.parametrize(
        "text", ["join(R, S)", "join(S, R)", "join(R, rename[S(b, a)](S))", "select[a = b](R)"]
    )
    def test_pruned_join_rows_are_the_admitted_subsequence(self, text):
        from repro.prob import brute_force_confidence

        model = self.model()
        ctdb = CTableDatabase.from_database(self.database())
        query = parse_ra(text)
        kernel, cache = ConditionKernel(), PlanCache()
        full = execute_ctable(query, ctdb, plan_cache=cache, kernel=kernel).rows
        pruned = execute_ctable(
            query, ctdb, plan_cache=cache, kernel=kernel, supports=self.supports(model, ctdb)
        ).rows
        assert len(pruned) < len(full)
        kept = iter(full)
        for row in pruned:
            # Same values and the very same interned condition, in the
            # unpruned relative order.
            assert any(
                other.values == row.values and other.condition is row.condition for other in kept
            )
        survivors = {(row.values, id(row.condition)) for row in pruned}
        for row in full:
            if (row.values, id(row.condition)) not in survivors:
                assert brute_force_confidence(row.condition, model) == 0.0

    def test_span_attribute_and_session_counter(self):
        from repro.obs import Tracer

        tracer = Tracer()
        query = parse_ra("join(R, S)")
        with repro.connect(
            self.database(), semantics="prob", model=self.model(), tracer=tracer
        ) as session:
            session.query(query).confidence()
            counters = session.metrics()["counters"]
        spans = [s for s in tracer.spans() if s.name == "ctable.execute"]
        assert spans and spans[0].attrs["pruned"] > 0
        assert counters["ctable.support_pruned"] == sum(s.attrs["pruned"] for s in spans)

    def test_interpreter_engine_and_public_evaluation_stay_unpruned(self):
        query = parse_ra("join(R, S)")
        with repro.connect(
            self.database(), semantics="prob", model=self.model(), engine="interpreter"
        ) as session:
            session.query(query).confidence()
            assert "ctable.support_pruned" not in session.metrics()["counters"]
        ctdb = CTableDatabase.from_database(self.database())
        with repro.connect(self.database(), semantics="prob", model=self.model()) as session:
            planned = session.evaluate_ctable(query, ctdb)
        domain = default_domain(self.database())
        assert planned.possible_worlds(domain) == ctable_evaluate(query, ctdb).possible_worlds(domain)


class TestWarmCaches:
    """Per-instance caches of the c-table path; every answer is checked
    against a fresh session's."""

    X, Y = Null("x"), Null("y")

    def table(self):
        # A user c-table: a row whose condition interns to FALSE, null-keyed
        # rows, and constants equal under == (1, 1.0, True).
        x, y = self.X, self.Y
        return ConditionalTable.create(
            "R",
            [
                ((1, "a"), Eq(1, 2)),
                ((x, "b"), Eq(x, 2)),
                ((1.0, "c"), TRUE),
                ((2, "d"), Eq(y, 1)),
                ((y, "e"), TRUE),
                ((True, "f"), Eq(x, y)),
            ],
            attributes=("k", "v"),
        )

    def fresh(self, query, ctdb):
        return repro.connect().evaluate_ctable(query, ctdb)

    @staticmethod
    def canonical(table, kernel):
        return all(kernel.intern(row.condition) is row.condition for row in table)

    def test_indexed_selection_is_lowered_and_matches_the_oracle(self):
        ctdb = CTableDatabase([self.table()])
        session = repro.connect()
        query = parse_ra("select[k = 1](R)")
        result = session.evaluate_ctable(query, ctdb)
        entry = session.plan_cache.entry(query, ctdb.schema)
        assert isinstance(entry.ctable_physical, CIndexedSelect)
        # (x, "b") needs x = 2 and x = 1: its condition folds to false.
        assert [row.values for row in result] == [(1.0, "c"), (Null("y"), "e"), (True, "f")]
        oracle = ctable_evaluate(query, ctdb)
        assert result.possible_worlds([1, 2, 3]) == oracle.possible_worlds([1, 2, 3])

    def test_repeated_requests_reuse_and_agree(self):
        ctdb = CTableDatabase([self.table()])
        session = repro.connect()
        query = parse_ra("project[v](join(select[k = 1](R), rename[S(k, w)](R)))")
        expected = self.fresh(query, ctdb)
        tracer = Tracer()
        with entry_scope(tracer, None, "query.certain"):
            results = [session.evaluate_ctable(query, ctdb) for _ in range(3)]
        for result in results:
            assert [row.values for row in result] == [row.values for row in expected]
            assert self.canonical(result, session.kernel)
        reused = [s.attrs["reused"] for s in tracer.spans() if s.name == "ctable.execute"]
        assert reused == [0, 2, 2]  # the index and the join build side

    def test_clear_and_eviction_between_requests(self):
        ctdb = CTableDatabase([self.table()])
        query = parse_ra("project[v](R)")
        expected = [row.values for row in self.fresh(query, ctdb)]
        session = repro.connect()
        session.evaluate_ctable(query, ctdb)
        session.kernel.clear()
        after_clear = session.evaluate_ctable(query, ctdb)
        assert [row.values for row in after_clear] == expected
        # A stale scan would hand back conditions of the cleared epoch.
        assert self.canonical(after_clear, session.kernel)
        session.evaluate_ctable(query, ctdb)
        session.kernel.evict()
        session.kernel.evict()
        after_evict = session.evaluate_ctable(query, ctdb)
        assert [row.values for row in after_evict] == expected
        assert self.canonical(after_evict, session.kernel)

    def test_watermark_eviction_between_requests(self):
        ctdb = CTableDatabase([self.table()])
        query = parse_ra("project[v](R)")
        expected = [row.values for row in self.fresh(query, ctdb)]
        # Other work interns enough fresh conditions to trigger automatic
        # evictions that reclaim the untouched conditions of the scan.
        churn = CTableDatabase(
            [ConditionalTable.create("C", [((i,), Eq(Null(f"c{i}"), i)) for i in range(40)])]
        )
        session = repro.connect(kernel_watermark=4)
        for _ in range(4):
            result = session.evaluate_ctable(query, ctdb)
            assert [row.values for row in result] == expected
            assert self.canonical(result, session.kernel)
            session.evaluate_ctable(parse_ra("project[#0](C)"), churn)
        assert session.kernel.auto_evictions > 1

    def test_alternating_databases(self):
        query = parse_ra("project[#1](select[#0 = 1](R))")
        # Equal table sizes: both databases run on the same cached lowering.
        one = _lifted({"R": [(1, "a"), (2, "b"), (3, "c")]})
        other = _lifted({"R": [(2, "c"), (1, "d"), (Null("z"), "e")]})
        session = repro.connect()
        for _ in range(3):
            for ctdb in (one, other):
                got = session.evaluate_ctable(query, ctdb)
                assert [row.values for row in got] == [
                    row.values for row in self.fresh(query, ctdb)
                ]

    def test_lift_nulls_and_index_are_per_instance(self):
        rows = {"R": [(1, "a"), (Null("z"), "b")]}
        first, second = Database.from_dict(rows), Database.from_dict(rows)
        assert first == second and first is not second
        assert CTableDatabase.from_database(first) is CTableDatabase.from_database(first)
        assert CTableDatabase.from_database(first) is not CTableDatabase.from_database(second)
        nulls = first.nulls()
        nulls.add(Null("other"))
        assert first.nulls() == {Null("z")}
        table = CTableDatabase.from_database(first).table("R")
        assert table.position_index(0) is table.position_index(0)
        for constant in (1, 2):
            assert list(table.position_index(0).candidates((constant,))) == [
                i for i, row in enumerate(table) if row.values[0] in (constant, Null("z"))
            ]

    def test_build_side_follows_the_supports(self):
        x = self.X
        ctdb = CTableDatabase.from_database(
            Database.from_relations(
                [
                    Relation.create("R", [(1, x), (2, 2)], attributes=("a", "b")),
                    Relation.create("S", [(1, "p"), (2, "q"), (3, "r")], attributes=("b", "c")),
                ]
            )
        )
        query = parse_ra("join(R, S)")
        supports = {x: frozenset({1, 2})}
        fresh_cache = PlanCache()
        expected = execute_ctable(query, ctdb, fresh_cache, fresh_cache.kernel, supports=supports)
        cache = PlanCache()
        for given in (None, supports, None, supports):
            tracer = Tracer()
            with entry_scope(tracer, None, "query.certain"):
                got = execute_ctable(query, ctdb, cache, cache.kernel, supports=given)
            (span,) = [s for s in tracer.spans() if s.name == "ctable.execute"]
            # A build side made for other supports is never served.
            assert span.attrs["reused"] == 0
            if given is None:
                assert span.attrs["pruned"] == 0 and len(got) == 4
            else:
                assert span.attrs["pruned"] == 1
                assert [row.values for row in got] == [row.values for row in expected]
