"""Unit tests for the physical evaluation engine: plans, operators, caches."""

import pytest

import repro
from repro.algebra.ast import (
    ActiveDomain,
    ConstantRelation,
    Delta,
    Division,
    NaturalJoin,
    Product,
    Projection,
    RelationRef,
    Selection,
    Union_,
    difference,
    join,
    product,
    project,
    relation,
    rename,
    select,
    union,
)
from repro.algebra.predicates import Attr, Comparison, PAnd, eq
from repro.datamodel import Database, Null, Relation
from repro.datamodel.values import intern_null, intern_value
from repro.engine import PlanCache, explain
from repro.engine.logical import (
    LDifference,
    LFilter,
    LMultiJoin,
    LProject,
    LScan,
    optimize,
)
from repro.engine.physical import ExecutionContext, compile_predicate
from repro.engine.planner import lower


@pytest.fixture
def db():
    return Database.from_dict(
        {
            "R": [(1, 2), (2, 3), (3, 3), (Null("x"), 2)],
            "S": [(2, "a"), (3, "b")],
            "T": [(2,), (5,)],
        }
    )


class TestLogicalOptimizer:
    def test_selection_pushdown_through_product(self, db):
        # σ_{0=c}(R × S) pushes the predicate onto the R side.
        query = select(product(relation("R"), relation("S")), eq(Attr(0), 1))
        plan = PlanCache().compile(query, db.schema)
        assert isinstance(plan, LMultiJoin)
        assert isinstance(plan.factors[0], LFilter)
        assert isinstance(plan.factors[0].child, LScan)
        assert plan.factors[0].child.name == "R"
        assert isinstance(plan.factors[1], LScan)

    def test_cross_equality_becomes_join_pair(self, db):
        query = select(
            product(relation("R"), relation("S")), Comparison(Attr(1), "=", Attr(2))
        )
        plan = PlanCache().compile(query, db.schema)
        assert isinstance(plan, LMultiJoin)
        assert plan.pairs == ((1, 2),)
        assert plan.residual == ()

    def test_nested_products_flatten(self, db):
        query = select(
            product(relation("R"), product(relation("S"), relation("T"))),
            PAnd((Comparison(Attr(1), "=", Attr(2)), Comparison(Attr(3), "=", Attr(4)))),
        )
        plan = PlanCache().compile(query, db.schema)
        assert isinstance(plan, LMultiJoin)
        assert len(plan.factors) == 3
        assert set(plan.pairs) == {(1, 2), (3, 4)}

    def test_projection_resolves_names_to_positions(self, db):
        query = project(relation("S"), ("#1", "#0"))
        plan = PlanCache().compile(query, db.schema)
        assert isinstance(plan, LProject)
        assert plan.positions == (1, 0)

    def test_rename_disappears_from_plan(self, db):
        query = rename(relation("R"), "Other", ("a", "b"))
        plan = PlanCache().compile(query, db.schema)
        assert isinstance(plan, LScan)

    def test_selection_pushes_through_union_and_difference(self, db):
        query = select(difference(relation("R"), relation("R")), eq(Attr(0), 1))
        plan = PlanCache().compile(query, db.schema)
        assert isinstance(plan, LDifference)
        assert isinstance(plan.left, LFilter)
        assert isinstance(plan.right, LFilter)

    def test_order_comparisons_are_not_pushed(self, db):
        # σ_{#0<5}(R × S): the order comparison must stay above the product,
        # exactly where the interpreter evaluates it.
        query = select(product(relation("T"), relation("S")), Comparison(Attr(0), "<", 5))
        plan = PlanCache().compile(query, db.schema)
        assert isinstance(plan, LFilter)

    def test_explain_renders_tree(self, db):
        text = explain(PlanCache().compile(join(relation("R"), relation("R")), db.schema))
        assert "equijoin" in text
        assert "scan R" in text

    def test_two_way_natural_join_stays_equijoin(self, db):
        # A plain two-way natural join keeps the direct LEquiJoin shape
        # (no extra projection over dropped right columns).
        plan = PlanCache().compile(
            join(rename(relation("R"), "A", ("a", "b")), rename(relation("S"), "B", ("b", "c"))),
            db.schema,
        )
        assert type(plan).__name__ == "LEquiJoin"

    def test_natural_join_chain_flattens_to_multijoin(self, db):
        # Chains of natural joins collapse into one n-ary multijoin (with
        # a projection restoring the natural-join layout), so the planner
        # orders the whole chain by cardinality estimate.
        chain = join(
            join(
                rename(relation("R"), "A", ("a", "b")),
                rename(relation("S"), "B", ("b", "c")),
            ),
            rename(relation("T"), "C", ("b",)),
        )
        plan = PlanCache().compile(chain, db.schema)
        assert isinstance(plan, LProject)
        assert isinstance(plan.child, LMultiJoin)
        assert len(plan.child.factors) == 3
        # Both join equalities survive as multijoin pairs over the
        # concatenated layout: R.b = S.b (1=2) and R.b = T.b (1=4).
        assert set(plan.child.pairs) == {(1, 2), (3, 4)} or set(plan.child.pairs) == {
            (1, 2),
            (1, 4),
        }

    def test_natural_join_chain_reordered_by_estimate(self):
        # The smallest factor should be joined first even when it appears
        # last in the chain — the behaviour Product chains already had.
        big = Relation.create("Big", [(i, i % 7) for i in range(60)], attributes=("a", "b"))
        mid = Relation.create("Mid", [(i % 7, i % 3) for i in range(25)], attributes=("b", "c"))
        tiny = Relation.create("Tiny", [(0, 1)], attributes=("c", "d"))
        database = Database.from_relations([big, mid, tiny])
        chain = join(join(relation("Big"), relation("Mid")), relation("Tiny"))
        plan = PlanCache().compile(chain, database.schema)
        assert isinstance(plan, LProject) and isinstance(plan.child, LMultiJoin)
        assert lower(plan, database) is not None
        # Correctness seals the join-order permutation and the final
        # layout-restoring projection.
        assert repro.connect(database).query(chain).answer_object() == chain.evaluate(database)

    def test_mixed_product_and_natural_join_chain_agrees(self, db):
        query = join(
            product(rename(relation("T"), "P", ("t",)), rename(relation("R"), "A", ("a", "b"))),
            rename(relation("S"), "B", ("b", "c")),
        )
        plan = PlanCache().compile(query, db.schema)
        assert isinstance(plan, LProject) and isinstance(plan.child, LMultiJoin)
        assert len(plan.child.factors) == 3
        assert repro.connect(db).query(query).answer_object() == query.evaluate(db)

    def test_projection_inside_join_chain_flattens(self, db):
        # A user-written projection between joins used to stop flattening
        # (the π(join) subtree became an opaque leaf factor); now the view
        # composes through it, so the whole chain is one 3-ary multijoin.
        inner = project(
            join(
                rename(relation("R"), "A", ("a", "b")),
                rename(relation("S"), "B", ("b", "c")),
            ),
            ("b", "c"),
        )
        query = join(inner, rename(relation("S"), "C", ("c", "d")))
        plan = PlanCache().compile(query, db.schema)
        assert isinstance(plan, LProject)
        assert isinstance(plan.child, LMultiJoin)
        assert len(plan.child.factors) == 3
        assert repro.connect(db).query(query).answer_object() == query.evaluate(db)

    def test_stacked_projections_compose_through_flattening(self, db):
        # π over π over a join chain: positions compose, results agree.
        inner = project(
            project(
                join(
                    rename(relation("R"), "A", ("a", "b")),
                    rename(relation("S"), "B", ("b", "c")),
                ),
                ("b", "c"),
            ),
            ("c", "b"),
        )
        query = join(inner, rename(relation("T"), "C", ("b",)))
        plan = PlanCache().compile(query, db.schema)
        assert isinstance(plan, LProject)
        assert isinstance(plan.child, LMultiJoin)
        assert len(plan.child.factors) == 3
        assert repro.connect(db).query(query).answer_object() == query.evaluate(db)

    def test_bare_projection_over_scan_stays_a_leaf(self, db):
        # The recursion must not turn π(scan) into a (vacuous) multijoin
        # view — leaves stay leaves.
        query = project(relation("S"), ("#1", "#0"))
        plan = PlanCache().compile(query, db.schema)
        assert isinstance(plan, LProject)
        assert isinstance(plan.child, LScan)


class TestExecution:
    def test_common_subexpression_runs_once(self, db):
        # R ∪ R: both sides are the same logical node; lowering shares the
        # physical operator, so the scan happens once and is memoized.
        query = union(relation("R"), relation("R"))
        plan = optimize(query, db.schema)
        op = lower(plan, db)
        assert op.left is op.right

    def test_only_shared_operators_carry_a_memo_key(self, db):
        # diff(π(R), π(R) ∪ S): the π(R) subplan is reached twice and
        # memoized; every other operator runs once and skips the memo.
        shared = project(relation("R"), (0,))
        query = difference(shared, union(project(relation("R"), (0,)), project(relation("S"), (0,))))
        op = lower(optimize(query, db.schema), db)
        assert op.left is op.right.left and op.left.key is not None
        assert op.key is None and op.right.key is None and op.right.right.key is None
        ctx = ExecutionContext(db)
        assert op.rows(ctx) == query.evaluate(db).rows
        assert list(ctx.memo) == [op.left.key]

    def test_join_output_layout_matches_interpreter(self, db):
        # Multijoin ordering permutes factors; the final projection must
        # restore the declared column order.
        big = Relation.create("Big", [(i, i + 1) for i in range(20)])
        database = Database.from_relations(
            [big, Relation.create("Small", [(1, 2)]), Relation.create("Mid", [(i, 1) for i in range(5)])]
        )
        query = select(
            product(relation("Big"), product(relation("Mid"), relation("Small"))),
            PAnd((Comparison(Attr(0), "=", Attr(3)), Comparison(Attr(2), "=", Attr(4)))),
        )
        assert repro.connect(database).query(query).answer_object() == query.evaluate(database)

    def test_division_positional_and_named(self, db):
        enrolled = Relation.create(
            "Enroll", [("s1", "c1"), ("s1", "c2"), ("s2", "c1")], attributes=("student", "course")
        )
        courses = Relation.create("Courses", [("c1",), ("c2",)], attributes=("course",))
        database = Database.from_relations([enrolled, courses])
        query = Division(relation("Enroll"), relation("Courses"))
        assert repro.connect(database).query(query).answer_object() == query.evaluate(database)
        assert query.evaluate(database).rows == {("s1",)}

    def test_delta_and_adom(self, db):
        for query in (Delta(), ActiveDomain()):
            assert repro.connect(db).query(query).answer_object() == query.evaluate(db)

    def test_schema_errors_match_interpreter(self, db):
        query = union(relation("R"), relation("T"))  # arity mismatch
        with pytest.raises(ValueError):
            repro.connect(db).query(query).answer_object()
        with pytest.raises(ValueError):
            query.evaluate(db)

    def test_order_comparison_on_null_raises_like_interpreter(self, db):
        query = select(relation("R"), Comparison(Attr(0), "<", 5))
        with pytest.raises(TypeError):
            repro.connect(db).query(query).answer_object()
        with pytest.raises(TypeError):
            query.evaluate(db)

    def test_plan_cache_reused_and_clearable(self, db):
        cache = PlanCache()
        query = project(relation("R"), (0,))
        first = cache.execute(query, db)
        entry = query._plan_entries
        second = cache.execute(query, db)
        assert query._plan_entries is entry
        assert first == second
        cache.clear()
        assert cache.execute(query, db) == first

    def test_plan_cache_clear_evicts_cold_conditions_keeps_hot(self):
        # Long-running services reset every engine-level cache through
        # PlanCache.clear().  The condition kernel uses an epoch-based
        # eviction policy there: conditions touched since the previous
        # clear survive (still canonical), untouched ones are evicted, and
        # a condition untouched for a full epoch disappears entirely.
        from repro.datamodel import ConditionKernel

        kernel = ConditionKernel()
        cache = PlanCache(kernel=kernel)
        assert cache.kernel is kernel
        x, y = Null("x"), Null("y")
        left, right = kernel.eq(x, 1), kernel.eq(y, 2)
        conjunction = kernel.and_(left, right)
        kernel.or_(left, right)
        stats = kernel.stats()
        assert stats["interned"] > 0
        assert stats["and_memo"] > 0 and stats["or_memo"] > 0

        # Everything was touched in the epoch now ending: all survive, and
        # identity (canonicity) is preserved across the clear.
        cache.clear()
        assert kernel.stats()["interned"] == stats["interned"]
        assert kernel.eq(x, 1) is left
        assert kernel.and_(left, right) is conjunction

        # New epoch: touch only `left`.  The next clear keeps it (and the
        # conjunction's members it reaches) but evicts the untouched
        # disjunction, whose memo entry must go with it.
        cache.clear()  # ends the epoch in which left/conjunction were touched
        kernel.eq(x, 1)  # touch `left` only in the current epoch
        cache.clear()
        assert kernel.eq(x, 1) is left  # hot condition still canonical
        assert kernel.stats()["or_memo"] == 0  # cold disjunction evicted
        assert kernel.eq(y, 2) is not right  # cold atom was re-interned fresh

        # The full wipe remains available for tests and benchmarks.
        kernel.clear()
        assert kernel.stats() == {
            "interned": 0,
            "and_memo": 0,
            "or_memo": 0,
            "confidence_memo": 0,
        }

    def test_unknown_engine_rejected(self, db):
        with pytest.raises(ValueError):
            repro.connect(db, engine="quantum").query(relation("R")).answer_object()

    def test_seed_style_subclass_still_works_nested(self, db):
        # Subclasses written against the seed API override evaluate()
        # directly; the engine must treat them as opaque and the
        # interpreter must honor the override when they are nested.
        from repro.algebra.ast import RAExpression
        from repro.datamodel.schema import RelationSchema

        class LegacyOp(RAExpression):
            def children(self):
                return ()

            def output_schema(self, schema):
                return RelationSchema("Legacy", ("#0",))

            def evaluate(self, database):  # seed signature, no engine kwarg
                return Relation(RelationSchema("Legacy", ("#0",)), [(1,), (2,)])

        nested = Projection(LegacyOp(), (0,))
        for engine in ("plan", "interpreter"):
            answer = repro.connect(db, engine=engine).query(nested).answer_object()
            assert answer.rows == {(1,), (2,)}

    def test_evaluate_runs_the_interpreter_without_plan_state(self, db):
        query = project(relation("R"), (0,))
        assert query.evaluate(db) == query._interpret(db)
        assert not hasattr(query, "_plan_entries")


class TestPredicateCompilation:
    def test_equality_and_connectives(self, db):
        schema = db.schema["R"]
        for predicate in (
            eq(Attr(0), 1),
            Comparison(Attr(0), "=", Attr(1)),
            Comparison(Attr(0), "!=", 2),
            PAnd((eq(Attr(0), 1), eq(Attr(1), 2))),
            eq(Attr(0), 1) | eq(Attr(1), 3),
            ~eq(Attr(0), 1),
        ):
            compiled = compile_predicate(predicate)
            for row in db.relation("R"):
                assert compiled(row) == predicate.holds(row, schema)


class TestDatamodelSupport:
    def test_index_on_groups_rows(self, db):
        index = db.relation("R").index_on((1,))
        assert set(index[(2,)]) == {(1, 2), (Null("x"), 2)}
        # cached: same object on repeat call
        assert db.relation("R").index_on((1,)) is index

    def test_interning_canonicalises(self):
        assert intern_value("abc") is intern_value("abc")
        assert intern_null(Null("same")) is intern_null(Null("same"))
        assert intern_value(42) == 42

    def test_trusted_constructor_round_trip(self, db):
        source = db.relation("R")
        copy = Relation._from_trusted(source.schema, source.rows)
        assert copy == source
