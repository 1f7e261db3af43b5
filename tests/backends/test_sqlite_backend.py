"""Unit tests for the SQLite backend: DDL, load/extract, plans, fallback,
and the per-handle lock readers take turns on."""

import random
import threading
import time
from decimal import Decimal

import pytest

import repro
from repro.algebra import parse_ra
from repro.algebra.ast import (
    ActiveDomain,
    ConstantRelation,
    Delta,
    Division,
    Projection,
    RAExpression,
    join,
    product,
    project,
    relation,
    rename,
    select,
    union,
)
from repro.algebra.predicates import Attr, Comparison, PNot, POr, eq
from repro.backends import (
    SQLiteBackend,
    UnsupportedPlanError,
    compile_logical_plan,
    table_name,
)
from repro.backends.encoding import SentinelCodec
from repro.backends.faults import FaultInjectingCodec
from repro.datamodel import Database, Null, Relation
from repro.datamodel.schema import DatabaseSchema
from repro.engine import PlanCache
from repro.obs import MetricsRegistry, Tracer
from repro.obs.trace import entry_scope
from repro.resilience import (
    Budget,
    BudgetExceeded,
    BudgetState,
    ManualClock,
    QueryCancelled,
    budget_scope,
)
from repro.workloads import enrolment, orders_payments


def _loaded(database):
    backend = SQLiteBackend()
    backend.load_database(database)
    return backend


def _answer(database, query, engine="plan"):
    return repro.connect(database, engine=engine).query(query).answer_object()


@pytest.fixture
def db():
    return Database.from_dict(
        {
            "R": [(1, 2), (2, 3), (3, 3), (Null("x"), 2), (Null("x"), Null("y"))],
            "S": [(2, "a"), (3, "b"), (Null("y"), "c")],
            "T": [(2,), (5,)],
        }
    )


class TestLoadExtract:
    def test_round_trip_every_relation(self, db):
        backend = SQLiteBackend()
        backend.load_database(db)
        for name in db.schema.names():
            assert backend.extract_relation(name) == db.relation(name)
        backend.close()

    def test_streaming_load_counts_rows(self, db):
        backend = SQLiteBackend()
        backend.create_schema(db.schema)
        written = backend.load_rows("T", ((i,) for i in range(100)))
        assert written == 100
        assert len(backend.extract_relation("T")) == 100

    def test_set_semantics_dedups_on_load(self, db):
        backend = SQLiteBackend()
        backend.create_schema(db.schema)
        backend.load_rows("T", [(1,), (1,), (1,)])
        assert backend.extract_relation("T").rows == {(1,)}

    def test_unknown_relation_rejected(self, db):
        backend = SQLiteBackend()
        backend.load_database(db)
        with pytest.raises(Exception):
            backend.extract_relation("Nope")

    def test_session_keeps_one_loaded_backend(self, db, tmp_path):
        path = str(tmp_path / "scale.sqlite")
        with repro.connect(db, engine="sqlite", backend_path=path) as session:
            session.query(relation("T")).answer_object()
            backend = session._engine.sentinel.backend
            session.query(relation("R")).answer_object()
            assert session._engine.sentinel.backend is backend
            assert backend.extract_relation("T") == db.relation("T")

    def test_incremental_load_invalidates_active_domain(self, db):
        from repro.algebra.ast import ActiveDomain

        backend = SQLiteBackend()
        backend.create_schema(db.schema)
        backend.load_rows("T", [(1,)])
        plans = PlanCache()
        assert backend.evaluate(ActiveDomain(), plans).rows == {(1,)}
        backend.load_rows("T", [(9,)])
        assert backend.evaluate(ActiveDomain(), plans).rows == {(1,), (9,)}

    def test_index_names_cannot_collide_across_relations(self):
        database = Database.from_dict({"a_1": [(1, 2, 3)], "a": [(1, 2, 3)]})
        backend = _loaded(database)
        backend.ensure_index("a_1", (2,))
        backend.ensure_index("a", (1, 2))
        names = backend.connection.execute(
            "SELECT name FROM sqlite_master WHERE type = 'index' AND name LIKE 'idx_%'"
        ).fetchall()
        assert len({row[0] for row in names}) == 2


class TestEvaluation:
    def test_warm_plan_cache_reused(self, db):
        backend = _loaded(db)
        plans = PlanCache()
        query = project(relation("R"), (0,))
        first = backend.evaluate(query, plans)
        cached = backend._plans[query][0]
        second = backend.evaluate(query, plans)
        assert backend._plans[query][0] is cached
        assert first == second == query.evaluate(db)

    def test_join_requests_index_on_base_table(self, db):
        backend = _loaded(db)
        query = join(
            rename(relation("R"), "A", ("a", "b")), rename(relation("S"), "B", ("b", "c"))
        )
        backend.evaluate(query, PlanCache())
        # The compiled plan asked for (and the backend created) an index
        # mirroring Relation.index_on on the probe side's key column.
        assert any(name in ("R", "S") for name, _ in backend._indexes)

    def test_temp_spill_for_shared_subplan(self, db):
        # R ∪ R: both operands are the same logical node; the compiler
        # must materialize it once into a temp table.
        plan = PlanCache().compile(union(relation("R"), relation("R")), db.schema)
        compiled = compile_logical_plan(plan, db, SentinelCodec())
        # Scans are never spilled (they are already tables)...
        assert compiled.setup == ()
        shared = select(
            product(relation("R"), relation("S")), Comparison(Attr(1), "=", Attr(2))
        )
        plan = PlanCache().compile(union(shared, shared), db.schema)
        compiled = compile_logical_plan(plan, db, SentinelCodec())
        # ...but a computed subplan referenced twice is.
        assert len(compiled.setup) == 1
        assert len(compiled.teardown) == 1
        assert compiled.query.count("_repro_tmp0") == 2

    def test_division_spills_dividend(self, db):
        school = enrolment(num_students=8, num_courses=3, null_fraction=0.2, seed=1)
        query = Division(relation("Enroll"), relation("Courses"))
        plan = PlanCache().compile(query, school.schema)
        compiled = compile_logical_plan(plan, school, SentinelCodec())
        assert compiled.setup  # π_A(R) (and non-scan dividends) materialize
        assert _answer(school, query, "sqlite") == _answer(school, query)

    def test_empty_divisor_textbook_convention(self):
        database = Database.from_dict({"R": [(1, "a"), (2, "b")]})
        empty = Relation.create("S", [], attributes=("course",))
        query = Division(relation("R"), ConstantRelation(empty))
        assert _answer(database, query, "sqlite") == query.evaluate(database)

    def test_delta_adom_and_constants(self, db):
        const = ConstantRelation(Relation.create("C", [(2,), (7,)]))
        for query in (
            Delta(),
            ActiveDomain(),
            const.product(relation("T")),
            select(relation("R"), POr((eq(Attr(0), 1), PNot(eq(Attr(1), 2))))),
            project(relation("R"), (1, 1, 0)),
        ):
            assert _answer(db, query, "sqlite") == _answer(db, query)

    def test_schema_errors_match_other_engines(self, db):
        query = union(relation("R"), relation("T"))  # arity mismatch
        with pytest.raises(ValueError):
            _answer(db, query, "sqlite")

    def test_certain_answers_end_to_end(self):
        school = enrolment(num_students=12, num_courses=3, null_fraction=0.2, seed=4)
        query = parse_ra("divide(Enroll, Courses)")
        sqlite, plan = (repro.connect(school, engine=e).query(query) for e in ("sqlite", "plan"))
        assert sqlite.certain() == plan.certain()
        orders = orders_payments(num_orders=30, num_payments=12, null_fraction=0.4, seed=2)
        unpaid = parse_ra(
            "diff(project[o_id](Orders), rename[Paid(o_id)](project[ord](Pay)))"
        )
        sqlite, plan = (repro.connect(orders, engine=e).query(unpaid) for e in ("sqlite", "plan"))
        assert sqlite.certain(method="naive") == plan.certain(method="naive")


class TestFallback:
    def test_order_comparison_falls_back_with_interpreter_semantics(self, db):
        query = select(relation("R"), Comparison(Attr(0), "<", 5))
        # R contains nulls in column 0: naive semantics raises TypeError,
        # through the sqlite dispatch too (via the in-memory fallback).
        with pytest.raises(TypeError):
            _answer(db, query, "sqlite")
        clean = select(relation("T"), Comparison(Attr(0), "<", 5))
        assert _answer(db, clean, "sqlite") == _answer(db, clean)

    def test_opaque_subtree_falls_back(self, db):
        from repro.datamodel.schema import RelationSchema

        class LegacyOp(RAExpression):
            def children(self):
                return ()

            def output_schema(self, schema):
                return RelationSchema("Legacy", ("#0",))

            def evaluate(self, database):  # seed signature
                return Relation(RelationSchema("Legacy", ("#0",)), [(1,), (2,)])

        nested = Projection(LegacyOp(), (0,))
        assert _answer(db, nested, "sqlite").rows == {(1,), (2,)}

    def test_compiler_raises_unsupported_for_order_predicates(self, db):
        plan = PlanCache().compile(
            select(relation("T"), Comparison(Attr(0), "<", 5)), db.schema
        )
        with pytest.raises(UnsupportedPlanError):
            compile_logical_plan(plan, db, SentinelCodec())

    def test_very_deep_plans_fall_back_instead_of_crashing(self, db):
        # Hundreds of stacked selections compile to subqueries nested past
        # SQLite's parser stack; that environmental limit must route to
        # the in-memory engine, not surface as OperationalError.
        query = relation("T")
        for i in range(400):
            query = select(query, eq(Attr(0), i))
        assert _answer(db, query, "sqlite") == _answer(db, query)

    def test_malformed_generated_sql_surfaces_loudly(self, db):
        # Only *environmental* SQLite limits may fall back; a compiler
        # regression emitting broken SQL must not be silently masked by
        # the in-memory engine (it would pass every differential test).
        import sqlite3

        from repro.backends.compiler import CompiledPlan

        session = repro.connect(db, engine="sqlite")
        query = project(relation("S"), (0,))
        session.query(query).answer_object()
        backend = session._engine.sentinel.backend
        _, out_schema = backend._plans[query]
        backend._plans[query] = (
            CompiledPlan(
                setup=(),
                query="SELECT FROM WHERE",
                params=(),
                teardown=(),
                arity=1,
                uses_adom=False,
                index_requests=(),
            ),
            out_schema,
        )
        with pytest.raises(sqlite3.OperationalError):
            session.query(query).answer_object()

    def test_nan_in_database_falls_back(self):
        database = Database.from_dict({"N": [(float("nan"),), (1.0,)]})
        query = project(relation("N"), (0,))
        assert _answer(database, query, "sqlite") == _answer(database, query)


class TestEngineDispatch:
    def test_unknown_engine_rejected(self, db):
        with pytest.raises(ValueError):
            repro.connect(db, engine="quantum").query(relation("R")).answer_object()

    def test_database_with_sqlite_backend_still_pickles(self, db):
        import pickle

        db.analysis_cache()["backend"] = _loaded(db)  # a live sqlite connection
        clone = pickle.loads(pickle.dumps(db))
        assert clone == db
        assert clone.analysis_cache() == {}


class _SignallingLock:
    """A handle lock that reports the first failed non-blocking take."""

    def __init__(self):
        self.inner = threading.Lock()
        self.contended = threading.Event()

    def acquire(self, blocking=True):
        taken = self.inner.acquire(blocking)
        if not taken:
            self.contended.set()
        return taken

    def release(self):
        self.inner.release()


class TestHandleLock:
    QUERY = project(relation("R"), (0,))

    def _contended(self, backend, run, while_waiting=lambda: None):
        """``run()`` in a thread that finds the handle taken; ``while_waiting``
        runs once the thread queues, before the handle is handed over.
        Returns the thread's result or the exception it raised."""
        lock = backend._lock = _SignallingLock()
        lock.inner.acquire()
        outcome = {}

        def target():
            try:
                outcome["value"] = run()
            except Exception as error:  # noqa: BLE001 - the outcome under test
                outcome["value"] = error

        thread = threading.Thread(target=target, daemon=True)
        thread.start()
        try:
            assert lock.contended.wait(30)
            while_waiting()
        finally:
            lock.inner.release()
        thread.join(timeout=30)
        assert not thread.is_alive()
        return outcome["value"]

    def _frozen(self, db):
        backend = _loaded(db)
        backend.evaluate(self.QUERY, PlanCache())
        backend.freeze()
        statements = []
        backend.connection.set_trace_callback(statements.append)
        return backend, statements

    def test_a_request_cancelled_while_it_waited_does_not_start(self, db):
        backend, statements = self._frozen(db)
        state = BudgetState(Budget())

        def run():
            with budget_scope(state):
                return backend.evaluate(self.QUERY, PlanCache())

        outcome = self._contended(backend, run, while_waiting=state.cancel)
        assert isinstance(outcome, QueryCancelled)
        assert statements == []
        assert backend.evaluate(self.QUERY, PlanCache()) == self.QUERY.evaluate(db)

    def test_a_deadline_that_passed_while_waiting_raises_budget_exceeded(self, db):
        backend, statements = self._frozen(db)
        clock = ManualClock()
        state = BudgetState(Budget(deadline=1.0, clock=clock))

        def run():
            with budget_scope(state):
                return list(backend.execute_batches(self.QUERY, PlanCache(), batch_size=1))

        outcome = self._contended(backend, run, while_waiting=lambda: clock.advance(2.0))
        assert isinstance(outcome, BudgetExceeded) and outcome.resource == "deadline"
        assert statements == []

    def test_a_wait_is_recorded_and_left_out_of_the_evaluate_span(self, db):
        backend, _ = self._frozen(db)
        registry, tracer = MetricsRegistry(), Tracer()

        def run():
            with entry_scope(tracer, registry, "query.certain"):
                return backend.evaluate(self.QUERY, PlanCache())

        outcome = self._contended(backend, run, while_waiting=lambda: time.sleep(0.05))
        assert outcome == self.QUERY.evaluate(db)
        assert registry.counters()["backend.handle_waits"] == 1
        wait = registry.histograms()["backend.handle_wait"]
        assert wait["count"] == 1 and wait["sum"] >= 0.02
        (evaluate,) = [s for s in tracer.spans() if s.name == "backend.evaluate"]
        assert evaluate.duration < wait["sum"]

    def test_an_uncontended_run_records_no_wait(self, db):
        with repro.connect(db, engine="sqlite") as session:
            session.query(self.QUERY).certain()
            batches = list(session.query(self.QUERY).cursor(batch_size=1).batches())
            assert len(batches) == 4
            session.sql("SELECT * FROM T")
            snapshot = session.metrics()
        assert "backend.handle_waits" not in snapshot["counters"]
        assert "backend.handle_wait" not in snapshot["histograms"]


class TestDeltaRefill:
    """A version switch writes only the rows that changed."""

    SCHEMA = DatabaseSchema.from_attributes({"R": ("a", "b"), "S": ("b", "c"), "E": ("e",)})
    QUERIES = (
        parse_ra("project[#0](R)"),
        parse_ra("diff(project[#1](R), project[#0](S))"),
        parse_ra("select[#0 = #1](R)"),
        parse_ra("select[#0 = 1](R)"),
        join(rename(relation("R"), "A", ("a", "b")), rename(relation("S"), "B", ("b", "c"))),
        ActiveDomain(),
        relation("E"),
    )

    def _version(self, **relations):
        return Database(self.SCHEMA, relations)

    def _counting(self, database):
        codec = FaultInjectingCodec(SentinelCodec())
        backend = SQLiteBackend(codec=codec)
        backend.load_database(database)
        codec.encode_calls = 0
        return backend, codec

    def _switch(self, backend, database):
        tracer = Tracer()
        with entry_scope(tracer, MetricsRegistry(), "query.certain"):
            backend.replace_database(database)
        (switch,) = [s for s in tracer.spans() if s.name == "backend.replace_database"]
        return switch.attrs

    def test_a_switch_encodes_exactly_the_changed_rows(self):
        rows = [(i, i + 1) for i in range(40)]
        old = self._version(R=rows, S=[(1, "a"), (2, "b")], E=[])
        backend, codec = self._counting(old)
        new = self._version(R=rows[2:] + [(100, 1), (101, 2), (102, Null("x"))],
                            S=[(1, "a"), (2, "b")], E=[])
        attrs = self._switch(backend, new)
        # 2 rows left R and 3 arrived; S and E kept their content.
        assert codec.encode_calls == 5
        assert (attrs["deleted"], attrs["inserted"]) == (2, 3)
        assert backend.extract_relation("R") == new.relation("R")
        # add_facts shares the untouched relations: S gets one row, R none.
        codec.encode_calls = 0
        newer = new.add_facts([("S", (3, "c"))])
        assert newer.relation("R") is new.relation("R")
        assert (self._switch(backend, newer)["inserted"], codec.encode_calls) == (1, 1)
        for name in self.SCHEMA.names():
            assert backend.extract_relation(name) == newer.relation(name)

    def test_an_emptied_relation_is_deleted_by_key(self):
        old = self._version(R=[(1, 2), (2, 3), (3, 4)], S=[], E=[(1,)])
        backend, codec = self._counting(old)
        attrs = self._switch(backend, self._version(R=[], S=[], E=[(1,)]))
        assert (attrs["deleted"], attrs["inserted"], codec.encode_calls) == (3, 0, 3)
        assert len(backend.extract_relation("R")) == 0

    def test_a_number_that_equals_another_type_is_deleted_by_its_key(self):
        # Regression: Decimal(1) was stored under an opaque token, the diff
        # took (1,) for the same row, and its key delete matched nothing.
        v1 = self._version(R=[], S=[], E=[(Decimal(1),), (2,), (3,)])
        v2 = self._version(R=[], S=[], E=[(1,), (2,), (3,), (4,)])
        v3 = self._version(R=[], S=[], E=[(2,), (3,), (4,), (5,)])
        backend = _loaded(v1)
        assert self._switch(backend, v2)["inserted"] == 1
        attrs = self._switch(backend, v3)
        assert (attrs["deleted"], attrs["inserted"]) == (1, 1)
        assert backend.extract_relation("E") == v3.relation("E")
        assert backend.evaluate(relation("E"), PlanCache()) == v3.relation("E")

    def test_the_counts_are_rows_sqlite_changed(self):
        backend = _loaded(self._version(R=[(1, 2)], S=[], E=[(1,)]))
        backend.connection.execute("DELETE FROM " + table_name("E"))
        backend.connection.commit()
        attrs = self._switch(backend, self._version(R=[(1, 2)], S=[], E=[(2,)]))
        # (1,) was already gone from the table: its key delete removed nothing.
        assert (attrs["deleted"], attrs["inserted"]) == (0, 1)

    def test_an_equal_new_object_writes_nothing_and_keeps_the_plans(self):
        old = self._version(R=[(1, 2), (Null("x"), 2)], S=[(2, "a")], E=[])
        backend = _loaded(old)
        plans = PlanCache()
        for query in self.QUERIES:
            backend.evaluate(query, plans)
        compiled = dict(backend._plans)
        assert backend._adom_ready
        statements = []
        backend.connection.set_trace_callback(statements.append)
        same = self._version(R=[(1.0, 2), (Null("x"), 2)], S=[(2, "a")], E=[])
        assert same is not old and same == old
        attrs = self._switch(backend, same)
        assert statements == []
        assert (attrs["deleted"], attrs["inserted"]) == (0, 0)
        assert backend._plans == compiled and backend._adom_ready
        assert backend._database is same
        for query in self.QUERIES:
            assert backend.evaluate(query, plans) == PlanCache().execute(query, same)
        assert statements and not any("INSERT" in s or "DELETE" in s for s in statements)

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_a_chain_of_versions_serves_each_version(self, seed):
        rng = random.Random(seed)
        values = [1, 1.0, True, 2, 3, 2.5, "a", "b", "nx", Null("x"), Null("y"), Null("z")]

        def rows(arity, count):
            return [tuple(rng.choice(values) for _ in range(arity)) for _ in range(count)]

        def edited(base):
            # Drop a few rows of each relation (maybe none) and add a few.
            data = {}
            for rel in base.relations():
                kept = [row for row in sorted(rel.rows, key=repr) if rng.random() > 0.2]
                data[rel.name] = kept + rows(rel.arity, rng.randrange(4))
            return self._version(**data)

        v0 = self._version(R=rows(2, 30), S=rows(2, 10), E=[])
        v1 = v0.add_facts([("R", row) for row in rows(2, 3)] + [("E", (1,))])
        v2 = edited(v1)
        v3 = v0.add_facts([("S", row) for row in rows(2, 2)])  # from a non-latest base
        retyped = self._version(
            R=[tuple(1.0 if v == 1 else v for v in row) for row in v3.relation("R")],
            S=[tuple(True if v == 1 else v for v in row) for row in v3.relation("S")],
            E=list(v3.relation("E")),
        )
        emptied = self._version(R=[], S=list(v2.relation("S")), E=rows(1, 5))
        other = Database.from_dict({"U": rows(3, 6), "R": rows(2, 4)})
        chain = [v1, v2, v3, retyped, v1, emptied, other, v2, edited(v2), edited(v0), v0]
        backend = _loaded(v0)
        plans = PlanCache()
        for version in chain:
            backend.replace_database(version)
            for name in version.schema.names():
                assert backend.extract_relation(name) == version.relation(name)
            for query in self.QUERIES if version.schema == self.SCHEMA else ():
                assert backend.evaluate(query, plans) == PlanCache().execute(query, version)

    def test_sql_stays_correct_across_versions_whose_nulls_conflate(self):
        pay = [("x1", Null("n")), ("x2", Null("m")), ("x2", Null("k")), ("x3", "o1")]
        orders = [("o1", "p"), ("o2", "q")]
        schema = DatabaseSchema.from_attributes({"Orders": ("o_id", "prod"), "Pay": ("p_id", "ord")})
        v1 = Database(schema, {"Orders": orders, "Pay": pay})
        # Each null becomes SQL NULL: ("x2", ⊥m) and ("x2", ⊥k) are one row twice.
        v2 = Database(schema, {"Orders": orders, "Pay": pay[:2] + pay[3:] + [("x4", "o2")]})
        v3 = Database(schema, {"Orders": orders, "Pay": pay[1:]})
        statements = (
            "SELECT p_id, ord FROM Pay",
            "SELECT o_id FROM Orders WHERE o_id NOT IN (SELECT ord FROM Pay)",
        )

        def bag(rows):
            return sorted(tuple("NULL" if isinstance(v, Null) else v for v in row) for row in rows)

        with repro.connect(v1, engine="sqlite") as session, repro.connect(v1) as oracle:
            for version in (v1, v2, v3, v1, v2.add_facts([("Pay", ("x5", Null("j")))]), v1):
                for statement in statements:
                    expected = oracle.sql(statement, database=version)
                    assert bag(session.sql(statement, database=version)) == bag(expected)
