"""The Session/Query lifecycle: connect, query, modes of answering, sql."""

import pytest

import repro
from repro import Database, Null, Relation
from repro.algebra import parse_ra
from repro.logic import FOQuery, atom, exists, var


@pytest.fixture
def db():
    return Database.from_relations(
        [
            Relation.create(
                "Orders", [("o1", "p1"), ("o2", "p2"), ("o3", "p3")],
                attributes=("o_id", "prod"),
            ),
            Relation.create(
                "Pay", [("x1", "o1"), ("x2", Null("n"))], attributes=("p_id", "ord")
            ),
        ]
    )


PROJECT = parse_ra("project[o_id](Orders)")
UNPAID = parse_ra("diff(project[o_id](Orders), rename[Paid(o_id)](project[ord](Pay)))")


class TestConnect:
    def test_connect_validates_engine_and_semantics(self, db):
        with pytest.raises(ValueError, match="unknown engine"):
            repro.connect(db, engine="postgres")
        with pytest.raises(ValueError, match="unknown engine"):
            repro.connect(db, engine=["plan"])
        with pytest.raises(ValueError, match="unknown semantics"):
            repro.connect(db, semantics="open-ish")
        with pytest.raises(TypeError, match="Database"):
            repro.connect({"Orders": []})

    def test_sessions_are_context_managers(self, db):
        with repro.connect(db, engine="sqlite") as session:
            assert len(session.query(PROJECT).certain()) == 3
        with pytest.raises(RuntimeError, match="closed"):
            session.query(PROJECT, database=db).certain()

    def test_close_is_idempotent(self, db):
        session = repro.connect(db)
        session.close()
        session.close()

    def test_kernel_watermark_validated(self, db):
        with pytest.raises(ValueError, match="watermark"):
            repro.connect(db, kernel_watermark=0)

    @pytest.mark.parametrize(
        "call, options, error, match",
        [
            ("connect", {"workers": 2}, TypeError, "unexpected keyword argument 'workers'"),
            ("connect", {"kernel_watermark": "a"}, repro.InvalidRequestError,
             "kernel_watermark must be an int >= 1"),
            ("connect", {"kernel_memo_limit": 1}, repro.InvalidRequestError,
             "kernel_memo_limit must be an int >= 2"),
            ("connect", {"budget": "x"}, TypeError, "budget must be a Budget, got str"),
            ("connect", {"tracer": 5}, TypeError, "tracer must be a Tracer, got int"),
            ("certain", {"budget": "x"}, TypeError, "budget must be a Budget, got str"),
            ("possible", {"budget": "x"}, TypeError, "budget must be a Budget, got str"),
            ("boolean", {"budget": "x"}, TypeError, "budget must be a Budget, got str"),
        ],
    )
    def test_bad_options_raise_typed_errors(self, db, call, options, error, match):
        """Each of these used to be accepted and fail later with a raw
        ``TypeError`` or ``AttributeError``."""
        with pytest.raises(error, match=match):
            if call == "connect":
                repro.connect(db, **options)
            else:
                getattr(repro.connect(db).query(UNPAID), call)(**options)


class TestQueryModes:
    @pytest.mark.parametrize("engine", ["plan", "interpreter", "sqlite"])
    def test_certain_matches_the_oracle(self, db, engine):
        session = repro.connect(db, engine=engine)
        assert session.query(PROJECT).certain() == PROJECT.evaluate(db).complete_part()

    @pytest.mark.parametrize("engine", ["plan", "sqlite"])
    def test_non_ucq_falls_back_to_enumeration(self, db, engine):
        session = repro.connect(db, engine=engine)
        certain = session.query(UNPAID).certain()
        # o1 is paid; the null payment may pay o2 *or* o3, so neither is
        # certainly unpaid — enumeration gives the empty answer where the
        # (unsound here) naive difference would keep both.
        assert sorted(certain.rows) == []
        naive = session.query(UNPAID).certain(method="naive")
        assert sorted(naive.rows) == [("o2",), ("o3",)]

    def test_possible_is_superset_of_certain(self, db):
        session = repro.connect(db)
        q = session.query(UNPAID)
        assert set(q.certain().rows) <= set(q.possible().rows)

    def test_answer_object_keeps_nulls(self, db):
        session = repro.connect(db)
        obj = session.query(parse_ra("project[ord](Pay)")).answer_object()
        assert any(value == Null("n") for (value,) in obj.rows)

    def test_boolean_certain_and_possible(self, db):
        session = repro.connect(db)
        assert session.query(PROJECT).boolean() is True
        empty = session.query(parse_ra("diff(Orders, Orders)"))
        assert empty.boolean() is False
        assert empty.boolean(mode="possible") is False
        with pytest.raises(ValueError, match="unknown mode"):
            session.query(PROJECT).boolean(mode="definitely")

    def test_boolean_checks_mode_before_looking_for_a_database(self):
        with repro.connect() as session:
            with pytest.raises(repro.InvalidRequestError, match="unknown mode 'perhaps'"):
                session.query(PROJECT).boolean(mode="perhaps")

    def test_fo_queries_work(self, db):
        session = repro.connect(db)
        q = session.query(FOQuery(exists((var("p"), var("pr")), atom("Orders", var("p"), var("pr")))))
        assert q.boolean() is True

    def test_knowledge_returns_formula(self, db):
        session = repro.connect(db)
        formula = session.query(PROJECT).knowledge()
        assert formula is not None

    def test_knowledge_respects_wcwa_semantics(self, db):
        # delta() supports wcwa natively; the session must not silently
        # substitute the CWA formula (regression: PR-5 review finding).
        from repro.core.answers import knowledge_strategy
        from repro.core.naive_evaluation import evaluate_query

        expected = knowledge_strategy(PROJECT, db, evaluate_query, semantics="wcwa")
        fresh = repro.connect(db, semantics="wcwa").query(PROJECT).knowledge()
        assert str(fresh) == str(expected)
        cwa = repro.connect(db, semantics="cwa").query(PROJECT).knowledge()
        assert str(fresh) != str(cwa)

    def test_database_override_per_query(self, db):
        session = repro.connect(db)
        other = Database.from_relations(
            [
                Relation.create("Orders", [("z1", "q")], attributes=("o_id", "prod")),
                Relation.create("Pay", [], attributes=("p_id", "ord")),
            ]
        )
        assert sorted(session.query(PROJECT, database=other).certain().rows) == [("z1",)]
        # the session default is untouched
        assert len(session.query(PROJECT).certain()) == 3

    def test_query_without_database_anywhere_raises(self):
        session = repro.connect()
        with pytest.raises(ValueError, match="no database"):
            session.query(PROJECT).certain()

    def test_query_rejects_unknown_types(self, db):
        session = repro.connect(db)
        with pytest.raises(TypeError, match="query\\(\\) expects"):
            session.query(12345)

    def test_wcwa_semantics_accepted(self, db):
        session = repro.connect(db, semantics="wcwa")
        assert len(session.query(PROJECT).certain()) == 3


class TestSessionSql:
    SQL = "SELECT ord FROM Pay"
    NOT_IN = "SELECT o_id FROM Orders WHERE o_id NOT IN (SELECT ord FROM Pay)"

    @pytest.mark.parametrize("engine", ["plan", "sqlite"])
    def test_three_valued_rows(self, db, engine):
        session = repro.connect(db, engine=engine)
        rows = session.sql(self.SQL)
        assert ("o1",) in rows and len(rows) == 2

    def test_unpaid_orders_bug_reproduces(self, db):
        # The Section 1 example: NOT IN over a null loses every answer.
        session = repro.connect(db)
        assert session.sql(self.NOT_IN) == []

    def test_certain_rewriting(self, db):
        session = repro.connect(db)
        assert session.sql(self.SQL, certain=True) == [("o1",)]

    def test_query_handle_over_sql(self, db):
        session = repro.connect(db, engine="sqlite")
        q = session.query(self.SQL)
        assert len(q.answer_object()) == 2
        assert q.certain() == [("o1",)]
        assert list(q.cursor(certain=True)) == [("o1",)]
        with pytest.raises(ValueError, match="not defined"):
            q.boolean()
        with pytest.raises(ValueError, match="not defined"):
            q.possible()
        assert "sql" in q.explain()

    @pytest.mark.parametrize(
        "arguments", [{"method": "bogus"}, {"on_budget": "bogus"}], ids=["method", "on_budget"]
    )
    def test_certain_validates_its_arguments_for_sql_queries(self, db, arguments):
        session = repro.connect(db)
        with pytest.raises(repro.InvalidRequestError, match="unknown"):
            session.query(self.SQL).certain(**arguments)

    def test_sql_requires_database(self):
        session = repro.connect()
        with pytest.raises(ValueError, match="no database"):
            session.sql(self.SQL)

    def test_sql_after_close_raises_instead_of_reopening(self, db):
        # Regression (PR-5 review finding): the 3VL path must honor the
        # closed flag, not silently re-open an uncloseable backend.
        session = repro.connect(db, engine="sqlite")
        session.close()
        with pytest.raises(RuntimeError, match="closed"):
            session.sql(self.SQL)
        assert session._engine.threevl.backend is None


class TestExplain:
    def test_explain_sections(self, db):
        session = repro.connect(db, engine="sqlite")
        text = session.query(PROJECT).explain()
        assert "naive evaluation" in text
        assert "logical plan:" in text
        assert "physical plan:" in text
        assert "SELECT" in text

    def test_explain_marks_enumeration_and_unsupported_sql(self, db):
        session = repro.connect(db, engine="sqlite")
        q = session.query(UNPAID)
        q.certain(method="enumeration")
        assert "world enumeration" in q.explain()
        order_query = parse_ra("select[#0 < #1](Orders)")
        text = session.query(order_query).explain()
        assert "outside the SQL fragment" in text

    def test_explain_reports_the_strategy_that_ran(self, db):
        q = repro.connect(db).query(UNPAID)
        # Before any run: what certain(method="auto") would pick.
        assert "certain(): lineage validity" in q.explain()
        q.certain(method="naive")
        assert "certain(): naive evaluation (method='naive')" in q.explain()
        q.certain()
        assert "certain(): lineage validity" in q.explain()
        q.certain(method="enumeration")
        assert "certain(): world enumeration (method='enumeration')" in q.explain()

    def test_explain_names_the_degradation_rung(self, db):
        q = repro.connect(db, semantics="cwa").query(UNPAID)
        q.certain(method="enumeration", budget=repro.Budget(max_worlds=1))
        text = q.explain()
        assert "certain(): sound CWA approximation (degraded)" in text
        assert "resilience: budget exceeded (worlds); degraded to sound lower bound" in text

    @pytest.mark.parametrize("operation", ["union", "diff", "intersect"])
    def test_explain_query_line_spells_out_set_operations(self, db, operation):
        text = f"{operation}(project[o_id](Orders), rename[Paid(o_id)](project[ord](Pay)))"
        expression = parse_ra(text)
        explained = repro.connect(db).query(expression).explain()
        assert "object at 0x" not in explained
        first = explained.splitlines()[0]
        assert first == f"query: {expression!r}"
        assert first.startswith(f"query: {type(expression).__name__}(left=Projection(")

    def test_explain_fo_query(self, db):
        session = repro.connect(db)
        text = session.query(FOQuery(exists((var("p"), var("pr")), atom("Orders", var("p"), var("pr"))))).explain()
        assert "first-order" in text


class TestBackendLifecycle:
    def test_persistent_handle_reused_across_same_schema_databases(self, db):
        session = repro.connect(db, engine="sqlite")
        assert len(session.query(PROJECT).certain()) == 3
        backend_before = session._engine.sentinel.backend
        other = Database.from_relations(
            [
                Relation.create("Orders", [("z9", "q")], attributes=("o_id", "prod")),
                Relation.create("Pay", [], attributes=("p_id", "ord")),
            ]
        )
        rows = session.query(PROJECT, database=other).certain()
        assert sorted(rows.rows) == [("z9",)]
        assert session._engine.sentinel.backend is backend_before  # the handle survived

    def test_schema_change_rebuilds_on_same_connection(self, db):
        session = repro.connect(db, engine="sqlite")
        session.query(PROJECT).certain()
        backend_before = session._engine.sentinel.backend
        different = Database.from_dict({"Animals": [("cat",), ("dog",)]})
        rows = session.query(parse_ra("Animals"), database=different).certain()
        assert len(rows) == 2
        assert session._engine.sentinel.backend is backend_before

    def test_out_of_core_loading_without_database_object(self, tmp_path):
        from repro.datamodel.schema import DatabaseSchema

        session = repro.connect(
            engine="sqlite", backend_path=str(tmp_path / "resident.sqlite")
        )
        session.create_schema(DatabaseSchema.from_attributes({"Big": ("a", "b")}))
        written = session.load_rows("Big", (("k%d" % (i % 5), i) for i in range(1000)))
        assert written == 1000
        count = sum(1 for _ in session.query(parse_ra("Big")).cursor(batch_size=64))
        assert count == 1000
        session.close()

    def test_a_query_on_a_database_after_load_rows_answers_from_that_database(self):
        # Regression: load_rows left the backend recording the Database it
        # loaded earlier, so a query on that Database skipped the refill
        # and answered with rows that are not in it.
        database = Database.from_dict({"R": [("a",)]})
        query = parse_ra("project[#0](R)")
        with repro.connect(database, engine="sqlite") as session:
            assert session.query(query).certain().rows == {("a",)}
            session.load_rows("R", [("b",)])
            answer = session.query(query, database=database).certain()
        with repro.connect(database, engine="plan") as oracle:
            expected = oracle.query(query).certain()
        assert expected.rows == {("a",)}
        assert answer == expected

    def test_backend_loading_requires_sqlite_engine(self):
        from repro.datamodel.schema import DatabaseSchema

        session = repro.connect(engine="plan")
        with pytest.raises(ValueError, match='engine="sqlite"'):
            session.create_schema(DatabaseSchema.from_attributes({"R": ("a",)}))

    @pytest.mark.parametrize("engine", ["plan", "interpreter"])
    def test_database_less_in_memory_session_opens_no_backend(self, engine, monkeypatch):
        # Regression: answer_object()/cursor() on a database-less in-memory
        # session used to open a SQLite backend and fail with a BackendError,
        # and load_rows() opened one too.
        from repro.backends.sqlite import SQLiteBackend

        def refuse(*args, **kwargs):
            raise AssertionError("an in-memory session opened a SQLite backend")

        monkeypatch.setattr(SQLiteBackend, "__init__", refuse)
        session = repro.connect(engine=engine)
        query = session.query(PROJECT)
        with pytest.raises(repro.InvalidRequestError, match="no database"):
            query.answer_object()
        with pytest.raises(repro.InvalidRequestError, match="no database"):
            query.cursor()
        with pytest.raises(repro.InvalidRequestError, match='engine="sqlite"'):
            session.load_rows("R", [("a",)])
        session.close()


class TestThreeValuedBackend:
    SQL = "SELECT ord FROM Pay"

    def test_frozen_after_sql_serves_that_database_only(self, db):
        session = repro.connect(db, engine="sqlite")
        try:
            assert len(session.sql(self.SQL)) == 2
            session.freeze()
            rows = session.sql(self.SQL)
            assert ("o1",) in rows and len(rows) == 2
            other = Database.from_relations(
                [
                    Relation.create("Orders", [("z1", "q")], attributes=("o_id", "prod")),
                    Relation.create("Pay", [("y1", "z1")], attributes=("p_id", "ord")),
                ]
            )
            with pytest.raises(repro.InvalidRequestError, match="frozen"):
                session.sql(self.SQL, database=other)
            assert len(session.sql(self.SQL)) == 2
        finally:
            session.close()

    def test_switching_databases_refills_the_same_handle(self, db):
        session = repro.connect(db, engine="sqlite")
        try:
            session.sql(self.SQL)
            backend = session._engine.threevl.backend
            other = Database.from_relations(
                [
                    Relation.create("Orders", [("z1", "q")], attributes=("o_id", "prod")),
                    Relation.create("Pay", [("y1", "z1")], attributes=("p_id", "ord")),
                ]
            )
            assert session.sql(self.SQL, database=other) == [("z1",)]
            assert session._engine.threevl.backend is backend
            assert len(session.sql(self.SQL)) == 2
        finally:
            session.close()
