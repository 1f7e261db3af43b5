"""Budgets through the session API: deadlines, world caps, degradation."""

import time

import pytest

import repro
from repro import (
    Budget,
    BudgetExceeded,
    InvalidRequestError,
    ManualClock,
    PartialResult,
    SessionClosedError,
)
from repro.algebra.ast import Difference, Intersection, Union_, project, relation
from repro.datamodel import Database, Null
from repro.resilience import budget_scope


@pytest.fixture
def db():
    return Database.from_dict(
        {
            "R": [(1, "a"), (2, "b"), (Null("x"), "c")],
            "S": [(1, "a"), (Null("y"), "b")],
        }
    )


UCQ = project(relation("R"), (1,))
DIFF = Difference(project(relation("R"), (0,)), project(relation("S"), (0,)))


class TestBudgetValidation:
    def test_rejects_nonpositive_limits(self):
        with pytest.raises(ValueError):
            Budget(deadline=0)
        with pytest.raises(ValueError):
            Budget(max_worlds=0)
        with pytest.raises(ValueError):
            Budget(max_block_size=0)

    def test_unknown_policy_rejected(self, db):
        session = repro.connect(db)
        with pytest.raises(InvalidRequestError):
            session.query(UCQ).certain(
                budget=Budget(max_worlds=1), on_budget="bogus"
            )
        with pytest.raises(ValueError):  # taxonomy compatibility
            repro.connect(db, on_budget="bogus")
        session.close()


class TestDeadlines:
    def test_manual_clock_deadline_raises_with_resource(self, db):
        # step=1.0: every budget check advances the clock a full second,
        # so a 5 s deadline expires deterministically a few checks in.
        budget = Budget(deadline=5.0, clock=ManualClock(step=1.0))
        session = repro.connect(db)
        with pytest.raises(BudgetExceeded) as err:
            session.query(UCQ).certain(
                method="enumeration", budget=budget, on_budget="raise"
            )
        assert err.value.resource == "deadline"
        session.close()

    def test_real_deadline_bounds_wall_clock_on_infeasible_instance(self):
        # 8 distinct nulls: |domain|^8 valuations — enumeration can never
        # finish, the deadline must cut in and the degrade rung answer.
        database = Database.from_dict(
            {"R": [(Null(f"n{i}"), i) for i in range(8)]}
        )
        session = repro.connect(database)
        deadline = 0.1
        start = time.monotonic()
        result = session.query(project(relation("R"), (1,))).certain(
            method="enumeration", budget=Budget(deadline=deadline)
        )
        elapsed = time.monotonic() - start
        # ~2x the deadline plus scheduling slack: the checks are per-world
        # and each world is tiny, so the overshoot is bounded.
        assert elapsed < 2 * deadline + 0.75
        # The degraded answer is the exact one (UCQ: naive is exact).
        assert result.rows == {(i,) for i in range(8)}
        assert "resilience" in session.query(UCQ).explain() or True
        session.close()

    def test_expired_budget_refuses_to_start(self, db):
        clock = ManualClock()
        budget = Budget(deadline=1.0, clock=clock)
        state = budget.start()
        clock.advance(2.0)
        session = repro.connect(db)
        from repro.core.answers import enumeration_strategy

        with budget_scope(state):
            with pytest.raises(BudgetExceeded):
                enumeration_strategy(
                    UCQ, db, lambda q, d: repro.connect(d).query(q).answer_object()
                )
        session.close()

    @pytest.mark.parametrize("operator", [Difference, Intersection])
    def test_lineage_deadline_is_noticed_inside_the_ctable_set_operation(self, operator):
        # diff/intersect(union(R, S), T) is generic relational algebra, so
        # under CWA certain() runs c-table lineage; the set operation's
        # outer loop over the 40 rows of R ∪ S must check the deadline.
        database = Database.from_dict(
            {
                "R": [(i, "a") for i in range(20)],
                "S": [(i, "b") for i in range(20, 40)],
                "T": [(Null("t"), "a"), (25, "b")],
            }
        )
        query = operator(Union_(relation("R"), relation("S")), relation("T"))
        with repro.connect(database, semantics="cwa") as session:
            q = session.query(query)
            exact = q.certain()
            assert q._ran == "lineage validity" and len(exact) > 0
            # step=1.0: every check advances the clock a second, so a 10 s
            # deadline passes on the 10th check — a few rows into the loop.
            deadline = Budget(deadline=10.0, clock=ManualClock(step=1.0))
            with pytest.raises(BudgetExceeded) as err:
                q.certain(budget=deadline, on_budget="raise")
            tb, computing = err.value.__traceback__, []
            while tb is not None:
                if tb.tb_frame.f_code.co_name == "_compute":
                    computing.append(type(tb.tb_frame.f_locals["self"]).__name__)
                tb = tb.tb_next
            assert computing[-1] == "C" + operator.__name__
            degraded = q.certain(budget=Budget(deadline=10.0, clock=ManualClock(step=1.0)))
            assert set(degraded.rows) <= set(exact.rows)
            assert "degraded" in q._resilience_verdict


class TestWorldCaps:
    def test_max_worlds_raise_policy(self, db):
        session = repro.connect(db)
        with pytest.raises(BudgetExceeded) as err:
            session.query(UCQ).certain(
                method="enumeration",
                budget=Budget(max_worlds=2),
                on_budget="raise",
            )
        assert err.value.resource == "worlds"
        session.close()

    @pytest.mark.parametrize("cap", [1, 2, 3, 5])
    def test_max_worlds_is_exact(self, db, cap):
        """The fold ticks once per world: a cap of ``k`` evaluates exactly
        ``k`` worlds and the checkpoint counts exactly those."""
        with repro.connect(db) as session:
            session.query(UCQ).certain(method="enumeration")
            total = session.metrics()["counters"]["worlds.evaluated"]
        assert cap < total
        with repro.connect(db) as session:
            with pytest.raises(BudgetExceeded) as err:
                session.query(UCQ).certain(
                    method="enumeration", budget=Budget(max_worlds=cap), on_budget="raise"
                )
            evaluated = session.metrics()["counters"]["worlds.evaluated"]
        assert err.value.resource == "worlds"
        assert err.value.resume_token.worlds_done == cap
        assert evaluated == cap

    def test_degrade_policy_returns_exact_for_ucq(self, db):
        session = repro.connect(db)
        q = session.query(UCQ)
        oracle = q.certain()  # no budget: naive (exact for UCQs)
        degraded = q.certain(method="enumeration", budget=Budget(max_worlds=2))
        assert degraded == oracle
        assert "exact" in q._resilience_verdict
        assert "resilience:" in q.explain()
        session.close()

    def test_partial_policy_wraps_sound_subset(self, db):
        session = repro.connect(db)
        q = session.query(UCQ)
        oracle = q.certain()
        result = q.certain(
            method="enumeration",
            budget=Budget(max_worlds=2),
            on_budget="partial",
        )
        assert isinstance(result, PartialResult)
        assert result.partial is True
        assert result.resource == "worlds"
        assert set(result.rows) <= set(oracle.rows)
        assert len(result) == len(result.relation)
        # Not accidentally equal to a plain relation.
        assert result != oracle
        session.close()

    def test_cwa_difference_degrades_to_sound_approximation(self, db):
        from repro.core.sound_evaluation import sound_certain_answers

        session = repro.connect(db, semantics="cwa")
        q = session.query(DIFF)
        oracle = q.certain()  # enumeration (difference is outside the fragments)
        degraded = q.certain(budget=Budget(max_worlds=1))
        assert set(degraded.rows) <= set(oracle.rows)
        assert degraded == sound_certain_answers(DIFF, db)
        assert "sound lower bound" in q._resilience_verdict
        session.close()

    def test_owa_difference_has_no_sound_fallback(self, db):
        session = repro.connect(db, semantics="owa")
        q = session.query(DIFF)
        with pytest.raises(BudgetExceeded):
            q.certain(budget=Budget(max_worlds=1))  # degrade: nothing sound
        assert "no sound fallback" in q._resilience_verdict
        result = q.certain(budget=Budget(max_worlds=1), on_budget="partial")
        assert isinstance(result, PartialResult)
        assert len(result) == 0  # the only certifiable sound subset
        session.close()

    # Naive evaluation and the CWA approximation answer over the
    # unrestricted domain: with domain=[5] naive evaluation is no longer
    # exact, and with domain=[] (no world) its answer {(1,)} is unsound.
    @pytest.mark.parametrize("semantics", ["owa", "cwa", "wcwa"])
    @pytest.mark.parametrize(
        "query, domain",
        [("project[#0](select[#0 = #1](R))", [5]), ("project[#0](R)", [])],
        ids=["domain=[5]", "domain=[]"],
    )
    @pytest.mark.parametrize("method", ["auto", "enumeration"])
    def test_a_degraded_domain_call_is_sound_and_labelled(self, semantics, query, domain, method):
        from repro.algebra import parse_ra

        database = Database.from_dict({"R": [(Null("x"), Null("y")), (1, 2)]})
        expression = parse_ra(query)
        with repro.connect(database, semantics=semantics) as session:
            exact = session.query(expression).certain(domain=domain, method="enumeration")
        budget = Budget(deadline=1.0, clock=ManualClock(step=2.0))
        with repro.connect(database, semantics=semantics, budget=budget, on_budget="degrade") as session:
            q = session.query(expression)
            try:
                answer = q.certain(domain=domain, method=method)
            except BudgetExceeded:
                assert "raised" in q._resilience_verdict
            else:
                assert set(answer.rows) <= set(exact.rows)
                assert "exact" not in q._resilience_verdict or answer == exact
            partial = q.certain(domain=domain, method=method, on_budget="partial")
            assert set(partial.relation.rows) <= set(exact.rows)

    def test_possible_and_boolean_raise_on_budget(self, db):
        session = repro.connect(db)
        with pytest.raises(BudgetExceeded):
            session.query(UCQ).possible(budget=Budget(max_worlds=2))
        with pytest.raises(BudgetExceeded):
            session.query(UCQ).boolean(budget=Budget(max_worlds=2))
        session.close()


class TestSessionDefaults:
    def test_session_default_budget_applies(self, db):
        session = repro.connect(
            db, budget=Budget(max_worlds=1), on_budget="raise"
        )
        with pytest.raises(BudgetExceeded):
            session.query(UCQ).certain(method="enumeration")
        session.close()

    def test_per_call_budget_overrides_session_default(self, db):
        session = repro.connect(
            db, budget=Budget(max_worlds=1), on_budget="raise"
        )
        q = session.query(UCQ)
        generous = q.certain(
            method="enumeration", budget=Budget(max_worlds=10**9)
        )
        assert generous == repro.connect(db).query(UCQ).certain(
            method="enumeration"
        )
        session.close()

    def test_no_budget_means_no_overhead_state(self, db):
        from repro.resilience import active_budget

        session = repro.connect(db)
        assert session.budget is None
        session.query(UCQ).certain()
        assert active_budget() is None
        session.close()


class TestBlockCaps:
    def test_max_block_size_refuses_exponential_search(self):
        from repro.homomorphisms.core import core

        null = Null
        # One connected block of 4 facts sharing nulls.
        database = Database.from_dict(
            {
                "E": [
                    (null("a"), null("b")),
                    (null("b"), null("c")),
                    (null("c"), null("d")),
                    (null("d"), null("a")),
                ]
            }
        )
        budget = Budget(max_block_size=2)
        with budget_scope(budget.start()):
            with pytest.raises(BudgetExceeded) as err:
                core(database)
        assert err.value.resource == "block"
        # Without a budget the same computation succeeds.
        assert core(database) is not None

    def test_chase_honors_deadline(self):
        from repro.exchange.chase import chase
        from repro.workloads import chain_mapping, random_graph_source

        mapping = chain_mapping()
        source = random_graph_source(num_nodes=6, num_edges=10, seed=0)
        budget = Budget(deadline=1.0, clock=ManualClock(step=1.0))
        with budget_scope(budget.start()):
            with pytest.raises(BudgetExceeded):
                chase(mapping, source)
        assert chase(mapping, source).triggers_fired > 0


class TestTaxonomy:
    def test_closed_session_raises_typed_runtime_error(self, db):
        session = repro.connect(db)
        session.close()
        with pytest.raises(SessionClosedError):
            session.query(UCQ).certain()
        with pytest.raises(RuntimeError):  # compatibility
            session.query(UCQ).certain()

    def test_invalid_request_is_a_value_error(self, db):
        session = repro.connect(db)
        with pytest.raises(InvalidRequestError):
            session.query(UCQ).cursor(batch_size=0)
        with pytest.raises(ValueError):
            session.query(UCQ).boolean(mode="perhaps")
        session.close()

    def test_taxonomy_roots(self):
        from repro import ReproError

        assert issubclass(BudgetExceeded, ReproError)
        assert issubclass(SessionClosedError, ReproError)
        assert issubclass(InvalidRequestError, ReproError)
        assert issubclass(SessionClosedError, RuntimeError)
        assert issubclass(InvalidRequestError, ValueError)
