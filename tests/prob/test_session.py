"""The session tier of semantics="prob": confidence(), condition_on, budgets."""

import asyncio
import sys
import threading

import pytest

import repro
from repro import connect
from repro.algebra import CTableDatabase, parse_ra
from repro.datamodel import And, Database, Eq, Null, Relation
from repro.obs import Tracer
from repro.prob import ExclusiveBlock, ProbabilityModel, brute_force_confidence
from repro.resilience import (
    Budget,
    BudgetExceeded,
    ConfidenceInterval,
    InvalidRequestError,
)
from repro.serve import Server

X, Y = Null("x"), Null("y")
JOIN = parse_ra("join(R, S)")
PROJECT = parse_ra("project[a](join(R, S))")


def make_model():
    return ProbabilityModel(
        independent={X: {1: 0.6, 2: 0.4}, Y: {2: 0.3, 3: 0.7}}
    )


def make_database():
    return Database.from_relations(
        [
            Relation.create("R", [(1, X), (2, 2)], attributes=("a", "b")),
            Relation.create("S", [(Y, "p"), (2, "q")], attributes=("b", "c")),
        ]
    )


@pytest.fixture
def session():
    with connect(make_database(), semantics="prob", model=make_model()) as s:
        yield s


class TestConnectValidation:
    def test_prob_needs_a_model(self):
        with pytest.raises(InvalidRequestError, match="needs a probability model"):
            connect(make_database(), semantics="prob")

    def test_model_must_be_a_probability_model(self):
        with pytest.raises(TypeError, match="ProbabilityModel"):
            connect(make_database(), semantics="prob", model={"x": {1: 1.0}})

    def test_model_requires_prob_semantics(self):
        with pytest.raises(InvalidRequestError, match="only meaningful"):
            connect(make_database(), semantics="cwa", model=make_model())

    def test_confidence_requires_prob_session(self):
        with connect(make_database()) as s:
            with pytest.raises(InvalidRequestError, match="probabilistic session"):
                s.query(JOIN).confidence()
            with pytest.raises(InvalidRequestError, match="probabilistic session"):
                s.query(JOIN).condition_on(Eq(X, 1))


class TestConfidence:
    def test_matches_world_enumeration(self, session):
        ranked = session.query(JOIN).confidence()
        # Worlds: x ∈ {1,2} (0.6/0.4), y ∈ {2,3} (0.3/0.7).
        # R = {(1,x), (2,2)}, S = {(y,p), (2,q)}; join on b.
        expected = {
            (2, 2, "q"): 1.0,          # ground derivation
            (2, 2, "p"): 0.3,          # y = 2
            (1, 2, "q"): 0.4,          # x = 2
            (1, 2, "p"): 0.4 * 0.3,    # x = 2 ∧ y = 2
            (1, 3, "p"): 0.6 * 0.7,    # x = 1... no: x pinned 3? impossible
        }
        # (1, 3, "p") needs x = 3, outside x's support: dropped.
        del expected[(1, 3, "p")]
        assert dict(ranked) == pytest.approx(expected)
        probabilities = [p for _, p in ranked]
        assert probabilities == sorted(probabilities, reverse=True)

    def test_zero_probability_rows_dropped(self, session):
        rows = dict(session.query(JOIN).confidence())
        assert all(p > 0.0 for p in rows.values())
        assert (1, 3, "p") not in rows  # x = 3 is outside the support

    def test_min_p_and_limit(self, session):
        top = session.query(JOIN).confidence(limit=2)
        assert len(top) == 2
        assert top[0] == ((2, 2, "q"), pytest.approx(1.0))
        confident = session.query(JOIN).confidence(min_p=0.35)
        assert all(p >= 0.35 for _, p in confident)
        with pytest.raises(InvalidRequestError, match="limit"):
            session.query(JOIN).confidence(limit=0)

    def test_projection_merges_lineage(self, session):
        ranked = dict(session.query(PROJECT).confidence())
        # (1,) appears iff any join partner for (1, x) exists:
        # x=2 (S has b=2 twice at least via (2,q)) — P = 0.4... but y=2
        # also yields b=2. Oracle-check instead of hand-solving:
        model = make_model()
        total = 0.0
        for assignment, p in model.joint_outcomes(model.nulls()):
            from repro.algebra import naive_evaluate
            from repro.datamodel import Valuation

            world = Valuation(assignment).apply(make_database())
            if (1,) in set(naive_evaluate(PROJECT, world)):
                total += p
        assert ranked[(1,)] == pytest.approx(total)

    def test_certain_and_possible_still_answer_under_cwa(self):
        with connect(make_database(), semantics="prob", model=make_model()) as prob:
            with connect(make_database(), semantics="cwa") as cwa:
                assert prob.query(JOIN).certain() == cwa.query(JOIN).certain()
                assert prob.query(JOIN).possible() == cwa.query(JOIN).possible()
        assert prob.world_semantics == "cwa"

    def test_unmodeled_database_null_raises(self):
        database = Database.from_relations(
            [
                Relation.create("R", [(1, Null("free"))], attributes=("a", "b")),
                Relation.create("S", [(2, "q")], attributes=("b", "c")),
            ]
        )
        with connect(database, semantics="prob", model=make_model()) as s:
            with pytest.raises(InvalidRequestError, match="free"):
                s.query(JOIN).confidence()

    def test_explain_documents_the_estimator(self, session):
        text = session.query(JOIN).explain()
        assert "confidence(): exact decomposition" in text
        assert "2 modeled nulls" in text

    def test_metrics_count_the_prob_path(self, session):
        session.query(JOIN).confidence()
        counters = session.metrics()["counters"]
        assert counters["query.confidence"] >= 1
        assert counters["prob.confidence.candidates"] >= 4
        assert any(name.startswith("prob.decompositions.") for name in counters)


class TestConditionOn:
    def test_conditioning_renormalizes(self, session):
        ranked = dict(session.query(JOIN).condition_on(Eq(X, 2)).confidence())
        # Given x = 2: (1, 2, "q") is certain, (1, 2, "p") has P(y=2).
        assert ranked[(1, 2, "q")] == pytest.approx(1.0)
        assert ranked[(1, 2, "p")] == pytest.approx(0.3)

    def test_chaining_conjoins(self, session):
        query = session.query(JOIN).condition_on(Eq(X, 2)).condition_on(Eq(Y, 2))
        ranked = dict(query.confidence())
        assert ranked[(1, 2, "p")] == pytest.approx(1.0)

    def test_matches_conditional_oracle(self, session):
        constraint = Eq(Y, 2)
        ranked = dict(session.query(JOIN).condition_on(constraint).confidence())
        model = make_model()
        joint = brute_force_confidence(And((Eq(X, 2), constraint)), model)
        assert ranked[(1, 2, "p")] == pytest.approx(
            joint / brute_force_confidence(constraint, model)
        )

    def test_constraint_must_be_a_condition(self, session):
        with pytest.raises(InvalidRequestError, match="Condition"):
            session.query(JOIN).condition_on("x = 1")

    def test_zero_probability_constraint_raises_at_confidence(self, session):
        query = session.query(JOIN).condition_on(Eq(X, 9))
        with pytest.raises(InvalidRequestError, match="probability zero"):
            query.confidence()

    def test_condition_on_does_not_mutate_the_original(self, session):
        base = session.query(JOIN)
        conditioned = base.condition_on(Eq(X, 2))
        assert base._prob_constraint is None
        assert conditioned is not base
        assert dict(base.confidence())[(1, 2, "q")] == pytest.approx(0.4)


class TestBudgetDegradation:
    def entangled_session(self):
        # Every row shares nulls with the others; lineage construction is
        # cheap but exact evaluation needs Shannon expansions.
        database = Database.from_relations(
            [
                Relation.create("R", [(X, Y), (Y, X), (X, 2)], attributes=("a", "b")),
                Relation.create("S", [(Y, "p"), (2, "q")], attributes=("b", "c")),
            ]
        )
        return connect(
            database,
            semantics="prob",
            model=ProbabilityModel(
                independent={X: {1: 0.5, 2: 0.5}, Y: {1: 0.4, 2: 0.6}}
            ),
        )

    def find_degrading_budget(self, session):
        # The smallest max_worlds that survives lineage construction but
        # dies during exact evaluation (deterministic: no clock involved).
        for worlds in range(1, 200):
            query = session.query(JOIN)
            try:
                result = query.confidence(
                    budget=Budget(max_worlds=worlds), seed=17
                )
            except BudgetExceeded:
                continue
            if any(isinstance(p, ConfidenceInterval) for _, p in result):
                return worlds
        raise AssertionError("no budget size degrades this workload")

    def test_degrades_to_monte_carlo_intervals(self):
        with self.entangled_session() as session:
            worlds = self.find_degrading_budget(session)
            query = session.query(JOIN)
            result = query.confidence(budget=Budget(max_worlds=worlds), seed=17)
            exact = dict(session.query(JOIN).confidence())
            intervals = [
                (values, p)
                for values, p in result
                if isinstance(p, ConfidenceInterval)
            ]
            assert intervals
            for values, interval in intervals:
                assert interval.partial
                assert interval.low <= interval.estimate <= interval.high
                # ~5% of answers legitimately miss a 95% interval, so
                # assert estimate accuracy rather than strict coverage.
                assert float(interval) == pytest.approx(exact[values], abs=0.03)
            assert "degraded to Monte Carlo" in query._resilience_verdict
            counters = session.metrics()["counters"]
            assert counters["degrade.monte_carlo"] >= 1
            assert any(name.startswith("budget.expired.") for name in counters)

    def test_on_budget_raise_propagates(self):
        with self.entangled_session() as session:
            worlds = self.find_degrading_budget(session)
            query = session.query(JOIN)
            with pytest.raises(BudgetExceeded):
                query.confidence(
                    budget=Budget(max_worlds=worlds), on_budget="raise"
                )
            assert "on_budget='raise'" in query._resilience_verdict

    def test_budget_death_before_lineage_always_raises(self):
        with self.entangled_session() as session:
            query = session.query(JOIN)
            with pytest.raises(BudgetExceeded):
                query.confidence(budget=Budget(max_worlds=1))
            assert "nothing to estimate" in query._resilience_verdict


class TestFrozenAndServe:
    def test_frozen_session_answers_confidence(self):
        with connect(make_database(), semantics="prob", model=make_model()) as s:
            expected = s.query(JOIN).confidence()
        session = connect(make_database(), semantics="prob", model=make_model())
        try:
            session.freeze(warm=[JOIN])
            assert session.kernel.frozen
            assert session.query(JOIN).confidence() == expected
            # Unwarmed queries stay correct on the frozen kernel.
            assert dict(session.query(PROJECT).confidence())[(2,)] == pytest.approx(1.0)
        finally:
            session.close()

    def test_server_confidence_round_trip(self):
        expected = None
        with connect(make_database(), semantics="prob", model=make_model()) as s:
            expected = s.query(JOIN).confidence()
        server = Server(
            make_database(),
            pool_size=2,
            semantics="prob",
            model=make_model(),
            warm=[JOIN],
        )
        try:

            async def main():
                ranked = await server.confidence(JOIN)
                conditioned = await server.confidence(JOIN, limit=1)
                return ranked, conditioned

            ranked, top = asyncio.run(main())
            assert ranked == expected
            assert len(top) == 1
        finally:
            server.close()

    def test_public_api_exports(self):
        assert repro.ProbabilityModel is ProbabilityModel
        assert repro.ExclusiveBlock is ExclusiveBlock
        assert repro.ConfidenceInterval is ConfidenceInterval


class TestWarmCaches:
    """Lifted tables, supports, selection indexes and join build sides are
    kept per immutable instance; every answer is checked against a fresh
    session's."""

    SELECT = parse_ra("project[c](select[b = 2](join(R, S)))")

    @staticmethod
    def pruning_database():
        # x ∈ {1, 2} never meets S's 3; y ∈ {2, 3} never meets R's 5.
        return Database.from_relations(
            [
                Relation.create("R", [(1, X), (2, 2), (5, 5)], attributes=("a", "b")),
                Relation.create("S", [(Y, "p"), (2, "q"), (3, "r")], attributes=("b", "c")),
            ]
        )

    @staticmethod
    def fresh(query, database=None):
        with connect(database or make_database(), semantics="prob", model=make_model()) as s:
            return s.query(query).confidence()

    @staticmethod
    def traced(tracer):
        return [span.attrs for span in tracer.spans() if span.name == "ctable.execute"]

    def test_repeated_confidence(self):
        tracer = Tracer()
        expected = {query: self.fresh(query) for query in (JOIN, PROJECT, self.SELECT)}
        with connect(make_database(), semantics="prob", model=make_model(), tracer=tracer) as s:
            for _ in range(10):
                for query, answer in expected.items():
                    assert s.query(query).confidence() == answer
            counters = s.metrics()["counters"]
        reused = [attrs["reused"] for attrs in self.traced(tracer)]
        assert reused[:3] == [0, 0, 0] and all(count >= 1 for count in reused[3:])
        assert counters["ctable.build_reused"] == sum(reused)

    def test_pruned_counts_are_per_request(self):
        tracer = Tracer()
        database = self.pruning_database()
        with connect(database, semantics="prob", model=make_model(), tracer=tracer) as s:
            before = 0
            for request in range(10):
                s.query(PROJECT).confidence()
                counted = s.metrics()["counters"].get("ctable.support_pruned", 0)
                if request == 0:
                    first = counted
                assert counted - before == first
                before = counted
        pruned = [attrs["pruned"] for attrs in self.traced(tracer)]
        assert first > 0 and pruned == [first] * 10

    def test_kernel_clear_and_eviction_between_requests(self):
        expected = self.fresh(PROJECT)
        tracer = Tracer()
        with connect(
            make_database(), semantics="prob", model=make_model(), tracer=tracer,
            kernel_watermark=4,
        ) as s:
            assert s.query(PROJECT).confidence() == expected
            s.kernel.clear()
            assert s.query(PROJECT).confidence() == expected
            s.kernel.evict()
            assert s.query(PROJECT).confidence() == expected
            assert s.query(PROJECT).confidence() == expected
            assert s.kernel.auto_evictions > 0
        # A cleared or evicted kernel rebuilds the build side.
        assert [attrs["reused"] for attrs in self.traced(tracer)][:3] == [0, 0, 0]

    def test_alternating_databases(self):
        other = Database.from_relations(
            [
                Relation.create("R", [(2, Y), (1, 1)], attributes=("a", "b")),
                Relation.create("S", [(X, "r"), (1, "s")], attributes=("b", "c")),
            ]
        )
        base = make_database()
        expected = {"base": self.fresh(PROJECT, base), "other": self.fresh(PROJECT, other)}
        assert expected["base"] != expected["other"]
        # Equal table sizes: both databases run on the same cached lowering.
        with connect(base, semantics="prob", model=make_model()) as s:
            for _ in range(3):
                assert s.query(PROJECT).confidence() == expected["base"]
                assert s.query(PROJECT, database=other).confidence() == expected["other"]

    def test_one_database_under_two_models(self):
        database = self.pruning_database()
        wide = ProbabilityModel(independent={X: {1: 0.5, 3: 0.5}, Y: {2: 0.5, 5: 0.5}})
        expected = {}
        for model in (make_model(), wide):
            with connect(self.pruning_database(), semantics="prob", model=model) as s:
                expected[model] = s.query(JOIN).confidence()
        narrow_answer, wide_answer = expected.values()
        assert narrow_answer != wide_answer
        sessions = [connect(database, semantics="prob", model=m) for m in expected]
        try:
            for _ in range(2):
                for session in sessions:
                    assert session.query(JOIN).confidence() == expected[session.model]
        finally:
            for session in sessions:
                session.close()

    def test_distinct_database_with_equal_content(self):
        base, copy = make_database(), make_database()
        assert base == copy and base is not copy
        tracer = Tracer()
        with connect(base, semantics="prob", model=make_model(), tracer=tracer) as s:
            warm = s.query(PROJECT).confidence()
            s.query(PROJECT).confidence()
            assert s.query(PROJECT, database=copy).confidence() == warm == self.fresh(PROJECT)
        assert CTableDatabase.from_database(base) is not CTableDatabase.from_database(copy)
        # Caches key on the instance: the copy's first request builds afresh.
        assert [attrs["reused"] for attrs in self.traced(tracer)] == [0, 1, 0]

    def test_freeze_warms_the_build_sides(self):
        tracer = Tracer()
        session = connect(make_database(), semantics="prob", model=make_model(), tracer=tracer)
        try:
            session.freeze(warm=[PROJECT])
            assert session.query(PROJECT).confidence() == self.fresh(PROJECT)
        finally:
            session.close()
        assert [attrs["reused"] for attrs in self.traced(tracer)] == [0, 1]

    def test_threads_on_a_frozen_session(self):
        queries = (JOIN, PROJECT, self.SELECT)
        database = self.pruning_database()
        expected = {query: self.fresh(query, database) for query in queries}
        pruned_once = {}
        for query in queries:
            tracer = Tracer()
            with connect(database, semantics="prob", model=make_model(), tracer=tracer) as s:
                s.query(query).confidence()
            pruned_once[query] = self.traced(tracer)[0]["pruned"]
        assert max(pruned_once.values()) > 0

        tracer = Tracer()
        session = connect(database, semantics="prob", model=make_model(), tracer=tracer)
        failures = []
        threads_count, rounds = 4, 30  # more threads than cores

        def worker(offset):
            try:
                for index in range(rounds):
                    query = queries[(index + offset) % len(queries)]
                    if session.query(query).confidence() != expected[query]:
                        failures.append(query)
            except Exception as error:  # noqa: BLE001 - reported below
                failures.append(error)

        interval = sys.getswitchinterval()
        try:
            session.freeze(warm=[JOIN])
            sys.setswitchinterval(1e-6)
            threads = [threading.Thread(target=worker, args=(k,)) for k in range(threads_count)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
            assert not any(thread.is_alive() for thread in threads)
        finally:
            sys.setswitchinterval(interval)
            session.close()
        assert failures == []
        spans = [s for s in tracer.spans() if s.name == "ctable.execute"]
        assert len(spans) == 1 + threads_count * rounds
        # Each thread ran each query rounds / 3 times; the warm-up ran JOIN
        # once.  A count kept on a shared build side would drift.
        per_thread = rounds // len(queries) * sum(pruned_once.values())
        total = sum(s.attrs["pruned"] for s in spans)
        assert total == pruned_once[JOIN] + threads_count * per_thread
