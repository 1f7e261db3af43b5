"""Tests for the ``workers=`` fan-out of world-enumeration certain answers."""

import pickle

import repro
import repro.semantics.certain as certain_module
from repro.algebra import parse_ra
from repro.datamodel import Database, Null, Relation
from repro.semantics import enumerate_certain_answers, enumerate_certain_boolean

QUERY = parse_ra("diff(R, S)")
PROJECT = parse_ra("project[#0](R)")


def _database(num_rows=5, num_nulls=2):
    return Database.from_relations(
        [
            Relation.create(
                "R",
                [(i,) for i in range(num_rows)] + [(Null(f"r{i}"),) for i in range(num_nulls)],
                attributes=("A",),
            ),
            Relation.create("S", [(1,), (Null("s0"),)], attributes=("A",)),
        ]
    )


def _nonempty_database():
    return Database.from_relations(
        [
            Relation.create("R", [(1,), (2,), (Null("x"),)], attributes=("A",)),
            Relation.create("S", [], attributes=("A",)),
        ]
    )


class TestParallelCertainAnswers:
    def test_workers_match_sequential(self):
        database = _database()
        sequential = enumerate_certain_answers(QUERY.evaluate, database, "cwa")
        parallel = enumerate_certain_answers(QUERY.evaluate, database, "cwa", workers=2)
        assert sequential == parallel

    def test_workers_match_sequential_nonempty_answer(self):
        database = _nonempty_database()
        sequential = enumerate_certain_answers(PROJECT.evaluate, database, "cwa")
        parallel = enumerate_certain_answers(PROJECT.evaluate, database, "cwa", workers=2)
        assert sequential == parallel
        assert {(1,), (2,)} <= set(parallel.rows)

    def test_unpicklable_query_falls_back_to_sequential(self):
        database = _database(num_rows=3, num_nulls=1)
        unpicklable = lambda world: QUERY.evaluate(world)  # noqa: E731
        sequential = enumerate_certain_answers(QUERY.evaluate, database, "cwa")
        fallback = enumerate_certain_answers(unpicklable, database, "cwa", workers=4)
        assert sequential == fallback

    def test_workers_one_is_sequential(self):
        database = _database(num_rows=3, num_nulls=1)
        assert enumerate_certain_answers(
            QUERY.evaluate, database, "cwa", workers=1
        ) == enumerate_certain_answers(QUERY.evaluate, database, "cwa")


class TestParallelCertainBoolean:
    def test_boolean_matches_sequential(self):
        database = _nonempty_database()
        evaluate = PROJECT.evaluate  # picklable bound method

        def as_bool(world):
            return bool(evaluate(world))

        # module-locals are not picklable either; exercise the fallback
        sequential = enumerate_certain_boolean(as_bool, database, "cwa")
        parallel = enumerate_certain_boolean(as_bool, database, "cwa", workers=2)
        assert sequential == parallel is True

    def test_boolean_parallel_false(self):
        database = _database(num_rows=2, num_nulls=1)
        assert (
            enumerate_certain_boolean(_r_has_at_least_four_rows, database, "cwa", workers=2)
            is enumerate_certain_boolean(_r_has_at_least_four_rows, database, "cwa")
            is False
        )

    def test_boolean_parallel_true(self):
        database = _database(num_rows=2, num_nulls=1)
        assert enumerate_certain_boolean(_r_is_nonempty, database, "cwa", workers=2) is True


class TestEvaluatedExpressionsStayPicklable:
    def test_expression_pickles_after_a_plan_session_evaluation(self, monkeypatch):
        database = _nonempty_database()
        expression = parse_ra("diff(R, S)")
        with repro.connect(database) as sequential:
            expected_object = sequential.query(expression).answer_object()
            expected_certain = sequential.query(parse_ra("diff(R, S)")).certain()
        with repro.connect(database, workers=2) as session:
            assert session.query(expression).answer_object() == expected_object
            clone = pickle.loads(pickle.dumps(expression))
            assert clone == expression
            assert session.query(clone).answer_object() == expected_object

            verdicts = []
            real = certain_module._can_pickle

            def spy(value):
                verdicts.append(real(value))
                return verdicts[-1]

            monkeypatch.setattr(certain_module, "_can_pickle", spy)
            assert session.query(expression).certain(method="enumeration") == expected_certain
        assert verdicts == [True]  # the pool path ran, not the silent fallback


# module-level so they can cross a process boundary
def _r_has_at_least_four_rows(world):
    return len(world.relation("R")) >= 4


def _r_is_nonempty(world):
    return len(world.relation("R")) > 0
