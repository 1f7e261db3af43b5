"""Worker-pool resilience: SIGKILLed children, deterministic child failures.

The differential contract: a pool whose children are killed mid-run must
produce *answers identical to* ``workers=None`` (the failed chunks take
the sequential road), while a world whose evaluation fails
deterministically must surface as :class:`WorkerPoolError` naming the
world — never a silently dropped chunk, never a half-intersection.
"""

import multiprocessing
import os
import signal

import pytest

import repro
from repro import Database, Null, WorkerPoolError
from repro.algebra import parse_ra
from repro.semantics.certain import (
    enumerate_certain_answers,
    enumerate_certain_boolean,
)

QUERY = parse_ra("project[#0](R)")


def _database():
    return Database.from_dict({"R": [(1,), (2,), (3,), (Null("x"),)]})


# ---------------------------------------------------------------------------
# Module-level evaluators: picklable, and safe to import in pool children.
# ---------------------------------------------------------------------------
def _evaluate_world(world):
    return QUERY.evaluate(world)


def _killer_evaluate(world):
    # Dies by SIGKILL -- but only inside a pool child.  The parent's
    # sequential re-run of the same chunk evaluates normally, which is
    # exactly the recovery the differential below asserts on.
    if multiprocessing.parent_process() is not None:
        os.kill(os.getpid(), signal.SIGKILL)
    return _evaluate_world(world)


def _killer_boolean(world):
    if multiprocessing.parent_process() is not None:
        os.kill(os.getpid(), signal.SIGKILL)
    return bool(_evaluate_world(world))


class _WorldBomb(Exception):
    """A deterministic per-world failure (fails in child *and* parent)."""


def _bomb_everywhere(world):
    raise _WorldBomb("this query is broken for every world")


class TestKilledChildren:
    def test_sigkilled_pool_matches_sequential(self):
        database = _database()
        sequential = enumerate_certain_answers(
            _evaluate_world, database, semantics="cwa"
        )
        survived = enumerate_certain_answers(
            _killer_evaluate, database, semantics="cwa", workers=2
        )
        assert survived == sequential
        assert {(1,), (2,), (3,)} <= set(survived.rows)

    def test_sigkilled_boolean_pool_matches_sequential(self):
        database = _database()
        sequential = enumerate_certain_boolean(
            lambda world: bool(_evaluate_world(world)), database, semantics="cwa"
        )
        survived = enumerate_certain_boolean(
            _killer_boolean, database, semantics="cwa", workers=2
        )
        assert survived is sequential is True

    def test_session_workers_agree_with_sequential_session(self):
        database = _database()
        with repro.connect(database, workers=2) as parallel_session, repro.connect(
            database
        ) as sequential_session:
            parallel = parallel_session.query(QUERY).certain(method="enumeration")
            sequential = sequential_session.query(QUERY).certain(
                method="enumeration"
            )
        assert parallel == sequential


class TestDeterministicChildFailures:
    def test_deterministic_failure_raises_worker_pool_error_with_world(self):
        database = _database()
        with pytest.raises(WorkerPoolError) as err:
            enumerate_certain_answers(
                _bomb_everywhere, database, semantics="cwa", workers=2
            )
        # The parent's re-run identified the culprit world and chained
        # the original exception.
        assert isinstance(err.value.world, Database)
        assert isinstance(err.value.__cause__, _WorldBomb)

    def test_worker_pool_error_is_typed(self):
        from repro import ReproError

        assert issubclass(WorkerPoolError, ReproError)
        error = WorkerPoolError("boom", world="w")
        assert error.world == "w"
