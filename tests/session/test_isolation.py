"""Session isolation: disjoint state, identical answers, thread safety."""

import os
import subprocess
import sys
import threading

import pytest

import repro
from repro import Database, Null, Relation
from repro.algebra import CTableDatabase, parse_ra
from repro.workloads import random_database, random_positive_query


@pytest.fixture
def db():
    return Database.from_relations(
        [
            Relation.create("R", [(1, 2), (2, 3), (Null("x"), 2)], attributes=("a", "b")),
            Relation.create("S", [(2, "p"), (Null("x"), "q")], attributes=("b", "c")),
        ]
    )


QUERY = parse_ra("project[a](join(R, S))")


class TestStateDisjointness:
    def test_sessions_share_no_cache_objects(self, db):
        one = repro.connect(db, engine="plan")
        two = repro.connect(db, engine="sqlite")
        assert one.kernel is not two.kernel
        assert one.plan_cache is not two.plan_cache
        assert one.plan_cache._cache is not two.plan_cache._cache
        assert one.kernel._intern is not two.kernel._intern
        for session in (one, two):
            assert session.plan_cache.kernel is session.kernel

    def test_a_session_holds_the_only_evaluation_state(self):
        # No process-global plan cache or kernel: after a plan-engine
        # certain() and possible() in a fresh interpreter, the only live
        # PlanCache and ConditionKernel are the session's own.
        code = (
            "import gc\n"
            "import repro\n"
            "from repro.algebra import parse_ra\n"
            "from repro.datamodel import ConditionKernel, Database, Null\n"
            "from repro.engine import PlanCache\n"
            "db = Database.from_dict({'R': [(1, 2), (2, Null('x'))]})\n"
            "session = repro.connect(db)\n"
            "query = session.query(parse_ra('project[#0](R)'))\n"
            "query.certain()\n"
            "query.possible()\n"
            "gc.collect()\n"
            "live = gc.get_objects()\n"
            "caches = [o for o in live if isinstance(o, PlanCache)]\n"
            "kernels = [o for o in live if isinstance(o, ConditionKernel)]\n"
            "assert len(caches) == 1 and caches[0] is session.plan_cache, caches\n"
            "assert len(kernels) == 1 and kernels[0] is session.kernel, kernels\n"
            "print('ok')\n"
        )
        src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.abspath(src) + os.pathsep + env.get("PYTHONPATH", "")
        result = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, env=env
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip() == "ok"

    def test_identical_answers_with_different_engines_and_kernels(self, db):
        sessions = [
            repro.connect(db, engine="plan", kernel_watermark=8),
            repro.connect(db, engine="interpreter"),
            repro.connect(db, engine="sqlite"),
        ]
        answers = [session.query(QUERY).certain() for session in sessions]
        assert answers[0] == answers[1] == answers[2]
        # evaluation populated only each session's own plan cache
        assert len(sessions[0].plan_cache) > 0
        assert len(sessions[1].plan_cache) == 0  # interpreter plans nothing

    def test_ctable_evaluation_uses_session_kernel(self, db):
        one = repro.connect(db, engine="plan")
        two = repro.connect(db, engine="plan")
        ctdb = CTableDatabase.from_database(db)
        first = one.evaluate_ctable(QUERY, ctdb)
        second = two.evaluate_ctable(QUERY, ctdb)
        assert one.kernel.stats()["interned"] > 0
        assert two.kernel.stats()["interned"] > 0
        # same worlds, disjoint kernels: no canonical node is shared
        one_nodes = {id(node) for node in one.kernel._intern.values()}
        two_nodes = {id(node) for node in two.kernel._intern.values()}
        assert not (one_nodes & two_nodes)
        assert first.schema == second.schema

    def test_clearing_one_session_leaves_the_other_warm(self, db):
        one = repro.connect(db)
        two = repro.connect(db)
        one.query(QUERY).certain()
        two.query(QUERY).certain()
        one.clear_caches()
        assert len(one.plan_cache) == 0
        assert len(two.plan_cache) > 0


class TestDifferentialAcrossSessions:
    SEEDS = range(12)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_engine_pairs_agree_per_seed(self, seed):
        database = random_database(
            num_relations=2, arity=2, rows_per_relation=6, num_constants=4,
            num_nulls=2, seed=seed,
        )
        query = random_positive_query(database.schema, depth=3, seed=seed)
        plan = repro.connect(database, engine="plan")
        interp = repro.connect(database, engine="interpreter")
        sqlite = repro.connect(database, engine="sqlite")
        results = [s.query(query).certain() for s in (plan, interp, sqlite)]
        assert results[0] == results[1] == results[2]


class TestThreadSafetySmoke:
    def test_two_sessions_run_concurrently(self):
        databases = [
            random_database(
                num_relations=2, arity=2, rows_per_relation=8, num_constants=4,
                num_nulls=2, seed=seed,
            )
            for seed in range(6)
        ]
        queries = [
            random_positive_query(databases[i].schema, depth=3, seed=i)
            for i in range(6)
        ]
        errors = []
        results = {}

        def work(name, engine):
            try:
                session = repro.connect(engine=engine)
                out = []
                for _ in range(5):
                    for database, query in zip(databases, queries):
                        out.append(session.query(query, database=database).certain())
                results[name] = out
            except Exception as error:  # noqa: BLE001 - surfaced via the main thread
                errors.append((name, error))

        threads = [
            threading.Thread(target=work, args=("plan", "plan")),
            threading.Thread(target=work, args=("sqlite", "sqlite")),
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        assert not errors, errors
        assert results["plan"] == results["sqlite"]
