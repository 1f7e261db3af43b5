"""Chaos differential suite: ~200 randomized (query, fault-schedule) pairs.

Every pair wires a randomized fault schedule (or budget) into a live
session and asserts the robustness contract:

* the outcome is the **correct answer**, a **sound subset flagged
  partial**, or a **typed** :class:`repro.ReproError` — never a wrong
  answer, and never a raw infrastructure exception from a recoverable
  path;
* no evaluation hangs past its deadline (deadlines are driven by
  deterministic :class:`~repro.resilience.ManualClock` instances, plus
  one real-clock smoke test);
* no pair leaks a spilled temp table on the backend connection.

Three populations: sqlite-backend fault schedules (transient and
persistent), plan-engine budget expiries under every ``on_budget``
policy, and homomorphism-layer budgets (block caps and deadlines).
"""

import random
import warnings

import pytest

import repro
from repro import BudgetExceeded, PartialResult, ReproError
from repro.backends.faults import FaultSchedule, inject_faults
from repro.resilience import BackendRecoveryWarning, Budget, ManualClock, budget_scope
from repro.workloads import (
    random_database,
    random_full_ra_query,
    random_positive_query,
)

SQLITE_FAULT_SEEDS = list(range(80))
BUDGET_SEEDS = list(range(80))
HOM_SEEDS = list(range(40))

#: Backend operations a random schedule may fail.  Indexes stay small so
#: both the retry path (<= 3 consecutive faults recover in place) and the
#: give-up path (4+ exhaust the retries and recover in-memory) occur.
_FAULTABLE_OPS = ("evaluate", "replace_database", "execute_cursor", "fetch")


def _random_schedule(rng):
    plan = {}
    for op in _FAULTABLE_OPS:
        if rng.random() < 0.45:
            start = rng.randint(1, 2)
            plan[op] = set(range(start, start + rng.randint(1, 4)))
    return FaultSchedule(plan)


def _leaked_temp_tables(connection):
    rows = connection.execute(
        "SELECT name FROM sqlite_temp_master "
        "WHERE type = 'table' AND name LIKE '\\_repro\\_tmp%' ESCAPE '\\'"
    ).fetchall()
    return [row[0] for row in rows]


@pytest.mark.parametrize("seed", SQLITE_FAULT_SEEDS)
def test_sqlite_fault_pairs_never_answer_wrong(seed):
    rng = random.Random(seed)
    database = random_database(
        num_relations=2, arity=2, rows_per_relation=4, num_constants=4,
        num_nulls=2, seed=seed,
    )
    query = random_positive_query(database.schema, seed=seed)
    with repro.connect(database, engine="plan") as oracle_session:
        oracle = oracle_session.query(query).certain()

    schedule = _random_schedule(rng)
    session = repro.connect(database, engine="sqlite")
    backend = inject_faults(session, schedule)
    try:
        with warnings.catch_warnings():
            # In-memory recovery warnings are an expected chaos outcome.
            warnings.simplefilter("ignore", BackendRecoveryWarning)
            try:
                answer = session.query(query).certain()
            except ReproError:
                # A typed failure is an acceptable outcome; a wrong answer
                # or a raw driver exception is not.
                answer = None
        if answer is not None:
            assert answer == oracle, f"seed {seed}: faulted session answered wrong"
        assert _leaked_temp_tables(backend.connection) == []
    finally:
        session.close()


@pytest.mark.parametrize("seed", BUDGET_SEEDS)
def test_budget_pairs_degrade_soundly(seed):
    rng = random.Random(seed)
    database = random_database(
        num_relations=2, arity=2, rows_per_relation=4, num_constants=4,
        num_nulls=2, seed=1000 + seed,
    )
    if rng.random() < 0.5:
        query = random_positive_query(database.schema, seed=seed)
    else:
        query = random_full_ra_query(database.schema, seed=seed)
    policy = rng.choice(("degrade", "raise", "partial"))
    if rng.random() < 0.5:
        budget = Budget(max_worlds=rng.randint(1, 40))
    else:
        # A deterministic deadline: expires after deadline/step checks.
        budget = Budget(
            deadline=float(rng.randint(1, 30)),
            clock=ManualClock(step=rng.choice((0.25, 1.0, 4.0))),
        )

    with repro.connect(database) as session:
        oracle = session.query(query).certain(method="enumeration")
        q = session.query(query)
        try:
            answer = q.certain(method="enumeration", budget=budget, on_budget=policy)
        except BudgetExceeded:
            # 'raise' always may; 'degrade' only when nothing sound exists.
            assert policy in ("raise", "degrade")
            return
        if isinstance(answer, PartialResult):
            assert policy == "partial"
            assert set(answer.rows) <= set(oracle.rows), (
                f"seed {seed}: partial result is not a sound subset"
            )
        else:
            # A plain relation: sound always, exact when nothing degraded.
            assert set(answer.rows) <= set(oracle.rows), (
                f"seed {seed}: degraded answer is not a sound subset"
            )
            if q._resilience_verdict is None:
                assert answer == oracle, f"seed {seed}: unbudgeted path diverged"


@pytest.mark.parametrize("seed", HOM_SEEDS)
def test_homomorphism_budget_pairs(seed):
    from repro.homomorphisms.core import core, is_core

    rng = random.Random(seed)
    database = random_database(
        num_relations=2, arity=2, rows_per_relation=5, num_constants=3,
        num_nulls=3, seed=2000 + seed,
    )
    unbudgeted = core(database)
    if rng.random() < 0.5:
        budget = Budget(max_block_size=rng.randint(1, 6))
    else:
        budget = Budget(
            deadline=float(rng.randint(1, 50)),
            clock=ManualClock(step=rng.choice((0.05, 0.5, 2.0))),
        )
    try:
        with budget_scope(budget.start()):
            bounded = core(database)
    except BudgetExceeded as error:
        assert error.resource in ("block", "deadline")
        return
    # A budget that never trips must not change the computation.
    assert bounded == unbudgeted
    assert is_core(bounded)


def test_possible_answers_budget_is_typed():
    database = random_database(num_nulls=2, seed=7)
    query = random_positive_query(database.schema, seed=7)
    with repro.connect(database) as session:
        oracle = session.query(query).possible()
        try:
            answer = session.query(query).possible(budget=Budget(max_worlds=3))
        except BudgetExceeded:
            return
        assert answer == oracle


def test_boolean_budget_is_typed():
    database = random_database(num_nulls=2, seed=11)
    query = random_positive_query(database.schema, seed=11)
    with repro.connect(database) as session:
        oracle = session.query(query).boolean()
        try:
            answer = session.query(query).boolean(budget=Budget(max_worlds=3))
        except BudgetExceeded:
            return
        assert answer == oracle
