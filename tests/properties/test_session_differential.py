"""Differential suite through the session API: 200+ pairs, zero shared state.

Every pair is answered by three *live, concurrent* sessions — ``plan``,
``interpreter`` and ``sqlite`` — that must return identical certain
answers while provably sharing no mutable evaluation state (plan caches
and condition kernels are distinct objects, and none of them is the
process-default).  The module-scoped sessions stay open across all pairs,
so the suite also exercises the persistent-backend path: one SQLite
handle serves hundreds of different databases.

This suite is deprecation-clean by construction: the CI leg runs it under
``-W error::DeprecationWarning`` to guarantee the library never calls its
own deprecated entry points on the session path.
"""

import pytest

import repro
from repro.workloads import (
    enrolment,
    orders_payments,
    random_database,
    random_full_ra_query,
    random_positive_query,
    random_ra_cwa_query,
)

POSITIVE_SEEDS = list(range(80))
FULL_RA_SEEDS = list(range(60))
DIVISION_SEEDS = list(range(40))
NULL_HEAVY_SEEDS = list(range(30))


@pytest.fixture(scope="module")
def sessions():
    trio = {
        "plan": repro.connect(engine="plan", kernel_watermark=4096),
        "interpreter": repro.connect(engine="interpreter"),
        "sqlite": repro.connect(engine="sqlite"),
    }
    # state disjointness is a precondition of the whole suite
    kernels = [session.kernel for session in trio.values()]
    caches = [session.plan_cache for session in trio.values()]
    assert len({id(k) for k in kernels}) == len(kernels)
    assert len({id(c) for c in caches}) == len(caches)
    for session in trio.values():
        assert session.plan_cache.kernel is session.kernel
    yield trio
    for session in trio.values():
        session.close()


def _all_sessions_agree(sessions, query, database, method="auto"):
    results = []
    for name, session in sessions.items():
        try:
            results.append((name, session.query(query, database=database).certain(method=method)))
        except Exception as error:  # noqa: BLE001 - error-class parity
            results.append((name, ("error", type(error).__name__)))
    baseline_name, baseline = results[0]
    for name, result in results[1:]:
        assert result == baseline, (
            f"session mismatch for {query}:\n {baseline_name}: {baseline}\n {name}: {result}"
        )


@pytest.mark.parametrize("seed", POSITIVE_SEEDS)
def test_positive_pairs_agree_across_sessions(sessions, seed):
    database = random_database(
        num_relations=3, arity=2, rows_per_relation=6, num_constants=4, num_nulls=2, seed=seed
    )
    query = random_positive_query(database.schema, depth=3, seed=seed)
    _all_sessions_agree(sessions, query, database)


@pytest.mark.parametrize("seed", FULL_RA_SEEDS)
def test_full_ra_pairs_agree_on_naive_evaluation(sessions, seed):
    # Full-RA queries force the enumeration strategy under method="auto",
    # which is exponential; the engines are differentially compared on
    # the naive strategy (the evaluation itself) instead.
    database = random_database(
        num_relations=3, arity=2, rows_per_relation=6, num_constants=4, num_nulls=2, seed=seed
    )
    query = random_full_ra_query(database.schema, seed=seed)
    _all_sessions_agree(sessions, query, database, method="naive")


@pytest.mark.parametrize("seed", DIVISION_SEEDS)
def test_division_pairs_agree_across_sessions(sessions, seed):
    database = random_database(
        num_relations=2, arity=3, rows_per_relation=8, num_constants=3, num_nulls=2, seed=seed
    )
    query = random_ra_cwa_query(database.schema, "R0", "R1", seed=seed)
    _all_sessions_agree(sessions, query, database)


@pytest.mark.parametrize("seed", NULL_HEAVY_SEEDS)
def test_null_heavy_pairs_agree_across_sessions(sessions, seed):
    database = random_database(
        num_relations=2, arity=2, rows_per_relation=8, num_constants=2, num_nulls=4, seed=seed
    )
    _all_sessions_agree(
        sessions, random_positive_query(database.schema, depth=3, seed=seed + 1), database
    )


def test_scenario_pairs_agree_across_sessions(sessions):
    from repro.algebra.ast import Division, difference, project, relation, rename

    orders = orders_payments(num_orders=20, num_payments=8, null_fraction=0.5, seed=3)
    unpaid = difference(
        project(relation("Orders"), ("o_id",)),
        rename(project(relation("Pay"), ("ord",)), "Paid", ("o_id",)),
    )
    _all_sessions_agree(sessions, unpaid, orders, method="naive")

    school = enrolment(num_students=6, num_courses=3, null_fraction=0.3, seed=3)
    _all_sessions_agree(sessions, Division(relation("Enroll"), relation("Courses")), school)


def test_sessions_shared_nothing_after_the_whole_run(sessions):
    # After 200+ evaluations the kernels must still be disjoint down to
    # the individual canonical nodes.
    node_sets = [
        {id(node) for node in session.kernel._intern.values()}
        for session in sessions.values()
    ]
    for i in range(len(node_sets)):
        for j in range(i + 1, len(node_sets)):
            assert not (node_sets[i] & node_sets[j])
