"""Differential tests: the physical engine must agree with the interpreter.

The seed's tree-walking interpreter (``engine="interpreter"``) is the
oracle; the optimizing engine (``engine="plan"``) must produce identical
relations — same schema, same rows — on every query/database pair,
including databases with repeated marked nulls, or raise the same class
of error.  Over 200 randomized pairs are checked per run, spanning the
positive fragment, full RA with difference, and RA_cwa division queries.
"""

import pytest

import repro
from repro.algebra.ast import (
    ActiveDomain,
    ConstantRelation,
    Delta,
    Division,
    difference,
    intersection,
    join,
    product,
    project,
    relation,
    rename,
    select,
    union,
)
from repro.algebra.predicates import Attr, Comparison, PAnd, POr, PNot, eq
from repro.datamodel import Database, Null, Relation
from repro.workloads import (
    enrolment,
    orders_payments,
    random_database,
    random_full_ra_query,
    random_positive_query,
    random_ra_cwa_query,
)

POSITIVE_SEEDS = list(range(60))
FULL_RA_SEEDS = list(range(60))
DIVISION_SEEDS = list(range(40))
NULL_HEAVY_SEEDS = list(range(40))


def _both_ways(query, database):
    """Evaluate with both engines, mapping exceptions to comparable markers."""
    results = []
    for engine in ("plan", "interpreter"):
        try:
            results.append(repro.connect(database, engine=engine).query(query).answer_object())
        except Exception as error:  # noqa: BLE001 - parity check on error class
            results.append(("error", type(error).__name__))
    plan_result, interpreter_result = results
    assert plan_result == interpreter_result, (
        f"engine mismatch for {query}:\n plan: {plan_result}\n intp: {interpreter_result}"
    )


@pytest.mark.parametrize("seed", POSITIVE_SEEDS)
def test_positive_queries_agree(seed):
    database = random_database(
        num_relations=3, arity=2, rows_per_relation=6, num_constants=4, num_nulls=2, seed=seed
    )
    _both_ways(random_positive_query(database.schema, depth=3, seed=seed), database)


@pytest.mark.parametrize("seed", FULL_RA_SEEDS)
def test_full_ra_queries_agree(seed):
    database = random_database(
        num_relations=3, arity=2, rows_per_relation=6, num_constants=4, num_nulls=2, seed=seed
    )
    _both_ways(random_full_ra_query(database.schema, seed=seed), database)


@pytest.mark.parametrize("seed", DIVISION_SEEDS)
def test_division_queries_agree(seed):
    database = random_database(
        num_relations=2, arity=3, rows_per_relation=8, num_constants=3, num_nulls=2, seed=seed
    )
    _both_ways(random_ra_cwa_query(database.schema, "R0", "R1", seed=seed), database)


@pytest.mark.parametrize("seed", NULL_HEAVY_SEEDS)
def test_null_heavy_databases_agree(seed):
    # Many repeated nulls relative to the number of positions: joins and
    # set operations must treat each marked null as equal only to itself.
    database = random_database(
        num_relations=2, arity=2, rows_per_relation=8, num_constants=2, num_nulls=4, seed=seed
    )
    _both_ways(random_positive_query(database.schema, depth=3, seed=seed + 1), database)
    _both_ways(random_full_ra_query(database.schema, seed=seed + 1), database)


def test_scenario_queries_agree():
    orders = orders_payments(num_orders=25, num_payments=10, null_fraction=0.5, seed=3)
    unpaid = difference(
        project(relation("Orders"), ("o_id",)),
        rename(project(relation("Pay"), ("ord",)), "Paid", ("o_id",)),
    )
    _both_ways(unpaid, orders)

    school = enrolment(num_students=6, num_courses=3, null_fraction=0.3, seed=3)
    takes_all = Division(relation("Enroll"), relation("Courses"))
    _both_ways(takes_all, school)


def test_handcrafted_edge_cases_agree():
    database = Database.from_relations(
        [
            Relation.create("R", [(1, 2), (2, 3), (3, 3), (Null("x"), 2), (Null("x"), Null("y"))]),
            Relation.create("S", [(2, "a"), (3, "b"), (Null("y"), "c")]),
            Relation.create("T", [(2,), (5,)]),
            Relation.create("Empty", [], arity=2),
        ]
    )
    cases = [
        Delta(),
        ActiveDomain(),
        join(rename(relation("R"), "A", ("x", "y")), rename(relation("S"), "B", ("y", "z"))),
        union(relation("R"), relation("Empty")),
        difference(relation("Empty"), relation("R")),
        intersection(project(relation("R"), (1,)), relation("T")),
        select(relation("R"), POr((eq(Attr(0), 1), PNot(eq(Attr(1), 2))))),
        select(
            product(relation("R"), product(relation("S"), relation("T"))),
            PAnd((Comparison(Attr(1), "=", Attr(2)), Comparison(Attr(3), "=", Attr(4)))),
        ),
        ConstantRelation(Relation.create("C", [(2,), (7,)])).product(relation("T")),
        project(relation("R"), (1, 1, 0)),  # duplicated column
        Division(relation("R"), project(relation("T"), (0,))),
        select(product(relation("R"), relation("Empty")), Comparison(Attr(1), "=", Attr(2))),
    ]
    for query in cases:
        _both_ways(query, database)


def test_pair_budget_is_at_least_200():
    assert (
        len(POSITIVE_SEEDS) + len(FULL_RA_SEEDS) + len(DIVISION_SEEDS) + 2 * len(NULL_HEAVY_SEEDS)
        >= 200
    )
